"""The examples of README.md hold as written: every ```python block runs,
in order, in one namespace, as a reader pasting them into one session,
and every `ftcdf` command of a ```sh block parses; and the byte corpus
holds as many commands as the README says."""
from __future__ import annotations

import importlib.util
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from ftcdf.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)
_SH_BLOCK = re.compile(r"^```sh\n(.*?)^```", re.MULTILINE | re.DOTALL)


def test_readme_python_examples_run(capsys):
    blocks = _PYTHON_BLOCK.findall(README.read_text(encoding="utf-8"))
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    F_hat, S_hat = namespace["F_hat"], namespace["S_hat"]
    assert np.all(np.diff(F_hat) >= 0.0) and np.all(np.diff(S_hat) <= 0.0)
    assert min(F_hat.min(), S_hat.min()) >= 0.0
    assert max(F_hat.max(), S_hat.max()) <= 1.0
    assert capsys.readouterr().out == namespace["report"].to_csv() + "\n"


def test_readme_commands_parse():
    text = README.read_text(encoding="utf-8")
    commands = [line for block in _SH_BLOCK.findall(text)
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("ftcdf ")]
    assert commands
    parser = build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_readme_counts_the_byte_corpus():
    spec = importlib.util.spec_from_file_location(
        "byte_corpus", ROOT / "tools" / "byte_corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    text = " ".join(README.read_text(encoding="utf-8").split())
    [count] = re.findall(r"(\d+) commands, all in one process", text)
    assert int(count) == len(list(corpus.commands()))
