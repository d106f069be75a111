"""The Python examples of README.md run as written: every ```python block,
in order, in one namespace, as a reader pasting them into one session."""
from __future__ import annotations

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"
_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


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
