"""Properties of the bandwidth stage, the curve commands and deficiency
on random inputs the CLI accepts.

Samples of 1 to 60 rows, with ties, 0-100 % censoring and magnitudes
from 1e-310 to 1e300, go through estimate and survival (default kernel
and Gaussian, standardized; and smooth kernels off the reference at a
fixed bandwidth) and bandwidth (auto and cv), in process.  deficiency
takes argv drawn from the parser's own choices, with valid and invalid
values.  Each run exits 0, 4 or 5, never with a traceback, and writes
exactly one strict JSON document: to stdout on success, else to stderr.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ftcdf.cli import build_parser, main
from ftcdf.estimators import edf
from ftcdf.io import read_sample_csv
from ftcdf.survival import kaplan_meier

RUNS = (
    ["estimate", "--standardize"],
    ["estimate", "--standardize", "--kernel", "gaussian"],
    ["survival", "--standardize"],
    ["survival", "--standardize", "--kernel", "gaussian"],
    ["bandwidth", "--method", "auto"],
    ["bandwidth", "--method", "cv"],
)
# flat radii drawn for the kernels; a small set keeps tables and cross
# moments cached.  The smooth family at c = 0.75 is refused (exit 5):
# its tail reaches past what its Gauss-Legendre transforms can resolve.
RADII = (0.05, 0.1, 0.3, 0.75)
SMOOTH_RADII = RADII


def _choices(command: str, flag: str):
    """The choices the parser offers for flag of command."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions
                if flag in a.option_strings)


KERNELS = _choices("deficiency", "--kernel")
ASSUMPTIONS = _choices("deficiency", "--assumption")


@st.composite
def sample_csvs(draw) -> str:
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # rounding to few digits makes ties
    x = np.round(rng.standard_normal(n), draw(st.integers(0, 17)))
    # the threshold rule needs a data scale near 1 (its window is in
    # absolute frequency units), so unit magnitudes and the two extremes
    # are drawn as often as all the others together
    scale = 10.0 ** draw(st.one_of(st.sampled_from((0, 0, -310, 300)),
                                   st.integers(-310, 300)))
    censored = rng.random(n) < draw(st.floats(0.0, 1.0))
    return "time,event\n" + "".join(f"{t * scale!r},{int(not c)}\n"
                                    for t, c in zip(x.tolist(), censored))


def _one_document(text: str) -> dict:
    """The single strict JSON document text holds; fails otherwise."""
    def refuse(constant):
        raise AssertionError(f"non-finite number {constant} in {text!r}")

    doc = json.loads(text, parse_constant=refuse)
    assert isinstance(doc, dict), text
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sample_csvs(), st.sampled_from(SMOOTH_RADII))
def test_cli_contract_on_random_samples(text, c):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sample.csv"
        path.write_text(text)
        for run in RUNS:
            argv = [run[0], "--input", str(path), *run[1:]]
            code, out, err = _run(argv)
            assert code in (0, 4, 5), (argv, code, err)
            doc = _one_document(out if code == 0 else err)
            assert (err if code == 0 else out) == "", argv
            # a curve document carries the standardized values
            values = doc.get("value", [])
            steps = np.diff(values)
            assert np.all(steps <= 0 if run[0] == "survival"
                          else steps >= 0), argv
            assert all(0.0 <= v <= 1.0 for v in values), argv
        sample = read_sample_csv(str(path))
        # a smooth kernel off the reference has no rule radius, and a
        # fixed bandwidth needs none; only a sample without events,
        # censored data passed to estimate, or the untabulable c = 0.75
        # is refused
        for command in ("estimate", "survival"):
            argv = [command, "--input", str(path), "--kernel", "smooth",
                    "--c", repr(c), "--bandwidth", "0.3", "--grid",
                    "-1:1:9"]
            code, out, err = _run(argv)
            fits = c != 0.75 and sample.event.any() and (
                command == "survival" or sample.event.all())
            assert code == (0 if fits else 5), (argv, code, err)
            doc = _one_document(out if fits else err)
            if fits:
                assert doc["resolved_config"]["kernel"]["effective_c"] == (
                    0.5 if c == 0.05 else None)
                assert np.all(np.isfinite(doc["value"])), argv
    if np.all(sample.event):
        km, ecdf = kaplan_meier(sample), edf(sample)
        assert km.locations.tobytes() == ecdf.locations.tobytes()
        assert km.heights.tobytes() == ecdf.heights.tobytes()


_VALUES = st.one_of(st.none(), st.sampled_from((0.0, 0.5, 1.0, 2.0, -1.0)),
                    st.floats(-3.0, 3.0, allow_nan=False))
_SIZES = st.sampled_from(("1", "2", "100", "1e6", "1e300", "0.5", "-4",
                          "x"))


@st.composite
def deficiency_argvs(draw) -> list:
    argv = ["deficiency"]
    assumption = draw(st.none() | st.sampled_from(ASSUMPTIONS))
    if assumption is not None:
        argv += ["--assumption", assumption]
    elif draw(st.booleans()):
        argv += ["--expansion-base", "1:1:1:log-factor",
                 "--expansion-better", "1:1:2:log-factor"]
    kernel = draw(st.none() | st.sampled_from(KERNELS))
    if kernel is not None:
        argv += ["--kernel", kernel]
    radii = SMOOTH_RADII if kernel == "smooth" else RADII
    c = draw(st.none() | st.sampled_from(radii))
    if c is not None:
        argv += ["--c", repr(c)]
    for flag in ("--F", "--f", "--a", "--p", "--d"):
        value = draw(_VALUES)
        if value is not None:
            argv += [flag, repr(value)]
    sizes = draw(st.lists(_SIZES, min_size=1, max_size=3))
    return argv + ["--n", ",".join(sizes)]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(deficiency_argvs())
def test_deficiency_contract_on_parser_choices(argv):
    code, out, err = _run(argv)
    assert code in (0, 4, 5), (argv, code, err)
    doc = _one_document(out if code == 0 else err)
    assert (err if code == 0 else out) == "", argv
    if code == 0:
        values = [v["deficiency"] for v in doc["values"]]
        assert values and np.all(np.isfinite(values)), argv
