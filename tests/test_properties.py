"""Properties of the bandwidth stage and the curve commands on random
inputs the CLI accepts.

Samples of 1 to 60 rows, with ties, 0-100 % censoring and magnitudes
from 1e-310 to 1e300, go through estimate and survival (default kernel
and Gaussian, standardized) and bandwidth (auto and cv), in process.
Each run exits 0, 4 or 5, never with a traceback, and writes exactly one
strict JSON document: to stdout on success, else to stderr.
"""
from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ftcdf.cli import main
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
@given(sample_csvs())
def test_cli_contract_on_random_samples(text):
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
    if np.all(sample.event):
        km, ecdf = kaplan_meier(sample), edf(sample)
        assert km.locations.tobytes() == ecdf.locations.tobytes()
        assert km.heights.tobytes() == ecdf.heights.tobytes()
