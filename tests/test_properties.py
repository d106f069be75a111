"""Properties of the bandwidth stage, the curve commands and deficiency
on random inputs the CLI accepts.

Samples of 1 to 500 rows (mostly at most 60), with ties, 0-100 %
censoring and magnitudes from 1e-310 to 1e300, go through estimate and
survival (default kernel and Gaussian, standardized; smooth kernels off
the reference at a fixed bandwidth; and every kernel with a --boundary
at, below or just above the sample minimum) and bandwidth (auto and cv,
also on a drawn --freq-grid with --ecf-out, whose magnitudes must lie
in [0, 1]), in process.  estimate and survival also take --standardize,
--boundary, --bandwidth, --grid and --output drawn from the parser's
choices, and bandwidth an --effective-c inside and outside (0, 1]
under both methods; each such run exits with its documented code, and
a success's diagnostics.blas holds exactly libraries, caller_threads
and threads.  deficiency takes argv drawn from the parser's own
choices, with valid and invalid values, and kernel-table runs every
--kernel choice of the CLI at four flat radii and three tolerances.
Each run exits 0, 4 or 5 (2 for a kernel kernel-table does not offer),
never with a traceback, and writes exactly one strict JSON document: to
stdout on success, else to stderr.  A boundary above the sample minimum
is refused; at or below it, the CDF path is exactly 0 below the
boundary.  On uncensored samples survival is the EDF's total mass minus
estimate, bit for bit, for every kernel, bandwidth and boundary; and
small drawn studies write the same CSV at one and two workers.  Drawn
CSV files, plain or not, read to the row parser's bits or its error;
and scaling a sample, its grid, bandwidth and boundary by 2**k maps
the fixed-bandwidth curves, the ECF and the CV bandwidth bit for bit.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

import ftcdf.io as iolib
from ftcdf.cli import build_parser, main
from ftcdf.estimators import edf
from ftcdf.io import ParseError, parse_grid, read_sample_csv
from ftcdf.kernels import FlatTopSpec, get_table
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
def sample_csvs(draw, censoring=st.floats(0.0, 1.0)) -> str:
    # mostly small samples, which reach the edge cases; one in eight is
    # larger, up to 500 rows
    n = draw(st.integers(61, 500) if draw(st.integers(0, 7)) == 0
             else st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # rounding to few digits makes ties
    x = np.round(rng.standard_normal(n), draw(st.integers(0, 17)))
    # the threshold rule needs a data scale near 1 (its window is in
    # absolute frequency units), so unit magnitudes and the two extremes
    # are drawn as often as all the others together
    scale = 10.0 ** draw(st.one_of(st.sampled_from((0, 0, -310, 300)),
                                   st.integers(-310, 300)))
    censored = rng.random(n) < draw(censoring)
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
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
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


def _normal_csv(n: int, seed: int) -> str:
    x = np.random.default_rng(seed).standard_normal(n)
    return "time\n" + "".join(f"{t!r}\n" for t in x.tolist())


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sample_csvs(censoring=st.just(0.0)))
# drawn samples are mostly refused by the threshold rule (heavy ties or
# a scale far from 1); this one is selected from
@example(_normal_csv(37, 0))
def test_survival_is_total_mass_minus_estimate(text):
    # without censoring the Kaplan-Meier measure is the EDF bit for bit,
    # and the survival path is its total mass minus the smoothed CDF
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sample.csv"
        path.write_text(text)
        sample = read_sample_csv(str(path))
        total = edf(sample).total_mass
        lowest = repr(float(np.min(sample.times)))
        for kernel in _choices("estimate", "--kernel"):
            for bandwidth in ("auto", "0.5"):
                for boundary in ([], ["--boundary", lowest]):
                    argv = ["--input", str(path), "--kernel", kernel,
                            "--bandwidth", bandwidth, *boundary]
                    code, out, err = _run(["estimate", *argv])
                    assert code in (0, 5), (argv, code, err)
                    s_code, s_out, s_err = _run(["survival", *argv])
                    assert (s_code, s_err) == (code, err), argv
                    if code != 0:
                        continue
                    cdf, surv = _one_document(out), _one_document(s_out)
                    assert surv["t"] == cdf["t"], argv
                    want = total - np.array(cdf["value"])
                    assert np.array(surv["value"]).tobytes() == \
                        want.tobytes(), argv


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sample_csvs(), st.sampled_from(("at", "just below", "below",
                                        "above")),
       st.sampled_from(_choices("estimate", "--kernel")))
def test_boundary_contract(text, where, kernel):
    # at or below the sample minimum the fit runs, and the CDF path is
    # exactly 0 below the boundary (the survival path its total mass);
    # above it the sample is refused
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sample.csv"
        path.write_text(text)
        sample = read_sample_csv(str(path))
        lo, hi = float(np.min(sample.times)), float(np.max(sample.times))
        boundary = float({"at": lo, "just below": np.nextafter(lo, -np.inf),
                          "below": lo - (hi - lo),
                          "above": np.nextafter(lo, np.inf)}[where])
        # a fixed bandwidth on the data's scale: no selector can refuse
        h = (max(hi - lo, abs(lo), abs(hi)) or 1.0) / 4.0
        for command in ("estimate", "survival"):
            argv = [command, "--input", str(path), "--kernel", kernel,
                    "--bandwidth", repr(h), "--boundary", repr(boundary),
                    "--grid", f"{boundary - 2.0 * h!r}:{hi + 2.0 * h!r}:41"]
            code, out, err = _run(argv)
            uncensored = command == "survival" or sample.event.all()
            fits = where != "above" and sample.event.any() and uncensored
            assert code == (0 if fits else 5), (argv, code, err)
            doc = _one_document(out if fits else err)
            if where == "above" and uncensored:
                assert doc["error"]["message"] == (
                    "observations fall below the stated boundary"), argv
            if not fits:
                continue
            t, value = np.array(doc["t"]), np.array(doc["value"])
            assert t[0] < boundary, argv
            below = value[t < boundary]
            want = kaplan_meier(sample).total_mass \
                if command == "survival" else 0.0
            assert np.all(below == want), argv
            assert np.all(np.isfinite(value)), argv


def _check_documents(argv, code, out, err) -> dict:
    """The one document a run prints: on stdout, with the BLAS report,
    after exit 0; on stderr, as an error, after any other exit."""
    doc = _one_document(out if code == 0 else err)
    assert (err if code == 0 else out) == "", argv
    if code == 0:
        assert set(doc["diagnostics"]["blas"]) == {
            "libraries", "caller_threads", "threads"}, argv
    else:
        assert set(doc) == {"schema", "error"}, argv
    return doc


@st.composite
def curve_flags(draw) -> dict:
    """estimate/survival flags beyond the kernel, from the parser's own
    choices: where the boundary lies, auto or a drawn bandwidth, the
    default grid, a range or a list, and a CSV or inline output."""
    return {
        "command": draw(st.sampled_from(("estimate", "survival"))),
        "kernel": draw(st.sampled_from(_choices("estimate", "--kernel"))),
        "standardize": draw(st.booleans()),
        "boundary": draw(st.sampled_from((None, "below", "at", "above"))),
        # one in four is refused: not positive, not finite, not a number
        "bandwidth": draw(st.sampled_from(("auto", "scale"))
                          if draw(st.integers(0, 3))
                          else st.sampled_from(("0", "-1", "inf", "x"))),
        "grid": draw(st.sampled_from(("default", "range", "list"))),
        "output": draw(st.booleans()),
    }


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sample_csvs(censoring=st.just(0.0) | st.floats(0.0, 1.0)),
       curve_flags())
def test_curve_flags_contract(text, flags):
    with tempfile.TemporaryDirectory() as tmp:
        path, csv = Path(tmp) / "sample.csv", Path(tmp) / "curve.csv"
        path.write_text(text)
        sample = read_sample_csv(str(path))
        lo, hi = float(np.min(sample.times)), float(np.max(sample.times))
        h = (max(hi - lo, abs(lo), abs(hi)) or 1.0) / 4.0
        argv = [flags["command"], "--input", str(path),
                "--kernel", flags["kernel"], "--bandwidth",
                repr(h) if flags["bandwidth"] == "scale"
                else flags["bandwidth"]]
        if flags["standardize"]:
            argv.append("--standardize")
        where = flags["boundary"]
        if where is not None:
            boundary = {"below": lo - h, "at": lo,
                        "above": float(np.nextafter(lo, np.inf))}[where]
            argv += ["--boundary", repr(boundary)]
        points = 121  # the default grid
        if flags["grid"] == "range":
            points = 17
            argv += ["--grid", f"{lo - 2.0 * h!r}:{hi + 2.0 * h!r}:17"]
        elif flags["grid"] == "list":
            grid = np.unique([lo - h, lo, (lo + hi) / 2.0, hi, hi + h])
            points = grid.size
            argv += ["--grid", ",".join(map(repr, grid.tolist()))]
        if flags["output"]:
            argv += ["--output", str(csv)]
        code, out, err = _run(argv)
        event(f"exit {code}")
        doc = _check_documents(argv, code, out, err)
        # in the order the command checks them: censored data passed to
        # estimate, then the bandwidth, then the boundary and the events
        if flags["command"] == "estimate" and not sample.event.all():
            want = {5}
        elif flags["bandwidth"] == "x":
            want = {4}
        elif (flags["bandwidth"] in ("0", "-1", "inf") or where == "above"
              or not sample.event.any()):
            want = {5}
        else:
            # a selector may refuse; a bandwidth on the data's scale fits
            want = {0} if flags["bandwidth"] == "scale" else {0, 5}
        assert code in want, (argv, code, err)
        if code != 0:
            assert not csv.exists(), argv
            return
        if flags["output"]:
            assert "t" not in doc and "value" not in doc, argv
            rows = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
            values = rows[:, 1]
        else:
            assert not csv.exists(), argv
            assert len(doc["t"]) == points, argv
            values = np.array(doc["value"])
        assert values.size == points, argv
        assert np.all(np.isfinite(values)), argv
        if flags["standardize"]:
            steps = np.diff(values)
            assert np.all(steps <= 0 if flags["command"] == "survival"
                          else steps >= 0), argv
            assert np.all((values >= 0.0) & (values <= 1.0)), argv


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sample_csvs(), st.sampled_from(_choices("bandwidth", "--method")),
       st.none() | st.floats(0.0, 1.0, exclude_min=True).map(repr)
       | st.sampled_from(("0", "-0.5", "1.0000000000000002", "1.5", "1e300",
                          "nan", "-inf")))
def test_bandwidth_effective_c_contract(text, method, eff):
    # --effective-c inside and outside (0, 1]: argparse refuses one that
    # is not finite, the CV takes none (both usage errors), and the rule
    # refuses one outside (0, 1]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sample.csv"
        path.write_text(text)
        argv = ["bandwidth", "--input", str(path), "--method", method]
        if eff is not None:
            argv.append(f"--effective-c={eff}")
        code, out, err = _run(argv)
        event(f"exit {code}")
        if eff is not None and not np.isfinite(float(eff)):
            assert code == 2 and out == "", argv
            assert "--effective-c: expected a finite number" in err, argv
            return
        if eff is not None and method == "cv":
            assert code == 2 and out == "", argv
            assert ("argument --effective-c: not allowed with argument "
                    "--method cv") in err, argv
            return
        doc = _check_documents(argv, code, out, err)
        if eff is not None and not 0.0 < float(eff) <= 1.0:
            assert code == 5, (argv, code, err)
            assert doc["error"]["message"] == \
                "effective_c must lie in (0, 1]", argv
            return
        assert code in (0, 5), (argv, code, err)
        if code == 0:
            assert 0.0 < doc["h"] < np.inf, argv


_NUMBER_BYTES = "0123456789.eE+-"


@st.composite
def time_fields(draw, plain: bool) -> str:
    """A time field: a float's repr or a decimal literal with an exponent
    from -320 to 308; unless plain, also an edge value or the bytes of a
    number run together."""
    kind = draw(st.integers(0, 1 if plain else 3))
    if kind == 0:
        return repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
    if kind == 1:
        digits = str(draw(st.integers(0, 10 ** 20)))
        point = draw(st.integers(0, len(digits)))
        return (draw(st.sampled_from(("", "-", "+"))) + digits[:point] + "."
                + digits[point:] + draw(st.sampled_from("eE"))
                + str(draw(st.integers(-320, 308))))
    if kind == 2:
        return draw(st.sampled_from((
            "9007199254740993", "5e-324", "2.2250738585072011e-308",
            "1.7976931348623157e308", "1.8e308", "1e400", "-0", "+.5", "1.",
            ".", "1e", "1_0", "nan", "inf", "-inf", "")))
    return draw(st.text(_NUMBER_BYTES, min_size=1, max_size=8))


@st.composite
def sample_files(draw) -> bytes:
    """CSV bytes: half of them plain in form, half with the forms the
    row parser alone reads or refuses drawn in (other headers, events
    other than 0 and 1, padding, extra fields, blank lines, CR line
    ends and a byte-order mark)."""
    plain, two = draw(st.booleans()), draw(st.booleans())
    header = draw(st.sampled_from(
        (None, "time,event") + (() if two else ("time",)) if plain
        else (None, "time", "time,event", "event,time", "TIME")))
    rows = [f"{t},{draw(st.sampled_from('01'))}" if two else t
            for t in draw(st.lists(time_fields(plain), max_size=8))]
    if rows and not plain:
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = draw(st.sampled_from((
            " " + rows[i], rows[i] + " ", rows[i] + ",", rows[i] + ",1",
            rows[i] + ",2", rows[i] + ",01", "", rows[i])))
    lines = ([header] if header else []) + rows
    end = "\n" if plain else draw(st.sampled_from(("\n", "\r\n", "\r")))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    bom = b"" if plain else draw(st.sampled_from((b"", b"\xef\xbb\xbf")))
    return bom + text.encode()


def _read_outcome(read, path):
    try:
        sample = read(path)
    except ParseError as exc:
        return str(exc)
    return sample.times.tobytes(), sample.event.tobytes()


@settings(max_examples=400, deadline=None)
@given(sample_files())
def test_one_pass_read_is_the_row_parser(raw):
    # the same bits, or the same error with the same line number, under
    # the floating-point checks the CLI reads with
    with tempfile.TemporaryDirectory() as tmp, np.errstate(all="raise"):
        path = str(Path(tmp) / "sample.csv")
        Path(path).write_bytes(raw)
        event("one pass" if iolib._plain_sample(raw) is not None
              else "row parser")
        assert _read_outcome(read_sample_csv, path) == \
            _read_outcome(lambda p: iolib._read_rows(p, raw), path)


@st.composite
def freq_grids(draw) -> str:
    """--freq-grid text: lo:hi:count, or a short comma list, ascending
    unless drawn otherwise; negative, reversed, empty and overflowing
    grids are among them."""
    edge = st.sampled_from((-1.0, 0.0, 1e308))
    if draw(st.booleans()):
        lo = draw(st.one_of(st.floats(0.0, 2.0), edge))
        hi = draw(st.one_of(st.floats(4.0, 40.0), edge))
        return f"{lo!r}:{hi!r}:{draw(st.integers(0, 600))}"
    points = draw(st.lists(st.one_of(st.floats(0.0, 20.0), edge),
                           min_size=1, max_size=12, unique=True))
    if draw(st.integers(0, 3)):
        points.sort()
    return ",".join(map(repr, points))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sample_csvs(), freq_grids(),
       st.sampled_from(_choices("bandwidth", "--method")))
def test_bandwidth_freq_grid_contract(text, grid, method):
    with tempfile.TemporaryDirectory() as tmp:
        path, curve = Path(tmp) / "sample.csv", Path(tmp) / "ecf.csv"
        path.write_text(text)
        argv = ["bandwidth", "--input", str(path), "--method", method,
                f"--freq-grid={grid}", "--ecf-out", str(curve)]
        code, out, err = _run(argv)
        assert code in (0, 4, 5), (argv, code, err)
        _one_document(out if code == 0 else err)
        assert (err if code == 0 else out) == "", argv
        if code == 0:
            rows = np.loadtxt(curve, delimiter=",", skiprows=1, ndmin=2)
            assert rows[:, 0].tobytes() == parse_grid(grid).tobytes(), argv
            assert np.all((rows[:, 1] >= 0.0) & (rows[:, 1] <= 1.0)), argv


@st.composite
def power_of_two_samples(draw):
    """(times, censored, k): a sample of 2 to 80 rows, with ties and 0-90 %
    censoring, and a power of two 2**k, |k| <= 900, that takes no step
    of a fit into overflow or subnormals."""
    n = draw(st.integers(2, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = np.round(rng.standard_normal(n) + draw(st.sampled_from((0.0, 3.0))),
                 draw(st.integers(0, 17)))
    censored = rng.random(n) < draw(st.floats(0.0, 0.9))
    # without an IQR the data scale is the standard deviation, which
    # squares the data: k stays where the squares are normal numbers
    q75, q25 = np.percentile(x, [75.0, 25.0])
    bound = 900 if q75 > q25 else 400
    return x, censored, draw(st.integers(-bound, bound))


def _scaled_fits(tmp, x, censored, s):
    """{run: (exit code, t or frequencies, values, h)} of the fixed-h curve
    commands and the bandwidth selectors on the sample x * s, with every
    length flag scaled by s and every frequency by 1/s; a refusal is
    (exit code, message)."""
    path, ecf = tmp / f"{s!r}.csv", tmp / f"ecf-{s!r}.csv"
    path.write_text("time,event\n" + "".join(
        f"{t * s!r},{int(not c)}\n" for t, c in zip(x.tolist(),
                                                   censored.tolist())))
    lo, hi = float(np.min(x)), float(np.max(x))
    grid = f"{(lo - 1.0) * s!r}:{(hi + 1.0) * s!r}:41"
    fixed = ["--bandwidth", repr(0.5 * s), "--grid", grid]
    runs = {}
    for name, argv in (
            ("estimate", ["estimate", *fixed]),
            ("survival", ["survival", *fixed]),
            ("survival-boundary", ["survival", *fixed, "--boundary",
                                   repr((lo - 0.25) * s)]),
            ("estimate-smooth", ["estimate", "--kernel", "smooth", *fixed,
                                 "--boundary", repr(lo * s)]),
            ("cv", ["bandwidth", "--method", "cv",
                    f"--freq-grid=0:{8.0 / s!r}:64", "--ecf-out", str(ecf)]),
            ("auto", ["bandwidth", "--method", "auto"])):
        code, out, err = _run([argv[0], "--input", str(path), *argv[1:]])
        doc = _one_document(out if code == 0 else err)
        if code != 0:
            runs[name] = (code, doc["error"]["message"].replace(str(path),
                                                               "PATH"))
        elif argv[0] == "bandwidth":
            rows = (np.loadtxt(ecf, delimiter=",", skiprows=1, ndmin=2)
                    if name == "cv" else np.zeros((0, 2)))
            runs[name] = (0, rows[:, 0] * s, rows[:, 1].tobytes(),
                          doc["h"] / s)
        else:
            runs[name] = (0, np.array(doc["t"]) / s,
                          np.array(doc["value"]).tobytes(), None)
    return runs


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(power_of_two_samples())
def test_power_of_two_scaling_is_bitwise(drawn):
    # multiplying data, grid, bandwidth and boundary by 2**k is exact,
    # and every step of a fit is relative to the data's scale, so the
    # curves, the ECF and the CV bandwidth map bit for bit; the scaled
    # files are plain, so they take the one-pass read
    x, censored, k = drawn
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(iolib, "_read_rows", side_effect=AssertionError):
        base = _scaled_fits(Path(tmp), x, censored, 1.0)
        scaled = _scaled_fits(Path(tmp), x, censored, 2.0 ** k)
    # times that are all zero are one sample at every scale, so each
    # selector's h stays the same, and h / 2**k reads 2**-k times it
    h_factor = 1.0 if np.any(x) else 2.0 ** k
    for name in ("estimate", "survival", "survival-boundary",
                 "estimate-smooth", "cv"):
        got, want = scaled[name], base[name]
        if name == "cv" and got[0] == 0:
            got = (*got[:3], got[3] * h_factor)
        assert got[0] == want[0] and all(
            np.array_equal(a, b) for a, b in zip(got[1:], want[1:])), (
            name, k, got, want)
    # the threshold rule's window is in absolute frequency units, so it
    # refuses samples whose scale is outside about [0.01, 4] (ROADMAP
    # item 6, CHANGES.md FOUND); where it runs at both scales, h maps
    # exactly
    auto, scaled_auto = base["auto"], scaled["auto"]
    if auto[0] == scaled_auto[0] == 0:
        assert scaled_auto[3] * h_factor == auto[3], k
    else:
        event("threshold rule refused at one scale")


@st.composite
def scenarios(draw) -> dict:
    """A small study as scenario JSON: up to two sizes of at most 30,
    at most 4 replications, drawn evaluation points, with or without
    censoring."""
    law = draw(st.sampled_from((
        {"kind": "normal"}, {"kind": "polya"},
        {"kind": "weibull", "shape": 3.0, "scale": 1.5})))
    censored = draw(st.booleans())
    points = draw(st.lists(st.floats(-2.0, 4.0, width=32), min_size=1,
                           max_size=4, unique=True))
    survival = censored or draw(st.booleans())
    return {
        "name": "drawn",
        "lifetime_dist": law,
        "censor_dist": ({"kind": "weibull", "shape": 4.0, "scale": 3.0}
                        if censored else None),
        "eval_points": sorted(points),
        "sample_sizes": draw(st.lists(st.integers(5, 30), min_size=1,
                                      max_size=2)),
        "replications": draw(st.integers(1, 4)),
        "seed": draw(st.integers(0, 2 ** 32 - 1)),
        "estimand": "survival" if survival else "cdf",
        # positive lifetimes only: a boundary above a draw is refused
        "boundary": (draw(st.sampled_from((None, 0.0)))
                     if law["kind"] == "weibull" else None),
    }


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_study_csv_does_not_depend_on_workers(scenario):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(scenario))
        runs = []
        for workers in ("1", "2"):
            csv = Path(tmp) / f"workers{workers}.csv"
            code, out, err = _run(["simulate", "--scenario", str(path),
                                   "--workers", workers, "--output",
                                   str(csv)])
            assert code in (0, 5), (scenario, code, err)
            doc = _one_document(out if code == 0 else err)
            runs.append((code, doc.get("retries"), doc.get("error"),
                         csv.read_bytes() if code == 0 else None))
        assert runs[0] == runs[1], scenario


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


@pytest.mark.parametrize("tol", (1e-4, 1e-6, 1e-8))
@pytest.mark.parametrize("c", RADII)
@pytest.mark.parametrize("kernel", _choices("estimate", "--kernel"))
def test_kernel_table_contract_on_parser_choices(tmp_path, kernel, c, tol):
    # every kernel of the CLI: one that kernel-table does not offer is a
    # usage error
    out = tmp_path / "table.csv"
    argv = ["kernel-table", "--kernel", kernel, "--c", repr(c),
            "--tol", repr(tol), "--output", str(out)]
    code, stdout, err = _run(argv)
    if kernel not in _choices("kernel-table", "--kernel"):
        assert code == 2 and stdout == "" and not out.exists(), argv
        assert f"invalid choice: {kernel!r}" in err, argv
        return
    assert code in (0, 5), (argv, code, err)
    doc = _one_document(stdout if code == 0 else err)
    assert (err if code == 0 else stdout) == "", argv
    if code == 0:
        lines = out.read_text().splitlines()
        assert lines[0] == "x,k,kbar", argv
        rows = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
        assert rows.shape == (doc["points"], 3), argv
        x = rows[:, 0]
        assert np.all(x[1:] > x[:-1]) and np.array_equal(x, -x[::-1]), argv
        table = get_table(FlatTopSpec(kernel, c), tol)
        assert rows[:, 2].tobytes() == table.kbar_values.tobytes(), argv
