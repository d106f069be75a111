from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import ftcdf.bandwidth as bandwidth
import ftcdf.blas as blas
import ftcdf.cli as cli
import ftcdf.estimators as estimators
from ftcdf.bandwidth import (auto_bandwidth, cv_bandwidth_km, default_cv_grid,
                             default_freq_grid, ecf, noise_threshold)
from ftcdf.cli import main
from ftcdf.estimators import CensoredSample, EstimatorConfig, evaluate_on_grid
from ftcdf.io import read_sample_csv
from ftcdf.asymptotics import (BAND_LIMITED, EXPONENTIAL, POLYNOMIAL,
                               SmoothnessClass, edf_deficiency)
from ftcdf.kernels import (SMOOTH, TRAPEZOID, FlatTopSpec, get_table,
                           kernel, kernel_cross_moment)
from ftcdf.simulate import builtin_scenario, run_scenario
from ftcdf.survival import smoothed_survival_on_grid


def _refuse_constant(name):
    raise AssertionError(f"{name} is not JSON")


def strict_json(text):
    """Parse JSON as a strict parser does: NaN and Infinity refused."""
    return json.loads(text, parse_constant=_refuse_constant)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = strict_json(captured.out) if captured.out else None
    err = strict_json(captured.err) if captured.err else None
    return code, doc, err


@pytest.fixture()
def sample_csv(tmp_path):
    rng = np.random.default_rng(7)
    p = tmp_path / "sample.csv"
    lines = ["time"] + [repr(float(v)) for v in rng.normal(size=40)]
    p.write_text("\n".join(lines) + "\n")
    return str(p)


@pytest.fixture()
def censored_csv(tmp_path):
    rng = np.random.default_rng(11)
    life = rng.weibull(3.0, 30) * 1.5
    cens = rng.weibull(4.0, 30) * 3.0
    obs = np.minimum(life, cens)
    ev = (life <= cens).astype(int)
    p = tmp_path / "censored.csv"
    lines = ["time,event"] + [f"{float(t)!r},{e}" for t, e in zip(obs, ev)]
    p.write_text("\n".join(lines) + "\n")
    return str(p)


class TestEstimate:
    def test_resolved_config_prints_all_defaults(self, capsys, tmp_path,
                                                 sample_csv):
        out = str(tmp_path / "curve.csv")
        code, doc, _ = run_cli(capsys, "estimate", "--input", sample_csv,
                               "--grid", "-3:3:121", "--output", out)
        assert code == 0
        assert doc["schema"] == 1
        bw = doc["resolved_config"]["bandwidth"]
        assert bw["mode"] == "auto"
        assert bw["C"] == 2.0 and bw["value"] > 0 and bw["threshold"] > 0
        assert bw["epsilon"] > 0 and bw["effective_c"] == 0.75
        kern = doc["resolved_config"]["kernel"]
        assert kern == {"family": "trapezoid", "c": 0.75, "b": 1.0,
                        "effective_c": 0.75, "tol": 1e-8}
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "t,value" and len(lines) == 122

    def test_curve_matches_library_call(self, capsys, tmp_path, sample_csv):
        out = str(tmp_path / "curve.csv")
        code, doc, _ = run_cli(capsys, "estimate", "--input", sample_csv,
                               "--grid", "-2:2:41", "--output", out)
        assert code == 0
        sample = read_sample_csv(sample_csv)
        h = auto_bandwidth(sample, 0.75)
        assert doc["resolved_config"]["bandwidth"]["value"] == h
        table = get_table(FlatTopSpec(TRAPEZOID, 0.75))
        grid = np.linspace(-2, 2, 41)
        want = evaluate_on_grid(sample, EstimatorConfig(table, h), grid)
        rows = [ln.split(",") for ln in
                Path(out).read_text().splitlines()[1:]]
        got = np.array([float(r[1]) for r in rows])
        np.testing.assert_array_equal(got, want)

    def test_fixed_bandwidth_roundtrip_bitwise(self, capsys, tmp_path,
                                               sample_csv):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        code, doc, _ = run_cli(capsys, "estimate", "--input", sample_csv,
                               "--grid", "-3:3:61", "--output", a)
        assert code == 0
        h = doc["resolved_config"]["bandwidth"]["value"]
        code, doc2, _ = run_cli(capsys, "estimate", "--input", sample_csv,
                                "--grid", "-3:3:61", "--output", b,
                                "--bandwidth", repr(h))
        assert code == 0
        assert doc2["resolved_config"]["bandwidth"]["mode"] == "fixed"
        assert Path(a).read_text() == Path(b).read_text()

    def test_inline_values_without_output(self, capsys, sample_csv):
        code, doc, _ = run_cli(capsys, "estimate", "--input", sample_csv,
                               "--grid", "-1:1:5")
        assert code == 0
        assert len(doc["t"]) == 5 and len(doc["value"]) == 5
        assert doc["t"][0] == -1.0

    def test_default_grid_pads_data_range(self, capsys, sample_csv):
        code, doc, _ = run_cli(capsys, "estimate", "--input", sample_csv)
        assert code == 0
        lo, hi, count = doc["resolved_config"]["grid"].split(":")
        sample = read_sample_csv(sample_csv)
        h = doc["resolved_config"]["bandwidth"]["value"]
        assert float(lo) == pytest.approx(sample.times.min() - 3 * h)
        assert float(hi) == pytest.approx(sample.times.max() + 3 * h)
        assert count == "121" and len(doc["t"]) == 121

    def test_standardize_gives_monotone_path(self, capsys, sample_csv):
        code, doc, _ = run_cli(capsys, "estimate", "--input", sample_csv,
                               "--grid", "-4:4:81", "--standardize")
        assert code == 0
        v = np.array(doc["value"])
        assert np.all(np.diff(v) >= 0)
        assert v.min() >= 0.0 and v.max() <= 1.0

    def test_censored_input_rejected(self, capsys, censored_csv):
        code, doc, err = run_cli(capsys, "estimate", "--input", censored_csv)
        assert code == 5 and doc is None
        assert err["error"]["kind"] == "domain"
        assert "survival" in err["error"]["message"]

    @pytest.mark.parametrize("command", ["estimate", "survival"])
    def test_gaussian_auto_is_cross_validation(self, capsys, sample_csv,
                                               command):
        code, doc, _ = run_cli(capsys, command, "--input", sample_csv,
                               "--kernel", "gaussian", "--grid", "-1:1:5")
        assert code == 0
        bw = doc["resolved_config"]["bandwidth"]
        sample = read_sample_csv(sample_csv)
        grid = default_cv_grid(sample)
        assert bw["mode"] == "cv"
        assert bw["value"] == cv_bandwidth_km(sample, grid)
        assert bw["h_grid"] == {"lo": grid[0], "hi": grid[-1], "points": 32,
                                "spacing": "log"}

    @pytest.mark.parametrize("flags", [("--c", "0.3"),
                                       ("--effective-c", "0.9"),
                                       ("--c", "0.3", "--effective-c", "0.9")])
    @pytest.mark.parametrize("command", ["estimate", "survival"])
    def test_gaussian_refuses_flat_top_flags(self, capsys, sample_csv,
                                             command, flags):
        # a Gaussian fit reads neither flag, so neither is dropped unseen
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", sample_csv, "--kernel", "gaussian",
                  *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # the usage line is the subcommand's, which shows its flags
        assert captured.err.startswith(f"usage: ftcdf {command} [-h] "
                                       "--input INPUT")
        assert (f"argument {flags[0]}: not allowed with argument --kernel "
                "gaussian") in captured.err

    @pytest.mark.parametrize("command", ["estimate", "survival"])
    def test_fixed_bandwidth_needs_no_rule_radius(self, capsys, sample_csv,
                                                  command):
        # only the threshold rule reads effective_c, and a smooth kernel
        # off its reference (b=1, c=0.05) has no default for it
        code, doc, _ = run_cli(capsys, command, "--input", sample_csv,
                               "--kernel", "smooth", "--c", "0.1",
                               "--bandwidth", "0.3", "--grid", "-1:1:5")
        assert code == 0
        assert doc["resolved_config"]["kernel"]["effective_c"] is None
        table = get_table(FlatTopSpec(SMOOTH, 0.1))
        fit = smoothed_survival_on_grid if command == "survival" \
            else evaluate_on_grid
        want = fit(read_sample_csv(sample_csv), EstimatorConfig(table, 0.3),
                   np.linspace(-1, 1, 5))
        assert doc["value"] == want.tolist()

    def test_rule_without_radius_is_refused_before_the_ecf(
            self, capsys, monkeypatch, sample_csv):
        def no_ecf(*args):
            raise AssertionError("the ECF was computed")

        monkeypatch.setattr(cli, "ecf", no_ecf)
        code, doc, err = run_cli(capsys, "estimate", "--input", sample_csv,
                                 "--kernel", "smooth", "--c", "0.1")
        assert code == 5 and doc is None
        assert err["error"] == {
            "kind": "domain",
            "message": "effective_c has no default for smooth family away "
                       "from (b=1, c=0.05); pass it explicitly"}

    @pytest.mark.parametrize("h", ["inf", "nan", "-1"])
    def test_bandwidth_must_be_finite_and_positive(self, capsys, sample_csv,
                                                   h):
        code, doc, err = run_cli(capsys, "estimate", "--input", sample_csv,
                                 "--bandwidth", h, "--grid", "0:1:3")
        assert code == 5 and doc is None
        assert err["error"]["kind"] == "domain"
        assert "finite and positive" in err["error"]["message"]

    def test_bad_bandwidth_token(self, capsys, sample_csv):
        # cv is no keyword: auto already cross-validates the Gaussian
        for token in ("nonsense", "cv"):
            code, _, err = run_cli(capsys, "estimate", "--input", sample_csv,
                                   "--bandwidth", token)
            assert code == 4 and err["error"]["kind"] == "parse"
            assert err["error"]["message"] == (
                f"--bandwidth must be auto or a number, got {token!r}")

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "estimate", "--input",
                               str(tmp_path / "nope.csv"))
        assert code == 3 and err["error"]["kind"] == "io"

    def test_malformed_row_exit_code(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time\n1.0\noops\n")
        code, _, err = run_cli(capsys, "estimate", "--input", str(p))
        assert code == 4
        assert "line 3" in err["error"]["message"]

    def test_nonfinite_row_names_line(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time\n1.0\n2.0\ninf\n")
        code, _, err = run_cli(capsys, "estimate", "--input", str(p))
        assert code == 4 and err["error"]["kind"] == "parse"
        assert "line 4" in err["error"]["message"]

    @pytest.mark.parametrize("grid", ["nan", "0,nan", "nan:1:5", "0:inf:3",
                                      "inf,inf"])
    def test_nonfinite_grid_is_parse_error(self, capsys, sample_csv, grid):
        code, doc, err = run_cli(capsys, "estimate", "--input", sample_csv,
                                 "--grid", grid)
        assert code == 4 and doc is None
        assert err["error"]["kind"] == "parse"
        assert grid in err["error"]["message"]

    def test_repeated_range_grid_is_parse_error(self, capsys, sample_csv):
        # lo == hi with count > 1 repeats a point, as "0,0,0" does
        code, doc, err = run_cli(capsys, "estimate", "--input", sample_csv,
                                 "--grid", "0:0:3")
        assert code == 4 and doc is None
        assert err["error"] == {"kind": "parse", "message":
                                "grid '0:0:3': points must be strictly "
                                "ascending"}

    def test_oversized_grid_is_parse_error(self, capsys, sample_csv):
        code, doc, err = run_cli(capsys, "estimate", "--input", sample_csv,
                                 "--grid", "0:1:10000000000000")
        assert code == 4 and doc is None
        assert err["error"]["kind"] == "parse"
        assert "at most 1000000" in err["error"]["message"]

    def test_nonfinite_freq_grid_is_parse_error(self, capsys, sample_csv):
        code, _, err = run_cli(capsys, "bandwidth", "--input", sample_csv,
                               "--freq-grid", "0:nan:64")
        assert code == 4 and err["error"]["kind"] == "parse"

    def test_non_utf8_input_is_parse_error(self, capsys, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"time\n1.0\n\xff2.0\n")
        code, doc, err = run_cli(capsys, "estimate", "--input", str(p))
        assert code == 4 and doc is None
        assert err["error"]["kind"] == "parse"
        assert str(p) in err["error"]["message"]

    def test_input_not_mutated(self, capsys, sample_csv):
        before = Path(sample_csv).read_bytes()
        run_cli(capsys, "estimate", "--input", sample_csv,
                "--grid", "-1:1:11")
        assert Path(sample_csv).read_bytes() == before

    def test_usage_error_exits_2(self, capsys, sample_csv):
        # a missing --input, and flags the parser does not know
        removed = [[command, "--input", sample_csv, flag, value]
                   for command in ("estimate", "survival", "bandwidth")
                   for flag, value in (("--bw-C", "2"), ("--bw-eps", "1"))]
        removed += [[command, "--input", sample_csv, flag, value]
                    for command in ("estimate", "survival")
                    for flag, value in (("--b", "1"), ("--json", "d.json"),
                                        ("--tol", "1e-8"))]
        removed.append(["kernel-table", "--b", "1"])
        # the stdout document and the CSV are the whole record of a run
        removed.append(["kernel-table", "--json", "F"])
        removed.append(["simulate", "--scenario", "normal-iid",
                        "--json", "F"])
        # the rule radius is read by fits only, and deficiency works out
        # the cross moment from its kernel flags
        removed.append(["kernel-table", "--effective-c", "0.5"])
        removed.append(["deficiency", "--assumption", "band-limited",
                        "--F", "0.5", "--f", "0.25", "--cross-moment",
                        "0.19", "--n", "100"])
        for argv in (["estimate"],
                     ["estimate", "--input", sample_csv, "--bw-mode",
                      "plateau"], *removed):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flag,value", [("--grid", "-.5:1:3"),
                                            ("--boundary", "-.5"),
                                            ("--grid", "-3:3:5")])
    def test_negative_value_after_a_space(self, capsys, tmp_path, flag,
                                          value):
        # a value that starts with a dash, with or without a digit after
        # it, is read the same after a space as after "="
        p = tmp_path / "positive.csv"
        p.write_text("time\n0.5\n1.25\n2\n3.5\n")
        outs = []
        for spelling in ([flag, value], [f"{flag}={value}"]):
            code = main(["estimate", "--input", str(p), "--bandwidth",
                         "0.5", *spelling])
            captured = capsys.readouterr()
            assert code == 0 and captured.err == "", spelling
            outs.append(captured.out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("argv,message", [
        (["--grid", "-h"], "argument --grid: expected one argument"),
        (["--boundary", "--grid", "0:1:3"],
         "argument --boundary: expected one argument")])
    def test_dash_options_stay_options(self, capsys, sample_csv, argv,
                                       message):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--input", sample_csv, *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ftcdf estimate")

    @pytest.mark.parametrize("argv", [
        ("estimate", "--bandwidth", "0.5", "--grid", "0:1:1000"),
        ("bandwidth", "--freq-grid", "0:5:1000"),
    ])
    def test_work_bound_is_domain_error(self, capsys, monkeypatch,
                                        sample_csv, argv):
        # 1000 points x 40 jumps = 40000 terms, one above each cap
        monkeypatch.setattr(estimators, "MAX_KERNEL_TERMS", 39_999)
        monkeypatch.setattr(bandwidth, "MAX_KERNEL_TERMS", 39_999)
        code, doc, err = run_cli(capsys, *argv, "--input", sample_csv)
        assert code == 5 and doc is None
        assert err["error"]["kind"] == "domain"
        assert "needs 40000 terms" in err["error"]["message"]
        assert "above the cap of 39999" in err["error"]["message"]


    def test_cv_work_bound_is_domain_error(self, capsys, monkeypatch,
                                           sample_csv):
        # 40 jumps x 256 quadrature points x 32 bandwidths = 327680 terms
        monkeypatch.setattr(bandwidth, "MAX_KERNEL_TERMS", 327_679)
        code, doc, err = run_cli(capsys, "estimate", "--kernel", "gaussian",
                                 "--input", sample_csv)
        assert code == 5 and doc is None
        assert err["error"]["kind"] == "domain"
        assert err["error"]["message"].startswith("the CV needs 327680 terms")
        monkeypatch.setattr(bandwidth, "MAX_KERNEL_TERMS", 327_680)
        assert run_cli(capsys, "estimate", "--kernel", "gaussian",
                       "--input", sample_csv)[0] == 0


class TestSurvival:
    def test_boundary_curve_starts_at_one(self, capsys, tmp_path,
                                          censored_csv):
        out = str(tmp_path / "surv.csv")
        code, doc, _ = run_cli(capsys, "survival", "--input", censored_csv,
                               "--kernel", "smooth", "--boundary", "0",
                               "--grid", "0:3:31", "--output", out)
        assert code == 0
        assert doc["censored"] > 0
        rows = Path(out).read_text().splitlines()[1:]
        first = rows[0].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 1.0

    def test_matches_library_call(self, capsys, censored_csv):
        code, doc, _ = run_cli(capsys, "survival", "--input", censored_csv,
                               "--grid", "0.5:2:16")
        assert code == 0
        sample = read_sample_csv(censored_csv)
        h = doc["resolved_config"]["bandwidth"]["value"]
        table = get_table(FlatTopSpec(TRAPEZOID, 0.75))
        want = smoothed_survival_on_grid(sample, EstimatorConfig(table, h),
                                         np.linspace(0.5, 2, 16))
        np.testing.assert_array_equal(np.array(doc["value"]), want)

    def test_auto_bandwidth_runs_kaplan_meier_once(self, capsys, spy,
                                                   censored_csv):
        calls = spy(estimators, "kaplan_meier")
        code, doc, _ = run_cli(capsys, "survival", "--input", censored_csv,
                               "--grid", "0.5:2:16")
        assert code == 0 and doc["censored"] > 0
        assert len(calls) == 1

    def test_accepts_uncensored_too(self, capsys, sample_csv):
        code, doc, _ = run_cli(capsys, "survival", "--input", sample_csv,
                               "--grid", "-1:1:3")
        assert code == 0 and doc["censored"] == 0


class TestBandwidth:
    @pytest.mark.parametrize("argv", [
        ("bandwidth",), ("estimate",), ("survival", "--kernel", "smooth")])
    def test_one_row_auto_bandwidth_names_its_cause(self, capsys, spy,
                                                    tmp_path, argv):
        # at n = 1 the noise threshold C*sqrt(log10(n)/n) is 0, so the
        # rule refuses the sample before any ECF is computed
        path = tmp_path / "one.csv"
        path.write_text("time\n1.5\n")
        ecf_calls = spy(cli, "ecf")
        code, doc, err = run_cli(capsys, *argv, "--input", str(path))
        assert code == 5 and doc is None and ecf_calls == []
        assert err["error"] == {
            "kind": "domain",
            "message": "the threshold rule needs at least two rows; at "
                       "n = 1 its noise threshold is 0"}

    def test_auto_matches_library(self, capsys, sample_csv):
        code, doc, _ = run_cli(capsys, "bandwidth", "--input", sample_csv)
        assert code == 0
        sample = read_sample_csv(sample_csv)
        assert doc["h"] == auto_bandwidth(sample, 0.75)
        bw = doc["resolved_config"]["bandwidth"]
        assert doc["h"] == 0.75 / bw["t_star"]

    def test_t_star_is_a_grid_frequency(self, capsys, tmp_path):
        # at seeds 18 and 31, effective_c / h does not round-trip to t*
        path = tmp_path / "normal.csv"
        for seed in range(40):
            times = np.random.default_rng(seed).normal(size=300)
            path.write_text("time\n" + "".join(f"{t!r}\n"
                                              for t in times.tolist()))
            freqs = default_freq_grid(read_sample_csv(str(path))).tolist()
            for argv in (("bandwidth",), ("estimate", "--grid", "0:1:2")):
                code, doc, _ = run_cli(capsys, *argv, "--input", str(path))
                assert code == 0
                bw = doc["resolved_config"]["bandwidth"]
                assert bw["t_star"] in freqs, (seed, argv)
                assert bw["value"] == 0.75 / bw["t_star"]

    def test_heavily_censored_auto_echoes_the_threshold_it_used(
            self, capsys, tmp_path):
        # 2000 rows, about 66 % censored: no window at n, one at the
        # Kaplan-Meier measure's effective size
        rng = np.random.default_rng(3)
        life = 1.5 * rng.weibull(3.0, 2000)
        cens = 1.2 * rng.weibull(3.0, 2000)
        rows = zip(np.minimum(life, cens).tolist(), (life <= cens).tolist())
        path = tmp_path / "heavy.csv"
        path.write_text("time,event\n" + "".join(f"{t!r},{int(e)}\n"
                                                  for t, e in rows))
        sample = read_sample_csv(str(path))
        curve = ecf(sample, default_freq_grid(sample))
        for argv in (("bandwidth",), ("survival", "--kernel", "smooth",
                                      "--grid", "0:3:7")):
            code, doc, err = run_cli(capsys, *argv, "--input", str(path))
            assert code == 0, err
            bw = doc["resolved_config"]["bandwidth"]
            assert bw["threshold"] == noise_threshold(curve.n_eff, 2.0)
            assert bw["threshold"] > noise_threshold(2000, 2.0)
            assert bw["value"] == bw["effective_c"] / bw["t_star"]

    def test_cv_scale_without_an_iqr_at_any_magnitude(self, capsys,
                                                     tmp_path):
        # seven zeros and one spike: the scale is a standard deviation
        # whose squares, taken at the data's magnitude, would underflow
        # (h = 0.05 for both small spikes) or overflow (exit 5)
        hs = {}
        for spike in ("1e-200", "2e-200", "1e300"):
            path = tmp_path / f"{spike}.csv"
            path.write_text("time\n" + "0\n" * 7 + spike + "\n")
            code, doc, err = run_cli(capsys, "bandwidth", "--method", "cv",
                                     "--input", str(path))
            assert code == 0 and err is None, (spike, err)
            hs[spike] = doc["h"]
        assert hs["2e-200"] == 2.0 * hs["1e-200"] and hs["1e-200"] < 1e-200
        assert 1e297 < hs["1e300"] < 1e300

    def test_spread_below_the_least_subnormal_is_refused(self, capsys,
                                                         tmp_path):
        # seven zeros and 5e-324: the standard deviation, about 1.6e-324,
        # rounds to 0, so the data has no scale to size a grid with
        path = tmp_path / "spike.csv"
        path.write_text("time\n" + "0\n" * 7 + "5e-324\n")
        for method in ("cv", "auto"):
            code, doc, err = run_cli(capsys, "bandwidth", "--method", method,
                                     "--input", str(path))
            assert code == 5 and doc is None, method
            assert err["error"] == {
                "kind": "domain",
                "message": "the times have no scale: their standard "
                           "deviation is below the least subnormal number"}

    def test_ecf_curve_written(self, capsys, tmp_path, sample_csv):
        out = str(tmp_path / "ecf.csv")
        code, _, _ = run_cli(capsys, "bandwidth", "--input", sample_csv,
                             "--ecf-out", out)
        assert code == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "t,magnitude"
        f0, m0 = lines[1].split(",")
        assert float(f0) == 0.0 and float(m0) == 1.0

    def test_ecf_out_is_the_curve_selected_from(self, capsys, spy, tmp_path,
                                                 sample_csv):
        calls = spy(cli, "ecf")
        out = str(tmp_path / "ecf.csv")
        code, _, _ = run_cli(capsys, "bandwidth", "--input", sample_csv,
                             "--ecf-out", out)
        assert code == 0 and len(calls) == 1
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(rows[:, 0], calls[0][1])

    def test_cv_method_matches_library(self, capsys, sample_csv):
        code, doc, _ = run_cli(capsys, "bandwidth", "--input", sample_csv,
                               "--method", "cv")
        assert code == 0
        sample = read_sample_csv(sample_csv)
        assert doc["h"] == cv_bandwidth_km(sample, default_cv_grid(sample))
        # CV reads no ECF, so no frequency grid is built or echoed
        assert doc["resolved_config"]["bandwidth"]["freq_grid"] is None

    @pytest.mark.parametrize("method", ["auto", "cv"])
    def test_freq_grid_feeds_ecf_out(self, capsys, tmp_path, sample_csv,
                                     method):
        out = str(tmp_path / "ecf.csv")
        code, doc, _ = run_cli(capsys, "bandwidth", "--input", sample_csv,
                               "--method", method, "--freq-grid", "0:5:11",
                               "--ecf-out", out)
        assert code == 0
        assert doc["resolved_config"]["bandwidth"]["freq_grid"] == "0:5:11"
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(rows[:, 0], np.linspace(0, 5, 11))

    @pytest.mark.parametrize("method", ["auto", "cv"])
    def test_echoed_default_freq_grid_reruns(self, capsys, tmp_path,
                                             sample_csv, method):
        first = str(tmp_path / "first.csv")
        again = str(tmp_path / "again.csv")
        code, doc, _ = run_cli(capsys, "bandwidth", "--input", sample_csv,
                               "--method", method, "--ecf-out", first)
        assert code == 0
        echoed = doc["resolved_config"]["bandwidth"]["freq_grid"]
        assert echoed.startswith("0.0:") and echoed.endswith(":512")
        code, rerun, _ = run_cli(capsys, "bandwidth", "--input", sample_csv,
                                 "--method", method, "--freq-grid", echoed,
                                 "--ecf-out", again)
        assert code == 0 and rerun["h"] == doc["h"]
        assert rerun["resolved_config"]["bandwidth"]["freq_grid"] == echoed
        assert Path(again).read_bytes() == Path(first).read_bytes()

    @pytest.mark.parametrize("method", ["auto", "cv"])
    def test_malformed_freq_grid_is_parse_error(self, capsys, sample_csv,
                                                method):
        code, doc, err = run_cli(capsys, "bandwidth", "--input", sample_csv,
                                 "--method", method, "--freq-grid", "0:5:x")
        assert code == 4 and doc is None
        assert err["error"]["kind"] == "parse"

    @pytest.mark.parametrize("method", ["auto", "cv"])
    @pytest.mark.parametrize("grid,message", [
        ("-1:1:5", "--freq-grid '-1:1:5': frequencies must be nonnegative"),
        ("-1,0.5", "--freq-grid '-1,0.5': frequencies must be nonnegative"),
        ("0:0:5", "grid '0:0:5': points must be strictly ascending")])
    def test_refused_freq_grid_is_parse_error(self, capsys, sample_csv,
                                              method, grid, message):
        # refused as it is read, whether or not the method reads an ECF
        code, doc, err = run_cli(capsys, "bandwidth", "--input", sample_csv,
                                 "--method", method, f"--freq-grid={grid}")
        assert code == 4 and doc is None
        assert err["error"] == {"kind": "parse", "message": message}

    @pytest.mark.parametrize("extra", [(), ("--ecf-out", os.devnull)])
    def test_cv_method_refuses_rule_radius(self, capsys, sample_csv, extra):
        # cross-validation reads no rule radius
        with pytest.raises(SystemExit) as exc:
            main(["bandwidth", "--input", sample_csv, "--method", "cv",
                  "--effective-c", "0.9", *extra])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ftcdf bandwidth [-h] "
                                       "--input INPUT")
        assert ("argument --effective-c: not allowed with argument "
                "--method cv") in captured.err

    def test_auto_method_takes_rule_radius(self, capsys, sample_csv):
        code, doc, _ = run_cli(capsys, "bandwidth", "--input", sample_csv,
                               "--effective-c", "0.5")
        assert code == 0
        bw = doc["resolved_config"]["bandwidth"]
        assert bw["effective_c"] == 0.5
        assert doc["h"] == 0.5 / bw["t_star"]

    def test_rule_radius_is_checked_before_any_frequency(self, capsys,
                                                         tmp_path):
        # the default frequency grid of these times overflows, so the
        # radius must be refused first, as estimate refuses it
        p = tmp_path / "tiny.csv"
        p.write_text("time\n0\n1e-308\n-1e-308\n2e-308\n-2e-308\n-0\n"
                     "1e-308\n")
        code, doc, err = run_cli(capsys, "bandwidth", "--input", str(p),
                                 "--effective-c=0")
        assert code == 5 and doc is None
        assert err["error"] == {"kind": "domain", "message":
                                "effective_c must lie in (0, 1]"}
        code, _, err = run_cli(capsys, "bandwidth", "--input", str(p))
        assert code == 5 and err["error"]["message"].startswith(
            "default frequency grid (data scale): overflow")

    def test_cv_method_on_censored_input(self, capsys, censored_csv):
        code, doc, _ = run_cli(capsys, "bandwidth", "--input", censored_csv,
                               "--method", "cv")
        assert code == 0 and doc["censored"] > 0
        sample = read_sample_csv(censored_csv)
        assert doc["h"] == cv_bandwidth_km(sample, default_cv_grid(sample))
        assert doc["resolved_config"]["bandwidth"]["mode"] == "cv"

    def test_field_beyond_time_only_header_is_parse_error(self, capsys,
                                                          tmp_path):
        # the second field would name censorings the header does not
        p = tmp_path / "unnamed.csv"
        p.write_text("time\n1.0,0\n2.0\n3.0,0\n")
        code, doc, err = run_cli(capsys, "bandwidth", "--input", str(p),
                                 "--method", "cv")
        assert code == 4 and doc is None
        assert err["error"]["kind"] == "parse"
        assert "line 2" in err["error"]["message"]


class TestDeficiency:
    def test_assumption_mode(self, capsys):
        code, doc, _ = run_cli(
            capsys, "deficiency", "--assumption", "exponential",
            "--d", "1", "--F", "0.5", "--f", "0.25", "--a", "1",
            "--n", "1e6")
        assert code == 0
        assert doc["rate"] == "n/log n"
        n = 1e6
        cm = kernel_cross_moment(FlatTopSpec(TRAPEZOID))
        want = 1 * (2 * 0.25 * cm / 0.25) * n / np.log(n)
        assert doc["values"][0]["deficiency"] == pytest.approx(want)
        assert doc["resolved_config"]["cross_moment"] == cm
        assert doc["resolved_config"]["kernel"] == {"family": "trapezoid",
                                                    "c": 0.75}

    @pytest.mark.parametrize("assumption", [
        ("--assumption", "exponential", "--d", "1", "--a", "1"),
        ("--assumption", "polynomial", "--p", "2", "--a", "0.7"),
        ("--assumption", "band-limited")])
    @pytest.mark.parametrize("kernel,c", [("trapezoid", None),
                                          ("trapezoid", 0.3),
                                          ("smooth", None), ("smooth", 0.1)])
    def test_values_use_the_kernels_cross_moment(self, capsys, assumption,
                                                  kernel, c):
        argv = [*assumption, "--F", "0.3", "--f", "0.2", "--kernel", kernel,
                "--n", "100,1e4"]
        if c is not None:
            argv += ["--c", repr(c)]
        code, doc, _ = run_cli(capsys, "deficiency", *argv)
        assert code == 0
        spec = FlatTopSpec(kernel, c=c)
        cm = kernel_cross_moment(spec)
        config = doc["resolved_config"]
        assert config["kernel"] == {"family": kernel, "c": spec.c}
        assert config["cross_moment"] == cm
        smooth = {"exponential": SmoothnessClass(EXPONENTIAL, d=1.0),
                  "polynomial": SmoothnessClass(POLYNOMIAL, p=2.0),
                  "band-limited": SmoothnessClass(BAND_LIMITED)}[
                      assumption[1]]
        assert doc["values"] == [
            {"n": n, "deficiency": edf_deficiency(smooth, 0.3, 0.2, cm, n,
                                                  config["a"])}
            for n in (100.0, 1e4)]

    def test_small_flat_radius_has_a_positive_cross_moment(self, capsys):
        # the trapezoid's constant grows like -ln(c) / pi as c falls
        code, doc, _ = run_cli(capsys, "deficiency", "--assumption",
                               "band-limited", "--F", "0.5", "--f", "0.25",
                               "--n", "100", "--c", "1e-6")
        assert code == 0
        assert doc["resolved_config"]["cross_moment"] == 4.0793121840229505

    @pytest.mark.parametrize("c", ["0.75", "0.9"])
    def test_smooth_kernel_at_a_large_flat_radius(self, capsys, c):
        # the constant needs no kernel table, which the smooth family
        # cannot build at these radii
        code, doc, _ = run_cli(capsys, "deficiency", "--assumption",
                               "band-limited", "--F", "0.5", "--f", "0.25",
                               "--n", "100", "--kernel", "smooth", "--c", c)
        assert code == 0
        cm = doc["resolved_config"]["cross_moment"]
        assert cm == kernel_cross_moment(FlatTopSpec(SMOOTH, float(c))) > 0.0

    def test_gaussian_kernel_is_usage_error(self, capsys):
        # the formulas assume a flat-top kernel, so the parser offers no
        # other
        with pytest.raises(SystemExit) as exc:
            main(["deficiency", "--assumption", "band-limited", "--F", "0.5",
                  "--f", "0.25", "--kernel", "gaussian", "--n", "100"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("argument --kernel: invalid choice: 'gaussian' (choose from "
                "'trapezoid', 'smooth')") in captured.err

    def test_band_limited_needs_no_premultiplier(self, capsys):
        argv = ["deficiency", "--assumption", "band-limited", "--F", "0.5",
                "--f", "0.25", "--n", "100"]
        code, doc, _ = run_cli(capsys, *argv)
        assert code == 0 and doc["rate"] == "n"
        # shown at unit bandwidth, so a given --a would go unread
        code, with_a, err = run_cli(capsys, *argv, "--a", "3")
        assert code == 5 and with_a is None
        assert err["error"] == {
            "kind": "domain",
            "message": "--assumption band-limited does not take --a"}

    def test_expansion_mode(self, capsys):
        code, doc, _ = run_cli(
            capsys, "deficiency",
            "--expansion-base", "1:1:-0.5:log-factor",
            "--expansion-better", "1:1:0.3:log-factor",
            "--n", "1000")
        assert code == 0
        assert doc["limit"] == pytest.approx(0.8)
        assert doc["rate"] == "n/log n"
        assert doc["values"][0]["deficiency"] == pytest.approx(
            0.8 * 1000 / np.log(1000))

    EXPONENTIAL = ("--assumption", "exponential", "--d", "1",
                   "--F", "0.5", "--f", "0.25", "--a", "1")
    POLYNOMIAL = ("--assumption", "polynomial", "--p", "2", "--F", "0.5",
                  "--f", "0.25", "--a", "1")
    LOG_PAIR = ("--expansion-base", "1:1:1:log-factor",
                "--expansion-better", "1:1:2:log-factor")
    POWER_PAIR = ("--expansion-base", "1:1:1:power:0.5",
                  "--expansion-better", "1:1:2:power:0.5")

    @pytest.mark.parametrize("mode,n", [
        (EXPONENTIAL, "1"), (LOG_PAIR, "1"), (POLYNOMIAL, "-5"),
        (POWER_PAIR, "-5"), (EXPONENTIAL, "100,1")])
    def test_n_not_above_one_is_domain_error(self, capsys, mode, n):
        code, doc, err = run_cli(capsys, "deficiency", *mode, "--n", n)
        assert code == 5 and doc is None
        assert err["error"]["kind"] == "domain"
        assert "n must exceed 1" in err["error"]["message"]

    @pytest.mark.parametrize("n", ["inf", "nan", "10,-inf", "1e400"])
    def test_non_finite_n_is_parse_error(self, capsys, n):
        code, doc, err = run_cli(capsys, "deficiency", *self.LOG_PAIR,
                                 "--n", n)
        assert code == 4 and doc is None
        assert err["error"]["kind"] == "parse"
        assert "finite" in err["error"]["message"]

    def test_non_finite_result_is_domain_error(self, capsys):
        # finite constants whose difference overflows make the limit inf;
        # it is refused when stdout is built, and nothing is printed
        code, doc, err = run_cli(capsys, "deficiency",
                                 "--expansion-base", "1:1:-1e308:log-factor",
                                 "--expansion-better", "1:1:1e308:log-factor",
                                 "--n", "100")
        assert code == 5 and doc is None
        assert err["error"]["kind"] == "domain"

    @pytest.mark.parametrize("base", ["1:1:nan:log-factor",
                                      "inf:1:1:log-factor",
                                      "1:1:1e400:log-factor",
                                      "1:1:1:power:-inf"])
    def test_non_finite_expansion_field_is_parse_error(self, capsys, base):
        code, doc, err = run_cli(capsys, "deficiency",
                                 "--expansion-base", base,
                                 "--expansion-better", "1:1:2:log-factor",
                                 "--n", "100")
        assert code == 4 and doc is None
        assert err["error"]["kind"] == "parse"
        assert base in err["error"]["message"]
        assert "finite" in err["error"]["message"]

    @pytest.mark.parametrize("argv,match", [
        (("--assumption", "polynomial", "--p", "2", "--F", "0.5",
          "--a", "-1"), "positive"),
        (("--assumption", "polynomial", "--p", "2", "--F", "2",
          "--a", "1"), "F_t"),
        (("--assumption", "exponential", "--d", "1",
          "--F", "0.5", "--a", "5"), "a < 2d")])
    def test_assumption_refuses_inputs_its_formulas_refuse(self, capsys,
                                                           argv, match):
        code, doc, err = run_cli(capsys, "deficiency", *argv, "--f", "0.3",
                                 "--n", "100")
        assert code == 5 and doc is None
        assert err["error"]["kind"] == "domain"
        assert match in err["error"]["message"]

    def test_no_mode_given(self, capsys):
        code, _, err = run_cli(capsys, "deficiency", "--n", "100")
        assert code == 4 and err["error"]["kind"] == "parse"

    def test_assumption_missing_params(self, capsys):
        code, _, err = run_cli(capsys, "deficiency", "--assumption",
                               "polynomial", "--n", "100")
        assert code == 5 and err["error"]["kind"] == "domain"

    @pytest.mark.parametrize("argv,code,message", [
        pytest.param(("--assumption", "polynomial", "--F", "0.5", "--f",
                      "0.25", "--a", "1"), 5,
                     "--assumption polynomial needs --p", id="no-p"),
        pytest.param(("--assumption", "exponential", "--F", "0.5", "--f",
                      "0.25", "--a", "1"), 5,
                     "--assumption exponential needs --d", id="no-d"),
        pytest.param(("--assumption", "band-limited", "--F", "0.5"), 5,
                     "assumption mode needs --F and --f", id="no-f"),
        pytest.param(("--assumption", "exponential", "--d", "1",
                      "--F", "0.5", "--f", "0.25"), 5,
                     "polynomial and exponential assumptions need the "
                     "bandwidth premultiplier --a", id="no-a"),
        pytest.param(("--expansion-base", "1:1:1:log-factor"), 4,
                     "pass either --assumption or both --expansion-base "
                     "and --expansion-better", id="neither-mode")])
    def test_missing_inputs_are_refused(self, capsys, argv, code, message):
        got, doc, err = run_cli(capsys, "deficiency", *argv, "--n", "100")
        assert got == code and doc is None
        assert err["error"]["kind"] == ("domain" if code == 5 else "parse")
        assert err["error"]["message"] == message

    # assumption-mode values use the reference trapezoid's cross moment,
    # 0.19191321909273173, which the command works out
    PINNED = [
        pytest.param(
            ("--assumption", "exponential", "--d", "1", "--F", "0.5",
             "--f", "0.25", "--a", "1", "--n", "1e6"),
            "n/log n", None, [(1e6, 27782.2840187544)], id="exponential"),
        pytest.param(
            ("--assumption", "polynomial", "--p", "2", "--F", "0.3",
             "--f", "0.2", "--a", "0.7", "--n", "100,1e4"),
            "n^0.8", None, [(100.0, 10.18693715264278),
                            (1e4, 405.5492726444918)], id="polynomial"),
        pytest.param(
            ("--assumption", "band-limited", "--F", "0.5",
             "--f", "0.15915494309189535", "--n", "100,1000"),
            "n", None, [(100.0, 24.43514997062893),
                        (1000.0, 244.3514997062893)], id="band-limited"),
        pytest.param(
            ("--expansion-base", "1:1:1:power:0.5",
             "--expansion-better", "1:1:2.5:power:0.5", "--n", "100,1e4"),
            "n^0.5", 1.5, [(100.0, 15.0), (1e4, 150.0)], id="power"),
        pytest.param(
            ("--expansion-base", "1:1:-0.5:log-factor",
             "--expansion-better", "1:1:0.3:log-factor", "--n", "1000,1e6"),
            "n/log n", 0.8, [(1000.0, 115.81186184086715),
                             (1e6, 57905.93092043358)], id="log-factor"),
    ]

    @pytest.mark.parametrize("argv,rate,limit,values", PINNED)
    def test_pinned_values(self, capsys, argv, rate, limit, values):
        code, doc, _ = run_cli(capsys, "deficiency", *argv)
        assert code == 0
        assert doc["rate"] == rate
        assert doc.get("limit") == limit
        assert doc["values"] == [{"n": n, "deficiency": d}
                                 for n, d in values]
        if limit is None:
            assert set(doc["resolved_config"]) == {
                "assumption", "p", "d", "F", "f", "kernel", "cross_moment",
                "a", "n"}

    @pytest.mark.parametrize("argv,message", [
        pytest.param(("--assumption", "polynomial", "--p", "2", "--d", "1",
                      "--a", "1"),
                     "--assumption polynomial does not take --d",
                     id="polynomial-d"),
        pytest.param(("--assumption", "exponential", "--d", "1", "--p", "2",
                      "--a", "1"),
                     "--assumption exponential does not take --p",
                     id="exponential-p"),
        pytest.param(("--assumption", "band-limited", "--p", "2"),
                     "--assumption band-limited does not take --p",
                     id="band-limited-p"),
        pytest.param(("--assumption", "band-limited", "--d", "1"),
                     "--assumption band-limited does not take --d",
                     id="band-limited-d"),
        pytest.param(("--assumption", "band-limited", "--a", "3"),
                     "--assumption band-limited does not take --a",
                     id="band-limited-a"),
        pytest.param(("--assumption", "band-limited",
                      "--expansion-base", "1:1:2:log-factor"),
                     "--assumption band-limited does not take "
                     "--expansion-base", id="expansion-base"),
        pytest.param(("--assumption", "exponential", "--d", "1", "--a", "1",
                      "--expansion-better", "1:1:1:log-factor"),
                     "--assumption exponential does not take "
                     "--expansion-better", id="expansion-better")])
    def test_assumption_refuses_flags_it_does_not_take(self, capsys, argv,
                                                       message):
        code, doc, err = run_cli(capsys, "deficiency", *argv, "--F", "0.5",
                                 "--f", "0.25", "--n", "100")
        assert code == 5 and doc is None
        assert err["error"] == {"kind": "domain", "message": message}

    @pytest.mark.parametrize("flag,value", [
        ("--p", "2"), ("--d", "1"), ("--F", "0.5"), ("--f", "0.25"),
        ("--a", "1"), ("--kernel", "trapezoid"), ("--kernel", "smooth"),
        ("--c", "0.1")])
    def test_expansion_mode_refuses_flags_it_does_not_take(self, capsys,
                                                           flag, value):
        # the expansions fix the deficiency, so a class parameter, a
        # target value or a kernel, even the default one, goes unread
        code, doc, err = run_cli(capsys, "deficiency",
                                 "--expansion-base", "1:1:2:log-factor",
                                 "--expansion-better", "1:1:1:log-factor",
                                 "--n", "100", flag, value)
        assert code == 5 and doc is None
        assert err["error"] == {"kind": "domain", "message":
                                f"expansion mode does not take {flag}"}

    @pytest.mark.parametrize("flag", ["--D", "--b-limit"])
    def test_dropped_class_parameters_are_usage_errors(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["deficiency", "--assumption", "exponential", "--d", "1",
                  flag, "1", "--F", "0.5", "--f", "0.25", "--a", "1",
                  "--n", "100"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_bad_expansion_text(self, capsys):
        code, _, err = run_cli(capsys, "deficiency",
                               "--expansion-base", "1:1",
                               "--expansion-better", "1:1:0:log-factor",
                               "--n", "10")
        assert code == 4


class TestKernelTable:
    def test_csv_artifact(self, capsys, tmp_path):
        out = str(tmp_path / "tab.csv")
        code, doc, _ = run_cli(capsys, "kernel-table", "--kernel",
                               "trapezoid", "--c", "0.5", "--tol", "1e-4",
                               "--output", out)
        assert code == 0
        assert doc["outputs"] == {"csv": out}
        assert doc["resolved_config"]["kernel"] == {
            "family": "trapezoid", "c": 0.5, "b": 1.0, "effective_c": 0.5,
            "tol": 1e-4}
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "x,k,kbar"
        assert len(lines) == doc["points"] + 1
        cols = np.array([[float(v) for v in ln.split(",")]
                         for ln in lines[1:]])
        assert cols.shape == (doc["points"], 3)
        # the raw Kbar column genuinely leaves [0, 1]
        assert cols[:, 2].max() > 1.0 and cols[:, 2].min() < 0.0
        table = get_table(FlatTopSpec(TRAPEZOID, 0.5), 1e-4)
        assert doc["tail_cutoff"] == table.tail_cutoff
        assert cols[:, 0].tobytes() == table.grid.tobytes()
        assert cols[:, 1].tobytes() == kernel(table.spec,
                                              table.grid).tobytes()
        assert cols[:, 2].tobytes() == table.kbar_values.tobytes()

    @pytest.mark.parametrize("family,c", [("trapezoid", 0.75),
                                          ("smooth", 0.05)])
    def test_flat_radius_defaults_by_family(self, capsys, family, c):
        code, doc, _ = run_cli(capsys, "kernel-table", "--kernel", family)
        assert code == 0 and doc["resolved_config"]["kernel"]["c"] == c

    def test_smooth_kernel_off_reference_needs_no_rule_radius(self, capsys,
                                                              tmp_path):
        # the table never depended on the rule radius
        out = tmp_path / "tab.csv"
        code, doc, _ = run_cli(capsys, "kernel-table", "--kernel", "smooth",
                               "--c", "0.1", "--output", str(out))
        assert code == 0
        assert doc["resolved_config"]["kernel"]["effective_c"] is None
        table = get_table(FlatTopSpec(SMOOTH, 0.1, effective_c=0.5))
        cols = np.loadtxt(out, delimiter=",", skiprows=1)
        assert cols[:, 0].tobytes() == table.grid.tobytes()
        assert cols[:, 2].tobytes() == table.kbar_values.tobytes()

    def test_gaussian_rejected(self, capsys):
        # the Gaussian kernel has closed forms, so the parser offers only
        # the flat-top families
        with pytest.raises(SystemExit) as exc:
            main(["kernel-table", "--kernel", "gaussian"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("argument --kernel: invalid choice: 'gaussian' (choose from "
                "'trapezoid', 'smooth')") in captured.err

    @pytest.mark.parametrize("argv", [
        ("kernel-table",),
        ("estimate", "--bandwidth", "0.5", "--grid", "-1:1:3")])
    def test_uncertifiable_table_names_kernel_and_c(self, capsys, sample_csv,
                                                    argv):
        # near c = 0.6 the smooth table's spline misses tol at a panel
        # midpoint
        if argv[0] == "estimate":
            argv += ("--input", sample_csv)
        code, doc, err = run_cli(capsys, *argv, "--kernel", "smooth",
                                 "--c", "0.6")
        assert code == 5 and doc is None
        assert err["error"] == {
            "kind": "domain",
            "message": "smooth kernel at c=0.6: table interpolation error "
                       "1.41e-08 exceeds tol 1e-08"}

    def test_uncertifiable_tol_is_domain_error(self, capsys):
        code, doc, err = run_cli(capsys, "kernel-table", "--kernel",
                                 "trapezoid", "--tol", "1e-12")
        assert code == 5 and doc is None
        assert err["error"]["kind"] == "domain"
        assert "max_points=400000" in err["error"]["message"]

    def test_gauss_legendre_order_cap_is_domain_error(self, capsys):
        # the tail search of this smooth kernel passes t = 8192, which
        # would need a rule of 5824 nodes; refused there, before the
        # rule is built
        code, doc, err = run_cli(capsys, "kernel-table", "--kernel",
                                 "smooth", "--c", "0.7")
        assert code == 5 and doc is None
        assert err["error"]["kind"] == "domain"
        assert err["error"]["message"] == (
            "smooth kernel at c=0.7: Gauss-Legendre order 5824 exceeds the "
            "cap of 4096 nodes; --c is too large for the smooth family")


class TestSimulate:
    def test_csv_matches_library_run(self, capsys, tmp_path):
        out = str(tmp_path / "sim.csv")
        code, doc, _ = run_cli(capsys, "simulate", "--scenario",
                               "normal-iid", "--n", "15", "--reps", "4",
                               "--seed", "9", "--output", out)
        assert code == 0
        sc = builtin_scenario("normal-iid", seed=9, replications=4,
                              sample_sizes=(15,))
        assert doc["resolved_config"]["scenario"] == sc.to_dict()
        assert Path(out).read_text() == run_scenario(sc).to_csv()

    def test_scenario_json_file(self, capsys, tmp_path):
        sc = builtin_scenario("polya-bandlimited", replications=2,
                              sample_sizes=(10,))
        p = tmp_path / "scen.json"
        p.write_text(json.dumps(sc.to_dict()))
        code, doc, _ = run_cli(capsys, "simulate", "--scenario", str(p))
        assert code == 0
        assert doc["resolved_config"]["scenario"]["name"] == \
            "polya-bandlimited"
        # without --output the cells are the stdout document's
        assert doc["outputs"] == {"csv": None}
        assert doc["cells"] == [asdict(c) for c in run_scenario(sc).cells]

    def test_estimator_subset(self, capsys, tmp_path):
        out = str(tmp_path / "sub.csv")
        code, _, _ = run_cli(capsys, "simulate", "--scenario", "normal-iid",
                             "--n", "15", "--reps", "3", "--seed", "1",
                             "--estimators", "edf", "--output", out)
        assert code == 0
        rows = Path(out).read_text().splitlines()[1:]
        assert rows and all(r.startswith("edf,") for r in rows)

    def test_invalid_scenario_json(self, capsys, tmp_path):
        # malformed JSON, and well-formed JSON whose top level is no object
        p = tmp_path / "bad.json"
        for text in ("{nope", "[1, 2]", "5", '"x"'):
            p.write_text(text)
            code, out, err = run_cli(capsys, "simulate", "--scenario",
                                     str(p))
            assert code == 4 and out is None
            assert err["error"]["kind"] == "parse"
            assert str(p) in err["error"]["message"]

    @pytest.mark.parametrize("key,value", [
        ("sample_sizes", "[10, 1e400]"), ("seed", "1e400"),
        ("replications", "1e400"), ("eval_points", "[0.0, 1e400]"),
        pytest.param("eval_points", "[0, 1" + "0" * 400 + "]",
                     id="eval_points-10**400"), ("boundary", "NaN"),
        ("boundary", "1e400"), ("boundary", "-Infinity"),
        ("lifetime_dist", '{"kind": "weibull", "shape": NaN, "scale": 1}')])
    def test_out_of_range_scenario_number_is_parse_error(self, capsys,
                                                         monkeypatch,
                                                         tmp_path, key,
                                                         value):
        # refused while the file is read, before any replication runs
        monkeypatch.setattr(cli, "run_scenario", None)
        doc = builtin_scenario("normal-iid", replications=2).to_dict()
        doc[key] = "BIG"
        p = tmp_path / "big.json"
        p.write_text(json.dumps(doc).replace('"BIG"', value))
        code, out, err = run_cli(capsys, "simulate", "--scenario", str(p))
        assert code == 4 and out is None
        assert err["error"]["kind"] == "parse"
        assert str(p) in err["error"]["message"]

    @pytest.mark.parametrize("key,value", [
        ("replications", "2.7"), ("replications", "true"),
        ("replications", '"2"'), ("sample_sizes", "[10.9]"),
        ("seed", "5.5"), ("seed", '"7"'), ("seed", "-3"),
        ("sample_sizes", "[10, 1000000000000000000]"),
        ("replications", "100001"), ("eval_points", '["a"]'),
        ("boundary", "true"), ("boundary", '"0"')])
    def test_non_whole_scenario_count_is_domain_error(self, capsys,
                                                      monkeypatch, tmp_path,
                                                      key, value):
        # refused before any replication runs, naming the field
        monkeypatch.setattr(cli, "run_scenario", None)
        doc = builtin_scenario("normal-iid", replications=2).to_dict()
        doc[key] = "BAD"
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc).replace('"BAD"', value))
        code, out, err = run_cli(capsys, "simulate", "--scenario", str(p))
        assert code == 5 and out is None
        assert err["error"]["kind"] == "domain"
        assert key in err["error"]["message"]

    def test_negative_seed_flag_is_domain_error(self, capsys, monkeypatch):
        # refused before any draw: run_scenario is never reached
        monkeypatch.setattr(cli, "run_scenario", None)
        for flags, message in (
                (["--seed", "-1"], "seed must be >= 0"),
                (["--n", "15,1000000000000000000"],
                 "sample_sizes must be at most 1000000"),
                (["--reps", "100001"], "replications must be at most 100000")):
            code, out, err = run_cli(capsys, "simulate", "--scenario",
                                     "normal-iid", "--estimators", "edf",
                                     *flags)
            assert code == 5 and out is None
            assert message in err["error"]["message"]

    def test_scenario_file_encoding(self, capsys, tmp_path):
        text = json.dumps(builtin_scenario("normal-iid", replications=2,
                                           sample_sizes=(10,)).to_dict())
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        code, doc, _ = run_cli(capsys, "simulate", "--scenario", str(bom),
                               "--estimators", "edf")
        assert code == 0 and doc["resolved_config"]["scenario"]["seed"] == 2026
        bad = tmp_path / "latin1.json"
        bad.write_bytes(text.encode().replace(b'"normal-iid"', b'"\xff"'))
        code, out, err = run_cli(capsys, "simulate", "--scenario", str(bad))
        assert code == 4 and out is None
        assert err["error"]["kind"] == "parse"
        assert str(bad) in err["error"]["message"]

    def test_unknown_scenario_is_io_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--scenario",
                               "no-such-thing")
        assert code == 3 and err["error"]["kind"] == "io"

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_workers_below_one_is_domain_error(self, capsys, workers):
        code, doc, err = run_cli(capsys, "simulate", "--scenario",
                                 "normal-iid", "--reps", "2", "--n", "10",
                                 "--workers", workers)
        assert code == 5 and doc is None
        assert err["error"]["kind"] == "domain"
        assert "workers must be >= 1" in err["error"]["message"]

    def test_unknown_estimator_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--scenario",
                               "normal-iid", "--reps", "2", "--n", "10",
                               "--estimators", "magic")
        assert code == 5 and err["error"]["kind"] == "domain"

    def test_repeated_estimator_is_domain_error(self, capsys, tmp_path):
        out = tmp_path / "report.csv"
        code, doc, err = run_cli(capsys, "simulate", "--scenario",
                                 "normal-iid", "--reps", "2", "--n", "15",
                                 "--estimators", "edf,edf", "--output",
                                 str(out))
        assert code == 5 and doc is None and not out.exists()
        assert err["error"] == {"kind": "domain",
                                "message": "estimator 'edf' is named twice"}

    def test_give_up_names_the_last_error(self, capsys):
        code, doc, err = run_cli(capsys, "simulate", "--scenario",
                                 "normal-iid", "--reps", "1", "--n", "1")
        assert code == 5 and doc is None
        assert err["error"] == {
            "kind": "domain",
            "message": "replication 0 failed 100 times; the last attempt "
                       "raised DegenerateSampleError: leave-one-out needs "
                       "at least two events"}


def _threads():
    return [get() for _, get, _ in blas._blas_libraries()]


needs_openblas = pytest.mark.skipif(not blas._blas_libraries(),
                                    reason="no OpenBLAS loaded")

# one quick run of each command; CSV and CENSORED name the inputs, OUT
# the CSV path
_EVERY_COMMAND = {
    "estimate": ["estimate", "--input", "CSV", "--grid", "-3:3:11",
                 "--output", "OUT"],
    "survival": ["survival", "--input", "CENSORED", "--output", "OUT"],
    "bandwidth": ["bandwidth", "--input", "CSV", "--ecf-out", "OUT"],
    "deficiency": ["deficiency", "--expansion-base", "1:1:2:log-factor",
                   "--expansion-better", "1:1:1:log-factor", "--n", "100"],
    "kernel-table": ["kernel-table", "--output", "OUT"],
    "simulate": ["simulate", "--scenario", "normal-iid", "--n", "15",
                 "--reps", "4", "--seed", "9", "--output", "OUT"],
}


def _repo_src_env(**extra):
    src = Path(__file__).resolve().parents[1] / "src"
    return {**os.environ, "PYTHONPATH": str(src), **extra}


def _start_env(threads=None):
    """_repo_src_env with OPENBLAS_NUM_THREADS unset, or set to threads."""
    env = _repo_src_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


def _fresh_json(code, env=None):
    """The JSON last line that code prints in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env or _repo_src_env())
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# a short command that loads no scipy and reads no input
_DEFICIENCY = ["deficiency", "--expansion-base", "1:1:2:log-factor",
               "--expansion-better", "1:1:1:log-factor", "--n", "100"]


class TestBlasGuard:
    """cli.main runs every command with numpy's OpenBLAS at one thread,
    reports that on stdout, and gives the caller's count back."""

    @pytest.mark.parametrize("found", [True, False])
    @pytest.mark.parametrize("command", list(_EVERY_COMMAND))
    def test_blas_diagnostics_only_on_stdout(self, capsys, monkeypatch,
                                             tmp_path, sample_csv,
                                             censored_csv, command, found):
        argv = _EVERY_COMMAND[command]

        def run(out):
            names = {"CSV": sample_csv, "CENSORED": censored_csv,
                     "OUT": str(out)}
            return run_cli(capsys, *(names.get(a, a) for a in argv))

        # the CSV is the same whether or not the guard found a library
        guarded = tmp_path / "guarded.csv"
        assert run(guarded)[0] == 0
        if not found:
            monkeypatch.setattr(blas, "_blas_libraries", lambda: [])
        libs = blas._blas_libraries()
        out = tmp_path / "out.csv"
        code, doc, _ = run(out)
        assert code == 0
        assert doc["diagnostics"] == {"blas": {
            "libraries": [name for name, _, _ in libs],
            "caller_threads": [get() for _, get, _ in libs],
            "threads": 1 if libs else None}}
        if "OUT" in argv:
            assert not doc.keys() & {"t", "value", "cells"}
            assert out.read_text() == guarded.read_text()
            assert "blas" not in out.read_text()

    @needs_openblas
    @pytest.mark.parametrize("rows, code", [
        (None, 0), ("missing", 3), ("time\n1.0\nabc\n", 4),
        ("time,event\n1.0,1\n2.0,0\n3.0,1\n", 5)],
        ids=["ok", "io", "parse", "domain"])
    def test_one_thread_during_a_command_and_restored_after(
            self, capsys, monkeypatch, tmp_path, sample_csv, caller_threads,
            rows, code):
        if rows is None:
            path = sample_csv
        else:
            path = str(tmp_path / "in.csv")
            if rows != "missing":
                Path(path).write_text(rows)
        seen = []
        real = cli.iolib.read_sample_csv

        def recording(*args):
            seen.append(_threads())
            return real(*args)

        monkeypatch.setattr(cli.iolib, "read_sample_csv", recording)
        assert run_cli(capsys, "estimate", "--input", path)[0] == code
        assert seen == [[1] * len(caller_threads)]
        assert _threads() == caller_threads

    @needs_openblas
    def test_import_leaves_the_thread_count(self):
        code = ("import numpy, scipy.linalg, scipy.special\n"
                "from ftcdf import blas\n"
                "libs = blas._blas_libraries()\n"
                "for _, _, set_ in libs: set_(3)\n"
                "import ftcdf.cli\n"
                "print([get() for _, get, _ in libs])\n")
        done = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True,
                              env=_repo_src_env())
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"{[3] * len(_threads())}\n"

    def test_same_bytes_at_one_and_two_threads(self, tmp_path):
        # at the OpenBLAS default this input printed 13 of 257 rows with
        # other bits at one and at two threads, by up to 4.4e-16
        # (OpenBLAS 0.3.31, 2-vCPU x86-64)
        x = np.random.default_rng(5).standard_normal(20000)
        data = tmp_path / "normal.csv"
        data.write_text("time\n" + "".join(f"{v!r}\n" for v in x.tolist()))
        docs, curves = [], []
        for threads in ("1", "2"):
            run_dir = tmp_path / threads
            run_dir.mkdir()
            done = subprocess.run(
                [sys.executable, "-m", "ftcdf.cli", "estimate", "--input",
                 str(data), "--bandwidth", "0.2", "--grid", "-5:5:257",
                 "--output", "curve.csv"],
                capture_output=True, text=True, cwd=run_dir,
                env=_repo_src_env(OPENBLAS_NUM_THREADS=threads))
            assert done.returncode == 0, done.stderr
            doc = strict_json(done.stdout)
            blas_doc = doc["diagnostics"]["blas"]
            assert blas_doc["threads"] == (1 if blas_doc["libraries"]
                                           else None)
            blas_doc.pop("caller_threads")
            docs.append(doc)
            curves.append((run_dir / "curve.csv").read_bytes())
        assert docs[0] == docs[1]
        assert curves[0] == curves[1]


class TestStartUp:
    """Importing ftcdf.cli before numpy sets OPENBLAS_NUM_THREADS to 1,
    unless the caller set it, so OpenBLAS loads at one thread."""

    _PROBE = ("import json, os, ftcdf.cli\n"
              "from ftcdf import blas\n"
              "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'),\n"
              "                  [get() for _, get, _ in "
              "blas._blas_libraries()]]))\n")

    @staticmethod
    def _threads_available(threads):
        if threads is not None and len(os.sched_getaffinity(0)) < int(threads):
            pytest.skip(f"OpenBLAS caps {threads} threads at the CPU count")

    @needs_openblas
    @pytest.mark.parametrize("threads, at_load", [(None, "1"), ("2", "2")],
                             ids=["unset", "caller-2"])
    def test_import_loads_numpy_at_the_set_count(self, threads, at_load):
        self._threads_available(threads)
        variable, counts = _fresh_json(self._PROBE, _start_env(threads))
        assert variable == at_load
        assert counts and counts == [int(at_load)] * len(counts)

    @needs_openblas
    @pytest.mark.parametrize("threads, caller", [(None, 1), ("2", 2)],
                             ids=["unset", "caller-2"])
    def test_module_run_reports_the_count_at_start(self, threads, caller):
        self._threads_available(threads)
        done = subprocess.run([sys.executable, "-m", "ftcdf.cli",
                               *_DEFICIENCY], capture_output=True, text=True,
                              env=_start_env(threads))
        assert done.returncode == 0, done.stderr
        blas_doc = strict_json(done.stdout)["diagnostics"]["blas"]
        assert blas_doc["libraries"]
        assert blas_doc["caller_threads"] == \
            [caller] * len(blas_doc["libraries"])
        assert blas_doc["threads"] == 1

    def test_numpy_loaded_first_leaves_the_environment(self):
        assert _fresh_json(
            "import json, os, numpy\n"
            "before = dict(os.environ)\n"
            "import ftcdf.cli\n"
            "print(json.dumps(dict(os.environ) == before))\n",
            _start_env()) is True


class TestPoolLoad:
    """ftcdf loads the pool stack (concurrent.futures, multiprocessing,
    socket, subprocess) only when a study opens a pool.  scipy.special
    imports all but multiprocessing itself, so the curve commands here
    are fits that load no scipy (TestScipyLoad)."""

    def test_only_a_pooled_study_loads_the_pool_stack(self, tmp_path,
                                                      sample_csv,
                                                      censored_csv):
        study = ["simulate", "--scenario", "normal-iid", "--n", "15",
                 "--reps", "4", "--seed", "9"]
        runs = [
            ["estimate", "--input", sample_csv, "--kernel", "smooth"],
            ["survival", "--input", censored_csv, "--kernel", "smooth",
             "--boundary", "0", "--standardize"],
            ["bandwidth", "--input", sample_csv, "--ecf-out",
             str(tmp_path / "ecf.csv")],
            _DEFICIENCY,
            [*study, "--workers", "1", "--output",
             str(tmp_path / "serial.csv")],
            [*study, "--workers", "2", "--output",
             str(tmp_path / "pooled.csv")]]
        code = ("import contextlib, io, json, sys\n"
                "import ftcdf.simulate as sim\n"
                "from ftcdf.cli import main\n"
                "stack = ('concurrent.futures', 'multiprocessing',\n"
                "         'socket', 'subprocess')\n"
                "sim.os.cpu_count = lambda: 2\n"
                "real, pools = sim._process_pool, []\n"
                "def counted(**kwargs):\n"
                "    pools.append(kwargs)\n"
                "    return real(**kwargs)\n"
                "sim._process_pool = counted\n"
                "seen = []\n"
                f"for argv in {runs!r}:\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        assert main(argv) == 0, argv\n"
                "    seen.append([argv[0], len(pools),\n"
                "                 [m for m in stack if m in sys.modules]])\n"
                "print(json.dumps(seen))\n")
        *fits, serial, pooled = _fresh_json(code)
        assert fits == [[argv[0], 0, []] for argv in runs[:4]]
        # a study loads scipy.special, but opens no pool at one process
        assert serial[1] == 0 and "multiprocessing" not in serial[2]
        assert pooled == ["simulate", 1, ["concurrent.futures",
                                          "multiprocessing", "socket",
                                          "subprocess"]]
        assert (tmp_path / "pooled.csv").read_bytes() == \
            (tmp_path / "serial.csv").read_bytes()


class TestScipyLoad:
    """scipy loads only where a special function is evaluated: ndtr and
    ndtri (Gaussian kernel and normal draws) and sici (the trapezoid's
    Kbar)."""

    def test_import_loads_no_scipy(self):
        assert _fresh_json(
            "import json, sys, ftcdf.cli\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.split('.')[0] == 'scipy')))\n") == []

    def test_smooth_commands_load_no_scipy(self, tmp_path, sample_csv,
                                           censored_csv):
        runs = [
            ["survival", "--input", censored_csv, "--kernel", "smooth",
             "--boundary", "0", "--standardize", "--grid", "0:3:31"],
            ["estimate", "--input", sample_csv, "--kernel", "smooth"],
            ["bandwidth", "--input", sample_csv, "--ecf-out",
             str(tmp_path / "ecf.csv")],
            ["kernel-table", "--kernel", "smooth", "--output",
             str(tmp_path / "table.csv")],
            ["deficiency", "--expansion-base", "1:1:2:log-factor",
             "--expansion-better", "1:1:1:log-factor", "--n", "100"],
            ["deficiency", "--assumption", "band-limited", "--F", "0.5",
             "--f", "0.25", "--n", "100"],
            ["deficiency", "--assumption", "band-limited", "--F", "0.5",
             "--f", "0.25", "--n", "100", "--kernel", "smooth", "--c",
             "0.6"]]
        code = ("import contextlib, io, json, sys\n"
                "from ftcdf.cli import main\n"
                "seen = []\n"
                f"for argv in {runs!r}:\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        assert main(argv) == 0, argv\n"
                "    seen.append([argv[0], sorted(\n"
                "        m for m in sys.modules if m.split('.')[0] == 'scipy')])\n"
                "print(json.dumps(seen))\n")
        assert _fresh_json(code) == [[argv[0], []] for argv in runs]


class TestFloatingPointErrors:
    """numpy overflow, invalid and divide never warn on stderr: each is a
    domain error, with one JSON document on stderr."""

    @pytest.fixture()
    def tiny_csv(self, tmp_path):
        # magnitudes near 1e-310: the default frequency grid overflows
        p = tmp_path / "tiny.csv"
        p.write_text("time\n" + "".join(f"{k * 1e-310!r}\n"
                                          for k in range(1, 11)))
        return str(p)

    # each message names the stage that failed and the flags that set it
    @pytest.mark.parametrize("data,argv,message", [
        pytest.param("sample_csv", ("estimate", "--bandwidth", "1e308"),
                     "the default grid (data range padded by 3h) is not "
                     "finite; pass --grid", id="sample_csv-argv0---grid"),
        pytest.param("sample_csv", ("estimate", "--bandwidth", "1e-320",
                                    "--grid", "0:1:3"),
                     "kernel sum (--bandwidth, --grid): overflow",
                     id="sample_csv-argv1-overflow"),
        pytest.param("sample_csv", ("bandwidth", "--freq-grid", "0:1e308:5"),
                     "ECF (--freq-grid): overflow",
                     id="sample_csv-argv2-overflow"),
        pytest.param("tiny_csv", ("estimate",),
                     "default frequency grid (data scale): overflow",
                     id="tiny_csv-argv3-overflow"),
        # CV reads no ECF, but --ecf-out asks for it on the default grid
        pytest.param("tiny_csv", ("bandwidth", "--method", "cv",
                                  "--ecf-out", os.devnull),
                     "default frequency grid (data scale): overflow",
                     id="tiny_csv-argv4-overflow")])
    def test_is_domain_error(self, capsys, request, data, argv, message):
        code = main([*argv, "--input", request.getfixturevalue(data)])
        captured = capsys.readouterr()
        assert code == 5 and captured.out == ""
        err = strict_json(captured.err)
        assert err["error"]["kind"] == "domain"
        assert err["error"]["message"].startswith(message)

    @pytest.mark.parametrize("argv", [
        pytest.param(("estimate", "--kernel", "gaussian"), id="estimate"),
        pytest.param(("survival", "--kernel", "gaussian"), id="survival"),
        pytest.param(("bandwidth", "--method", "cv"), id="bandwidth-cv")])
    def test_gaussian_fit_builds_no_frequency_grid(self, capsys, tiny_csv,
                                                   argv):
        # cross-validation reads no ECF, so the grid that overflows for
        # the threshold rule is never built
        code = main([*argv, "--input", tiny_csv])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        doc = strict_json(captured.out)
        bw = doc["resolved_config"]["bandwidth"]
        assert bw["mode"] == "cv" and 0.0 < bw["value"] < 1e-308
        assert bw.get("freq_grid") is None


class TestFiniteFlags:
    def test_every_float_flag_uses_the_finite_type(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        finite = 0
        for command, p in sub.choices.items():
            for action in p._actions:
                assert action.type in (None, int, cli._finite_float), \
                    (command, action.option_strings, action.type)
                finite += action.type is cli._finite_float
        assert finite > 0

    @pytest.mark.parametrize("argv", [
        ("estimate", "--boundary", "nan"),
        ("survival", "--c=-inf"),
        ("survival", "--effective-c", "inf"),
        ("bandwidth", "--effective-c", "NaN"),
        ("kernel-table", "--tol", "1e400"),
        ("deficiency", "--assumption", "band-limited",
         "--F", "0.5", "--f", "0.25", "--c", "nan", "--n", "10"),
    ])
    def test_non_finite_flag_is_usage_error(self, capsys, sample_csv, argv):
        if argv[0] in ("estimate", "survival", "bandwidth"):
            argv += ("--input", sample_csv)
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "expected a finite number" in captured.err

    def test_parser_surface(self):
        # every settable value of each subcommand; a new knob is a
        # deliberate edit here
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        curve = ["--bandwidth", "--boundary", "--c", "--effective-c",
                 "--grid", "--input", "--kernel", "--output", "--standardize"]
        want = {
            "estimate": curve,
            "survival": curve,
            "bandwidth": ["--ecf-out", "--effective-c", "--freq-grid",
                          "--input", "--method"],
            "deficiency": ["--F", "--a", "--assumption", "--c", "--d",
                           "--expansion-base", "--expansion-better",
                           "--f", "--kernel", "--n", "--p"],
            "kernel-table": ["--c", "--kernel", "--output", "--tol"],
            "simulate": ["--estimators", "--n", "--output",
                         "--reps", "--scenario", "--seed", "--workers"],
        }
        got = {command: sorted(s for a in p._actions for s in a.option_strings
                               if s not in ("-h", "--help"))
               for command, p in sub.choices.items()}
        assert got == want

    def test_non_numeric_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["kernel-table", "--c", "abc"])
        assert exc.value.code == 2
        assert "expected a finite number, got 'abc'" in \
            capsys.readouterr().err
