from __future__ import annotations

import json

import numpy as np
import pytest

from ftcdf.bandwidth import auto_bandwidth, cv_bandwidth_km, default_cv_grid
from ftcdf.cli import main
from ftcdf.estimators import CensoredSample, EstimatorConfig, evaluate_on_grid
from ftcdf.io import read_sample_csv
from ftcdf.kernels import TRAPEZOID, FlatTopSpec, get_table
from ftcdf.simulate import builtin_scenario, run_scenario
from ftcdf.survival import smoothed_survival_on_grid


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out else None
    err = json.loads(captured.err) if captured.err else None
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
        lines = open(out).read().splitlines()
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
                open(out).read().splitlines()[1:]]
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
        assert open(a).read() == open(b).read()

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

    def test_gaussian_needs_explicit_bandwidth(self, capsys, sample_csv):
        code, _, err = run_cli(capsys, "estimate", "--input", sample_csv,
                               "--kernel", "gaussian")
        assert code == 5 and err["error"]["kind"] == "domain"

    def test_cv_requires_gaussian(self, capsys, sample_csv):
        code, _, err = run_cli(capsys, "estimate", "--input", sample_csv,
                               "--bandwidth", "cv")
        assert code == 5 and err["error"]["kind"] == "domain"

    def test_bad_bandwidth_token(self, capsys, sample_csv):
        code, _, err = run_cli(capsys, "estimate", "--input", sample_csv,
                               "--bandwidth", "nonsense")
        assert code == 4 and err["error"]["kind"] == "parse"

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

    @pytest.mark.parametrize("grid", ["nan", "0,nan", "nan:1:5", "0:inf:3"])
    def test_nonfinite_grid_is_parse_error(self, capsys, sample_csv, grid):
        code, doc, err = run_cli(capsys, "estimate", "--input", sample_csv,
                                 "--grid", grid)
        assert code == 4 and doc is None
        assert err["error"]["kind"] == "parse"
        assert grid in err["error"]["message"]

    def test_nonfinite_freq_grid_is_parse_error(self, capsys, sample_csv):
        code, _, err = run_cli(capsys, "bandwidth", "--input", sample_csv,
                               "--freq-grid", "0:nan:64")
        assert code == 4 and err["error"]["kind"] == "parse"

    def test_input_not_mutated(self, capsys, sample_csv):
        before = open(sample_csv, "rb").read()
        run_cli(capsys, "estimate", "--input", sample_csv,
                "--grid", "-1:1:11")
        assert open(sample_csv, "rb").read() == before

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate"])
        assert exc.value.code == 2


class TestSurvival:
    def test_boundary_curve_starts_at_one(self, capsys, tmp_path,
                                          censored_csv):
        out = str(tmp_path / "surv.csv")
        code, doc, _ = run_cli(capsys, "survival", "--input", censored_csv,
                               "--kernel", "smooth", "--boundary", "0",
                               "--grid", "0:3:31", "--output", out)
        assert code == 0
        assert doc["censored"] > 0
        rows = open(out).read().splitlines()[1:]
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

    def test_accepts_uncensored_too(self, capsys, sample_csv):
        code, doc, _ = run_cli(capsys, "survival", "--input", sample_csv,
                               "--grid", "-1:1:3")
        assert code == 0 and doc["censored"] == 0


class TestBandwidth:
    def test_auto_matches_library(self, capsys, sample_csv):
        code, doc, _ = run_cli(capsys, "bandwidth", "--input", sample_csv)
        assert code == 0
        sample = read_sample_csv(sample_csv)
        assert doc["h"] == auto_bandwidth(sample, 0.75)
        bw = doc["resolved_config"]["bandwidth"]
        assert bw["t_star"] == 0.75 / doc["h"]

    def test_ecf_curve_written(self, capsys, tmp_path, sample_csv):
        out = str(tmp_path / "ecf.csv")
        code, _, _ = run_cli(capsys, "bandwidth", "--input", sample_csv,
                             "--ecf-out", out)
        assert code == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "t,magnitude"
        f0, m0 = lines[1].split(",")
        assert float(f0) == 0.0 and float(m0) == 1.0

    def test_cv_method_matches_library(self, capsys, sample_csv):
        code, doc, _ = run_cli(capsys, "bandwidth", "--input", sample_csv,
                               "--method", "cv")
        assert code == 0
        sample = read_sample_csv(sample_csv)
        assert doc["h"] == cv_bandwidth_km(sample, default_cv_grid(sample))

    def test_cv_method_on_censored_input(self, capsys, censored_csv):
        code, doc, _ = run_cli(capsys, "bandwidth", "--input", censored_csv,
                               "--method", "cv")
        assert code == 0 and doc["censored"] > 0
        sample = read_sample_csv(censored_csv)
        assert doc["h"] == cv_bandwidth_km(sample, default_cv_grid(sample))
        assert doc["resolved_config"]["bandwidth"]["mode"] == "cv"


class TestDeficiency:
    def test_assumption_mode(self, capsys):
        code, doc, _ = run_cli(
            capsys, "deficiency", "--assumption", "exponential",
            "--d", "1", "--D", "1", "--F", "0.5", "--f", "0.25",
            "--cross-moment", "0.19", "--a", "1", "--n", "1e6")
        assert code == 0
        assert doc["rate"] == "n/log n"
        n = 1e6
        want = 1 * (2 * 0.25 * 0.19 / 0.25) * n / np.log(n)
        assert doc["values"][0]["deficiency"] == pytest.approx(want)

    def test_band_limited_needs_no_premultiplier(self, capsys):
        code, doc, _ = run_cli(
            capsys, "deficiency", "--assumption", "band-limited",
            "--b-limit", "1", "--F", "0.5", "--f", "0.25",
            "--cross-moment", "0.19", "--n", "100")
        assert code == 0 and doc["rate"] == "n"

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

    def test_no_mode_given(self, capsys):
        code, _, err = run_cli(capsys, "deficiency", "--n", "100")
        assert code == 4 and err["error"]["kind"] == "parse"

    def test_assumption_missing_params(self, capsys):
        code, _, err = run_cli(capsys, "deficiency", "--assumption",
                               "polynomial", "--n", "100")
        assert code == 5 and err["error"]["kind"] == "domain"

    def test_bad_expansion_text(self, capsys):
        code, _, err = run_cli(capsys, "deficiency",
                               "--expansion-base", "1:1",
                               "--expansion-better", "1:1:0:log-factor",
                               "--n", "10")
        assert code == 4


class TestKernelTable:
    def test_csv_and_json_artifacts(self, capsys, tmp_path):
        out = str(tmp_path / "tab.csv")
        jout = str(tmp_path / "tab.json")
        code, doc, _ = run_cli(capsys, "kernel-table", "--kernel",
                               "trapezoid", "--c", "0.5", "--tol", "1e-4",
                               "--output", out, "--json", jout)
        assert code == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "x,k,kbar,kbar_rectified"
        assert len(lines) == doc["points"] + 1
        vals = [float(v) for v in lines[1].split(",")]
        assert len(vals) == 4
        # the fourth column is the standardized Kbar: a valid CDF path
        cols = np.array([[float(v) for v in ln.split(",")]
                         for ln in lines[1:]])
        assert np.all(np.diff(cols[:, 3]) >= 0.0)
        assert cols[:, 3].min() >= 0.0 and cols[:, 3].max() <= 1.0
        assert cols[0, 3] == max(cols[0, 2], 0.0)
        # while the raw Kbar column genuinely leaves [0, 1]
        assert cols[:, 2].max() > 1.0 and cols[:, 2].min() < 0.0
        table = json.load(open(jout))
        assert table["family"] == "trapezoid" and table["c"] == 0.5
        assert len(table["grid"]) == doc["points"]

    def test_gaussian_rejected(self, capsys):
        code, _, err = run_cli(capsys, "kernel-table", "--kernel",
                               "gaussian")
        assert code == 5 and err["error"]["kind"] == "domain"


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
        assert open(out).read() == run_scenario(sc).to_csv()

    def test_scenario_json_file(self, capsys, tmp_path):
        sc = builtin_scenario("polya-bandlimited", replications=2,
                              sample_sizes=(10,))
        p = tmp_path / "scen.json"
        p.write_text(json.dumps(sc.to_dict()))
        code, doc, _ = run_cli(capsys, "simulate", "--scenario", str(p))
        assert code == 0
        assert doc["resolved_config"]["scenario"]["name"] == \
            "polya-bandlimited"
        assert doc["cells"]

    def test_estimator_subset(self, capsys, tmp_path):
        out = str(tmp_path / "sub.csv")
        code, _, _ = run_cli(capsys, "simulate", "--scenario", "normal-iid",
                             "--n", "15", "--reps", "3", "--seed", "1",
                             "--estimators", "edf", "--output", out)
        assert code == 0
        rows = open(out).read().splitlines()[1:]
        assert rows and all(r.startswith("edf,") for r in rows)

    def test_invalid_scenario_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(p))
        assert code == 4 and err["error"]["kind"] == "parse"

    def test_unknown_scenario_is_io_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--scenario",
                               "no-such-thing")
        assert code == 3 and err["error"]["kind"] == "io"

    def test_unknown_estimator_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--scenario",
                               "normal-iid", "--reps", "2", "--n", "10",
                               "--estimators", "magic")
        assert code == 5 and err["error"]["kind"] == "domain"
