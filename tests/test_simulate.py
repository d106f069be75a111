"""Monte Carlo harness: determinism, accounting, and report contracts.

The heavy table-reproduction runs live in test_acceptance; these tests
keep replication counts small and exercise the machinery.
"""
from __future__ import annotations

import numpy as np
import pytest

import ftcdf.simulate as sim
from ftcdf.bandwidth import NoPlateauError
from ftcdf.distributions import DistSpec
from ftcdf.estimators import DegenerateSampleError
from ftcdf.simulate import (BUILTIN_SCENARIOS, MseReport, Scenario,
                            builtin_scenario, run_scenario,
                            zero_bias_experiment)


class TestScenario:
    def test_builtin_names(self):
        for name in BUILTIN_SCENARIOS:
            sc = builtin_scenario(name, seed=1, replications=3)
            assert sc.name == name
            assert sc.replications == 3

    def test_builtin_normal(self):
        sc = builtin_scenario("normal-iid")
        assert sc.lifetime_dist == DistSpec("normal")
        assert sc.censor_dist is None
        assert sc.eval_points == (-1.5, 0.0, 1.5)
        assert sc.sample_sizes == (15, 30)
        assert sc.estimand == sim.CDF
        assert sc.boundary is None

    def test_builtin_weibull(self):
        sc = builtin_scenario("weibull-censored")
        assert sc.lifetime_dist == DistSpec("weibull", 3.0, 1.5)
        assert sc.censor_dist == DistSpec("weibull", 4.0, 3.0)
        assert sc.eval_points == (0.75, 1.25, 1.75)
        assert sc.estimand == sim.SURVIVAL
        assert sc.boundary == 0.0

    def test_builtin_polya(self):
        sc = builtin_scenario("polya-bandlimited")
        assert sc.lifetime_dist == DistSpec("polya")
        assert sc.censor_dist is None
        assert sc.eval_points == (0.0, 2.0, 5.0)

    def test_builtin_unknown(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            builtin_scenario("cauchy-iid")

    def test_validation(self):
        good = dict(name="s", lifetime_dist=DistSpec("normal"),
                    censor_dist=None, eval_points=(0.0,),
                    sample_sizes=(5,), replications=1, seed=0)
        Scenario(**good)
        with pytest.raises(ValueError, match="eval_points"):
            Scenario(**{**good, "eval_points": ()})
        with pytest.raises(ValueError, match="eval_points"):
            Scenario(**{**good, "eval_points": (1.0, 1.0)})
        with pytest.raises(ValueError, match="sample_sizes"):
            Scenario(**{**good, "sample_sizes": (0,)})
        with pytest.raises(ValueError, match="replications"):
            Scenario(**{**good, "replications": 0})
        with pytest.raises(ValueError, match="estimand"):
            Scenario(**{**good, "estimand": "hazard"})
        with pytest.raises(ValueError, match="survival"):
            Scenario(**{**good, "censor_dist": DistSpec("normal")})

    def test_dict_roundtrip(self):
        sc = builtin_scenario("weibull-censored", seed=11, replications=7)
        assert Scenario.from_dict(sc.to_dict()) == sc
        sc = builtin_scenario("normal-iid", seed=3)
        assert Scenario.from_dict(sc.to_dict()) == sc


@pytest.fixture(scope="module")
def small_report():
    sc = builtin_scenario("normal-iid", seed=17, replications=20,
                          sample_sizes=(15,))
    return run_scenario(sc)


class TestRunScenario:
    def test_cells_cover_grid(self, small_report):
        labels = {c.estimator for c in small_report.cells}
        assert labels == {"edf", "gauss-cv", "trap-auto", "smooth-auto",
                          "gauss-cv+raw", "trap-auto+raw",
                          "smooth-auto+raw"}
        for label in labels:
            pts = sorted(c.t for c in small_report.cells
                         if c.estimator == label)
            assert pts == [-1.5, 0.0, 1.5]

    def test_decomposition(self, small_report):
        for c in small_report.cells:
            assert c.mse == pytest.approx(c.bias ** 2 + c.variance,
                                          rel=1e-12)

    def test_replication_count_and_se(self, small_report):
        for c in small_report.cells:
            assert c.reps == 20
            assert c.se is not None and c.se >= 0.0

    def test_deterministic_rerun(self, small_report):
        sc = builtin_scenario("normal-iid", seed=17, replications=20,
                              sample_sizes=(15,))
        assert run_scenario(sc).to_csv() == small_report.to_csv()

    def test_worker_count_invariance(self):
        sc = builtin_scenario("weibull-censored", seed=99, replications=10,
                              sample_sizes=(15,))
        base = run_scenario(sc, workers=1)
        assert run_scenario(sc, workers=2).to_csv() == base.to_csv()

    def test_seed_changes_values(self, small_report):
        sc = builtin_scenario("normal-iid", seed=18, replications=20,
                              sample_sizes=(15,))
        assert run_scenario(sc).to_csv() != small_report.to_csv()

    def test_estimator_subset_matches_full(self, small_report):
        sc = builtin_scenario("normal-iid", seed=17, replications=20,
                              sample_sizes=(15,))
        sub = run_scenario(sc, estimators=("edf", "trap-auto"))
        for c in sub.cells:
            full = small_report.cell(c.estimator, c.t, c.n)
            assert c == full

    def test_unknown_estimator(self):
        sc = builtin_scenario("normal-iid", replications=2)
        with pytest.raises(ValueError, match="unknown estimator"):
            run_scenario(sc, estimators=("epanechnikov",))

    def test_standardized_no_worse_than_raw(self, small_report):
        for name in ("trap-auto", "smooth-auto", "gauss-cv"):
            for t in (-1.5, 0.0, 1.5):
                std = small_report.cell(name, t, 15).mse
                raw = small_report.cell(name + "+raw", t, 15).mse
                assert std <= raw + 1e-15

    def test_gaussian_path_already_monotone(self, small_report):
        # a true-CDF kernel needs no standardization, so both variants
        # coincide
        for t in (-1.5, 0.0, 1.5):
            std = small_report.cell("gauss-cv", t, 15)
            raw = small_report.cell("gauss-cv+raw", t, 15)
            assert std.mse == raw.mse and std.bias == raw.bias

    def test_cell_lookup_missing(self, small_report):
        with pytest.raises(KeyError):
            small_report.cell("edf", 0.25, 15)

    def test_csv_shape(self, small_report):
        lines = small_report.to_csv().splitlines()
        assert lines[0] == MseReport.CSV_HEADER
        assert len(lines) == 1 + len(small_report.cells)
        first = lines[1].split(",")
        assert first[0] == "edf"
        assert float(first[3]) == small_report.cells[0].mse

    def test_dict_schema(self, small_report):
        d = small_report.to_dict()
        assert d["schema"] == 1
        assert d["replications"] == 20
        assert len(d["cells"]) == len(small_report.cells)

    def test_censored_scenario_rows(self):
        sc = builtin_scenario("weibull-censored", seed=4, replications=8,
                              sample_sizes=(20,))
        rep = run_scenario(sc, estimators=("edf", "trap-auto"))
        assert rep.estimand == sim.SURVIVAL
        # survival values live in [0, 1], so squared errors stay below 1
        assert all(0.0 <= c.mse < 1.0 for c in rep.cells)


class TestRetries:
    def test_failed_selection_is_retried_and_counted(self, monkeypatch):
        calls = {"count": 0}
        real = sim._select_bandwidth

        def flaky(estimator, sample):
            calls["count"] += 1
            if calls["count"] <= 2:
                raise NoPlateauError("forced")
            return real(estimator, sample)

        monkeypatch.setattr(sim, "_select_bandwidth", flaky)
        sc = builtin_scenario("normal-iid", seed=3, replications=4,
                              sample_sizes=(15,))
        rep = run_scenario(sc, estimators=("trap-auto",))
        assert rep.retries == ((15, 2),)
        assert all(c.reps == 4 for c in rep.cells)

    def test_exhausted_retries_raise(self, monkeypatch):
        def hopeless(estimator, sample):
            raise NoPlateauError("forced")

        monkeypatch.setattr(sim, "_select_bandwidth", hopeless)
        sc = builtin_scenario("normal-iid", seed=3, replications=1,
                              sample_sizes=(15,))
        with pytest.raises(RuntimeError, match="failed"):
            run_scenario(sc, estimators=("trap-auto",))

    def test_degenerate_draw_is_retried(self, monkeypatch):
        calls = {"count": 0}
        real = sim._select_bandwidth

        def degenerate_once(estimator, sample):
            calls["count"] += 1
            if calls["count"] == 1:
                raise DegenerateSampleError("forced")
            return real(estimator, sample)

        monkeypatch.setattr(sim, "_select_bandwidth", degenerate_once)
        sc = builtin_scenario("normal-iid", seed=3, replications=2,
                              sample_sizes=(15,))
        rep = run_scenario(sc, estimators=("gauss-cv",))
        assert rep.retries == ((15, 1),)

    def test_other_errors_propagate_on_first_attempt(self, monkeypatch):
        calls = {"count": 0}

        def buggy(estimator, sample):
            calls["count"] += 1
            raise ValueError("bug")

        monkeypatch.setattr(sim, "_select_bandwidth", buggy)
        sc = builtin_scenario("normal-iid", seed=3, replications=1,
                              sample_sizes=(15,))
        with pytest.raises(ValueError, match="^bug$"):
            run_scenario(sc, estimators=("trap-auto",))
        assert calls["count"] == 1

    def test_retry_uses_fresh_substream(self):
        v0, _ = sim._replicate(builtin_scenario("normal-iid",
                                                replications=1),
                               ("edf",), 15, 0)
        # attempt index feeds the stream key, so a retry sees new data
        rng_a = sim._stream(2026, 0, 0, 0)
        rng_b = sim._stream(2026, 0, 0, 1)
        assert rng_a.random() != rng_b.random()
        assert v0.shape == (1, 3, 2)


class TestZeroBias:
    def test_report_contract(self):
        rep = zero_bias_experiment(100, 0.5, 40, seed=12)
        assert rep.n == 100 and rep.replications == 40
        assert not rep.insufficient_replications
        assert [p.t for p in rep.points] == [0.0, 2.0, 5.0]
        for p in rep.points:
            assert p.se is not None and p.se > 0.0
            # crude sanity: bias of a consistent estimator at reps=40
            assert abs(p.bias) < 0.1

    def test_single_replication_flagged(self):
        rep = zero_bias_experiment(50, 0.5, 1, seed=12)
        assert rep.insufficient_replications
        assert all(p.se is None for p in rep.points)

    def test_deterministic(self):
        a = zero_bias_experiment(60, 0.5, 5, seed=9)
        b = zero_bias_experiment(60, 0.5, 5, seed=9)
        assert a == b

    def test_control_arm_allowed(self):
        # h far above the band limit must still run; it is the control
        rep = zero_bias_experiment(60, 5.0, 5, seed=9)
        assert rep.bandwidth == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            zero_bias_experiment(0, 0.5, 5, seed=1)
        with pytest.raises(ValueError):
            zero_bias_experiment(10, 0.5, 0, seed=1)
        with pytest.raises(ValueError):
            zero_bias_experiment(10, -0.5, 5, seed=1)

    def test_dict_schema(self):
        d = zero_bias_experiment(50, 0.5, 3, seed=2).to_dict()
        assert d["schema"] == 1
        assert len(d["points"]) == 3
