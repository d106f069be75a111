"""Monte Carlo harness: determinism, accounting, and report contracts.

The heavy table-reproduction runs live in test_acceptance; these tests
keep replication counts small and exercise the machinery.
"""
from __future__ import annotations

import ctypes
import ctypes.util
import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import cached_property, partial
from pathlib import Path

import numpy as np
import pytest

import ftcdf.blas as blas
import ftcdf.estimators as estimators
import ftcdf.simulate as sim
from ftcdf.bandwidth import NoPlateauError
from ftcdf.distributions import DistSpec
from ftcdf.estimators import DegenerateSampleError
from ftcdf.simulate import (BUILTIN_SCENARIOS, MAX_REPLICATIONS,
                            MAX_SAMPLE_SIZE, MseReport,
                            Scenario, builtin_scenario, run_scenario)
from oracles import report_cell


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
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="eval_points"):
                Scenario(**{**good, "eval_points": (0.0, bad)})
            with pytest.raises(ValueError, match="boundary"):
                Scenario(**{**good, "boundary": bad})
        with pytest.raises(ValueError, match="sample_sizes"):
            Scenario(**{**good, "sample_sizes": (0,)})
        with pytest.raises(ValueError, match="replications"):
            Scenario(**{**good, "replications": 0})
        for key, bad in (("replications", 2.7), ("replications", True),
                         ("replications", "2"), ("seed", 5.5), ("seed", "7"),
                         ("seed", -3), ("seed", np.inf),
                         ("sample_sizes", (10.9,)), ("sample_sizes", (True,)),
                         ("sample_sizes", ("10",)),
                         ("sample_sizes", (5, MAX_SAMPLE_SIZE + 1)),
                         ("sample_sizes", (10 ** 18,)),
                         ("replications", MAX_REPLICATIONS + 1),
                         ("eval_points", ("a",)), ("eval_points", (True,)),
                         ("eval_points", (0.0, "1"))):
            with pytest.raises(ValueError, match=key):
                Scenario(**{**good, key: bad})
        # the caps themselves are accepted; nothing is drawn here
        sc = Scenario(**{**good, "sample_sizes": (MAX_SAMPLE_SIZE,),
                         "replications": MAX_REPLICATIONS})
        assert (sc.sample_sizes, sc.replications) == ((MAX_SAMPLE_SIZE,),
                                                      MAX_REPLICATIONS)
        sc = Scenario(**{**good, "replications": 1e3, "seed": np.int64(4),
                         "sample_sizes": (np.int32(5), 6.0)})
        assert (sc.replications, sc.seed, sc.sample_sizes) == (1000, 4, (5, 6))
        assert all(type(v) is int
                   for v in (sc.replications, sc.seed, *sc.sample_sizes))
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
            full = report_cell(small_report, c.estimator, c.t, c.n)
            assert c == full

    def test_unknown_estimator(self):
        sc = builtin_scenario("normal-iid", replications=2)
        with pytest.raises(ValueError, match="unknown estimator"):
            run_scenario(sc, estimators=("epanechnikov",))

    @pytest.mark.parametrize("names", [("edf", "edf"),
                                       ("trap-auto", "edf", "trap-auto")])
    def test_repeated_estimator_refused_before_any_draw(self, monkeypatch,
                                                        names):
        # a cell lookup could not tell the copies apart
        def no_draw(*args):
            raise AssertionError("a replication was drawn")

        monkeypatch.setattr(sim, "_stream", no_draw)
        sc = builtin_scenario("normal-iid", replications=2)
        with pytest.raises(ValueError,
                           match=f"estimator '{names[-1]}' is named twice"):
            run_scenario(sc, estimators=names)

    def test_give_up_names_the_last_error(self):
        # one observation: every attempt fails in the CV arm
        sc = builtin_scenario("normal-iid", replications=1, sample_sizes=(1,))
        with pytest.raises(RuntimeError) as info:
            run_scenario(sc, estimators=("gauss-cv",))
        assert str(info.value) == (
            "replication 0 failed 100 times; the last attempt raised "
            "DegenerateSampleError: leave-one-out needs at least two events")
        assert isinstance(info.value.__cause__, DegenerateSampleError)

    def test_one_row_flat_top_draws_are_retried(self):
        # the threshold rule refuses a one-row draw as too few rows, and
        # the study retries it as it retries a failed selection
        sc = builtin_scenario("normal-iid", replications=1, sample_sizes=(1,))
        with pytest.raises(RuntimeError) as info:
            run_scenario(sc, estimators=("trap-auto",))
        assert str(info.value) == (
            "replication 0 failed 100 times; the last attempt raised "
            "DegenerateSampleError: the threshold rule needs at least two "
            "rows; at n = 1 its noise threshold is 0")

    def test_standardized_no_worse_than_raw(self, small_report):
        for name in ("trap-auto", "smooth-auto", "gauss-cv"):
            for t in (-1.5, 0.0, 1.5):
                std = report_cell(small_report, name, t, 15).mse
                raw = report_cell(small_report, name + "+raw", t, 15).mse
                assert std <= raw + 1e-15

    def test_gaussian_path_already_monotone(self, small_report):
        # a true-CDF kernel needs no standardization, so both variants
        # coincide
        for t in (-1.5, 0.0, 1.5):
            std = report_cell(small_report, "gauss-cv", t, 15)
            raw = report_cell(small_report, "gauss-cv+raw", t, 15)
            assert std.mse == raw.mse and std.bias == raw.bias

    def test_cell_lookup_missing(self, small_report):
        with pytest.raises(KeyError):
            report_cell(small_report, "edf", 0.25, 15)

    def test_csv_shape(self, small_report):
        lines = small_report.to_csv().splitlines()
        assert lines[0] == MseReport.CSV_HEADER
        assert len(lines) == 1 + len(small_report.cells)
        first = lines[1].split(",")
        assert first[0] == "edf"
        assert float(first[3]) == small_report.cells[0].mse

    def test_censored_scenario_rows(self):
        sc = builtin_scenario("weibull-censored", seed=4, replications=8,
                              sample_sizes=(20,))
        rep = run_scenario(sc, estimators=("edf", "trap-auto"))
        assert rep.estimand == sim.SURVIVAL
        # survival values live in [0, 1], so squared errors stay below 1
        assert all(0.0 <= c.mse < 1.0 for c in rep.cells)


class _RecordingPool:
    """Stands in for simulate._process_pool: records its arguments and maps
    in this process, so no worker process is started."""
    made = []

    def __init__(self, max_workers, initializer):
        self.max_workers = max_workers
        self.initializer = initializer
        self.chunksize = None
        self.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        self.chunksize = chunksize
        return map(fn, *iterables)


class TestPool:
    @pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
    def test_worker_count_invariance_across_sizes(self, monkeypatch, name):
        # a pool that spans both sizes, with as many processes as asked
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 3)
        sc = builtin_scenario(name, seed=99, replications=6,
                              sample_sizes=(15, 30))
        base = run_scenario(sc, workers=1)
        for workers in (2, 3):
            rep = run_scenario(sc, workers=workers)
            assert rep.to_csv() == base.to_csv()
            assert rep.retries == base.retries

    def test_one_pool_per_study(self, monkeypatch, spy):
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
        pools = spy(sim, "_process_pool")
        sc = builtin_scenario("normal-iid", seed=5, replications=4,
                              sample_sizes=(10, 15, 30))
        pooled = run_scenario(sc, estimators=("edf",), workers=2)
        assert len(pools) == 1
        serial = run_scenario(sc, estimators=("edf",), workers=1)
        assert len(pools) == 1
        assert pooled == serial

    @pytest.mark.parametrize("cpus, reps, procs, chunksize", [
        (64, 3, 6, 1),       # bounded by the 6 tasks
        (2, 100, 2, 6),      # bounded by the CPUs; reps // (procs * 8)
        (None, 3, None, None),  # unknown CPU count: one process, no pool
    ])
    def test_process_count_worked_out_from_inputs(self, monkeypatch, cpus,
                                                  reps, procs, chunksize):
        monkeypatch.setattr(_RecordingPool, "made", [])
        monkeypatch.setattr(sim, "_process_pool", _RecordingPool)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: cpus)
        sc = builtin_scenario("normal-iid", seed=5, replications=reps,
                              sample_sizes=(15, 30))
        rep = run_scenario(sc, estimators=("edf",), workers=100000)
        made = [(p.max_workers, p.chunksize, p.initializer)
                for p in _RecordingPool.made]
        assert made == ([] if procs is None else
                        [(procs, chunksize, sim._pool_worker_init)])
        assert rep == run_scenario(sc, estimators=("edf",), workers=1)

    @pytest.mark.parametrize("workers", [0, -4])
    def test_workers_below_one_rejected(self, workers):
        sc = builtin_scenario("normal-iid", replications=2)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_scenario(sc, workers=workers)


class TestRetries:
    def test_failed_selection_is_retried_and_counted(self, monkeypatch):
        calls = {"count": 0}
        real = sim._fit

        def flaky(*args):
            calls["count"] += 1
            if calls["count"] <= 2:
                raise NoPlateauError("forced")
            return real(*args)

        monkeypatch.setattr(sim, "_fit", flaky)
        sc = builtin_scenario("normal-iid", seed=3, replications=4,
                              sample_sizes=(15,))
        rep = run_scenario(sc, estimators=("trap-auto",))
        assert rep.retries == ((15, 2),)
        assert all(c.reps == 4 for c in rep.cells)

    def test_exhausted_retries_raise(self, monkeypatch):
        def hopeless(*args):
            raise NoPlateauError("forced")

        monkeypatch.setattr(sim, "_fit", hopeless)
        sc = builtin_scenario("normal-iid", seed=3, replications=1,
                              sample_sizes=(15,))
        with pytest.raises(RuntimeError, match="failed"):
            run_scenario(sc, estimators=("trap-auto",))

    def test_degenerate_draw_is_retried(self, monkeypatch):
        calls = {"count": 0}
        real = sim._fit

        def degenerate_once(*args):
            calls["count"] += 1
            if calls["count"] == 1:
                raise DegenerateSampleError("forced")
            return real(*args)

        monkeypatch.setattr(sim, "_fit", degenerate_once)
        sc = builtin_scenario("normal-iid", seed=3, replications=2,
                              sample_sizes=(15,))
        rep = run_scenario(sc, estimators=("gauss-cv",))
        assert rep.retries == ((15, 1),)

    def test_draw_without_a_scale_is_retried(self, monkeypatch):
        # the first draw is n - 1 zeros and 5e-324, which has no scale
        real, draws = sim.sample_distribution, []

        def spiked_first(dist, n, rng):
            draws.append(n)
            if len(draws) == 1:
                return np.array([0.0] * (n - 1) + [5e-324])
            return real(dist, n, rng)

        monkeypatch.setattr(sim, "sample_distribution", spiked_first)
        sc = builtin_scenario("normal-iid", seed=3, replications=1,
                              sample_sizes=(15,))
        for arms in (("trap-auto",), ("gauss-cv",)):
            draws.clear()
            assert sim._replicate(sc, arms, 15, 0)[1] == 1, arms

    def test_one_scale_per_attempt(self, monkeypatch):
        # the frequency grid and the CV grid share the sample's scale
        computed = []
        real = estimators.CensoredSample.scale.func

        def counted(sample):
            computed.append(sample)
            return real(sample)

        once = cached_property(counted)
        once.__set_name__(estimators.CensoredSample, "scale")
        monkeypatch.setattr(estimators.CensoredSample, "scale", once)
        for name in BUILTIN_SCENARIOS:
            sc = builtin_scenario(name, replications=4)
            for rep in range(4):
                computed.clear()
                _, attempts = sim._replicate(sc, sim.ESTIMATORS, 15, rep)
                assert len(computed) == attempts + 1, (name, rep)
                assert len(set(map(id, computed))) == len(computed)

    def test_other_errors_propagate_on_first_attempt(self, monkeypatch):
        calls = {"count": 0}

        def buggy(*args):
            calls["count"] += 1
            raise ValueError("bug")

        monkeypatch.setattr(sim, "_fit", buggy)
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

    @pytest.mark.parametrize("name, measure", [
        ("normal-iid", "edf"), ("weibull-censored", "kaplan_meier")])
    def test_one_ecf_and_one_measure_per_attempt(self, spy, name, measure):
        ecf_calls = spy(sim, "ecf")
        measure_calls = spy(estimators, measure)
        sc = builtin_scenario(name, replications=1)
        _, attempt = sim._replicate(sc, sim.ESTIMATORS, 15, 0)
        assert len(ecf_calls) == len(measure_calls) == attempt + 1


needs_openblas = pytest.mark.skipif(not blas._blas_libraries(),
                                    reason="no OpenBLAS loaded")


def _threads():
    return [get() for _, get, _ in blas._blas_libraries()]


def _probe_threads(probe_dir, fn, *args):
    """Appends the BLAS thread counts this process sees, then its own OS
    thread count, to its file in probe_dir, and runs fn; at module level,
    so spawned workers load it."""
    tasks = len(os.listdir("/proc/self/task"))
    with open(os.path.join(probe_dir, f"{os.getpid()}.txt"), "a") as fh:
        fh.write(" ".join(map(str, _threads() + [tasks])) + "\n")
    return fn(*args)


def _hopeless(*args):
    raise NoPlateauError("forced")


def _buggy(*args):
    raise ValueError("bug")


@needs_openblas
class TestBlasGuard:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_caller_setting_restored_after_return(self, monkeypatch,
                                                  caller_threads, workers):
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
        sc = builtin_scenario("normal-iid", seed=3, replications=2,
                              sample_sizes=(15,))
        rep = run_scenario(sc, estimators=("edf",), workers=workers)
        assert _threads() == caller_threads
        names = [name for name, _, _ in blas._blas_libraries()]
        assert rep.blas == {"libraries": names,
                            "caller_threads": caller_threads, "threads": 1}

    @pytest.mark.parametrize("workers, estimators, patch, error, match", [
        (0, ("edf",), None, ValueError, "workers must be >= 1"),
        (1, ("epanechnikov",), None, ValueError, "unknown estimator"),
        (1, ("trap-auto",), _hopeless, RuntimeError, "failed 100 times"),
        (2, ("trap-auto",), _hopeless, RuntimeError, "failed 100 times"),
        (1, ("trap-auto",), _buggy, ValueError, "^bug$"),
        (2, ("trap-auto",), _buggy, ValueError, "^bug$"),
    ])
    def test_caller_setting_restored_after_raise(self, monkeypatch,
                                                 caller_threads, workers,
                                                 estimators, patch, error,
                                                 match):
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
        if patch is not None:
            monkeypatch.setattr(sim, "_fit", patch)
        sc = builtin_scenario("normal-iid", seed=3, replications=2,
                              sample_sizes=(15,))
        with pytest.raises(error, match=match):
            run_scenario(sc, estimators=estimators, workers=workers)
        assert _threads() == caller_threads

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_replication_runs_at_one_thread(self, monkeypatch,
                                                  tmp_path, caller_threads,
                                                  workers):
        # each call appends the counts it sees to a file of its process,
        # so calls made in forked workers are seen here too
        real = sim._fit

        def recording(*args):
            with open(tmp_path / f"{os.getpid()}.txt", "a") as fh:
                fh.write(" ".join(map(str, _threads())) + "\n")
            return real(*args)

        monkeypatch.setattr(sim, "_fit", recording)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
        sc = builtin_scenario("normal-iid", seed=3, replications=4,
                              sample_sizes=(15, 30))
        rep = run_scenario(sc, estimators=("trap-auto",), workers=workers)
        files = list(tmp_path.iterdir())
        seen = [line.split() for f in files
                for line in f.read_text().splitlines()]
        attempts = 2 * 4 + sum(r for _, r in rep.retries)
        assert len(seen) == attempts
        assert seen == [["1"] * len(caller_threads)] * attempts
        pids = {int(f.stem) for f in files}
        assert (pids == {os.getpid()}) == (workers == 1)

    @pytest.mark.parametrize("method", ["spawn", "fork"])
    def test_pool_start_method(self, monkeypatch, tmp_path, caller_threads,
                               method):
        # spawned workers inherit nothing from this process, so only the
        # pool initializer can set their thread count; forked ones inherit
        # it and must not restart OpenBLAS's thread pool (one OS thread)
        context = multiprocessing.get_context(method)

        class ProbingPool(ProcessPoolExecutor):
            def __init__(self, **kwargs):
                super().__init__(mp_context=context, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                return super().map(partial(_probe_threads, str(tmp_path), fn),
                                   *iterables, **kwargs)

        monkeypatch.setattr(sim, "_process_pool", ProbingPool)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
        sc = builtin_scenario("weibull-censored", seed=3, replications=4,
                              sample_sizes=(15, 30))
        pooled = run_scenario(sc, workers=2)
        files = list(tmp_path.iterdir())
        seen = [line.split() for f in files
                for line in f.read_text().splitlines()]
        assert len(seen) == 8
        assert [line[:-1] for line in seen] == \
            [["1"] * len(caller_threads)] * 8
        if method == "fork":
            assert [line[-1] for line in seen] == ["1"] * 8
        assert os.getpid() not in {int(f.stem) for f in files}
        assert pooled.to_csv() == run_scenario(sc, workers=1).to_csv()

    def test_fresh_study_leaves_scipys_openblas_as_it_loads(
            self, blas_threads_at):
        # scipy's build carries no ftcdf arithmetic: a study run while it
        # sits at 2 threads reports and sets numpy's build only, leaves
        # scipy's count alone, and writes the bits of a run at 1 thread
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import ctypes, json\n"
                "import scipy.special._ufuncs as ufuncs\n"
                "from ftcdf import blas\n"
                "from ftcdf.simulate import builtin_scenario, run_scenario\n"
                "get, set_ = blas._blas_controls(ctypes.CDLL(ufuncs.__file__))\n"
                "set_(2)\n"
                "before = get()\n"
                "sc = builtin_scenario('weibull-censored', seed=3,\n"
                "                      replications=4, sample_sizes=(15,))\n"
                "report = run_scenario(sc, workers=2)\n"
                "print(json.dumps([report.blas['libraries'], before, get(),\n"
                "                  report.to_csv()]))\n")
        done = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 0, done.stderr
        reported, before, after, csv = json.loads(done.stdout)
        assert reported == [name for name, _, _ in blas._blas_libraries()]
        assert len(reported) == 1 and after == before
        blas_threads_at(1)
        sc = builtin_scenario("weibull-censored", seed=3, replications=4,
                              sample_sizes=(15,))
        assert csv == run_scenario(sc, workers=1).to_csv()

    def test_worker_count_invariance_where_threads_move_bits(
            self, monkeypatch, blas_threads_at):
        # n = 2500 is the smallest size found at which the flat-top arms
        # of normal-iid print other bits at one and at two OpenBLAS
        # threads (OpenBLAS 0.3.31, 2-vCPU x86-64; 100 to 2400 did not,
        # and three threads printed the bits of one); so a study that
        # limited only its pool workers would fail here
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
        sc = builtin_scenario("normal-iid", replications=2,
                              sample_sizes=(2500,))
        arms = ("trap-auto", "smooth-auto")
        blas_threads_at(2)
        serial = run_scenario(sc, estimators=arms, workers=1)
        pooled = run_scenario(sc, estimators=arms, workers=2)
        assert pooled.to_csv() == serial.to_csv()


class TestBlasDiscovery:
    """The guard finds numpy's OpenBLAS through numpy's own extension,
    or finds nothing and leaves BLAS as it is; it never raises."""

    def test_no_openblas_found_runs_the_same_study(self, monkeypatch):
        sc = builtin_scenario("weibull-censored", seed=4, replications=3,
                              sample_sizes=(15,))
        guarded = run_scenario(sc, workers=1)
        before = _threads()
        monkeypatch.setattr(blas, "_BLAS_THREAD_SYMBOLS",
                            (("no_such_get", "no_such_set"),))
        assert blas._blas_libraries() == []
        bare = run_scenario(sc, workers=1)
        monkeypatch.undo()
        assert _threads() == before
        assert bare.to_csv() == guarded.to_csv()
        assert bare.blas == {"libraries": [], "caller_threads": [],
                             "threads": None}

    def test_symbol_lookup_never_raises(self, monkeypatch):
        libc = ctypes.util.find_library("c")
        assert blas._blas_controls(ctypes.CDLL(libc)) is None
        real = ctypes.CDLL

        def no_dlopen(name, *args, **kwargs):
            if name is None:
                raise OSError("dlopen(NULL) failed")
            return real(name, *args, **kwargs)

        monkeypatch.setattr(blas.ctypes, "CDLL", no_dlopen)
        assert blas._blas_libraries() == []

    @pytest.mark.parametrize("dladdr", [lambda address, info: 0, None],
                             ids=["unnamed", "missing"])
    def test_unnamed_library_is_not_guarded(self, monkeypatch, dladdr):
        real = ctypes.CDLL

        class Process:
            def __init__(self):
                if dladdr is not None:
                    self.dladdr = dladdr

        monkeypatch.setattr(
            blas.ctypes, "CDLL",
            lambda name, *args, **kwargs:
            Process() if name is None else real(name, *args, **kwargs))
        assert blas._blas_libraries() == []

    @needs_openblas
    def test_lookup_without_procfs(self, monkeypatch):
        real = open

        def no_procfs(file, *args, **kwargs):
            if str(file).startswith("/proc"):
                raise FileNotFoundError(file)
            return real(file, *args, **kwargs)

        found = blas._blas_libraries()
        monkeypatch.setattr("builtins.open", no_procfs)
        assert [name for name, _, _ in blas._blas_libraries()] == \
            [name for name, _, _ in found]
        assert len(found) == 1 and "openblas" in found[0][0].lower()
