"""Traced launcher for one ftcdf CLI operation.

Usage: python3 perfbench/tracer.py SPAN_DIR -- <ftcdf arguments>

Runs ``ftcdf.cli.main`` like the ``ftcdf`` console script does, after
wrapping the public functions of each ftcdf module in timing spans.  The
wrappers replace the function under every name that holds it, in every
ftcdf module, because the modules import functions by name (for example
``ftcdf.simulate.cv_bandwidth_gaussian`` and
``ftcdf.bandwidth.kaplan_meier``).  The package itself is not changed.

Each span records its name, layer (the ftcdf module that defines the
function), start, end, parent span id and counts of the work done.  The
main process writes its spans when the command returns.  Forked pool
workers leave through ``os._exit`` without running ``atexit``, so a
worker appends its spans to its own file each time it returns to the
depth it was forked at.  Files are JSON lines named ``spans-<pid>.jsonl``.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time

# (module, attribute) of every function timed.  Methods are "Class.name".
TARGETS = (
    ("ftcdf.io", "read_sample_csv"),
    ("ftcdf.io", "curve_csv"),
    ("ftcdf.io", "write_text"),
    ("ftcdf.io", "dump_json"),
    ("ftcdf.kernels", "get_table"),
    ("ftcdf.kernels", "build_table"),
    ("ftcdf.kernels", "KernelTable.kbar"),
    ("ftcdf.kernels", "GaussianKernel.kbar"),
    ("ftcdf.quadrature", "unit_gl_rule"),
    ("ftcdf.quadrature", "adaptive_quad"),
    ("ftcdf.bandwidth", "auto_bandwidth"),
    ("ftcdf.bandwidth", "ecf"),
    ("ftcdf.bandwidth", "select_bandwidth"),
    ("ftcdf.bandwidth", "cv_bandwidth_gaussian"),
    ("ftcdf.bandwidth", "cv_bandwidth_km"),
    ("ftcdf.estimators", "edf"),
    ("ftcdf.estimators", "evaluate_on_grid"),
    ("ftcdf.estimators", "smoothed_measure_on_grid"),
    ("ftcdf.estimators", "standardize_path"),
    ("ftcdf.survival", "kaplan_meier"),
    ("ftcdf.survival", "smoothed_survival_on_grid"),
    ("ftcdf.simulate", "run_scenario"),
    ("ftcdf.simulate", "_replicate"),
)


def _size(x) -> int:
    import numpy
    return int(numpy.size(x))


def _count_ecf(args, kwargs, result):
    import numpy as np
    sample, freqs = args[0], args[1]
    jumps = np.unique(sample.times[sample.event]).size
    return {"terms": _size(freqs) * int(jumps), "freqs": _size(freqs)}


def _count_select(args, kwargs, result):
    curve, rule = args[0], args[1]
    t_star = rule.effective_c / result
    useful = int((curve.freqs <= t_star + rule.epsilon).sum())
    return {"useful": useful, "freqs": int(curve.freqs.size)}


def _count_kbar_sum(args, kwargs, result):
    locations, cfg, grid = args[0], args[2], args[3]
    sides = 1 if cfg.boundary is None else 2
    return {"terms": _size(grid) * _size(locations) * sides}


# counts taken after a call returns, outside its timed interval
COUNTERS = {
    "read_sample_csv": lambda a, k, r: {"rows": int(r.n)},
    "curve_csv": lambda a, k, r: {"rows": _size(a[0])},
    "build_table": lambda a, k, r: {"builds": 1},
    "KernelTable.kbar": lambda a, k, r: {"points": _size(r)},
    "GaussianKernel.kbar": lambda a, k, r: {"points": _size(r)},
    "ecf": _count_ecf,
    "select_bandwidth": _count_select,
    "cv_bandwidth_gaussian": lambda a, k, r: {"evals": _size(a[1])},
    "cv_bandwidth_km": lambda a, k, r: {"evals": _size(a[1])},
    "smoothed_measure_on_grid": _count_kbar_sum,
    "kaplan_meier": lambda a, k, r: {"jumps": int(r.locations.size)},
    "_replicate": lambda a, k, r: {"attempts": int(r[1]) + 1},
}


class Tracer:
    """Spans of one process tree, kept in memory until written."""

    def __init__(self, span_dir: str):
        self.span_dir = span_dir
        self.pid = self.main_pid = os.getpid()
        self.stack = []      # ids of the open spans, innermost last
        self.done = []       # finished span records not yet written
        self.base_depth = 0  # depth at which a forked worker started
        self.next_id = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        # the open spans of the parent stay as parents of the worker's
        # spans; its finished spans belong to the parent's file
        self.pid = os.getpid()
        self.done = []
        self.base_depth = len(self.stack)

    def new_id(self) -> str:
        self.next_id += 1
        return f"{self.pid}:{self.next_id}"

    def record(self, span_id, parent, name, layer, t0, t1, counts=None):
        self.done.append({"id": span_id, "parent": parent, "pid": self.pid,
                          "name": name, "layer": layer, "t0": t0, "t1": t1,
                          "counts": counts or {}})

    def flush(self):
        if not self.done:
            return
        path = os.path.join(self.span_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for rec in self.done:
                fh.write(json.dumps(rec) + "\n")
        self.done = []

    def wrap(self, fn, name, layer, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer.new_id()
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(span_id)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
            counts = counter(args, kwargs, result) if counter else None
            tracer.record(span_id, parent, name, layer, t0, t1, counts)
            if tracer.pid != tracer.main_pid and \
                    len(tracer.stack) == tracer.base_depth:
                tracer.flush()
            return result

        return traced

    def install(self) -> list:
        """Wrap every target under each name that holds it; returns the
        targets that do not exist in this version of the package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ftcdf" or n.startswith("ftcdf."))]
        missing = []
        for mod_name, attr in TARGETS:
            cls_name, _, name = attr.rpartition(".")
            holder = sys.modules.get(mod_name)
            if cls_name:
                holder = getattr(holder, cls_name, None)
            fn = getattr(holder, name, None)
            if fn is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            traced = self.wrap(fn, f"{mod_name}.{attr}",
                               mod_name.split(".")[-1], COUNTERS.get(attr))
            if cls_name:
                setattr(holder, name, traced)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)
        return missing


def main(argv) -> int:
    span_dir, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPAN_DIR -- <ftcdf arguments>")
    tracer = Tracer(span_dir)
    t0 = time.perf_counter()
    import ftcdf.cli
    tracer.record(tracer.new_id(), None, "ftcdf.cli.import", "cli", t0,
                  time.perf_counter())
    for name in tracer.install():
        sys.stderr.write(f"tracer: {name} not found; not timed\n")
    main_id = tracer.new_id()
    tracer.stack.append(main_id)
    t0 = time.perf_counter()
    try:
        rc = ftcdf.cli.main(cli_args)
    finally:
        tracer.stack.pop()
        tracer.record(main_id, None, "ftcdf.cli.main", "cli", t0,
                      time.perf_counter())
        tracer.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
