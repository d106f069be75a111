"""Command line front end.

Subcommands: estimate, survival, bandwidth, deficiency, simulate,
kernel-table.  Every successful run prints one JSON document to stdout
holding the fully resolved configuration (all defaults filled in) plus
any inline results, and writes at most one CSV, to the path given.
Importing this module before numpy sets OPENBLAS_NUM_THREADS to 1 in
os.environ, unless the caller set it, so that each OpenBLAS loads at
one thread: numpy's here, scipy's with scipy.special, and those of
spawned pool workers, which inherit the variable.  A process that
loaded numpy first, or set the variable, keeps its own setting.
Every command runs numpy's OpenBLAS, which runs ftcdf's matrix
products, at one thread and gives the caller's thread count back
afterwards; the document reports both as diagnostics.blas.  No scipy
module is imported here: scipy.special loads only in the commands that
evaluate a special function.
Failures print an error JSON to stderr and exit with a distinct code
per error class: 2 usage (argparse, including a float flag that is not
finite), 3 I/O, 4 parse, 5 domain (including a kernel table that
cannot be certified, a result that is not finite, and a numpy
overflow, invalid operation or division by zero).
"""
from __future__ import annotations

import os
import sys

# OpenBLAS reads its thread count once, as it loads: threads it starts
# then spin on a small machine until main sets the count to 1
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import math
import re
from dataclasses import asdict, replace

import numpy as np

from . import io as iolib
from .asymptotics import (BAND_LIMITED, EXPONENTIAL, POLYNOMIAL,
                          MseExpansion, SmoothnessClass, deficiency_rate,
                          edf_deficiency, edf_deficiency_rate,
                          predicted_deficiency)
from .bandwidth import (NoPlateauError, cv_bandwidth_km, default_cv_grid,
                        default_freq_grid, default_rule, ecf,
                        select_bandwidth, threshold_scan)
from .blas import _one_blas_thread
from .estimators import EstimatorConfig, evaluate_on_grid, standardize_path
from .kernels import (SMOOTH, TRAPEZOID, FlatTopSpec, GaussianKernel,
                      get_table, kernel, kernel_cross_moment)
from .quadrature import QuadratureError
from .simulate import (BUILTIN_SCENARIOS, ESTIMATORS, Scenario,
                       builtin_scenario, run_scenario)
from .survival import smoothed_survival_on_grid

EXIT_IO = 3
EXIT_PARSE = 4
EXIT_DOMAIN = 5

GAUSSIAN = "gaussian"
# stages named in a numpy floating-point error, with the flags that set them
_FREQ_STAGE = "default frequency grid (data scale)"
_ECF_STAGE = "ECF (--freq-grid)"


def _table_desc(table) -> dict:
    """resolved-config description of a flat-top kernel table."""
    spec = table.spec
    return {"family": spec.family, "c": spec.c, "b": spec.b,
            "effective_c": spec.effective_c, "tol": table.tol}


def _kernel_from_args(args):
    """The curve commands' kernel plus its resolved-config description."""
    if args.kernel == GAUSSIAN:
        return GaussianKernel(), {"family": GAUSSIAN}
    table = get_table(FlatTopSpec(args.kernel, c=args.c,
                                  effective_c=args.effective_c))
    return table, _table_desc(table)


def _staged(stage: str, func, *args):
    """func(*args), with a numpy floating-point error prefixed by stage."""
    try:
        return func(*args)
    except FloatingPointError as exc:
        raise FloatingPointError(f"{stage}: {exc}") from exc


def _cv_bandwidth(sample):
    """(h, config dict) of leave-one-out CV on the default bandwidth grid."""
    grid = default_cv_grid(sample)
    h = cv_bandwidth_km(sample, grid)
    return h, {"mode": "cv", "value": h,
               "h_grid": {"lo": float(grid[0]), "hi": float(grid[-1]),
                          "points": int(grid.size), "spacing": "log"}}


def _rule_bandwidth(curve, rule):
    """(h, config dict) of the threshold rule on the ECF curve."""
    h = select_bandwidth(curve, rule)
    t_star, threshold = threshold_scan(curve, rule)
    return h, {"mode": "auto", "value": h, "C": rule.C,
               "epsilon": rule.epsilon, "effective_c": rule.effective_c,
               "threshold": threshold, "t_star": t_star}


def _resolve_bandwidth(args, sample, kern):
    """(h, bandwidth config dict) of the kernel's selector or the value."""
    if args.bandwidth == "auto":
        if isinstance(kern, GaussianKernel):
            return _cv_bandwidth(sample)
        # the rule is checked before any frequency is computed
        rule = default_rule(sample.n, kern.spec.effective_c)
        freqs = _staged(_FREQ_STAGE, default_freq_grid, sample)
        return _rule_bandwidth(_staged(_ECF_STAGE, ecf, sample, freqs), rule)
    try:
        fixed = float(args.bandwidth)
    except ValueError:
        raise iolib.ParseError(f"--bandwidth must be auto or a number, "
                               f"got {args.bandwidth!r}")
    return fixed, {"mode": "fixed", "value": fixed}


def _resolve_grid(args, sample, h):
    if args.grid is not None:
        return iolib.parse_grid(args.grid), args.grid
    lo = float(np.min(sample.times) - 3.0 * h)
    hi = float(np.max(sample.times) + 3.0 * h)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("the default grid (data range padded by 3h) is "
                         "not finite; pass --grid")
    text = f"{lo!r}:{hi!r}:121"
    return np.linspace(lo, hi, 121), text


def _cmd_curve(args):
    """estimate and survival: a smoothed CDF or survival curve."""
    survival = args.command == "survival"
    sample = iolib.read_sample_csv(args.input)
    if not survival and not np.all(sample.event):
        raise ValueError("estimate expects uncensored data; "
                         "use the survival subcommand for censored input")
    kern, desc = _kernel_from_args(args)
    h, bw = _resolve_bandwidth(args, sample, kern)
    cfg = EstimatorConfig(kern, h, boundary=args.boundary)
    grid, grid_text = _resolve_grid(args, sample, h)
    fit = smoothed_survival_on_grid if survival else evaluate_on_grid
    values = _staged("kernel sum (--bandwidth, --grid)", fit, sample, cfg,
                     grid)
    if args.standardize:
        values = standardize_path(values, decreasing=survival)
    payload = {
        "command": args.command,
        "resolved_config": {
            "input": args.input, "kernel": desc, "bandwidth": bw,
            "boundary": args.boundary, "standardize": args.standardize,
            "grid": grid_text, "output": args.output,
        },
        "n": sample.n,
    }
    if survival:
        payload["censored"] = int(np.sum(~sample.event))
    if args.output:
        iolib.write_text(args.output, iolib.curve_csv(grid, values))
    else:
        payload["t"] = [float(t) for t in grid]
        payload["value"] = [float(v) for v in values]
    payload["outputs"] = {"csv": args.output}
    return payload


def _cmd_bandwidth(args):
    sample = iolib.read_sample_csv(args.input)
    cv = args.method == "cv"
    # the rule is checked before any frequency is computed
    eff = (FlatTopSpec(TRAPEZOID).effective_c if args.effective_c is None
           else args.effective_c)
    rule = None if cv else default_rule(sample.n, eff)
    # CV reads no ECF: it builds one, and the default grid, only for
    # --ecf-out
    wants_ecf = args.ecf_out or not cv
    freqs, grid_text = None, args.freq_grid
    if args.freq_grid is not None:
        freqs = iolib.parse_grid(args.freq_grid)
        if freqs[0] < 0.0:
            raise iolib.ParseError(f"--freq-grid {args.freq_grid!r}: "
                                   "frequencies must be nonnegative")
    elif wants_ecf:
        freqs = _staged(_FREQ_STAGE, default_freq_grid, sample)
        grid_text = f"{float(freqs[0])!r}:{float(freqs[-1])!r}:{freqs.size}"
    curve = _staged(_ECF_STAGE, ecf, sample, freqs) if wants_ecf else None
    h, bw = _cv_bandwidth(sample) if cv else _rule_bandwidth(curve, rule)
    bw["freq_grid"] = grid_text
    payload = {
        "command": "bandwidth",
        "resolved_config": {"input": args.input, "method": args.method,
                            "bandwidth": bw, "ecf_out": args.ecf_out},
        "n": sample.n,
        "censored": int(np.sum(~sample.event)),
        "h": h,
    }
    if args.ecf_out:
        iolib.write_text(args.ecf_out,
                         iolib.curve_csv(curve.freqs, curve.magnitudes,
                                         value_name="magnitude"))
    payload["outputs"] = {"ecf_csv": args.ecf_out}
    return payload


def _parse_expansion(text: str) -> MseExpansion:
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise iolib.ParseError(
            f"expansion {text!r}: expected c:r:const:kind[:delta]")
    try:
        c, r, const = float(parts[0]), float(parts[1]), float(parts[2])
        delta = float(parts[4]) if len(parts) == 5 else None
    except ValueError:
        raise iolib.ParseError(f"expansion {text!r}: non-numeric field")
    if not all(map(math.isfinite, (c, r, const, delta or 0.0))):
        raise iolib.ParseError(f"expansion {text!r}: fields must be finite")
    return MseExpansion(c, r, const, second_kind=parts[3], delta=delta)


def _parse_n_list(text: str):
    try:
        vals = [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise iolib.ParseError(f"--n {text!r}: expected comma-separated "
                               "numbers")
    if not vals:
        raise iolib.ParseError(f"--n {text!r}: empty")
    if not all(map(math.isfinite, vals)):
        raise iolib.ParseError(f"--n {text!r}: sizes must be finite")
    return vals


def _cmd_deficiency(args):
    ns = _parse_n_list(args.n)
    if args.assumption is not None:
        # the band-limited deficiency is shown at unit bandwidth, so it
        # reads neither a class parameter nor the premultiplier --a
        kind, takes = {"polynomial": (POLYNOMIAL, ("p", "a")),
                       "exponential": (EXPONENTIAL, ("d", "a")),
                       "band-limited": (BAND_LIMITED, ())}[args.assumption]
        given = {"p": args.p, "d": args.d, "a": args.a,
                 "expansion-base": args.expansion_base,
                 "expansion-better": args.expansion_better}
        for name, value in given.items():
            if value is not None and name not in takes:
                raise ValueError(f"--assumption {args.assumption} does not "
                                 f"take --{name}")
        if takes and given[takes[0]] is None:
            raise ValueError(f"--assumption {args.assumption} needs "
                             f"--{takes[0]}")
        smooth = SmoothnessClass(kind, p=args.p, d=args.d)
        if args.F is None or args.f is None:
            raise ValueError("assumption mode needs --F and --f")
        if smooth.kind != BAND_LIMITED and args.a is None:
            raise ValueError("polynomial and exponential assumptions need "
                             "the bandwidth premultiplier --a")
        spec = FlatTopSpec(args.kernel or TRAPEZOID, c=args.c)
        cross_moment = kernel_cross_moment(spec)
        values = [{"n": n,
                   "deficiency": edf_deficiency(smooth, args.F, args.f,
                                                cross_moment, n, args.a)}
                  for n in ns]
        return {
            "command": "deficiency",
            "resolved_config": {
                "assumption": args.assumption, "p": args.p, "d": args.d,
                "F": args.F, "f": args.f,
                "kernel": {"family": spec.family, "c": spec.c},
                "cross_moment": cross_moment, "a": args.a, "n": args.n,
            },
            "rate": edf_deficiency_rate(smooth),
            "values": values,
        }
    if args.expansion_base is None or args.expansion_better is None:
        raise iolib.ParseError("pass either --assumption or both "
                               "--expansion-base and --expansion-better")
    for name in ("p", "d", "F", "f", "a", "kernel", "c"):
        if getattr(args, name) is not None:
            raise ValueError(f"expansion mode does not take --{name}")
    base = _parse_expansion(args.expansion_base)
    better = _parse_expansion(args.expansion_better)
    limit, rate = deficiency_rate(base, better)
    values = [{"n": n, "deficiency": predicted_deficiency(base, better, n)}
              for n in ns]
    return {
        "command": "deficiency",
        "resolved_config": {"expansion_base": args.expansion_base,
                            "expansion_better": args.expansion_better,
                            "n": args.n},
        "limit": limit,
        "rate": rate,
        "values": values,
    }


def _cmd_kernel_table(args):
    table = get_table(FlatTopSpec(args.kernel, c=args.c), args.tol)
    if args.output:
        # K is even: evaluated directly on the nonnegative half of the grid
        k_half = kernel(table.spec, table.grid[table.grid.size // 2:])
        k_values = np.concatenate([k_half[:0:-1], k_half])
        lines = ["x,k,kbar"]
        for x, k, kb in zip(table.grid, k_values, table.kbar_values):
            lines.append(f"{float(x)!r},{float(k)!r},{float(kb)!r}")
        iolib.write_text(args.output, "\n".join(lines) + "\n")
    return {
        "command": "kernel-table",
        "resolved_config": {"kernel": _table_desc(table),
                            "output": args.output},
        "points": int(table.grid.size),
        "tail_cutoff": table.tail_cutoff,
        "outputs": {"csv": args.output},
    }


def _finite_json_number(text: str) -> float:
    """json.load hook for float literals, NaN and Infinity: finite only."""
    value = float(text)
    if not math.isfinite(value):
        raise iolib.ParseError(f"number {text} is not finite")
    return value


def _load_scenario(args) -> Scenario:
    name = args.scenario
    overrides = {}
    if args.n is not None:
        overrides["sample_sizes"] = iolib.parse_int_list(args.n, "--n")
    if args.reps is not None:
        overrides["replications"] = args.reps
    if args.seed is not None:
        overrides["seed"] = args.seed
    if name in BUILTIN_SCENARIOS:
        sc = builtin_scenario(name)
    else:
        try:
            with open(name, "r", encoding="utf-8-sig") as fh:
                spec = json.load(fh, parse_float=_finite_json_number,
                                 parse_constant=_finite_json_number)
        except (json.JSONDecodeError, UnicodeDecodeError,
                iolib.ParseError) as exc:
            raise iolib.ParseError(f"{name}: invalid scenario JSON ({exc})")
        if not isinstance(spec, dict):
            raise iolib.ParseError(f"{name}: a scenario must be a JSON "
                                   f"object, got {type(spec).__name__}")
        try:
            sc = Scenario.from_dict(spec)
        except (KeyError, TypeError) as exc:
            raise iolib.ParseError(f"{name}: incomplete scenario: {exc!r}")
        except OverflowError as exc:
            raise iolib.ParseError(f"{name}: number out of range: {exc}")
    return replace(sc, **overrides)


def _cmd_simulate(args):
    sc = _load_scenario(args)
    estimators = tuple(args.estimators.split(",")) if args.estimators \
        else ESTIMATORS
    report = run_scenario(sc, estimators=estimators, workers=args.workers)
    payload = {
        "command": "simulate",
        "resolved_config": {"scenario": sc.to_dict(),
                            "estimators": list(estimators),
                            "workers": args.workers,
                            "output": args.output},
        "retries": [list(r) for r in report.retries],
    }
    if args.output:
        iolib.write_text(args.output, report.to_csv())
    else:
        payload["cells"] = [asdict(c) for c in report.cells]
    payload["outputs"] = {"csv": args.output}
    return payload


def _finite_float(text: str) -> float:
    """argparse type of every float flag: refuses nan and infinities."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return value


def _add_kernel_flags(p, families, default=TRAPEZOID):
    p.add_argument("--kernel", default=default, choices=families)
    p.add_argument("--c", type=_finite_float, default=None,
                   help=f"flat radius (default {FlatTopSpec(TRAPEZOID).c} "
                        f"trapezoid, {FlatTopSpec(SMOOTH).c} smooth)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftcdf",
        description="Reduced-bias CDF and survival estimation with "
                    "flat-top kernels")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("estimate", "survival"):
        p = sub.add_parser(name)
        p.add_argument("--input", required=True)
        p.add_argument("--output", default=None, help="curve CSV path")
        _add_kernel_flags(p, [TRAPEZOID, SMOOTH, GAUSSIAN])
        p.add_argument("--effective-c", type=_finite_float)
        p.add_argument("--bandwidth", default="auto",
                       help="auto (the ECF rule, or CV for --kernel "
                            "gaussian) or a finite positive number")
        p.add_argument("--boundary", type=_finite_float, default=None)
        p.add_argument("--standardize", action="store_true")
        p.add_argument("--grid", default=None,
                       help="lo:hi:count or comma list (default: data "
                            "range padded by 3h, 121 points)")
        p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("bandwidth")
    p.add_argument("--input", required=True)
    p.add_argument("--method", default="auto", choices=["auto", "cv"])
    p.add_argument("--effective-c", type=_finite_float)
    p.add_argument("--freq-grid")
    p.add_argument("--ecf-out", help="write the ECF curve CSV here")
    p.set_defaults(func=_cmd_bandwidth)

    p = sub.add_parser("deficiency")
    p.add_argument("--assumption", default=None,
                   choices=["polynomial", "exponential", "band-limited"])
    p.add_argument("--p", type=_finite_float, default=None)
    p.add_argument("--d", type=_finite_float, default=None)
    p.add_argument("--F", type=_finite_float, default=None,
                   help="target CDF value F(t)")
    p.add_argument("--f", type=_finite_float, default=None,
                   help="target density value f(t)")
    # no default here, so that expansion mode can refuse a given --kernel;
    # assumption mode takes the trapezoid when none is given
    _add_kernel_flags(p, [TRAPEZOID, SMOOTH], default=None)
    p.add_argument("--a", type=_finite_float, default=None,
                   help="bandwidth premultiplier")
    p.add_argument("--expansion-base", help="c:r:const:kind[:delta]")
    p.add_argument("--expansion-better")
    p.add_argument("--n", required=True,
                   help="comma-separated sample sizes, each above 1")
    p.set_defaults(func=_cmd_deficiency)

    p = sub.add_parser("kernel-table")
    p.add_argument("--output", default=None, help="table CSV path")
    _add_kernel_flags(p, [TRAPEZOID, SMOOTH])
    p.add_argument("--tol", type=_finite_float, default=1e-8,
                   help="kernel table certification tolerance")
    p.set_defaults(func=_cmd_kernel_table)

    p = sub.add_parser("simulate")
    p.add_argument("--scenario", required=True,
                   help=f"one of {', '.join(BUILTIN_SCENARIOS)} or a "
                        "scenario JSON path")
    p.add_argument("--n", default=None, help="sample sizes, e.g. 15,30")
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--estimators", default=None,
                   help=f"subset of {','.join(ESTIMATORS)}")
    p.add_argument("--workers", type=int, default=1,
                   help="process count, at least 1; one pool per study "
                        "of min(workers, tasks, CPUs) processes, and the "
                        "output is the same for any value")
    p.add_argument("--output", default=None, help="MseReport CSV path")
    p.set_defaults(func=_cmd_simulate)

    # grid specs like -3:3:121 or -.5:1:3 start with a dash; without this
    # argparse refuses them as unknown options
    neg = re.compile(r"^-\.?\d")
    parser._negative_number_matcher = neg
    for sp in sub.choices.values():
        sp._negative_number_matcher = neg
        # a usage error found after parsing prints the subcommand's usage
        sp.set_defaults(usage_error=sp.error)
    return parser


def _fail(kind: str, message: str, code: int) -> int:
    sys.stderr.write(iolib.dump_json(
        {"error": {"kind": kind, "message": message}}))
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a Gaussian fit reads neither flat-top flag, and cross-validation
    # no rule radius, so giving one is a usage error, as a flag the
    # command does not take is
    mode = ("--kernel gaussian" if getattr(args, "kernel", None) == GAUSSIAN
            else "--method cv" if getattr(args, "method", None) == "cv"
            else None)
    for flag, name in (("--c", "c"), ("--effective-c", "effective_c")):
        if mode and getattr(args, name, None) is not None:
            args.usage_error(
                f"argument {flag}: not allowed with argument {mode}")
    try:
        # numpy's OpenBLAS runs the command at one thread, so that
        # its bits do not depend on the caller's setting, which comes
        # back on every way out; numpy overflow, 0/0 and x/0 raise, so
        # that no warning reaches stderr; the document is built here so
        # that a non-finite result is a domain error
        with _one_blas_thread() as blas, \
                np.errstate(over="raise", invalid="raise", divide="raise"):
            payload = args.func(args)
            payload["diagnostics"] = {"blas": blas}
            text = iolib.dump_json(payload)
    except iolib.ParseError as exc:
        return _fail("parse", str(exc), EXIT_PARSE)
    except OSError as exc:
        return _fail("io", str(exc), EXIT_IO)
    except (ValueError, NoPlateauError, QuadratureError, RuntimeError,
            FloatingPointError) as exc:
        return _fail("domain", str(exc), EXIT_DOMAIN)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
