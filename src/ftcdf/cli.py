"""Command line front end.

Subcommands: estimate, survival, bandwidth, deficiency, simulate,
kernel-table.  Every successful run prints one JSON document to stdout
holding the fully resolved configuration (all defaults filled in) plus
any inline results, and writes requested CSV/JSON artifacts to the
given paths.  Failures print an error JSON to stderr and exit with a
distinct code per error class: 2 usage (argparse, including a float
flag that is not finite), 3 I/O, 4 parse, 5 domain (including a kernel
table that cannot be certified, a result that is not finite, and a
numpy overflow, invalid operation or division by zero).
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import replace

import numpy as np

from . import io as iolib
from .asymptotics import (BAND_LIMITED, EXPONENTIAL, POLYNOMIAL,
                          MseExpansion, SmoothnessClass, deficiency_rate,
                          edf_deficiency, edf_deficiency_rate,
                          predicted_deficiency)
from .bandwidth import (NoPlateauError, cv_bandwidth_km, default_cv_grid,
                        default_freq_grid, default_rule, ecf, noise_threshold,
                        select_bandwidth)
from .estimators import EstimatorConfig, evaluate_on_grid, standardize_path
from .kernels import (SMOOTH, TRAPEZOID, FlatTopSpec, GaussianKernel,
                      get_table, kernel)
from .quadrature import QuadratureError
from .simulate import (BUILTIN_SCENARIOS, ESTIMATORS, Scenario,
                       builtin_scenario, run_scenario)
from .survival import smoothed_survival_on_grid

EXIT_IO = 3
EXIT_PARSE = 4
EXIT_DOMAIN = 5
# version of the kernel-table JSON export
TABLE_SCHEMA = 1

GAUSSIAN = "gaussian"


def _kernel_from_args(args):
    """Build the kernel object plus its resolved-config description."""
    family = args.kernel
    if family == GAUSSIAN:
        return GaussianKernel(), {"family": GAUSSIAN}
    spec = FlatTopSpec(family, c=args.c, b=args.b, effective_c=args.effective_c)
    table = get_table(spec, args.tol)
    desc = {"family": family, "c": spec.c, "b": spec.b,
            "effective_c": spec.effective_c, "tol": args.tol}
    return table, desc


def _automatic_bandwidth(args, sample, method, eff, freqs):
    """(h, config dict, ECF curve or None) of method "auto" or "cv".

    auto runs the rule of the --bw-* flags with radius eff on the ECF at
    freqs; cv cross-validates and computes no ECF.
    """
    if method == "cv":
        grid = default_cv_grid(sample)
        h = cv_bandwidth_km(sample, grid)
        return h, {"mode": "cv", "value": h,
                   "h_grid": {"lo": float(grid[0]), "hi": float(grid[-1]),
                              "points": int(grid.size),
                              "spacing": "log"}}, None
    curve = ecf(sample, freqs)
    rule = default_rule(curve.n, eff)
    rule = replace(
        rule, C=rule.C if args.bw_C is None else args.bw_C,
        epsilon=rule.epsilon if args.bw_eps is None else args.bw_eps)
    h = select_bandwidth(curve, rule)
    return h, {"mode": "auto", "value": h, "C": rule.C,
               "epsilon": rule.epsilon, "effective_c": eff,
               "threshold": noise_threshold(curve.n, rule.C)}, curve


def _resolve_bandwidth(args, sample, desc):
    """Returns (h, bandwidth config dict) for estimate/survival."""
    mode = args.bandwidth
    try:
        fixed = float(mode)
    except ValueError:
        fixed = None
    if fixed is not None:
        return fixed, {"mode": "fixed", "value": fixed}
    if mode == "auto" and desc["family"] == GAUSSIAN:
        raise ValueError("the automatic rule needs a flat-top kernel; "
                         "use --bandwidth cv or a numeric value")
    if mode == "cv" and desc["family"] != GAUSSIAN:
        raise ValueError("cross-validation drives the Gaussian "
                         "comparator; use --kernel gaussian")
    if mode not in ("auto", "cv"):
        raise iolib.ParseError(f"--bandwidth must be auto, cv, or a number, "
                               f"got {mode!r}")
    return _automatic_bandwidth(args, sample, mode, desc.get("effective_c"),
                                default_freq_grid(sample))[:2]


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


def _write_artifacts(args, csv_text, json_doc):
    """Writes --output and --json if given; returns the outputs entry."""
    if args.output:
        iolib.write_text(args.output, csv_text)
    if args.json_out:
        iolib.write_text(args.json_out, iolib.dump_json(json_doc))
    return {"csv": args.output, "json": args.json_out}


def _cmd_curve(args):
    """estimate and survival: a smoothed CDF or survival curve."""
    survival = args.command == "survival"
    sample = iolib.read_sample_csv(args.input)
    if not survival and not np.all(sample.event):
        raise ValueError("estimate expects uncensored data; "
                         "use the survival subcommand for censored input")
    kern, desc = _kernel_from_args(args)
    h, bw = _resolve_bandwidth(args, sample, desc)
    cfg = EstimatorConfig(kern, h, boundary=args.boundary)
    grid, grid_text = _resolve_grid(args, sample, h)
    fit = smoothed_survival_on_grid if survival else evaluate_on_grid
    values = fit(sample, cfg, grid)
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
    if not args.output:
        payload["t"] = [float(t) for t in grid]
        payload["value"] = [float(v) for v in values]
    payload["outputs"] = _write_artifacts(
        args, iolib.curve_csv(grid, values), payload)
    return payload


def _cmd_bandwidth(args):
    sample = iolib.read_sample_csv(args.input)
    if args.freq_grid is not None:
        freqs = iolib.parse_grid(args.freq_grid)
        grid_text = args.freq_grid
    else:
        freqs = default_freq_grid(sample)
        grid_text = f"{float(freqs[0])!r}:{float(freqs[-1])!r}:{freqs.size}"
    h, bw, curve = _automatic_bandwidth(args, sample, args.method,
                                        args.effective_c, freqs)
    if curve is not None:
        bw["t_star"] = args.effective_c / h
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
        if curve is None:
            curve = ecf(sample, freqs)
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
        if args.assumption == "polynomial":
            if args.p is None:
                raise ValueError("--assumption polynomial needs --p")
            smooth = SmoothnessClass(POLYNOMIAL, p=args.p)
        elif args.assumption == "exponential":
            if args.d is None:
                raise ValueError("--assumption exponential needs --d")
            smooth = SmoothnessClass(EXPONENTIAL, d=args.d)
        else:
            smooth = SmoothnessClass(BAND_LIMITED)
        if args.F is None or args.f is None or args.cross_moment is None:
            raise ValueError("assumption mode needs --F, --f and "
                             "--cross-moment")
        if smooth.kind != BAND_LIMITED and args.a is None:
            raise ValueError("polynomial and exponential assumptions need "
                             "the bandwidth premultiplier --a")
        values = [{"n": n,
                   "deficiency": edf_deficiency(smooth, args.F, args.f,
                                                args.cross_moment, n,
                                                args.a)}
                  for n in ns]
        return {
            "command": "deficiency",
            "resolved_config": {
                "assumption": args.assumption, "p": args.p, "d": args.d,
                "F": args.F, "f": args.f, "cross_moment": args.cross_moment,
                "a": args.a, "n": args.n,
            },
            "rate": edf_deficiency_rate(smooth),
            "values": values,
        }
    if args.expansion_base is None or args.expansion_better is None:
        raise iolib.ParseError("pass either --assumption or both "
                               "--expansion-base and --expansion-better")
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
    if args.kernel == GAUSSIAN:
        raise ValueError("kernel-table exports flat-top tables; the "
                         "Gaussian kernel has closed forms")
    table, desc = _kernel_from_args(args)
    # K is even: evaluated directly on the nonnegative half of the grid
    k_half = kernel(table.spec, table.grid[table.grid.size // 2:])
    k_values = np.concatenate([k_half[:0:-1], k_half])
    payload = {
        "command": "kernel-table",
        "resolved_config": {"kernel": desc, "output": args.output,
                            "json": args.json_out},
        "points": int(table.grid.size),
        "tail_cutoff": table.tail_cutoff,
    }
    lines = ["x,k,kbar,kbar_rectified"]
    for x, k, kb, kr in zip(table.grid, k_values, table.kbar_values,
                            standardize_path(table.kbar_values)):
        lines.append(f"{float(x)!r},{float(k)!r},{float(kb)!r},"
                     f"{float(kr)!r}")
    doc = {**desc, "schema": TABLE_SCHEMA, "tail_cutoff": table.tail_cutoff,
           "grid": table.grid.tolist(), "k_values": k_values.tolist(),
           "kbar_values": table.kbar_values.tolist()}
    payload["outputs"] = _write_artifacts(args, "\n".join(lines) + "\n", doc)
    return payload


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
                            "output": args.output,
                            "json": args.json_out},
        "retries": [list(r) for r in report.retries],
    }
    doc = report.to_dict()
    if not args.output and not args.json_out:
        payload["cells"] = doc["cells"]
    payload["outputs"] = _write_artifacts(args, report.to_csv(), doc)
    payload["diagnostics"] = {"blas": report.blas.to_dict()}
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


def _add_kernel_flags(p):
    p.add_argument("--kernel", default=TRAPEZOID,
                   choices=[TRAPEZOID, SMOOTH, GAUSSIAN])
    p.add_argument("--c", type=_finite_float, default=None,
                   help=f"flat radius (default {FlatTopSpec(TRAPEZOID).c} "
                        f"trapezoid, {FlatTopSpec(SMOOTH).c} smooth)")
    p.add_argument("--b", type=_finite_float, default=1.0,
                   help="smooth-family descent rate")
    p.add_argument("--effective-c", type=_finite_float, default=None,
                   dest="effective_c")
    p.add_argument("--tol", type=_finite_float, default=1e-8,
                   help="kernel table certification tolerance")


def _add_rule_flags(p):
    """Flags of the automatic rule, for estimate, survival, bandwidth."""
    p.add_argument("--bw-C", type=_finite_float, default=None, dest="bw_C",
                   help="threshold constant (default 2)")
    p.add_argument("--bw-eps", type=_finite_float, default=None, dest="bw_eps",
                   help="window width (default max(1, log10 n))")


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
        p.add_argument("--json", default=None, dest="json_out",
                       help="also write the stdout document here")
        _add_kernel_flags(p)
        p.add_argument("--bandwidth", default="auto",
                       help="auto, cv, or a finite positive number")
        _add_rule_flags(p)
        p.add_argument("--boundary", type=_finite_float, default=None)
        p.add_argument("--standardize", action="store_true")
        p.add_argument("--grid", default=None,
                       help="lo:hi:count or comma list (default: data "
                            "range padded by 3h, 121 points)")
        p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("bandwidth")
    p.add_argument("--input", required=True)
    p.add_argument("--method", default="auto", choices=["auto", "cv"])
    p.add_argument("--effective-c", type=_finite_float,
                   default=FlatTopSpec(TRAPEZOID).effective_c,
                   dest="effective_c")
    _add_rule_flags(p)
    p.add_argument("--freq-grid", default=None, dest="freq_grid")
    p.add_argument("--ecf-out", default=None, dest="ecf_out",
                   help="write the ECF curve CSV here")
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
    p.add_argument("--cross-moment", type=_finite_float, default=None,
                   dest="cross_moment")
    p.add_argument("--a", type=_finite_float, default=None,
                   help="bandwidth premultiplier")
    p.add_argument("--expansion-base", default=None, dest="expansion_base",
                   help="c:r:const:kind[:delta]")
    p.add_argument("--expansion-better", default=None,
                   dest="expansion_better")
    p.add_argument("--n", required=True,
                   help="comma-separated sample sizes, each above 1")
    p.set_defaults(func=_cmd_deficiency)

    p = sub.add_parser("kernel-table")
    p.add_argument("--output", default=None, help="table CSV path")
    p.add_argument("--json", default=None, dest="json_out",
                   help="table JSON path")
    _add_kernel_flags(p)
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
                        "output is the same for any value; the study runs "
                        "OpenBLAS at one thread and then restores the "
                        "caller's setting")
    p.add_argument("--output", default=None, help="MseReport CSV path")
    p.add_argument("--json", default=None, dest="json_out")
    p.set_defaults(func=_cmd_simulate)

    # grid specs like -3:3:121 start with a dash; without this argparse
    # refuses them as unknown options
    neg = re.compile(r"^-\d")
    parser._negative_number_matcher = neg
    for sp in sub.choices.values():
        sp._negative_number_matcher = neg
    return parser


def _fail(kind: str, message: str, code: int) -> int:
    sys.stderr.write(iolib.dump_json(
        {"error": {"kind": kind, "message": message}}))
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # numpy overflow, 0/0 and x/0 raise, so that no warning reaches
        # stderr; the document is built here so that a non-finite result
        # is a domain error
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            text = iolib.dump_json(args.func(args))
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
