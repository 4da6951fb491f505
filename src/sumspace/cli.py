"""Command line front end.

Subcommands load a measure/function pair, run the requested construction and
emit JSON (or CSV for curves).  Exit codes: 0 success, 1 input error,
2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from .concentration import Params, build_net, verify_concentration
from .decompose import build_extension, estimate_sobolev_seminorm, mu_norm_f2
from .functional import (
    FamilyAssignment,
    FamilyValidationError,
    Variant,
    _Valuation,
    admissible_sums,
    build_pipeline,
    build_reference_family,
    default_t_grid,
    k_curve,
    k_curve_slack,
)
from .lacunae import contact_graph, projection_multiplicity
from .measure import MeasureFormatError, load_function, load_measure
from .oracle1d import OracleProblem, sigma_norm_exact
from .selftest import run_selftest

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2


def _setup_logging():
    level = os.environ.get("SUMSPACE_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR), format="%(message)s")


def _fmt(x):
    if isinstance(x, float):
        return float(f"{x:.9g}")
    return x


def _roundtrip(obj):
    if isinstance(obj, dict):
        return {k: _roundtrip(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_roundtrip(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if not np.isfinite(x):
            return None  # vacuous check extrema; strict JSON has no Infinity
        return _fmt(x)
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _emit(args, payload, csv_text=None):
    if csv_text is not None and args.format == "csv":
        text = csv_text
    else:
        text = json.dumps(_roundtrip(payload), sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(args, need_function):
    mu = load_measure(args.measure)
    if not args.p > mu.n:
        raise MeasureFormatError(f"p={args.p} must exceed the dimension n={mu.n}")
    f = None
    if need_function:
        if not args.function:
            raise MeasureFormatError("this command needs --function")
        f = load_function(args.function, mu)
    # oracle takes no --tau; the params still check p
    prm = Params(p=args.p, tau=getattr(args, "tau", Params.tau))
    return mu, f, prm


def _parse_t_grid(grid_arg: str, mu, f, p):
    if grid_arg is None:
        return default_t_grid(mu, np.asarray(f.values), p) if f is not None else None
    try:
        a, b, k = grid_arg.split(":")
        a, b, k = float(a), float(b), int(k)
        if not (a > 0 and b > a and k >= 2):
            raise ValueError
    except ValueError as exc:
        raise MeasureFormatError(f"bad --t-grid {grid_arg!r}, expected a:b:k") from exc
    return np.geomspace(a, b, k)


def cmd_net(args):
    mu, _, prm = _load(args, need_function=False)
    net = build_net(mu, prm)
    report = verify_concentration(net, mu, rng=np.random.default_rng(args.seed))
    payload = net.to_json_dict()
    payload["verification"] = {
        c.name: {"ok": c.ok, "checked": c.checked, "worst": c.worst} for c in report.checks
    }
    _emit(args, payload)
    return EXIT_OK if report.ok else EXIT_VERIFY


def cmd_whitney(args):
    mu, _, prm = _load(args, need_function=False)
    _, cover, _, lacs = build_pipeline(mu, prm)
    edges, contact_report = contact_graph(lacs, cover)
    payload = cover.to_json_dict()
    payload["lacunae"] = [
        {
            "cubes": lac.ids,
            "kind": lac.kind,
            "net_points": lac.V,
            "min_cube": lac.q_min,
            "max_cube": lac.q_max,
            "outer": lac.outer,
            "projection": lac.projection,
        }
        for lac in lacs
    ]
    payload["lacuna_contacts"] = {
        "edges": edges.tolist(),
        "max_contacts": contact_report["max_contacts"],
        "true_true_contacts": contact_report["true_true_contacts"].tolist(),
    }
    payload["projection_multiplicity"] = projection_multiplicity(lacs)
    _emit(args, payload)
    return EXIT_OK


def cmd_decompose(args):
    mu, f, prm = _load(args, need_function=True)
    _, cover, _, _ = build_pipeline(mu, prm)
    dec = build_extension(f, mu, cover)
    payload = dec.to_json_dict()
    payload["seminorm"] = {
        "quadrature": estimate_sobolev_seminorm(dec),
        "discrete_surrogate": estimate_sobolev_seminorm(dec, method="discrete"),
    }
    payload["residual_norm"] = mu_norm_f2(dec)
    _emit(args, payload)
    return EXIT_OK


def cmd_estimate(args):
    mu, f, prm = _load(args, need_function=True)
    net, cover, _, lacs = build_pipeline(mu, prm)
    ref = build_reference_family(mu, net, cover, lacs, prm)
    gamma = ref.gamma_needed * (1 + 1e-9)
    values = {}
    admissible = {}
    # members are valued one by one, so disjointness is not asked of them
    for variant, (keep, value) in admissible_sums(ref.assignment, mu, f.values, args.p, gamma).items():
        # with no admissible member the output shows the integer 0
        values[variant.value] = value if keep.size else 0
        admissible[variant.value] = len(keep)
    payload = {
        "values": values,
        "admissible_terms": admissible,
        "family_size": len(ref.assignment.family),
        "gamma": ref.gamma_needed,
        "pool_multiplicity": ref.pool_multiplicity,
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_kcurve(args):
    mu, f, prm = _load(args, need_function=True)
    grid = _parse_t_grid(args.t_grid, mu, f, args.p)
    pts = k_curve(mu, f, args.p, t_grid=grid, params=prm, seed=args.seed)
    rows = ["t,lower,upper,oracle"]
    for pt in pts:
        oracle = "" if pt.oracle is None else f"{pt.oracle:.9g}"
        rows.append(f"{pt.t:.9g},{pt.lower:.9g},{pt.upper:.9g},{oracle}")
    csv_text = "\n".join(rows) + "\n"
    payload = {
        "points": [
            {
                "t": pt.t,
                "lower": pt.lower,
                "upper": pt.upper,
                "oracle": pt.oracle,
            }
            for pt in pts
        ],
        "lower_over_upper_max": k_curve_slack(pts),
    }
    _emit(args, payload, csv_text=csv_text)
    return EXIT_OK


def cmd_oracle(args):
    mu, f, _ = _load(args, need_function=True)
    if mu.n != 1:
        raise MeasureFormatError("the exact oracle is one-dimensional")
    prob = OracleProblem.from_measure(mu, f, args.p)
    val, v = sigma_norm_exact(prob)
    payload = {"sigma_norm": val, "minimizer": [float(x) for x in v]}
    if args.out:
        _emit(args, payload)
    else:
        sys.stdout.write(f"{val:.9g}\n")
    return EXIT_OK


def cmd_validate_family(args):
    mu, f, prm = _load(args, need_function=False)
    if args.gamma is not None and not args.gamma > 0:
        raise ValueError("gamma must be positive")
    with open(args.family) as fh:
        fa = FamilyAssignment.from_json_dict(json.load(fh))
    gamma = args.gamma if args.gamma is not None else prm.gamma_value
    variant = Variant(args.variant)
    # one valuation of the family serves the check and the value
    val = _Valuation(fa, mu, args.p, gamma)
    try:
        val.validate(variant, "unit_sum")
    except FamilyValidationError as exc:
        _emit(args, {"admissible": False, "reason": str(exc)})
        return EXIT_VERIFY
    payload = {"admissible": True}
    if args.function:
        payload["value"] = val.value(variant, load_function(args.function, mu).values)
    _emit(args, payload)
    return EXIT_OK


def cmd_selftest(args):
    code, text = run_selftest(args.seed)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


# every flag of the pipeline commands
FLAGS = {
    "--measure": dict(required=True, help="measure JSON file"),
    "--function": dict(help="function JSON file aligned with the measure"),
    "--p": dict(type=float, required=True, help="integrability exponent, p > n"),
    "--tau": dict(type=float, default=9.0, help="anchor dilation (default 9)"),
    "--gamma": dict(type=float, default=None, help="containment dilation override"),
    "--seed": dict(type=int, default=0, help="seed for all randomness"),
    "--t-grid": dict(dest="t_grid", default=None, help="a:b:k log-spaced grid"),
    "--out": dict(default=None, help="output path (default stdout)"),
    "--format": dict(choices=["json", "csv"], default="json"),
    "--family": dict(required=True, help="family JSON file"),
    "--variant": dict(default="CR", choices=[v.value for v in Variant], help="functional variant"),
}

# per pipeline command: its handler, its help line, and the flags its handler reads
COMMANDS = {
    "net": (cmd_net, "build and verify the concentration net", "--measure --p --tau --seed --out"),
    "whitney": (cmd_whitney, "build the cover and inspect lacunae", "--measure --p --tau --out"),
    "decompose": (cmd_decompose, "linear decomposition with both norms",
                  "--measure --function --p --tau --out"),
    "estimate": (cmd_estimate, "constructed-family functional, all variants",
                 "--measure --function --p --tau --out"),
    "kcurve": (cmd_kcurve, "two-sided K-functional curve",
               "--measure --function --p --tau --seed --t-grid --out --format"),
    "oracle": (cmd_oracle, "exact 1d sum-space norm", "--measure --function --p --out"),
    "validate-family": (cmd_validate_family, "check and value a user family",
                        "--measure --function --p --tau --gamma --out --family --variant"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sumspace",
        description="norms, decompositions and K-functionals for atomic sum spaces",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for name, (fn, text, flags) in COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        for flag in flags.split():
            sp.add_argument(flag, **FLAGS[flag])
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("selftest", help="run the invariant suites")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_selftest)

    return ap


def main(argv=None) -> int:
    _setup_logging()
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (MeasureFormatError, FileNotFoundError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        _write_notes(exc)
        return EXIT_INPUT
    except RuntimeError as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        _write_notes(exc)
        return EXIT_VERIFY


def _write_notes(exc: BaseException) -> None:
    """The notes a stage added to the error (which scale failed), one a line."""
    for note in getattr(exc, "__notes__", ()):
        sys.stderr.write(f"{note}\n")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
