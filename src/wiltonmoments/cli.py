"""Command-line entry point.

Subcommands: eval, cf, wilton, moment, cotangent-dist, verify.  Settings
resolve as flags > environment (WM_SEED, WM_ABS_TOL) > defaults; a
malformed environment value or tolerance is a usage error.  Composite-b
cotangent sums run on one thread per CPU.  JSON output comes from the json
module: floats round-trip exactly and nan/inf are written as null.  CSV
carries 12 significant digits; both use '.' as the decimal separator and LF
line endings, and CSV has a header row.
Exit codes: 0 success, 1 computation or verification failure, 2 usage.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import cf_dynamics, cotangent, moments, special_fn, verify
from .wilton import wilton as wilton_eval
from .cf_dynamics import (
    EffectiveRationalError,
    NonConvergenceError,
    ToleranceConfig,
)


def _fmt12(x: float) -> str:
    return f"{x:.12g}"


def _finite(obj):
    # JSON has no nan or inf; they become null
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _to_json(obj) -> str:
    """JSON text; floats round-trip exactly, non-finite floats are null."""
    return json.dumps(_finite(obj), indent=2, allow_nan=False)


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(_fmt12(v) if isinstance(v, float) else str(v) for v in row)
        )
    return "\n".join(lines) + "\n"


def _table(header: list[str], rows: list[list], fmt: str) -> str:
    """Rows as CSV, or as a JSON list of header-keyed objects."""
    if fmt == "csv":
        return _csv(header, rows)
    return _to_json([dict(zip(header, r)) for r in rows]) + "\n"


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _env_default(name: str, cast, fallback):
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise SystemExit2(f"{name}={raw!r} is not a valid {cast.__name__}") from None


def _add_common(parser: argparse.ArgumentParser, root: bool) -> None:
    # subcommand copies use SUPPRESS so they only override what was given
    def d(value):
        return value if root else argparse.SUPPRESS

    parser.add_argument("--seed", type=int, default=d(None), help="RNG seed (WM_SEED)")
    parser.add_argument(
        "--abs-tol", type=float, default=d(None), help="absolute tolerance (WM_ABS_TOL)"
    )
    parser.add_argument("--max-terms", type=int, default=d(200))
    parser.add_argument("--max-orbit-depth", type=int, default=d(40))
    parser.add_argument("--rational-guard", type=float, default=d(1e-15))
    parser.add_argument("--format", choices=("csv", "json"), default=d("json"))
    parser.add_argument("--output", default=d(None), help="output path (default stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wm",
        description="Continued-fraction dynamics, Wilton evaluators, cotangent "
        "sums, and |g|^K moment estimation.",
    )
    _add_common(parser, root=True)

    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate g, W, H, A, F or Phi2")
    _add_common(p_eval, root=False)
    p_eval.add_argument("--fn", required=True, choices=("g", "W", "H", "A", "F", "Phi2"))
    p_eval.add_argument("--x", default=None, help="comma-separated points")
    p_eval.add_argument("--grid", default=None, help="lo:hi:n evaluation grid")
    p_eval.add_argument(
        "--method", default="wilton_plus_H",
        choices=("wilton_plus_H", "direct_series"), help="g route"
    )

    p_cf = sub.add_parser("cf", help="continued-fraction expansion of a point")
    _add_common(p_cf, root=False)
    p_cf.add_argument("--x", type=float, required=True)
    p_cf.add_argument("--depth", type=int, default=20)
    p_cf.add_argument("--extended", action="store_true",
                      help="run the orbit in extended precision")

    p_w = sub.add_parser("wilton", help="evaluate Wilton's function")
    _add_common(p_w, root=False)
    p_w.add_argument("--x", default=None, help="comma-separated points")
    p_w.add_argument("--sample", type=int, default=None,
                     help="evaluate at this many measure-distributed samples")

    p_m = sub.add_parser(
        "moment", help="estimate int |g|^K dx",
        description="Estimate M(K) = int_0^1 |g|^K dx.  g is evaluated at fixed "
        "tolerances (W 1e-8, H tail 2e-4, F table 1e-4); --abs-tol does not change it.",
    )
    _add_common(p_m, root=False)
    p_m.add_argument("--k", type=float, default=None)
    p_m.add_argument("--sweep", default=None, help="comma-separated K list")
    p_m.add_argument("--samples", type=int, default=1_000_000)
    p_m.add_argument("--method", choices=("mc", "quad"), default="mc")
    p_m.add_argument("--out", choices=("csv", "json"), default=None,
                     help="alias of --format")

    p_c = sub.add_parser("cotangent-dist", help="cotangent-sum distribution sweep")
    _add_common(p_c, root=False)
    p_c.add_argument("--b", type=int, required=True)
    p_c.add_argument("--a0", type=float, default=0.5)
    p_c.add_argument("--a1", type=float, default=1.0)
    p_c.add_argument("--kmax", type=int, default=2)
    p_c.add_argument("--sample", type=int, default=None)
    p_c.add_argument("--per-r", default=None, help="write per-residue CSV here")

    p_v = sub.add_parser("verify", help="run verification suites")
    _add_common(p_v, root=False)
    p_v.add_argument("--suite", action="append", default=None)
    p_v.add_argument("--all", action="store_true")
    p_v.add_argument("--list", action="store_true", help="list suite names")
    return parser


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one invocation: flags > environment > defaults."""

    tolerance: ToleranceConfig
    seed: int
    output_format: str
    output_path: str | None


def _config_from_args(args) -> RunConfig:
    seed = args.seed if args.seed is not None else _env_default("WM_SEED", int, 0)
    abs_tol = (
        args.abs_tol
        if args.abs_tol is not None
        else _env_default("WM_ABS_TOL", float, 1e-8)
    )
    tolerance = ToleranceConfig(
        abs_tol=abs_tol,
        max_terms=args.max_terms,
        max_orbit_depth=args.max_orbit_depth,
        rational_guard=args.rational_guard,
        extended_precision=getattr(args, "extended", False),
    )
    return RunConfig(
        tolerance=tolerance,
        seed=seed,
        output_format=getattr(args, "out", None) or args.format,
        output_path=args.output,
    )


def _parse_points(args, seed: int) -> list[float]:
    if getattr(args, "x", None):
        return [float(tok) for tok in str(args.x).split(",") if tok]
    if getattr(args, "grid", None):
        lo, hi, n = str(args.grid).split(":")
        return [float(v) for v in np.linspace(float(lo), float(hi), int(n))]
    if getattr(args, "sample", None) is not None:
        if args.sample <= 0:
            raise SystemExit2(f"--sample must be positive, got {args.sample}")
        return [float(v) for v in cf_dynamics.sample_gauss_measure(args.sample, seed)]
    raise SystemExit2("one of --x / --grid / --sample is required")


class SystemExit2(SystemExit):
    def __init__(self, msg: str):
        sys.stderr.write(f"usage error: {msg}\n")
        super().__init__(2)


def _cmd_eval(args, config: RunConfig) -> tuple[int, str]:
    cfg = config.tolerance
    pts = _parse_points(args, config.seed)
    rows = []
    status = 0
    for x in pts:
        try:
            if args.fn == "g":
                ge = special_fn.g_func(x, args.method, cfg)
                rows.append(["g", x, ge.value, ge.est_error, ge.method])
            elif args.fn == "W":
                we = wilton_eval(x, cfg)
                rows.append(["W", x, we.value, we.tail_bound, "orbit_series"])
            elif args.fn == "H":
                val, err = special_fn._h_with_err(x, cfg)
                rows.append(["H", x, val, err, "orbit_series"])
            elif args.fn == "A":
                val, err = special_fn._a_with_err(x, cfg.abs_tol)
                rows.append(["A", x, val, err, "phi2_formula"])
            elif args.fn == "F":
                val, err = special_fn._f_with_err(x, cfg.abs_tol)
                rows.append(["F", x, val, err, "phi2_formula"])
            elif args.fn == "Phi2":
                val, err = special_fn._phi2_core(x, cfg.abs_tol)
                snap, _, _ = special_fn._phi2_route(x - math.floor(x), cfg.abs_tol)
                rows.append(["Phi2", x, val, err, "series" if snap is None else "rational_snap"])
        except (EffectiveRationalError, NonConvergenceError, ValueError) as exc:
            rows.append([args.fn, x, math.nan, math.nan, f"error: {exc}"])
            status = 1
    header = ["function", "x", "value", "est_error", "method"]
    return status, _table(header, rows, config.output_format)


def _cmd_cf(args, config: RunConfig) -> tuple[int, str]:
    exp = cf_dynamics.cf_expand(args.x, args.depth, config.tolerance)
    return 0, _to_json(exp.to_dict()) + "\n"


def _cmd_wilton(args, config: RunConfig) -> tuple[int, str]:
    cfg = config.tolerance
    pts = _parse_points(args, config.seed)
    rows = []
    status = 0
    for x in pts:
        try:
            we = wilton_eval(x, cfg)
            rows.append([x, we.value, we.terms_used, we.tail_bound])
        except (EffectiveRationalError, NonConvergenceError, ValueError):
            rows.append([x, math.nan, 0, math.nan])
            status = 1
    header = ["point", "value", "terms_used", "tail_bound"]
    return status, _table(header, rows, config.output_format)


def _cmd_moment(args, config: RunConfig) -> tuple[int, str]:
    method = "mc_stratified" if args.method == "mc" else "quad_log_substitution"
    cfg, seed = config.tolerance, config.seed
    if args.sweep:
        ks = [float(tok) for tok in args.sweep.split(",") if tok]
        ests = moments.gamma_ratio_sweep(
            ks, cfg=cfg, seed=seed, samples=args.samples, method=method
        )
    elif args.k is not None:
        ests = [
            moments.moment(args.k, cfg=cfg, seed=seed, samples=args.samples, method=method)
        ]
    else:
        raise SystemExit2("moment needs --k or --sweep")
    header = ["K", "value", "std_error", "gamma_ratio", "target_ratio", "rejections"]
    rows = [
        [e.K, e.value, e.std_error, e.gamma_ratio, e.target_ratio, e.rejections]
        for e in ests
    ]
    return 0, _table(header, rows, config.output_format)


def _cmd_cotangent(args, config: RunConfig) -> tuple[int, str]:
    b = args.b
    rs = cotangent.sweep_residues(b, args.a0, args.a1, args.sample, config.seed)
    vals = cotangent.c0_values(b, rs)
    summary = cotangent.DistributionSummary.from_values(b, args.a0, args.a1, vals, args.kmax)
    if args.per_r:
        rows = [[int(r), float(v), float(v) / b] for r, v in zip(rs, vals)]
        _emit(_csv(["r", "c0", "c0_over_b"], rows), args.per_r)
    if config.output_format == "csv":
        rows = [[summary.b, summary.a0, summary.a1, summary.count]
                + summary.normalized_moments]
        header = ["b", "a0", "a1", "count"] + [
            f"moment_{2 * (i + 1)}" for i in range(len(summary.normalized_moments))
        ]
        return 0, _csv(header, rows)
    return 0, _to_json(summary.to_dict()) + "\n"


def _cmd_verify(args) -> tuple[int, str]:
    if args.list:
        return 0, "\n".join(verify.SUITES) + "\n"
    names = list(verify.SUITES) if args.all else (args.suite or [])
    if not names:
        raise SystemExit2("verify needs --suite NAME (repeatable), --all or --list")
    results = verify.run_suites(names)
    width = max(len(r.name) for r in results)
    lines = [
        f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  "
        f"[{r.seconds:7.2f}s]  {r.detail}"
        for r in results
    ]
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} suites passed")
    return (0 if n_fail == 0 else 1), "\n".join(lines) + "\n"


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _config_from_args(args)
        if args.command == "eval":
            status, text = _cmd_eval(args, config)
        elif args.command == "cf":
            status, text = _cmd_cf(args, config)
        elif args.command == "wilton":
            status, text = _cmd_wilton(args, config)
        elif args.command == "moment":
            status, text = _cmd_moment(args, config)
        elif args.command == "cotangent-dist":
            status, text = _cmd_cotangent(args, config)
        elif args.command == "verify":
            status, text = _cmd_verify(args)
        else:  # pragma: no cover
            return 2
    except SystemExit2 as exc:
        return int(exc.code)
    except (EffectiveRationalError, NonConvergenceError) as exc:
        sys.stderr.write(f"computation failed: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    _emit(text, config.output_path)
    return status


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
