"""Command-line entry point.

Subcommands: eval, cf, wilton, moment, cotangent-dist, verify.  Each takes,
after its name, only the settings it reads, declared once in _SETTINGS; any
other flag, or a flag before the subcommand, is a usage error.  argv is
the whole configuration: no environment variable is read.  A bad
tolerance, an unwritable output path and a point count above
moments.MAX_SAMPLES are usage errors too.  moment --k takes an ascending
comma-separated K list.  --abs-tol is the one numerical setting: the
orbit depth of cf and the term budget of the series are the constants
cf_dynamics.MAX_ORBIT_DEPTH and MAX_TERMS.  Composite-b cotangent sums run
on one thread per CPU.  JSON output comes from the json module: floats
round-trip exactly and nan/inf are written as null.  CSV carries 12
significant digits; both use '.' as the decimal separator and LF line
endings, and CSV has a header row.
Exit codes: 0 success, 1 computation or verification failure, 2 usage.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import cf_dynamics, cotangent, moments, special_fn, verify
from .wilton import wilton as wilton_eval
from .cf_dynamics import (
    DEFAULT_CONFIG,
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


# Every setting flag, declared once; each subcommand names the ones it reads.
_SETTINGS = {
    "--seed": dict(type=int, default=0, help="RNG seed (default %(default)s)"),
    "--abs-tol": dict(
        type=float, default=DEFAULT_CONFIG.abs_tol, help="absolute tolerance (default %(default)s)"
    ),
    "--format": dict(choices=("csv", "json"), default="json"),
    "--output": dict(default=None, help="output path (default stdout)"),
}


class _Parser(argparse.ArgumentParser):
    # argparse would print the usage text too; every usage error is one line
    def error(self, message):
        raise SystemExit2(f"{self.prog}: {message}")


def _add_command(sub, name: str, cmd, settings: str, **kwargs) -> argparse.ArgumentParser:
    parser = sub.add_parser(name, allow_abbrev=False, **kwargs)
    parser.set_defaults(cmd=cmd)
    for flag in settings.split():
        parser.add_argument(flag, **_SETTINGS[flag])
    return parser


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wm",
        description="Continued-fraction dynamics, Wilton evaluators, cotangent "
        "sums, and |g|^K moment estimation.  Settings go after the subcommand.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = _add_command(
        sub, "eval", _cmd_eval, "--abs-tol --format --output",
        help="evaluate g, W, H, A, F or Phi2",
    )
    p_eval.add_argument("--fn", required=True, choices=("g", "W", "H", "A", "F", "Phi2"))
    p_eval.add_argument("--x", default=None, help="comma-separated points")
    p_eval.add_argument("--grid", default=None, help="lo:hi:n evaluation grid")
    p_eval.add_argument(
        "--method", default="wilton_plus_H",
        choices=("wilton_plus_H", "direct_series"), help="g route"
    )

    p_cf = _add_command(
        sub, "cf", _cmd_cf, "--output",
        help="continued-fraction expansion of a point",
    )
    p_cf.add_argument("--x", type=float, required=True)
    p_cf.add_argument("--depth", type=int, default=20,
                      help=f"orbit depth, at most {cf_dynamics.MAX_ORBIT_DEPTH}")
    p_cf.add_argument("--extended", action="store_true",
                      help="report the exact orbit of the double")

    p_w = _add_command(
        sub, "wilton", _cmd_wilton,
        "--seed --abs-tol --format --output",
        help="evaluate Wilton's function",
    )
    p_w.add_argument("--x", default=None, help="comma-separated points")
    p_w.add_argument("--sample", type=int, default=None,
                     help="evaluate at this many measure-distributed samples")

    p_m = _add_command(
        sub, "moment", _cmd_moment, "--seed --format --output",
        help="estimate int |g|^K dx",
        description="Estimate M(K) = int_0^1 |g|^K dx.  g is evaluated at fixed tolerances "
        "(F table within 1.28e-4, W at 1% of that, H tail 2e-4), so there is no --abs-tol.",
    )
    p_m.add_argument("--k", required=True, help="comma-separated K list, ascending")
    p_m.add_argument("--samples", type=int, default=1_000_000)
    p_m.add_argument("--method", choices=("mc", "quad"), default="mc")

    p_c = _add_command(
        sub, "cotangent-dist", _cmd_cotangent, "--seed --format --output",
        help="cotangent-sum distribution sweep",
    )
    p_c.add_argument("--b", type=int, required=True)
    p_c.add_argument("--a0", type=float, default=0.5)
    p_c.add_argument("--a1", type=float, default=1.0)
    p_c.add_argument("--kmax", type=int, default=2)
    p_c.add_argument("--sample", type=int, default=None)
    p_c.add_argument("--per-r", default=None, help="write per-residue CSV here")

    p_v = _add_command(sub, "verify", _cmd_verify, "--output", help="run verification suites")
    p_v.add_argument("--suite", action="append", default=None, choices=list(verify.SUITES))
    p_v.add_argument("--all", action="store_true")
    p_v.add_argument("--list", action="store_true", help="list suite names")
    return parser


def _bounded(flag: str, n: int) -> int:
    # the point count is capped as moment's --samples is, before anything is allocated
    if n > moments.MAX_SAMPLES:
        raise SystemExit2(f"{flag} must be at most {moments.MAX_SAMPLES}, got {n}")
    return n


def _parse_points(args) -> list[float]:
    if getattr(args, "x", None):
        pts = [float(tok) for tok in str(args.x).split(",") if tok]
    elif getattr(args, "grid", None):
        pts = _parse_grid(str(args.grid))
    elif getattr(args, "sample", None) is not None:
        if args.sample <= 0:
            raise SystemExit2(f"--sample must be positive, got {args.sample}")
        n = _bounded("--sample", args.sample)
        pts = [float(v) for v in cf_dynamics.sample_gauss_measure(n, args.seed)]
    else:
        raise SystemExit2("one of --x / --grid / --sample is required")
    if not pts:
        raise SystemExit2("the point list is empty")
    return pts


def _parse_grid(grid: str) -> list[float]:
    usage = f"--grid lo:hi:n needs two numbers and a whole count n >= 1, got {grid!r}"
    try:
        lo, hi, n = grid.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise SystemExit2(usage) from None
    if n < 1:
        raise SystemExit2(usage)
    return [float(v) for v in np.linspace(lo, hi, _bounded("--grid", n))]


class SystemExit2(SystemExit):
    def __init__(self, msg: str):
        sys.stderr.write(f"usage error: {msg}\n")
        super().__init__(2)


def _cmd_eval(args) -> tuple[int, str]:
    cfg = ToleranceConfig(abs_tol=args.abs_tol)
    pts = _parse_points(args)
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
                val, err = special_fn._h_with_err(x, cfg.abs_tol)
                rows.append(["H", x, val, err, "orbit_series"])
            elif args.fn == "A":
                val, err = special_fn._a_with_err(x, cfg.abs_tol)
                rows.append(["A", x, val, err, "phi2_formula"])
            elif args.fn == "F":
                val, err = special_fn._f_with_err(x, cfg.abs_tol)
                rows.append(["F", x, val, err, "phi2_formula"])
            elif args.fn == "Phi2":
                val, err, snapped = special_fn._phi2_core(x, cfg.abs_tol)
                rows.append(["Phi2", x, val, err, "rational_snap" if snapped else "series"])
        except (EffectiveRationalError, NonConvergenceError, ValueError) as exc:
            rows.append([args.fn, x, math.nan, math.nan, f"error: {exc}"])
            status = 1
    header = ["function", "x", "value", "est_error", "method"]
    return status, _table(header, rows, args.format)


def _cmd_cf(args) -> tuple[int, str]:
    exp = cf_dynamics.cf_expand(args.x, args.depth, exact=args.extended)
    return 0, _to_json(exp.to_dict()) + "\n"


def _cmd_wilton(args) -> tuple[int, str]:
    cfg = ToleranceConfig(abs_tol=args.abs_tol)
    pts = _parse_points(args)
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
    return status, _table(header, rows, args.format)


def _keep_heap_pages() -> None:
    # moment's 2^15-row blocks allocate and free a few MB each.  glibc raises
    # its trim threshold only when it frees an mmap'd block larger than the
    # last one (about 1 MB after the F-table build), so under it each block's
    # heap pages go back to the OS and fault in again: about 36k minor faults
    # per moment(2) at 5e5 samples, and about 10 with these fixed thresholds,
    # the ones glibc sets after freeing a 4 MB block.  Other C libraries have
    # no mallopt, or ignore it.
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD


def _cmd_moment(args) -> tuple[int, str]:
    ks = [float(tok) for tok in args.k.split(",") if tok]
    if not ks:
        raise SystemExit2(f"--k needs at least one value, got {args.k!r}")
    _keep_heap_pages()
    ests = moments.gamma_ratio_sweep(ks, seed=args.seed, samples=args.samples, method=args.method)
    header = "K value std_error gamma_ratio target_ratio rejections".split()
    rows = [[getattr(e, name) for name in header] for e in ests]
    return 0, _table(header, rows, args.format)


def _cmd_cotangent(args) -> tuple[int, str]:
    b = args.b
    rs = cotangent.sweep_residues(b, args.a0, args.a1, args.sample, args.seed)
    vals = cotangent.c0_values(b, rs)
    summary = cotangent.DistributionSummary.from_values(b, args.a0, args.a1, vals, args.kmax)
    if args.per_r:
        rows = [[int(r), float(v), float(v) / b] for r, v in zip(rs, vals)]
        _emit(_csv(["r", "c0", "c0_over_b"], rows), args.per_r)
    if args.format == "csv":
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
    results = [verify.run_suite(name) for name in names]
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
        if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
            parser.error(f"{argv[0]}: flags go after the subcommand")
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status, text = args.cmd(args)
        _emit(text, args.output)
    except SystemExit2 as exc:
        return int(exc.code)
    except (EffectiveRationalError, NonConvergenceError) as exc:
        sys.stderr.write(f"computation failed: {exc}\n")
        return 1
    except (ValueError, OSError) as exc:  # OSError: an unwritable --output or --per-r
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    return status


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
