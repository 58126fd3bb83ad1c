#!/usr/bin/env python3
"""Benchmark of the wiltonmoments package, driven from outside.

    python3 perfbench/run.py --workload moment-mc --seed 7 --seconds 15 --trace 0

Workloads: moment-mc, pointwise-g, cotangent-dist (see perfbench/README.md).
The package is imported from ./src of the checkout this file sits in.
A run sets up the program, repeats the workload's job until --seconds have
passed and at least three times (outputs are compared bit for bit, and each
operation's time is its best over the repetitions), checks every output,
prints a summary table and, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, taken from spans at the module boundaries.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
ENV_KNOBS = ("WM_SEED", "WM_THREADS", "WM_ABS_TOL")
NEEDS_FTABLE = {"moment-mc": True, "pointwise-g": False, "cotangent-dist": False}
# fresh processes that repeat the set-up, next to the run's own; one on
# moment-mc, whose set-up (the F-table build) takes about 13 s
SETUP_PROBES = {"moment-mc": 1, "pointwise-g": 2, "cotangent-dist": 2}
PROBE_TIMEOUT_S = 60
MIN_REPS = 3  # repetitions of the job per run, whatever --seconds says
MIN_REPS_TRACED = 4  # T, U, T, U: two of each kind

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("lat_p50_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("time_to_accuracy_s", "s"),
    ("peak_rss_mb", "MB"),
]


class Program:
    """The package's modules, imported from the checkout's src/."""

    def __init__(self):
        pkg = importlib.import_module("wiltonmoments")
        if Path(pkg.__file__).resolve().parent != SRC / "wiltonmoments":
            raise ImportError(f"wiltonmoments imported from {pkg.__file__}, not {SRC}")
        for name in ("cli", "special_fn", "moments", "cotangent", "cf_dynamics", "wilton"):
            setattr(self, name, importlib.import_module(f"wiltonmoments.{name}"))


def set_up(workload: str) -> tuple[Program, dict[str, float]]:
    """Import plus the lazy set-up the workload triggers, with stage timers."""
    t0 = time.perf_counter()
    program = Program()
    t1 = time.perf_counter()
    program.special_fn.a1_constant()
    t2 = time.perf_counter()
    program.special_fn.sup_f_bound()
    t3 = time.perf_counter()
    if NEEDS_FTABLE[workload]:
        import numpy as np

        program.special_fn.g_batch(np.array([0.5**0.5]))  # builds the F table
    t4 = time.perf_counter()
    return program, {
        "import_s": t1 - t0,
        "a1_s": t2 - t1,
        "supf_s": t3 - t2,
        "ftable_build_s": t4 - t3,
        "setup_s": t4 - t0,
    }


def probe_setup(workload: str) -> float:
    """Set-up time of a fresh process running the same set-up."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated within the data."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_reps(wl, program, seed: int, seconds: float, trace: bool, tmp: Path) -> list[dict]:
    """Repeat the job until `seconds` pass; traced runs alternate T, U, T, U, ..."""
    import layers
    from tracer import Tracer

    tracer = Tracer()
    min_reps = MIN_REPS_TRACED if trace else MIN_REPS
    reps: list[dict] = []
    begin = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 0
        if traced:
            layers.install(tracer, program)
        try:
            ops = wl.job(seed, tmp)
        finally:
            tracer.remove()
        spans = tracer.take()
        reps.append({
            "ops": ops,
            "wall": sum(op.latency for op in ops),
            "traced": traced,
            "spans": spans,
            "layers": layers.measure(spans) if traced else None,
        })
        elapsed = time.perf_counter() - begin
        if len(reps) >= min_reps and elapsed + reps[-1]["wall"] / 2 >= seconds:
            return reps


def verify(wl, reps: list[dict], seed: int) -> tuple[int, int, list[str]]:
    """Checks every op, then bit-identity and count identity across reps."""
    import layers

    attempted = failed = 0
    problems: list[str] = []
    first = [op.digest for op in reps[0]["ops"]]
    counts0 = None
    for i, rep in enumerate(reps):
        reasons = wl.check(rep["ops"], seed)
        same = [op.digest for op in rep["ops"]] == first
        for op, reason in zip(rep["ops"], reasons):
            attempted += 1
            if reason or not same:
                failed += 1
                if len(problems) < 10:
                    problems.append(f"rep {i} {op.label}: {reason or 'output differs from rep 0'}")
        if rep["traced"]:
            counts = {k: rep["layers"][k] for k in layers.COUNTS}
            if counts0 is None:
                counts0 = counts
            elif counts != counts0:
                failed += len(rep["ops"])
                problems.append(f"rep {i}: traced counts differ from the first traced rep")
    return attempted, failed, problems


def end_to_end(wl, reps, setup_samples) -> dict[str, tuple[float, int]]:
    """Metric -> (value, sample count), from the untraced repetitions.

    Every repetition runs the same operations on the same inputs, so each
    operation's time is its best over the repetitions; slowdowns from
    other load on the machine only ever add time.
    """
    plain = [r["ops"] for r in reps if not r["traced"]]
    best = [min(ops, key=lambda op: op.latency) for ops in zip(*plain)]
    lat = [op.latency * 1e3 for op in best]
    return {
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "wall_s": (sum(op.latency for op in best), len(plain)),
        "lat_p50_ms": (statistics.median(lat), len(lat)),
        "lat_p99_ms": (quantile(lat, 99), len(lat)),
        "time_to_accuracy_s": (wl.time_to_accuracy(best), len(plain)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def per_layer(reps, stages) -> dict[str, tuple[float, int]]:
    """Metric -> (value, sample count): mean over traced repetitions."""
    import layers

    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    out = {}
    for name, _unit in layers.METRICS:
        if name in layers.SETUP:
            out[name] = (stages[layers.SETUP[name]], 1)
        elif name == "trace_overhead":  # best against best, as for wall_s
            ratio = min(r["wall"] for r in traced) / min(r["wall"] for r in plain)
            out[name] = (ratio - 1.0, len(traced))
        else:
            out[name] = (statistics.fmean(r["layers"][name] for r in traced), len(traced))
    return out


def git_commit() -> str:
    """HEAD of the checkout when it is a git repository, read from .git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(args, wl, stages, metrics, units, attempted, failed, problems, reps) -> dict:
    import platform

    import numpy
    import scipy

    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": wl.sizes(),
        "reps": len(reps),
        "commit": git_commit(),
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "limits": "process-level timers only (perf_counter, ru_maxrss), no system-wide "
        "profiler; one core count, so no thread-scaling data",
        "setup_stages_s": stages,
        "metrics": {k: {"value": v, "unit": units[k], "n": n} for k, (v, n) in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "rep_walls_s": [r["wall"] for r in reps],
        "rep_traced": [r["traced"] for r in reps],
    }


def write_spans(path: Path, reps) -> None:
    spans = [
        {"rep": i, "id": s.id, "name": s.name, "start": s.start, "end": s.end,
         "parent": s.parent, "attrs": s.attrs}
        for i, r in enumerate(reps) for s in r["spans"]
    ]
    path.write_text(json.dumps(spans))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument(
        "--workload", required=True, choices=sorted(NEEDS_FTABLE) + ["all"],
        help="'all' runs each workload in turn, each in its own process",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest sizes, for the self-test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    status = 0
    for workload in NEEDS_FTABLE:
        argv = ["--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        argv += ["--tiny"] if args.tiny else []
        status |= subprocess.run([sys.executable, str(HERE / "run.py"), *argv]).returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    for knob in ENV_KNOBS:
        os.environ.pop(knob, None)
    if not (SRC / "wiltonmoments" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package source at {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        _, stages = set_up(args.workload)
        print(json.dumps(stages))
        return 0

    probes = 0 if args.trace or args.tiny else SETUP_PROBES[args.workload]
    setup_samples = [probe_setup(args.workload) for _ in range(probes)]
    program, stages = set_up(args.workload)
    setup_samples.append(stages["setup_s"])

    import workloads

    wl = workloads.WORKLOADS[args.workload](program, tiny=args.tiny)
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        reps = run_reps(wl, program, args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    attempted, failed, problems = verify(wl, reps, args.seed)

    if args.trace:
        import layers

        metrics, units = per_layer(reps, stages), dict(layers.METRICS)
    else:
        metrics, units = end_to_end(wl, reps, setup_samples), dict(END_TO_END)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record = run_record(args, wl, stages, metrics, units, attempted, failed, problems, reps)
    (OUT / f"record-{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        write_spans(OUT / f"spans-{stem}.json", reps)

    print(f"# {wl.name} seed={args.seed} trace={args.trace} reps={len(reps)} sizes={wl.sizes()}")
    for name, (value, n) in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {units[name]:<6} n={n}")
    print(f"  {'error_rate':<34} {failed / attempted:>16.6g} {'ratio':<6} n={attempted}")
    if not args.trace and wl.name == "moment-mc":
        print("  (time_to_accuracy_s here is time_to_rse_s: time to 0.1% rse at each K)")
    for line in problems:
        print(f"  FAIL {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v if math.isfinite(v) else None, "unit": units[k]}
            for k, (v, _n) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
