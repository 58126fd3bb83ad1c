"""The three workloads: inputs from the seed, one repetition of the job, checks.

Each workload is a closed loop with one client in one process: the next
call starts when the previous one has returned.  The program is driven
only through public entry points: `cli.run([...])` with `--output` files
for moment-mc and cotangent-dist, and `special_fn.g_func` for pointwise-g.
Names are looked up on the module at every call, so the tracer's rebinding
takes effect.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter as _clock

import numpy as np

import checks


@dataclass
class Op:
    """One operation: a point, an estimate or a sweep pass."""

    label: str
    latency: float
    output: object  # what the checks read; None when the call raised
    digest: bytes  # compared bit for bit across repetitions
    error: str | None = None


def is_prime(n: int) -> bool:
    return n > 1 and all(n % p for p in range(2, math.isqrt(n) + 1))


def _run_cli(program, label: str, argv: list[str], paths: list[Path]) -> Op:
    for p in paths:
        p.unlink(missing_ok=True)
    t0 = _clock()
    rc = program.cli.run(argv)
    latency = _clock() - t0
    texts = [p.read_text(encoding="utf-8") if p.exists() else "" for p in paths]
    error = None if rc == 0 else f"exit code {rc}"
    return Op(label, latency, texts, "\0".join(texts).encode(), error)


class MomentMC:
    """`wm moment --k 2` then `wm moment --k 20`, seeds S and S+1."""

    name = "moment-mc"
    ks = (2.0, 20.0)

    def __init__(self, program, tiny: bool = False):
        self.program = program
        self.samples = 20_000 if tiny else 500_000

    def job(self, seed: int, tmp: Path) -> list[Op]:
        ops = []
        for i, K in enumerate(self.ks):
            out = tmp / f"moment-k{K:g}.json"
            argv = [
                "moment", "--k", f"{K:g}", "--samples", str(self.samples),
                "--seed", str(seed + i), "--output", str(out),
            ]
            ops.append(_run_cli(self.program, f"K={K:g}", argv, [out]))
        return ops

    def check(self, ops: list[Op], seed: int) -> list[str | None]:
        return [
            op.error or checks.check_moment(op.output[0], K, self.samples)
            for op, K in zip(ops, self.ks)
        ]

    def time_to_accuracy(self, ops: list[Op]) -> float:
        """Sum over K of wall_K * (rse_K / 1e-3)^2: time to 0.1% rse at each K."""
        return sum(op.latency * (checks.moment_rse(op.output[0]) / 1e-3) ** 2 for op in ops)

    def sizes(self) -> dict:
        return {"K": list(self.ks), "samples": self.samples}


class PointwiseG:
    """Scalar g = W + H at abs_tol 1e-5 on pairs (x, 1 - x), x = 2^U - 1."""

    name = "pointwise-g"

    def __init__(self, program, tiny: bool = False):
        self.program = program
        self.pairs = 10 if tiny else 500
        self.cfg = program.cf_dynamics.ToleranceConfig(abs_tol=1e-5)

    def points(self, seed: int) -> list[float]:
        # U stratified over (0, 1) with seeded jitter; each x is followed by 1 - x
        rng = np.random.default_rng(seed)
        n = self.pairs
        u = (np.arange(n) + rng.uniform(1e-9, 1.0 - 1e-9, n)) / n
        xs = np.exp2(u) - 1.0
        return [p for x in xs for p in (float(x), 1.0 - float(x))]

    def job(self, seed: int, tmp: Path) -> list[Op]:
        sf = self.program.special_fn
        ops = []
        for x in self.points(seed):
            t0 = _clock()
            try:
                ge = sf.g_func(x, "wilton_plus_H", self.cfg)
            except Exception as exc:  # a raise is a failed point, not a crashed run
                ops.append(Op(repr(x), _clock() - t0, None, b"raised", f"raised {exc!r}"))
                continue
            latency = _clock() - t0
            out = (ge.value, ge.est_error)
            ops.append(Op(repr(x), latency, out, struct.pack("<dd", *out)))
        return ops

    def check(self, ops: list[Op], seed: int) -> list[str | None]:
        reasons = []
        for a, b in zip(ops[::2], ops[1::2]):
            reason = checks.check_pair(a.output, b.output)
            reasons += [a.error or reason, b.error or reason]
        return reasons

    def time_to_accuracy(self, ops: list[Op]) -> float:
        """Each point is delivered at its stated tolerance in one pass."""
        return sum(op.latency for op in ops)

    def sizes(self) -> dict:
        return {"pairs": self.pairs, "abs_tol": 1e-5, "method": "wilton_plus_H"}


class CotangentDist:
    """`wm cotangent-dist --b B --kmax 2 --per-r` for a prime and a composite B."""

    name = "cotangent-dist"

    def __init__(self, program, tiny: bool = False):
        self.program = program
        self.bs = (1009, 1007) if tiny else (20011, 20017)  # 1007 = 19*53, 20017 = 37*541
        self._residues = {b: checks.coprime_upper_half(b) for b in self.bs}
        self._oracle: dict[tuple[int, int], float] = {}

    def job(self, seed: int, tmp: Path) -> list[Op]:
        ops = []
        for i, b in enumerate(self.bs):
            summary = tmp / f"cot-{b}.json"
            per_r = tmp / f"cot-{b}.csv"
            argv = [
                "cotangent-dist", "--b", str(b), "--kmax", "2", "--per-r", str(per_r),
                "--seed", str(seed + i), "--output", str(summary),
            ]
            ops.append(_run_cli(self.program, f"b={b}", argv, [summary, per_r]))
        return ops

    def oracle(self, b: int, seed: int) -> dict[int, float]:
        """30-digit c0 at three residues drawn with the run's seed."""
        rng = np.random.default_rng([seed, b])
        picks = rng.choice(self._residues[b], size=3, replace=False)
        out = {}
        for r in sorted(int(r) for r in picks):
            if (b, r) not in self._oracle:
                self._oracle[(b, r)] = checks.c0_oracle(r, b)
            out[r] = self._oracle[(b, r)]
        return out

    def check(self, ops: list[Op], seed: int) -> list[str | None]:
        return [
            op.error
            or checks.check_cotangent(b, *op.output, self._residues[b], self.oracle(b, seed))
            for op, b in zip(ops, self.bs)
        ]

    def time_to_accuracy(self, ops: list[Op]) -> float:
        """The sums are exact to 1e-9 b in one pass."""
        return sum(op.latency for op in ops)

    def sizes(self) -> dict:
        return {"b": list(self.bs), "kmax": 2, "a0": 0.5, "a1": 1.0, "per_r": True}


WORKLOADS = {w.name: w for w in (MomentMC, PointwiseG, CotangentDist)}
