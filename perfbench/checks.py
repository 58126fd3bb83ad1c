"""Output checks against oracles that do not share code with the program.

Every checker takes the program's output as it was written (JSON text,
CSV text, or the fields of a GEval) and returns None when the output
passes, or a one-line reason when it does not.
"""

from __future__ import annotations

import csv
import io
import json
import math

import mpmath

EXACT_M2 = 5.0 * math.pi**2 / 36.0  # int_0^1 g^2 = zeta(2)^3 / (3 zeta(4))
H1 = 5.0 / 36.0  # H_1 = M(2) / pi^2
TARGET_RATIO = math.exp(0.57721566490153286061) / math.pi  # e^gamma / pi

SIGMAS = 4.0  # an estimate may sit this many standard errors from its oracle
M2_MAX_RSE = 2e-3
K20_RATIO_BAND = (0.45, 0.70)  # the gamma-ratio-trend band
K20_ASYMPTOTIC_SLACK = 1e-3  # M(K)/Gamma(K+1) -> e^gamma/pi up to e^{-cK} terms
MAX_REJECTION_RATE = 0.01
PAIR_SLACK = 1e-12
H1_REL_TOL = 0.10  # the distribution-link tolerance
CSV_MOMENT_REL_TOL = 1e-9
ORACLE_ABS_TOL_PER_B = 1e-9  # c0 within 1e-9 * b of the 30-digit value


def _finite(*xs: float) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


def check_moment(text: str, K: float, samples: int) -> str | None:
    """One `wm moment --k K` JSON result."""
    try:
        rows = json.loads(text)
        (row,) = rows
        value = float(row["value"])
        std = float(row["std_error"])
        ratio = float(row["gamma_ratio"])
        rejections = int(row["rejections"])
        k_out = float(row["K"])
    except (ValueError, TypeError, KeyError) as exc:
        return f"unparsable moment output: {exc}"
    if k_out != K:
        return f"K is {k_out}, asked for {K}"
    if not _finite(value, std, ratio) or value <= 0.0 or std <= 0.0:
        return f"non-finite or non-positive estimate {value} +- {std}"
    if rejections > MAX_REJECTION_RATE * samples:
        return f"{rejections} rejections in {samples} samples"
    rse = std / value
    ratio_oracle = math.exp(math.log(value) - math.lgamma(K + 1.0))
    if abs(ratio - ratio_oracle) > 1e-9 * ratio_oracle:
        return f"gamma_ratio {ratio} is not value/Gamma(K+1) = {ratio_oracle}"
    if K == 2.0:
        if rse > M2_MAX_RSE:
            return f"relative standard error {rse:.3g} above {M2_MAX_RSE}"
        if abs(value - EXACT_M2) > SIGMAS * std:
            return f"M(2) = {value} is {abs(value - EXACT_M2) / std:.1f} sigma off 5 pi^2/36"
    elif K == 20.0:
        lo, hi = K20_RATIO_BAND
        if not lo <= ratio <= hi:
            return f"gamma_ratio {ratio} outside [{lo}, {hi}]"
        drift = abs(ratio / TARGET_RATIO - 1.0)
        if drift > SIGMAS * rse + K20_ASYMPTOTIC_SLACK:
            return f"gamma_ratio {ratio} is {drift:.2e} off e^gamma/pi"
    return None


def moment_rse(text: str) -> float:
    """Relative standard error of a parsed moment result, nan if unparsable."""
    try:
        (row,) = json.loads(text)
        return float(row["std_error"]) / float(row["value"])
    except (ValueError, TypeError, KeyError, ZeroDivisionError):
        return math.nan


def check_pair(gx: tuple[float, float] | None, gy: tuple[float, float] | None) -> str | None:
    """g(x) and g(1 - x) as (value, est_error): finite and antisymmetric."""
    if gx is None or gy is None:
        return "evaluation raised"
    if not _finite(*gx, *gy):
        return f"non-finite value or error {gx} {gy}"
    excess = abs(gx[0] + gy[0]) - (gx[1] + gy[1] + PAIR_SLACK)
    if excess > 0.0:
        return f"|g(x) + g(1-x)| exceeds the reported errors by {excess:.3g}"
    return None


def coprime_upper_half(b: int) -> list[int]:
    """Residues r with b/2 <= r <= b and gcd(r, b) = 1."""
    return [r for r in range((b + 1) // 2, b + 1) if math.gcd(r, b) == 1]


def c0_oracle(r: int, b: int, dps: int = 30) -> float:
    """c0(r/b) = -sum_m (m/b) cot(pi m r/b) in mpmath at `dps` digits."""
    with mpmath.workdps(dps):
        step = mpmath.pi / b
        total = mpmath.fsum(m * mpmath.cot(step * ((m * r) % b)) for m in range(1, b))
        return float(-total / b)


def check_cotangent(
    b: int, summary_text: str, csv_text: str, residues: list[int], oracle: dict[int, float]
) -> str | None:
    """One `wm cotangent-dist --b b --kmax 2 --per-r` pass.

    `residues` is coprime_upper_half(b); `oracle` maps a few residues to
    their 30-digit values.
    """
    try:
        summary = json.loads(summary_text)
        count = int(summary["count"])
        m2, _m4 = (float(v) for v in summary["normalized_moments"])
        b_out = int(summary["b"])
        reader = csv.reader(io.StringIO(csv_text))
        header = next(reader)
        rows = [(int(r), float(c), float(cb)) for r, c, cb in reader]
    except (ValueError, TypeError, KeyError, StopIteration) as exc:
        return f"unparsable cotangent output: {exc}"
    if b_out != b:
        return f"b is {b_out}, asked for {b}"
    if count != len(residues):
        return f"count {count}, expected {len(residues)} coprime residues"
    if abs(m2 / H1 - 1.0) > H1_REL_TOL:
        return f"second moment {m2} not within {H1_REL_TOL:.0%} of 5/36"
    if header != ["r", "c0", "c0_over_b"] or [r for r, _, _ in rows] != residues:
        return "per-residue CSV does not list the coprime residues"
    if not _finite(*(c for _, c, _ in rows)):
        return "non-finite c0 in the per-residue CSV"
    csv_m2 = math.fsum((c / b) ** 2 for _, c, _ in rows) / len(rows)
    if abs(csv_m2 - m2) > CSV_MOMENT_REL_TOL * abs(m2):
        return f"CSV mean of (c0/b)^2 = {csv_m2} disagrees with moment {m2}"
    by_r = {r: c for r, c, _ in rows}
    for r, exact in oracle.items():
        if abs(by_r[r] - exact) > ORACLE_ABS_TOL_PER_B * b:
            return f"c0({r}/{b}) = {by_r[r]}, 30-digit value {exact}"
    return None
