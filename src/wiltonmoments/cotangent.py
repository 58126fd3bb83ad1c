"""Exact cotangent sums c0(r/b) and coprime-residue distribution sweeps.

c0(r/b) = -sum_{m=1}^{b-1} (m/b) cot(pi m r / b).  Two routes compute it:

- Prime b: (Z/b)^* is cyclic, so with a primitive root g and a_i = g^i mod b
  all b-1 values form one cyclic correlation of length b-1,
  c0(a_j/b) = -sum_i (a_i/b) cot(pi a_{i+j}/b), evaluated by real FFTs in
  O(b log b) (Rader 1968), recomputed on every call.  Its error is a
  measured, heuristic figure of about 1e-15 b (5.8e-11 at b = 65537), not a
  rigorous bound.
- Any other b, and the single-value `c0`: direct compensated O(b)
  summation per residue, which is also the test oracle for the prime route.

Angles are reduced modulo b before the trig call, and the cotangent table
is mirrored so that cot(pi (b-k)/b) = -cot(pi k/b) holds exactly in
floating point, which transfers the antisymmetry c0((b-r)/b) = -c0(r/b) to
the direct values.  The prime route pairs r with b-r (g^((b-1)/2) = -1) and
antisymmetrises each pair, so the identity holds exactly there as well.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cf_dynamics import NonConvergenceError, pool_map

_CHUNK = 64  # residues per pool_map work item of the direct route
MAX_B = 10**7  # the prime path holds about 1 GB of arrays at this size
MAX_KMAX = 10_000  # moments per summary; each is one more pass over the values


@dataclass(frozen=True)
class RationalPoint:
    """A reduced fraction r/b with 0 < r < b."""

    r: int
    b: int

    def __post_init__(self):
        if not 0 < self.r < self.b:
            raise ValueError(f"need 0 < r < b, got {self.r}/{self.b}")
        if math.gcd(self.r, self.b) != 1:
            raise ValueError(f"{self.r}/{self.b} is not reduced")


@dataclass
class DistributionSummary:
    """Empirical even moments of c0(r/b)/b over a coprime residue range."""

    b: int
    a0: float
    a1: float
    count: int
    normalized_moments: list[float]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_values(
        cls, b: int, a0: float, a1: float, values: np.ndarray, k_max: int
    ) -> "DistributionSummary":
        """Means of |values/b|^K for K = 2, 4, ..., 2 k_max, one compensated
        pass per K; a moment out of double range raises NonConvergenceError."""
        if not 1 <= k_max <= MAX_KMAX:
            raise ValueError(f"k_max must be in [1, {MAX_KMAX}], got {k_max}")
        if values.size == 0:
            raise ValueError("no values to take moments of")
        scaled = np.abs(values / b)
        moments = []
        for k in range(2, 2 * k_max + 1, 2):
            with np.errstate(over="ignore"):  # a moment that overflows raises below
                m = neumaier_sum(scaled**k) / values.size
            if not math.isfinite(m):
                raise NonConvergenceError(f"moment {k} of c0/b at b = {b} is out of double range")
            moments.append(m)
        return cls(b=b, a0=a0, a1=a1, count=int(values.size), normalized_moments=moments)


def neumaier_sum(values: np.ndarray) -> float:
    """Compensated total of a 1-D array.

    Pairwise partial sums per 4096-element block, then a Neumaier sweep
    over the block results; symmetric under global negation.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        return 0.0
    blocks = [float(np.sum(v[i : i + 4096])) for i in range(0, v.size, 4096)]
    s = 0.0
    comp = 0.0
    for x in blocks:
        t = s + x
        if abs(s) >= abs(x):
            comp += (s - t) + x
        else:
            comp += (x - t) + s
        s = t
    return s + comp


@lru_cache(maxsize=1)  # the single-value c0 calls at one b reuse it
def _cot_table(b: int) -> np.ndarray:
    """cot(pi k / b) for k = 0..b-1 (entry 0 unused), exactly antisymmetric."""
    table = np.zeros(b)
    half = (b - 1) // 2
    k = np.arange(1, half + 1, dtype=np.float64)
    theta = (np.pi / b) * k
    table[1 : half + 1] = np.cos(theta) / np.sin(theta)
    table[b - half : b] = -table[1 : half + 1][::-1]
    if b % 2 == 0:
        table[b // 2] = 0.0
    return table


def _check_b(b: int) -> None:
    if b > MAX_B:
        raise ValueError(f"b = {b} exceeds the supported maximum {MAX_B}")


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


def _primitive_root(p: int) -> int:
    """Smallest primitive root of the prime p."""
    qs = _prime_factors(p - 1)
    g = 1
    while any(pow(g, (p - 1) // q, p) == 1 for q in qs):
        g += 1
    return g


def _prime_values(b: int) -> np.ndarray:
    """c0(r/b) for r = 0..b-1 at an odd prime b (entry 0 is 0)."""
    n = b - 1
    g = _primitive_root(b)
    a = np.empty(n, dtype=np.int64)  # a_i = g^i mod b, by doubling blocks
    a[0] = 1
    k, gk = 1, g
    while k < n:
        step = min(k, n - k)
        a[k : k + step] = a[:step] * gk % b
        k += step
        gk = gk * gk % b
    f = np.fft.rfft(a / b)
    h = np.fft.rfft(_cot_table(b)[a])
    corr = np.fft.irfft(np.conj(f) * h, n)  # corr_j = sum_i f_i h_{i+j}
    half = n // 2  # a_{j+half} = b - a_j
    v = (corr[half:] - corr[:half]) / 2
    out = np.zeros(b)
    out[a[:half]] = v
    out[a[half:]] = -v
    return out


def _direct_values(b: int, rs: np.ndarray) -> np.ndarray:
    """c0(r/b) by compensated O(b) sums, in fixed chunks of residues.

    The chunks run on one thread per CPU (pool_map); that changes the wall
    time only, because each value depends on (r, b) alone.
    """
    table = _cot_table(b)
    m = np.arange(1, b, dtype=np.int64)
    m_over_b = m.astype(np.float64) / b
    out = np.empty(rs.size)

    def fill(lo: int) -> None:
        for i in range(lo, min(lo + _CHUNK, rs.size)):
            out[i] = -neumaier_sum(m_over_b * table[(m * int(rs[i])) % b])

    pool_map(fill, range(0, rs.size, _CHUNK))
    return out


def c0(p: RationalPoint) -> float:
    """The cotangent sum at a reduced fraction, direct O(b) summation."""
    _check_b(p.b)
    return float(_direct_values(p.b, np.array([p.r]))[0])


def c0_values(b: int, rs: np.ndarray) -> np.ndarray:
    """c0(r/b) for an array of residues (assumed coprime to b).

    Prime b reads all residues off one Rader correlation; any other
    b takes the direct route.
    """
    _check_b(b)
    rs = np.asarray(rs, dtype=np.int64)
    if b >= 3 and _is_prime(b):
        return _prime_values(b)[rs % b]
    return _direct_values(b, rs)


def sweep_residues(
    b: int, a0: float, a1: float, sample: int | None = None, seed: int = 0
) -> np.ndarray:
    """Coprime r in [a0*b, a1*b], ascending; with sample set, that many of
    them drawn without replacement (seeded).

    The classical range is 1/2 < a0 < a1 < 1; anything inside (0, 1] is
    accepted.
    """
    if b < 3:
        raise ValueError("b must be at least 3")
    _check_b(b)
    if not 0.0 < a0 < a1 <= 1.0:
        raise ValueError(f"need 0 < a0 < a1 <= 1, got ({a0}, {a1})")
    if sample is not None and sample < 1:
        raise ValueError("sample must be positive")
    lo, hi = max(1, math.ceil(a0 * b)), min(b - 1, math.floor(a1 * b))
    r = np.arange(lo, hi + 1, dtype=np.int64)
    rs = r[np.gcd(r, b) == 1]
    if rs.size == 0:
        raise ValueError(f"no residue coprime to {b} in [{a0}*{b}, {a1}*{b}]")
    if sample is not None and sample < rs.size:
        rng = np.random.default_rng(seed)
        rs = np.sort(rng.choice(rs, size=sample, replace=False))
    return rs


def c0_sweep(
    b: int,
    a0: float,
    a1: float,
    k_max: int,
    sample: int | None = None,
    seed: int = 0,
) -> DistributionSummary:
    """Even empirical moments of c0(r/b)/b over coprime r in [a0*b, a1*b].

    The residues come from `sweep_residues`, the values from `c0_values`,
    and the moments from `DistributionSummary.from_values`.
    """
    rs = sweep_residues(b, a0, a1, sample, seed)
    return DistributionSummary.from_values(b, a0, a1, c0_values(b, rs), k_max)
