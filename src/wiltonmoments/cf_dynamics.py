"""Gauss-map orbits, continued-fraction expansions, and the invariant measure.

The central objects are the map alpha(x) = {1/x} on (0,1) and the orbit data
attached to a point x: partial quotients a_k, iterates alpha_k, convergents
p_k/q_k, the products beta_k = alpha_0 * ... * alpha_k, and the terms
gamma_k = beta_{k-1} * log(1/alpha_k).  The invariant measure has density
1/((1+x) log 2).

Everything here is a pure function of its inputs; sampling takes an explicit
seed, so parallel callers stay deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG2 = math.log(2.0)
# deepest cf_expand; a double carries only ~35-40 trustworthy partial quotients
MAX_ORBIT_DEPTH = 40


class EffectiveRationalError(ArithmeticError):
    """An orbit iterate fell below the rational guard.

    Doubles carry roughly 35-40 trustworthy partial quotients; an iterate
    this close to zero means the input is indistinguishable from a rational
    and the expansion must stop instead of dividing by near-zero.
    """


class NonConvergenceError(ArithmeticError):
    """A series evaluation exhausted its term budget above tolerance."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Shared truncation and tolerance knobs for all evaluators.

    abs_tol drives series truncation (Wilton tails, Phi2 tails, H tails).
    Alternating-series evaluators walk the orbit up to max_terms, past the
    MAX_ORBIT_DEPTH cap of cf_expand, because the computed pseudo-orbit
    stays self-consistent even past the depth where individual quotients of
    the underlying real are no longer exact.
    """

    abs_tol: float = 1e-8
    max_terms: int = 200
    rational_guard: float = 1e-15
    extended_precision: bool = False

    def __post_init__(self):
        if not 0.0 < self.abs_tol < math.inf:  # also rejects nan
            raise ValueError(f"abs_tol must be finite and positive: {self.abs_tol}")
        if not 0.0 < self.rational_guard < 1.0:
            raise ValueError(f"rational_guard must be in (0, 1): {self.rational_guard}")
        if self.max_terms < 1:
            raise ValueError("max_terms must be a positive integer")


DEFAULT_CONFIG = ToleranceConfig()


@dataclass(frozen=True)
class Interval:
    """A subinterval of [0, 1], the argument of the invariant measure."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi <= 1.0):
            raise ValueError(f"need 0 <= lo < hi <= 1, got ({self.lo}, {self.hi})")


@dataclass
class CFExpansion:
    """Continued-fraction orbit data for one point.

    betas stores beta_{-1} = 1 as a leading sentinel, so betas[k+1] is
    beta_k and the recurrence betas[k+1] = betas[k] * iterates[k] holds
    index-for-index.  A truncated expansion (rational input detected) keeps
    the final partial quotient but not the sub-guard iterate, so it carries
    one fewer iterate than quotients.
    """

    point: float
    depth: int
    partial_quotients: list[int]
    iterates: list[float]
    convergents: list[tuple[int, int]]
    betas: list[float]
    gammas: list[float]
    truncated: bool = False

    def to_dict(self) -> dict:
        return {
            "point": self.point,
            "depth": self.depth,
            "partial_quotients": list(self.partial_quotients),
            "iterates": list(self.iterates),
            "convergents": [[p, q] for p, q in self.convergents],
            "betas": list(self.betas),
            "gammas": list(self.gammas),
            "truncated": self.truncated,
        }


def gauss_map(x: float, guard: float = 0.0) -> float:
    """Fractional part of 1/x for x in (0, 1).

    With a positive guard, a result below it raises EffectiveRationalError
    (the next division would be by near-zero).
    """
    if not 0.0 < x < 1.0:
        raise ValueError(f"gauss_map needs x in (0, 1), got {x}")
    z = 1.0 / x
    y = z - math.floor(z)
    if guard > 0.0 and y < guard:
        raise EffectiveRationalError(f"iterate {y} below guard {guard}")
    return y


def gauss_map_array(x: np.ndarray) -> np.ndarray:
    """Vectorized gauss_map; bitwise-identical to the scalar version."""
    z = 1.0 / np.asarray(x, dtype=np.float64)
    return z - np.floor(z)


def orbit_arrays(
    x: float, max_depth: int, guard: float = DEFAULT_CONFIG.rational_guard
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Orbit of x to max_depth: (alphas, betas-with-sentinel, gammas, truncated).

    alphas[k] = alpha_k for k = 0..d, betas[k+1] = beta_k with betas[0] = 1,
    gammas[k] = betas[k] * log(1/alphas[k]).  x itself is always iterate 0;
    the orbit stops early (truncated=True) when a later iterate falls below
    the guard.
    """
    if not 0.0 < x < 1.0:
        raise ValueError(f"orbit needs x in (0, 1), got {x}")
    alphas = np.empty(max_depth + 1)
    betas = np.empty(max_depth + 2)
    gammas = np.empty(max_depth + 1)
    betas[0] = 1.0
    a = x
    truncated = False
    d = -1
    for k in range(max_depth + 1):
        if k and a < guard:
            truncated = True
            break
        alphas[k] = a
        gammas[k] = betas[k] * (-math.log(a))
        betas[k + 1] = betas[k] * a
        d = k
        z = 1.0 / a
        a = z - math.floor(z)
    n = d + 1
    return alphas[:n], betas[: n + 1], gammas[:n], truncated


def cf_expand(x: float, depth: int, cfg: ToleranceConfig = DEFAULT_CONFIG) -> CFExpansion:
    """Expand x in (0, 1) to the requested orbit depth.

    Iterates, betas and gammas are those of orbit_arrays (or, with
    cfg.extended_precision, of a 60-digit orbit rounded to float64), and
    each partial quotient is a_{k+1} = floor(1/alpha_k).  Convergents
    follow p_{k+1} = a_{k+1} p_k + p_{k-1} (same for q) from p_0/q_0 = 0/1,
    in exact integers since q_k grows at least like Fibonacci.  Expansion
    stops early, with the truncated flag set, if an iterate alpha_k with
    k >= 1 falls below cfg.rational_guard; x itself is always iterate 0.
    depth is at most MAX_ORBIT_DEPTH.
    """
    if not 0.0 < x < 1.0:
        raise ValueError(f"cf_expand needs x in (0, 1), got {x}")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > MAX_ORBIT_DEPTH:
        raise ValueError(f"depth {depth} exceeds MAX_ORBIT_DEPTH {MAX_ORBIT_DEPTH}")

    guard = cfg.rational_guard
    if cfg.extended_precision:
        quotients, iterates, betas, gammas, truncated = _orbit_extended(x, depth, guard)
    else:
        alphas, beta_arr, gamma_arr, truncated = orbit_arrays(x, depth, guard)
        # a truncated orbit keeps the quotient that led below the guard
        n_q = len(alphas) if truncated else len(alphas) - 1
        quotients = [int(q) for q in np.floor(1.0 / alphas[:n_q])]
        iterates, betas, gammas = alphas.tolist(), beta_arr.tolist(), gamma_arr.tolist()

    p_prev, q_prev = 1, 0
    p_cur, q_cur = 0, 1
    convergents = [(0, 1)]
    for a in quotients:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        convergents.append((p_cur, q_cur))

    return CFExpansion(
        point=x,
        depth=len(quotients),
        partial_quotients=quotients,
        iterates=iterates,
        convergents=convergents,
        betas=betas,
        gammas=gammas,
        truncated=truncated,
    )


def _orbit_extended(x: float, depth: int, guard: float):
    # 60-digit working precision; iterates are rounded back to float64 and
    # betas/gammas follow from them as in orbit_arrays.
    import mpmath

    with mpmath.workdps(60):
        a = mpmath.mpf(x)
        iterates = [float(a)]
        quotients: list[int] = []
        truncated = False
        for _ in range(depth):
            z = 1 / a
            q = int(mpmath.floor(z))
            a = z - q
            quotients.append(q)
            if a < guard:
                truncated = True
                break
            iterates.append(float(a))
    betas = [1.0]
    gammas = []
    for al in iterates:
        gammas.append(betas[-1] * (-math.log(al)))
        betas.append(betas[-1] * al)
    return quotients, iterates, betas, gammas, truncated


def gauss_measure(iv: Interval) -> float:
    """Measure of an interval under the density 1/((1+x) log 2)."""
    return (math.log1p(iv.hi) - math.log1p(iv.lo)) / LOG2


def gauss_measure_cdf(x):
    """CDF of the invariant measure, vectorized: log(1+x)/log 2."""
    return np.log1p(x) / LOG2


def sample_gauss_measure(n: int, seed: int) -> np.ndarray:
    """n i.i.d. samples from the invariant measure, via x = 2**U - 1.

    The inverse-CDF form is exact and branch-free; U = 0 would give x = 0,
    which the open-interval clamp excludes.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    x = np.exp2(u) - 1.0
    tiny = np.finfo(np.float64).tiny
    return np.maximum(x, tiny)


def orbit_gamma_matrix(
    xs: np.ndarray, depth: int, guard: float = DEFAULT_CONFIG.rational_guard
) -> tuple[np.ndarray, np.ndarray]:
    """gamma_n(x) for n = 0..depth over an array of points.

    Returns (gam, ok) where gam has shape (depth+1, len(xs)) and ok flags
    points whose orbit stayed above the guard for all requested steps.
    gamma_n is exactly (T^n l)(x), so this feeds the contraction tests.
    """
    alpha = np.asarray(xs, dtype=np.float64).copy()
    npts = alpha.shape[0]
    beta = np.ones(npts)
    ok = (alpha > guard) & (alpha < 1.0)
    gam = np.zeros((depth + 1, npts))
    for k in range(depth + 1):
        safe = np.where(ok, alpha, 0.5)
        gam[k] = np.where(ok, beta * (-np.log(safe)), np.nan)
        beta = beta * safe
        z = 1.0 / safe
        alpha = z - np.floor(z)
        ok &= alpha > guard
    return gam, ~np.isnan(gam).any(axis=0)
