"""Gauss-map orbits, continued-fraction expansions, and the invariant measure.

The central objects are the map alpha(x) = {1/x} on (0,1) and the orbit data
attached to a point x: partial quotients a_k, iterates alpha_k, convergents
p_k/q_k, the products beta_k = alpha_0 * ... * alpha_k, and the terms
gamma_k = beta_{k-1} * log(1/alpha_k).  The invariant measure has density
1/((1+x) log 2).  A double is exactly a rational m/2^e, and exact_cf is its
continued fraction by Euclid's algorithm (exact_cf_step, the same step on
int64 rows, walks many doubles at once); nearby_fraction, the one search
for a fraction near a double, decides which doubles are effectively rational
(effective_denominator) and where Phi2 snaps to one.  orbit steps the float
orbit lazily, each scalar series stopping it by its own rule, and
orbit_arrays collects it to a depth; ToleranceConfig carries their one
tolerance, abs_tol.  orbit_step, the one vectorized step, ends a row by
orbit's end test, and float_end_error is the one rule, for scalar series
and rows alike, that ends or refuses a series whose orbit ended first.
pool_map is the one thread pool and the one reader of the CPU count: the
row sweeps, moment's blocks and the direct sums run their work items on it,
none inside another's, and once builds their shared set-up (the F table
among it) once.  Those blocks and scalar H's Phi2 sums allocate and free a few MB at
a time, so under glibc this module fixes malloc's mmap and trim
thresholds when it loads (_keep_heap_pages), for every caller of the
package, the CLI and the library alike.

Everything here is a pure function of its inputs; sampling takes an explicit
seed, so parallel callers stay deterministic.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator

import numpy as np

LOG2 = math.log(2.0)
# deepest cf_expand; a double carries only ~35-40 trustworthy partial quotients
MAX_ORBIT_DEPTH = 40
# longest orbit a series evaluator walks: past MAX_ORBIT_DEPTH, because the
# float pseudo-orbit stays self-consistent where single quotients are not exact
MAX_TERMS = 200
# below it a double cannot resolve {1/x}, and g_batch takes its small-x form
SMALLX_CUT = 1e-13
RATIONAL_GUARD = 1e-15  # the float orbit never divides by an iterate below this
RATIONAL_QMAX = 10_000  # largest denominator of an effectively rational x
# the end test asks effective_denominator where alpha_{k+1} and beta_k pass these
_CANDIDATE_ALPHA, _CANDIDATE_BETA = 1e-4, 1.0 / (2 * RATIONAL_QMAX + 2)
# rows per pool_map block of an array sweep: a thread's temporaries stay a few
# MB (per-CPU halves raised peak RSS 10-15%), and 2^13 was bound by the GIL
_BLOCK = 1 << 15


def _keep_heap_pages() -> None:
    # a _BLOCK-row block allocates and frees a few MB.  glibc raises its trim
    # threshold only when it frees an mmap'd block larger than the last one
    # (about 1 MB after the F-table build), so under it each block's heap
    # pages go back to the OS and fault in again: 27-32k minor faults per
    # moment(2) at 5e5 samples, and a few to a few hundred with these fixed
    # thresholds, the ones glibc sets after freeing a 4 MB block.  Scalar H's
    # Phi2 sums (up to 2^15 terms per call) would shrink and regrow the heap
    # the same way.  Other C libraries have no mallopt, or ignore it.
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD


_keep_heap_pages()


class EffectiveRationalError(ArithmeticError):
    """The orbit of the input ended before a series converged and the input
    is effectively rational (effective_denominator), or the orbit ended
    before a requested depth."""


class NonConvergenceError(ArithmeticError):
    """A series evaluation exhausted its term budget above tolerance."""


@dataclass(frozen=True)
class ToleranceConfig:
    """The absolute tolerance that drives series truncation (Wilton tails,
    Phi2 tails, H tails)."""

    abs_tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.abs_tol < math.inf:  # also rejects nan
            raise ValueError(f"abs_tol must be finite and positive: {self.abs_tol}")


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
    index-for-index.  A truncated expansion (the orbit ended) keeps the
    final partial quotient but not the iterate after it, so it carries one
    fewer iterate than quotients.
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
        return asdict(self)


def gauss_map(x: float) -> float:
    """Fractional part of 1/x for x in (0, 1)."""
    if not 0.0 < x < 1.0:
        raise ValueError(f"gauss_map needs x in (0, 1), got {x}")
    z = 1.0 / x
    return z - math.floor(z)


def exact_cf(x: float) -> Iterator[tuple[int, int, int, int]]:
    """Exact continued fraction of the double x >= 0: Euclid's algorithm on
    x.as_integer_ratio() = m/n, yielding (a_k, r_k, p_k, q_k), k = 0, 1, ...

    These are Python ints: partial quotient (a_0 = floor(x)), remainder and
    convergent.  With r_{-1} = n, alpha_k = r_k/r_{k-1} and
    |x - p_k/q_k| = r_k/(n q_k).  The last item has r_k = 0 and p_k/q_k = x.
    """
    num, den = x.as_integer_ratio()
    p_prev, q_prev, p, q = 0, 1, 1, 0
    while True:
        a, r = divmod(num, den)
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        yield a, r, p, q
        if not r:
            return
        num, den = den, r


def exact_cf_step(
    num: np.ndarray, den: np.ndarray, q_prev: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One step of exact_cf on int64 rows, all at once: from the remainders
    num = r_{k-1}, den = r_k > 0 and the denominators q_{k-1}, q_k, returns
    (a_{k+1}, r_{k+1}, q_{k+1}) = (num // den, num % den, a_{k+1} q_k + q_{k-1}).

    Row i starts from the double x_i = m_i/n_i as num = n_i, den = m_i, q_prev
    = 0, q = 1 (exact_cf's k = 0 for x_i in (0, 1)).  For n_i <= 2^62 every
    value stays exact in int64: remainders stay below n_i, every q_k is at
    most n_i, and r_k q_{k+1} <= n_i, so (q_k + 1) r_k < 2 n_i as well.
    """
    a, r = np.divmod(num, den)
    return a, r, a * q + q_prev


def nearby_fraction(x: float, qmax: int, eps: float) -> tuple[int, int] | None:
    """(p, q) of the first convergent p/q of exact_cf(x), 0/1 included, with
    q <= qmax and |x - p/q| <= eps, or None if there is none.  The distance
    is tested exactly in ints: r/(n q) <= eps_num/eps_den."""
    n = x.as_integer_ratio()[1]
    eps_num, eps_den = eps.as_integer_ratio()
    for _, r, p, q in exact_cf(x):
        if q > qmax:
            return None
        if r * eps_den <= eps_num * n * q:
            return p, q
    return None


def effective_denominator(x: float) -> int | None:
    """q of the nearby_fraction p/q of x in (0, 1) within RATIONAL_QMAX and
    4 ulp(x); None if there is none (x is not effectively rational).  The
    convergent 0/1 does not count: it is within 4 ulp only of the four
    smallest subnormals, whose next convergent has q above RATIONAL_QMAX."""
    hit = nearby_fraction(x, RATIONAL_QMAX, 4 * math.ulp(x))
    return hit[1] if hit and hit[0] else None


def orbit(x: float) -> Iterator[tuple[float, float]]:
    """Float orbit of x, lazily: yields (alpha_k, beta_{k-1}), k = 0, 1, ...,
    with alpha_0 = x and beta_{-1} = 1, until the caller stops it or its end
    test holds: 1/alpha_{k-1} overflows, alpha_k < RATIONAL_GUARD, or x is
    effectively rational at a candidate step, alpha_k < _CANDIDATE_ALPHA
    with beta_{k-1} > _CANDIDATE_BETA.  Where the float quotients' q_k
    reaches x's effective denominator q, alpha_k <= 8 q^2 ulp(x) <= 1.8e-7
    and beta_{k-1} > 1/(2q); the first candidate step is that step for
    every reduced p/q, q <= 1500, and its +-8-ulp neighbours (11.6M doubles)."""
    if not 0.0 < x < 1.0:
        raise ValueError(f"orbit needs x in (0, 1), got {x}")
    a, beta = x, 1.0
    while True:
        yield a, beta
        beta *= a
        z = 1.0 / a
        if z == math.inf:
            return
        a = z - math.floor(z)
        if a < RATIONAL_GUARD or (
            a < _CANDIDATE_ALPHA and beta > _CANDIDATE_BETA and effective_denominator(x)
        ):
            return


def orbit_step(
    alpha: np.ndarray, beta, x: np.ndarray, idx: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One step of orbit() on rows: from alpha_k and beta_{k-1}, (alpha_{k+1},
    beta_k, ended), row i starting at x[idx[i]] (x[i] if idx is None), and
    ended marks where orbit() ends, by its end test (467 candidate rows of
    moment(2)'s 5e5, seed 11).  Only the rows with alpha_{k+1} below
    RATIONAL_GUARD or _CANDIDATE_ALPHA, or nan, are looked at again, so
    beta_k is tested on those alone.  The caller drops ended rows.
    """
    beta_next = beta * alpha
    alpha_next = np.divide(1.0, alpha)
    alpha_next -= np.floor(alpha_next)
    ended = np.zeros(alpha_next.shape, dtype=bool)
    low = (~(alpha_next >= max(RATIONAL_GUARD, _CANDIDATE_ALPHA))).nonzero()[0]  # also nan
    if low.size:
        ended[low] = end = ~(alpha_next[low] >= RATIONAL_GUARD)
        for i in low[~end & (beta_next[low] > _CANDIDATE_BETA)]:
            if effective_denominator(float(x[i if idx is None else idx[i]])):
                ended[i] = True
    return alpha_next, beta_next, ended


def pool_map(fn: Callable, items: Iterable) -> list:
    """[fn(item) for item in items] on min(os.cpu_count(), len(items)) threads,
    inline for one item (before asking for the CPU count) or one CPU, each
    item in a copy of the caller's context (np.errstate is a context variable
    in numpy 2).  Each item of its callers (_orbit_series, moment, the direct
    sums) runs serially, calls no pool_map, and writes disjoint rows or
    returns what the caller combines in item order, so the worker count
    changes the wall time only, never a bit of the result."""
    items = list(items)
    workers = min(os.cpu_count() or 1, len(items)) if len(items) > 1 else 1
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(contextvars.copy_context().run, fn, item) for item in items]
        return [f.result() for f in futures]


def once(fn: Callable) -> Callable:
    """fn under lru_cache(maxsize=8) behind one lock: the first callers of a
    key, in any threads, wait for one computation.  fn must not call itself."""
    cached, lock = functools.lru_cache(maxsize=8)(fn), threading.Lock()

    @functools.wraps(fn)
    def locked(*args, **kwargs):
        with lock:
            return cached(*args, **kwargs)
    return locked


def float_end_error(x: float, series: str, steps: int) -> ArithmeticError | None:
    """For a series that ran out of steps of orbit(x) before its rule held:
    NonConvergenceError at the cap of MAX_TERMS + 1 steps, EffectiveRationalError
    where x is effectively rational, and otherwise None: the float orbit could
    not step on, and the series ends with its tail bound.  The scalar series
    raise the error, and _orbit_series leaves the row not ok."""
    if steps > MAX_TERMS:
        return NonConvergenceError(f"{series} at {x} still above tolerance after {steps} steps")
    if effective_denominator(x):
        return EffectiveRationalError(f"orbit of {x} ended before {series} converged")
    return None


def orbit_arrays(x: float, max_depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """The first max_depth + 1 steps of orbit(x) as (alphas, betas, gammas,
    truncated): betas[k+1] = beta_k after the sentinel betas[0] = 1, gammas[k]
    = betas[k] log(1/alphas[k]), and truncated where the orbit ended first."""
    steps = list(islice(orbit(x), max_depth + 1))
    alphas, betas = (np.array(v) for v in zip(*steps))
    gammas = np.array([b * -math.log(a) for a, b in steps])
    return alphas, np.append(betas, betas[-1] * alphas[-1]), gammas, len(steps) <= max_depth


def cf_expand(x: float, depth: int, exact: bool = False) -> CFExpansion:
    """Expand x in (0, 1) to the requested orbit depth.

    Iterates, betas and gammas are those of orbit_arrays, each partial
    quotient is a_{k+1} = floor(1/alpha_k), and the expansion is truncated
    where that orbit ends; below 1/DBL_MAX, where 1/x overflows, it ends
    with no quotient.  With exact=True the quotients are those of exact_cf,
    the iterates its remainder ratios r_k/r_{k-1}, each rounded once, with
    betas and gammas from them, and the expansion is truncated where a
    remainder reaches 0.  Convergents follow p_{k+1} = a_{k+1} p_k + p_{k-1}
    (same for q) from p_0/q_0 = 0/1, in exact integers.  x itself is always
    iterate 0.  depth is at most MAX_ORBIT_DEPTH.
    """
    if not 0.0 < x < 1.0:
        raise ValueError(f"cf_expand needs x in (0, 1), got {x}")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > MAX_ORBIT_DEPTH:
        raise ValueError(f"depth {depth} exceeds MAX_ORBIT_DEPTH {MAX_ORBIT_DEPTH}")

    if exact:
        terms = list(islice(exact_cf(x), depth + 1))
        quotients = [a for a, _, _, _ in terms[1:]]
        rems = [x.as_integer_ratio()[1]] + [r for _, r, _, _ in terms]
        truncated = rems[-1] == 0
        alphas = np.array([r / r_prev for r_prev, r in zip(rems, rems[1:]) if r])
        betas = np.cumprod(np.append(1.0, alphas))
        gammas = betas[:-1] * -np.log(alphas)
    else:
        alphas, betas, gammas, truncated = orbit_arrays(x, depth)
        # a truncated orbit keeps the quotient at which it ended, unless 1/x
        # overflowed and there is none
        n_q = len(alphas) if truncated and 1.0 / x < math.inf else len(alphas) - 1
        quotients = [int(q) for q in np.floor(1.0 / alphas[:n_q])]

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
        iterates=alphas.tolist(),
        convergents=convergents,
        betas=betas.tolist(),
        gammas=gammas.tolist(),
        truncated=truncated,
    )


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

