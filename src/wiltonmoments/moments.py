"""Moment estimation for M(K) = int_0^1 |g(x)|^K dx, real K > 0.

The mass of |g|^K sits near x = exp(-K), so every estimator works in
t = log(1/x).  The Monte Carlo route importance-samples t from a close fit
to Gamma(K+1) (exact for the dominant log(1/x)^K behavior), mixed
5% with a uniform density on x in (0, 1/2) that keeps the weights of the
spike regions near low rationals bounded; antisymmetry g(1-x) = -g(x)
doubles the half-interval estimate to (0, 1).  The quadrature route uses
fixed Gauss-Legendre panels in t with a refinement-difference error.

Sampling is stratified through inverse-CDF maps with seeded jitter, so a
(seed, config) pair reproduces every estimate bit for bit.  The Monte Carlo
route is one pass over _BLOCK-row blocks on pool_map: each block draws its
rows, evaluates g and reduces them to a few numbers per component, so its
memory is a few blocks' at any sample count, and the first block to need
the F table or the Gamma nodes builds them once.  The fit's map is
piecewise linear in (logit u, log t) through 4096 Gamma(K+1) quantile
nodes per K, and each draw carries its exact density, all that importance
sampling needs of a proposal, so any nodes keep it exact.  The quantiles
are this module's own (_gamma_quantiles, within 1e-14 of scipy's
gammaincinv), and the package imports no scipy.
"""

from __future__ import annotations

import dataclasses
import math
from functools import partial, reduce

import numpy as np

from .cf_dynamics import _BLOCK, LOG2, NonConvergenceError, once, pool_map
from .special_fn import g_batch

TARGET_RATIO = math.exp(np.euler_gamma) / math.pi

_GAMMA_SHARE = 0.95  # mixture weight of the Gamma(K+1) component
MAX_SAMPLES = 10**7  # caps every point count (moment, eval --grid/--sample), not memory
_U_EDGE = 1e-12  # the end nodes of the Gamma map sit at u = _U_EDGE and 1 - _U_EDGE
_Z_EDGE = math.log((1.0 - _U_EDGE) / _U_EDGE)  # logit(1 - _U_EDGE)
_GAMMA_GRID = 512  # panels of _gamma_quantiles' grid


@dataclasses.dataclass(frozen=True)
class MomentEstimate:
    K: float
    value: float
    std_error: float
    samples: int
    method: str
    gamma_ratio: float
    target_ratio: float = TARGET_RATIO
    rejections: int = 0  # points g_batch refuses (see moment), each of weight 0


def _panel_edges(K: float, lo: float, panels: int) -> np.ndarray:
    """Panel edges on [lo, T(K)] graded geometrically near the left end,
    T(K) 5 past the Gamma(K+1) quantile at 1 - 1e-16."""
    t_hi = float(_gamma_quantiles(K + 1.0, np.array([1.0 - 1e-16]))[0]) + 5.0
    n_graded = min(64, panels // 4) if lo < 1e-6 else 0
    if n_graded:
        graded = np.geomspace(1e-8, min(1.0, t_hi / 4), n_graded)
        rest = np.linspace(graded[-1], t_hi, panels - n_graded + 1)[1:]
        return np.concatenate(([0.0] if lo == 0.0 else [lo], graded, rest))
    return np.concatenate(([lo], np.linspace(lo, t_hi, panels + 1)[1:]))


def _quad_log_substitution(f_of_x, K: float, lo: float, panels: int) -> float:
    """int_lo^inf f(x(t)) e^{-t} dt with x = e^{-t}, Gauss-Legendre panels."""
    edges = _panel_edges(K, lo, panels)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    t = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    vals = f_of_x(np.exp(-t)) * np.exp(-t)
    return float(w @ vals)


def log_moment_calibration(
    K: float,
    method: str = "quad",
    samples: int = 200_000,
    seed: int = 0,
) -> float:
    """Numerical estimate of int_0^1 log(1/x)^K dx, exactly Gamma(K+1).

    Runs the same machinery as the |g|^K estimators with g replaced by
    log(1/x), so a match against Gamma(K+1) validates the integrator
    itself.  quad runs on 2^14 panels; mc weighs each Gamma draw t by its
    own density p, Gamma(K+1) mean(t^K e^{-t} / (Gamma(K+1) p)), so it also
    tests p.  It refuses the inputs moment refuses, and raises
    NonConvergenceError where the estimate leaves double range: from about
    K = 130 on quad, where log(1/x)^K overflows first, and past K = 170 on mc.
    """
    if not 0.0 < K < math.inf:
        raise ValueError(f"K must be positive and finite, got {K}")
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "quad":
            value = _quad_log_substitution(lambda x: np.power(-np.log(x), K), K, 0.0, 1 << 14)
        elif method == "mc":
            if not 2 <= samples <= MAX_SAMPLES:
                raise ValueError(f"samples must be in [2, {MAX_SAMPLES}], got {samples}")
            _, t, p, n1 = _mixture_samples(K, samples, seed)
            t, p = t[:n1], p[:n1]
            log_gamma = math.lgamma(K + 1.0)
            ratio = np.exp(K * np.log(t) - t - log_gamma) / p
            value = float(np.exp(log_gamma) * np.mean(ratio))
        else:
            raise ValueError(f"unknown calibration method {method!r}")
    if not math.isfinite(value):
        raise NonConvergenceError(f"estimate of Gamma({K + 1.0:g}) out of double range: {value}")
    return value


def _gamma_log_density(a: float, w: np.ndarray) -> np.ndarray:
    # log of the Gamma(a) density of w = log(t/a), up to a constant: at most 0, at w = 0
    return a * (w - np.expm1(w))


def _gamma_quantiles(a: float, u: np.ndarray) -> np.ndarray:
    """t with P(a, t) = u for each u in (0, 1), P the regularised lower
    incomplete gamma function and a >= 1; for a in (1, 170] within 1e-14
    of scipy.special.gammaincinv(a, u).

    In w = log(t/a) the Gamma(a) density is exp(l(w)) / c, l(w) = a (w -
    expm1(w)) <= 0, so no Gamma function is needed: c is the numerical
    total.  The grid's 513 edges sit where l = -y^2, y evenly spaced on
    [-Y, Y] (Newton on expm1(w) - w = y^2/a, from a start past the root on
    its own side).  Y^2 = 75 + log(1/m), m the least of u, 1 - u and 1/2,
    leaves the mass past either end below e^-75 m, and l moves by at most
    Y^2/128 over a panel, under 1 for m >= 1e-21.  P and Q = 1 - P at the
    edges are the panels' Gauss-Legendre-8 integrals summed from either end
    over c.  Each t starts from linear interpolation of w against logit P
    on the edges and takes 3 Newton steps on log P (u <= 1/2) or log Q,
    with target log(1 - u) exact in u; P or Q at w is its edge value plus
    one partial panel.  The starts lie within 2e-4 of the root in w, each
    step about squares that, so two reach rounding and the third is margin.
    """
    nodes, weights = np.polynomial.legendre.leggauss(8)

    def panels(w0, w1):  # the integral of exp(_gamma_log_density) over each [w0, w1]
        half = 0.5 * (w1 - w0)
        v = (0.5 * (w0 + w1))[:, None] + half[:, None] * nodes
        return half * (np.exp(_gamma_log_density(a, v)) @ weights)

    u = np.asarray(u, dtype=np.float64)
    q = 1.0 - u
    Y = math.sqrt(75.0 - math.log(min(u.min(), q.min(), 0.5)))
    y = np.linspace(-Y, Y, _GAMMA_GRID + 1)
    c, r = y * y / a, np.abs(y) * math.sqrt(2.0 / a)
    edges = np.where(y < 0.0, -(r + c), np.log1p(c + r))
    for _ in range(8):
        d = np.expm1(edges)
        edges -= (d - edges - c) / np.where(d == 0.0, 1.0, d)
    mass = panels(edges[:-1], edges[1:])
    below = np.concatenate(([0.0], np.cumsum(mass)))
    above = np.concatenate((np.cumsum(mass[::-1])[::-1], [0.0]))
    with np.errstate(divide="ignore"):  # the ends' P = 0 and Q = 0
        logit_edges = np.log(below) - np.log(above)
    lower = u <= 0.5
    target = np.log(np.where(lower, u, q))
    w = np.interp(np.log(u) - np.log(q), logit_edges[1:-1], edges[1:-1])
    for _ in range(3):
        k = np.clip(np.searchsorted(edges, w, side="right") - 1, 0, _GAMMA_GRID - 1)
        tail = np.where(
            lower,
            below[k] + panels(edges[k], w),
            above[k + 1] + panels(w, edges[k + 1]),
        )
        slope = np.exp(_gamma_log_density(a, w)) / np.where(lower, tail, -tail)
        w -= (np.log(tail / below[-1]) - target) / slope
    return a * np.exp(w)


@once  # a K sweep holds 96 KB per recent K, not per K seen
def _gamma_nodes(a: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(z, log t, s), read-only: 4096 nodes z evenly spaced in logit u on
    [_U_EDGE, 1 - _U_EDGE], t = _gamma_quantiles(a, expit(z)), and each
    segment's slope s_j of log t against z; about 2 ms per a."""
    z = np.linspace(-_Z_EDGE, _Z_EDGE, 4096)
    log_t = np.log(_gamma_quantiles(a, 1.0 / (1.0 + np.exp(-z))))
    nodes = z, log_t, np.diff(log_t) / np.diff(z)
    for arr in nodes:
        arr.setflags(write=False)
    return nodes


def _gamma_draws(a: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t, p): t = exp(L(logit u)), L piecewise linear through _gamma_nodes(a)
    and along the end segments past them, and p = u (1 - u) / (t s_j) on
    segment j, that map's exact density at t.  u = 0 gives t = p = 0."""
    z, log_t, s = _gamma_nodes(a)
    with np.errstate(divide="ignore", invalid="ignore"):  # u = 0 or 1
        zu = np.log(u) - np.log1p(-u)
        # direct index on the uniform grid; within rounding of a node either segment gives t
        j = np.clip((zu - z[0]) * ((z.size - 1) / (z[-1] - z[0])), 0, s.size - 1).astype(np.intp)
        t = np.exp(log_t[j] + s[j] * (zu - z[j]))
        p = u * (1.0 - u) / (t * s[j])
    p[u == 0.0] = 0.0
    return t, p


def _gamma_density(a: float, t: np.ndarray) -> np.ndarray:
    """p of _gamma_draws(a, .) at t > 0, by the inverse map: the segment j
    of log t, then z = logit u on it, with u (1 - u) = e^-|z| / (1 + e^-|z|)^2."""
    z, log_t, s = _gamma_nodes(a)
    L = np.log(t)
    j = np.clip(np.searchsorted(log_t, L, side="right") - 1, 0, s.size - 1)
    e = np.exp(-np.abs(z[j] + (L - log_t[j]) / s[j]))
    return e / (1.0 + e) ** 2 / (t * s[j])


def _mixture_samples(K: float, n: int, seed: int, lo: int = 0, hi: int | None = None):
    """Rows [lo, hi) (default [0, n)) of n stratified draws (x, t, p, n1)
    from the defensive mixture over t > log 2, p the Gamma component's
    density at t.  Rows below n1 = round(0.95 n) are the Gamma(K+1)
    component's strata on (0, inf) (t below log 2 weighs zero through the
    indicator), the rest x uniform on (0, 1/2).  Each component's jitter is
    its own PCG64 stream advanced to the range's first stratum, so every
    split of [0, n) into ranges gives the bits of one draw of [0, n)."""
    hi = n if hi is None else hi
    n1 = int(round(_GAMMA_SHARE * n))
    a = K + 1.0

    def strata(kid, first, stop, count):
        jitter = np.random.Generator(np.random.PCG64(kid).advance(first))
        return (np.arange(first, stop) + jitter.random(max(stop - first, 0))) / count

    kids = np.random.SeedSequence(seed).spawn(2)
    t1, p1 = _gamma_draws(a, strata(kids[0], lo, min(hi, n1), n1))
    x2 = 0.5 * np.maximum(strata(kids[1], max(lo, n1) - n1, hi - n1, n - n1), 1e-12)
    t2 = -np.log(x2)
    x = np.concatenate((np.exp(-t1), x2))
    return x, np.concatenate((t1, t2)), np.concatenate((p1, _gamma_density(a, t2))), n1


def _block_sums(K: float, n: int, seed: int, lo: int):
    """moment's pass over rows [lo, lo + _BLOCK) of n: draw, evaluate g and
    weigh each row by f/p, f = |g|^K e^-t on t > log 2 and p the mixture's
    density.  Returns (rejections, gamma part, uniform part); a part is
    (count, mean, M2, e) of f/p / 2^e over the component's rows, 2^e the
    power of two that puts their largest f/p in [1, 2)."""
    x, t, p, n1 = _mixture_samples(K, n, seed, lo, min(lo + _BLOCK, n))
    g, ok = g_batch(x)[::2]
    # at large K the weights leave double range; the result is then rejected
    with np.errstate(over="ignore", invalid="ignore"):
        p = n1 / n * p + (n - n1) / n * np.where(t > LOG2, 2.0 * np.exp(-t), 0.0)
        absg = np.abs(g)
        logf = np.where(absg > 0.0, K * np.log(np.where(absg > 0, absg, 1.0)) - t, -np.inf)
        f_over_p = np.where((t > LOG2) & ok & np.isfinite(logf), np.exp(logf) / p, 0.0)
        k = min(max(n1 - lo, 0), x.size)
        parts = [_part(y) for y in (f_over_p[:k], f_over_p[k:])]
    return int(np.count_nonzero(~ok)), *parts


def _part(y: np.ndarray) -> tuple[int, float, float, int]:
    if not y.size:
        return 0, 0.0, 0.0, 0
    e = math.frexp(float(y.max()))[1] - 1
    y = y / math.ldexp(1.0, e)
    return y.size, float(np.mean(y)), float(np.var(y)) * y.size, e


def _merge(a, b):
    """Two parts as one, by the pairwise update of Chan, Golub and LeVeque,
    in the larger of their units."""
    if not (a[0] and b[0]):
        return a if a[0] else b
    e = max(a[3], b[3])
    na, ma, sa = a[0], math.ldexp(a[1], a[3] - e), math.ldexp(a[2], 2 * (a[3] - e))
    nb, mb, sb = b[0], math.ldexp(b[1], b[3] - e), math.ldexp(b[2], 2 * (b[3] - e))
    n, d = na + nb, mb - ma
    return n, ma + d * (nb / n), sa + sb + d * d * (na * nb / n), e


def moment(
    K: float,
    seed: int = 0,
    samples: int = 1_000_000,
    method: str = "mc",
    panels: int = 1 << 14,
) -> MomentEstimate:
    """Estimate int_0^1 |g(x)|^K dx for K > 0.

    mc: stratified importance sampling in t = log(1/x) from the
    Gamma(K+1) + uniform mixture, doubled onto (1/2, 1) via antisymmetry.
    A point g_batch refuses (ok is False: x effectively rational, or an
    orbit that runs MAX_TERMS steps) weighs 0 and is counted in rejections;
    a rejection rate above 1% of the points raises NonConvergenceError, and
    so does an estimate that leaves double range (from about K = 170).
    samples must be in [2, MAX_SAMPLES].  The rows run as _BLOCK-row
    blocks (_block_sums), all on one pool_map; whichever block first needs
    the F table or the Gamma nodes builds them, once.  Each block's
    (count, mean, M2) per component, in its own power-of-two units, is
    added in block order, so the worker count never moves a bit.

    quad: deterministic panel quadrature on (log 2, inf)
    with the refinement difference as the error field.  panels must be at
    least 2, so that the half-resolution pass has a panel.
    """
    if not 0.0 < K < math.inf:
        raise ValueError(f"K must be positive and finite, got {K}")
    if method == "quad":
        if panels < 2:
            raise ValueError(f"panels must be at least 2, got {panels}")
        def f(x):
            g, _, ok = g_batch(x)
            return np.where(ok, np.abs(g), 0.0) ** K

        with np.errstate(over="ignore", invalid="ignore"):
            value = 2.0 * _quad_log_substitution(f, K, LOG2, panels)
            halfres = 2.0 * _quad_log_substitution(f, K, LOG2, panels // 2)
        std, samples, rejections = abs(value - halfres), panels * 16, 0
    elif method == "mc":
        if not 2 <= samples <= MAX_SAMPLES:
            raise ValueError(f"samples must be in [2, {MAX_SAMPLES}], got {samples}")
        blocks = pool_map(partial(_block_sums, K, samples, seed), range(0, samples, _BLOCK))
        rejections = sum(b[0] for b in blocks)
        if rejections > 0.01 * samples:
            raise NonConvergenceError(
                f"rejection rate {rejections / samples:.3%} exceeds 1% at K={K}"
            )
        (n1, m1, s1, e1), (n2, m2, s2, e2) = (reduce(_merge, c) for c in list(zip(*blocks))[1:])
        # each component leaves its units here; a float product overflows to inf, not an error
        u1, u2 = math.ldexp(n1 / samples, e1), math.ldexp(n2 / samples, e2)
        value = 2.0 * (u1 * m1 + u2 * m2)
        std = 2.0 * math.hypot(u1 * math.sqrt(s1) / max(n1, 1), u2 * math.sqrt(s2) / max(n2, 1))
    else:
        raise ValueError(f"unknown moment method {method!r}")
    if not (math.isfinite(value) and math.isfinite(std)):
        raise NonConvergenceError(
            f"M({K:g}) is out of double range (value {value}, std_error {std})"
        )
    log_ratio = math.log(value) - math.lgamma(K + 1.0) if value > 0 else -math.inf
    return MomentEstimate(
        K=K, value=value, std_error=std, samples=samples, method=method,
        gamma_ratio=math.exp(log_ratio), rejections=rejections,
    )


def gamma_ratio_sweep(
    Ks: list[float],
    seed: int = 0,
    samples: int = 1_000_000,
    method: str = "mc",
) -> list[MomentEstimate]:
    """One moment estimate per K, each from `samples` draws at seed + i."""
    if any(k <= 0 for k in Ks):
        raise ValueError("all K must be positive")
    if sorted(Ks) != list(Ks):
        raise ValueError("Ks must be sorted ascending")
    return [
        moment(k, seed=seed + i, samples=samples, method=method)
        for i, k in enumerate(Ks)
    ]


def h_moment(
    k: int,
    seed: int = 0,
    samples: int = 1_000_000,
    method: str = "mc",
) -> MomentEstimate:
    """H_k = int_0^1 (g(x)/pi)^{2k} dx = M(2k) / pi^{2k}."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    base = moment(2.0 * k, seed=seed, samples=samples, method=method)
    scale = math.pi ** (2 * k)
    return dataclasses.replace(base, value=base.value / scale, std_error=base.std_error / scale)
