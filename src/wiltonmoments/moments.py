"""Moment estimation for M(K) = int_0^1 |g(x)|^K dx, real K > 0.

The mass of |g|^K sits near x = exp(-K), so every estimator works in
t = log(1/x).  The Monte Carlo route importance-samples t from a
Gamma(K+1) density (exact for the dominant log(1/x)^K behavior), mixed
5% with a uniform density on x in (0, 1/2) that keeps the weights of the
spike regions near low rationals bounded; antisymmetry g(1-x) = -g(x)
doubles the half-interval estimate to (0, 1).  The quadrature route uses
fixed Gauss-Legendre panels in t with a refinement-difference error.

Sampling is stratified through inverse-CDF quantiles with seeded jitter,
so a (seed, config) pair reproduces every estimate bit for bit.  A Gamma
quantile is one Halley step on P(K+1, t) = u from a start interpolated in
log t against logit u on 4096 exact gammaincinv nodes, cached per K; rows
with u outside [1e-12, 1 - 1e-12] take gammaincinv itself.  The Gamma
functions come from scipy.special, imported at the first call that needs
one, so importing this module (and the CLI) does not load scipy.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .cf_dynamics import _BLOCK, NonConvergenceError, pool_map
from .special_fn import g_batch

LOG2 = math.log(2.0)
TARGET_RATIO = math.exp(np.euler_gamma) / math.pi

_GAMMA_SHARE = 0.95  # mixture weight of the Gamma(K+1) component
_MAX_REPAIR_ROUNDS = 8
MAX_SAMPLES = 10**7  # the MC route holds 66-74 bytes per sample, 0.74 GB here
_U_EDGE = 1e-12  # Gamma quantiles of u outside [_U_EDGE, 1 - _U_EDGE] are exact
_Z_EDGE = math.log((1.0 - _U_EDGE) / _U_EDGE)  # logit(1 - _U_EDGE)


@dataclasses.dataclass(frozen=True)
class MomentEstimate:
    K: float
    value: float
    std_error: float
    samples: int
    method: str
    gamma_ratio: float
    target_ratio: float = TARGET_RATIO
    rejections: int = 0  # distinct points redrawn
    repair_rounds: int = 0


def _panel_edges(K: float, lo: float, panels: int) -> np.ndarray:
    """Panel edges on [lo, T(K)] graded geometrically near the left end."""
    from scipy.special import gammaincinv
    t_hi = float(gammaincinv(K + 1.0, 1.0 - 1e-16)) + 5.0
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
    panels: int = 1 << 14,
) -> float:
    """Numerical estimate of int_0^1 log(1/x)^K dx, exactly Gamma(K+1).

    Runs the same machinery as the |g|^K estimators with g replaced by
    log(1/x), so a match against Gamma(K+1) validates the integrator
    itself.
    """
    if K <= 0.0:
        raise ValueError("K must be positive")
    if method == "quad":
        return _quad_log_substitution(
            lambda x: np.power(-np.log(x), K), K, 0.0, panels
        )
    if method == "mc":
        from scipy.special import gammaln
        rng = np.random.default_rng(seed)
        u = (np.arange(samples) + rng.random(samples)) / samples
        x, t = _component(K, u, True)
        ratio = np.power(-np.log(x) / t, K)
        value = float(np.exp(gammaln(K + 1.0)) * np.mean(ratio))
        return value
    raise ValueError(f"unknown calibration method {method!r}")


@functools.lru_cache(maxsize=8)  # a K sweep holds 64 KB per recent K, not per K seen
def _gamma_nodes(a: float) -> tuple[np.ndarray, np.ndarray]:
    """(logit u, log t), read-only, at 4096 u evenly spaced in logit on
    [_U_EDGE, 1 - _U_EDGE], with t = gammaincinv(a, u) exact; about 5 ms
    per a."""
    from scipy.special import expit, gammaincinv
    z = np.linspace(-_Z_EDGE, _Z_EDGE, 4096)
    nodes = z, np.log(gammaincinv(a, expit(z)))
    for arr in nodes:
        arr.setflags(write=False)
    return nodes


def _gamma_quantiles(a: float, u: np.ndarray) -> np.ndarray:
    """t with P(a, t) = u: one Halley step on P(a, t) - u from the start
    exp(interp(logit u)) on _gamma_nodes(a), with Q(a, t) in place of
    1 - P(a, t) where u > 1/2.  Within 128 ulp of gammaincinv for u in
    [_U_EDGE, 1 - _U_EDGE]; other u (where the start or the density
    underflows) take gammaincinv itself."""
    from scipy.special import gammainc, gammaincc, gammaincinv, gammaln
    z, log_t = _gamma_nodes(a)
    uc = np.clip(u, _U_EDGE, 1.0 - _U_EDGE)
    t = np.exp(np.interp(np.log(uc) - np.log1p(-uc), z, log_t))
    upper = uc > 0.5
    # f = P(a, t) - u, each side gathered: gammainc with where= crashes in scipy 1.17
    f = np.empty_like(t)
    i = np.flatnonzero(~upper)
    f[i] = gammainc(a, t[i]) - uc[i]
    i = np.flatnonzero(upper)
    f[i] = (1.0 - uc[i]) - gammaincc(a, t[i])
    r = f / np.exp((a - 1.0) * np.log(t) - t - gammaln(a))  # f / P'
    t -= r / (1.0 - 0.5 * r * ((a - 1.0) / t - 1.0))  # P''/P' = (a-1)/t - 1
    i = np.flatnonzero(~((u >= _U_EDGE) & (u <= 1.0 - _U_EDGE)))
    t[i] = gammaincinv(a, u[i])
    return t


def _component(K: float, u: np.ndarray, gamma: bool) -> tuple[np.ndarray, np.ndarray]:
    """(x, t) by inverse CDF from uniforms u: t ~ Gamma(K+1) if gamma
    (_gamma_quantiles), else x uniform on (0, 1/2).  The Gamma quantiles
    fill t in blocks of _BLOCK rows on one thread per CPU (pool_map), each
    the same bits as one call."""
    if gamma:
        _gamma_nodes(K + 1.0)  # imports scipy and builds the nodes in this thread
        t = np.empty(u.size)

        def block(i):
            t[i : i + _BLOCK] = _gamma_quantiles(K + 1.0, u[i : i + _BLOCK])

        pool_map(block, range(0, u.size, _BLOCK))
        return np.exp(-t), t
    x = 0.5 * np.maximum(u, 1e-12)
    return x, -np.log(x)


def _mixture_samples(K: float, n: int, seed: int):
    """Stratified draws from the defensive mixture over t > log 2.

    The first n1 points come from the Gamma(K+1) component on (0, inf)
    (values below log 2 get weight zero through the indicator), the rest
    from x uniform on (0, 1/2).
    """
    kids = np.random.SeedSequence(seed).spawn(3)
    n1 = int(round(_GAMMA_SHARE * n))
    n2 = n - n1
    u1 = (np.arange(n1) + np.random.default_rng(kids[0]).random(n1)) / n1
    u2 = (np.arange(n2) + np.random.default_rng(kids[1]).random(n2)) / n2
    (x1, t1), (x2, t2) = _component(K, u1, True), _component(K, u2, False)
    return np.concatenate([x1, x2]), np.concatenate([t1, t2]), n1, np.random.default_rng(kids[2])


def _mixture_density(t: np.ndarray, K: float, w1: float, w2: float) -> np.ndarray:
    from scipy.special import gammaln
    log_pg = K * np.log(t) - t - gammaln(K + 1.0)
    pg = np.exp(log_pg)
    pu = np.where(t > LOG2, 2.0 * np.exp(-t), 0.0)
    return w1 * pg + w2 * pu


def _require_finite(K: float, value: float, std_error: float) -> None:
    if not (math.isfinite(value) and math.isfinite(std_error)):
        raise NonConvergenceError(
            f"M({K:g}) is out of double range (value {value}, std_error {std_error})"
        )


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
    Points whose orbit is effectively rational are redrawn from a reserved
    repair stream; the distinct points redrawn and the repair rounds are
    reported, and a rejection rate above 1% of the points raises
    NonConvergenceError, and so does an estimate that leaves double range
    (from about K = 170).  samples must be in [2, MAX_SAMPLES].

    quad: deterministic panel quadrature on (log 2, inf)
    with the refinement difference as the error field.
    """
    if not 0.0 < K < math.inf:
        raise ValueError(f"K must be positive and finite, got {K}")
    from scipy.special import gamma as gamma_fn, gammaln
    if method == "quad":
        def f(x):
            g, _, ok = g_batch(x)
            return np.where(ok, np.abs(g), 0.0) ** K

        with np.errstate(over="ignore", invalid="ignore"):
            full = 2.0 * _quad_log_substitution(f, K, LOG2, panels)
            halfres = 2.0 * _quad_log_substitution(f, K, LOG2, panels // 2)
        value = full
        _require_finite(K, value, abs(full - halfres))
        return MomentEstimate(
            K=K,
            value=value,
            std_error=abs(full - halfres),
            samples=panels * 16,
            method="quad",
            gamma_ratio=value / float(gamma_fn(K + 1.0)),
            rejections=0,
        )
    if method != "mc":
        raise ValueError(f"unknown moment method {method!r}")
    if not 2 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must be in [2, {MAX_SAMPLES}], got {samples}")

    x, t, n1, repair_rng = _mixture_samples(K, samples, seed)
    n2 = samples - n1
    g, _, ok = g_batch(x)
    # only failed points are redrawn, so these are all the points ever failed
    rejections = int(np.count_nonzero(~ok))
    rounds = 0
    while not ok.all() and rounds < _MAX_REPAIR_ROUNDS:
        bad = np.flatnonzero(~ok)
        for idx, gamma in ((bad[bad < n1], True), (bad[bad >= n1], False)):
            if idx.size:
                x[idx], t[idx] = _component(K, repair_rng.random(idx.size), gamma)
        g_new, _, ok_new = g_batch(x[bad])
        g[bad] = g_new
        ok[bad] = ok_new
        rounds += 1
    if rejections > 0.01 * samples:
        raise NonConvergenceError(
            f"rejection rate {rejections / samples:.3%} exceeds 1% at K={K}"
        )

    w1 = n1 / samples
    w2 = n2 / samples
    # at large K the weights leave double range; the result is then rejected
    with np.errstate(over="ignore", invalid="ignore"):
        dens = _mixture_density(t, K, w1, w2)
        absg = np.abs(g)
        logf = np.where(absg > 0.0, K * np.log(np.where(absg > 0, absg, 1.0)) - t, -np.inf)
        f_over_p = np.where(
            (t > LOG2) & ok & np.isfinite(logf), np.exp(logf) / dens, 0.0
        )
        # an exact power-of-two scale keeps the variance in range
        scale = math.ldexp(1.0, math.frexp(float(f_over_p.max()))[1] - 1)
        f_over_p /= scale
        m1 = float(np.mean(f_over_p[:n1])) if n1 else 0.0
        m2 = float(np.mean(f_over_p[n1:])) if n2 else 0.0
        value = 2.0 * (w1 * m1 + w2 * m2) * scale
        v1 = float(np.var(f_over_p[:n1])) if n1 > 1 else 0.0
        v2 = float(np.var(f_over_p[n1:])) if n2 > 1 else 0.0
    std = 2.0 * math.sqrt(w1 * w1 * v1 / max(n1, 1) + w2 * w2 * v2 / max(n2, 1)) * scale
    _require_finite(K, value, std)
    log_ratio = math.log(value) - float(gammaln(K + 1.0)) if value > 0 else -math.inf
    return MomentEstimate(
        K=K,
        value=value,
        std_error=std,
        samples=samples,
        method="mc",
        gamma_ratio=math.exp(log_ratio),
        rejections=rejections,
        repair_rounds=rounds,
    )


def gamma_ratio_sweep(
    Ks: list[float],
    seed: int = 0,
    samples: int = 1_000_000,
    method: str = "mc",
) -> list[MomentEstimate]:
    """One moment estimate per K, sharing the sampling budget and seed root."""
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
