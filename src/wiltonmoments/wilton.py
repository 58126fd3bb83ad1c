"""Wilton's function, the transfer-type operator T, and orbit partial sums.

Wilton's function is the alternating series W(x) = sum_k (-1)^k gamma_k(x)
with gamma_k = beta_{k-1} log(1/alpha_k); it satisfies the functional
equation W(x) = log(1/x) - x W(alpha(x)).  The operator is
(T f)(x) = x f(alpha(x)), iterated through the beta-product formula
(T^n f)(x) = beta_{n-1}(x) f(alpha_n(x)) so one orbit serves every n.
The scalar series pull steps of cf_dynamics.orbit until their rules stop
them; apply_T and partial_sums take a fixed depth from orbit_arrays.  The
vectorized _orbit_series and iterate_l2_means step with orbit_step, which
ends a row where orbit ends it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable

import numpy as np

from .cf_dynamics import (
    _BLOCK,
    DEFAULT_CONFIG,
    MAX_TERMS,
    RATIONAL_GUARD,
    EffectiveRationalError,
    ToleranceConfig,
    float_end_error,
    orbit,
    orbit_arrays,
    orbit_step,
    pool_map,
)


@dataclass(frozen=True)
class WiltonEval:
    point: float
    value: float
    terms_used: int
    tail_bound: float


@dataclass(frozen=True)
class PartialSumEval:
    point: float
    n: int
    L_value: float
    D_value: float


def ell(x: float) -> float:
    """log(1/x) on (0, 1)."""
    if not 0.0 < x < 1.0:
        raise ValueError(f"ell needs x in (0, 1), got {x}")
    return -math.log(x)


def apply_T(f: Callable[[float], float], x: float, n: int) -> float:
    """(T^n f)(x) = beta_{n-1}(x) * f(alpha_n(x)); T^0 is the identity."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        if not 0.0 < x < 1.0:
            raise ValueError(f"apply_T needs x in (0, 1), got {x}")
        return f(x)
    alphas, betas, _, truncated = orbit_arrays(x, n)
    if truncated or len(alphas) <= n:
        raise EffectiveRationalError(f"orbit of {x} ended before depth {n}")
    return betas[n] * f(alphas[n])


_UNIT_ROUNDOFF = 2.0**-53


def _rounding_bound(betas: np.ndarray, m: int) -> float:
    """First-order bound u sum_{k<m} S_k/beta_k, S_k = sum_{j<k} beta_{j-1} beta_j,
    on the float-orbit rounding error in the first m terms of the series.

    A rounding error of about u/alpha_{j-1} made at step j reaches alpha_k
    multiplied by (beta_{j-1}/beta_{k-1})^2, and gamma_k moves by
    beta_{k-1}/alpha_k times the error of alpha_k.  Terms of order u^2 and
    the relative errors of the beta products are left out.
    """
    s = np.cumsum(betas[: m - 1] * betas[1:m])
    return _UNIT_ROUNDOFF * float(np.sum(s / betas[2 : m + 1]))


def _alternating_sum(terms) -> float:
    """sum_k (-1)^k terms[k], as one dot product."""
    terms = np.asarray(terms)
    return float(np.where(np.arange(terms.size) % 2 == 0, 1.0, -1.0) @ terms)


def wilton(x: float, cfg: ToleranceConfig = DEFAULT_CONFIG) -> WiltonEval:
    """Evaluate Wilton's function by its alternating orbit series.

    The series stops at the first k >= 1 with gamma_k < tol and gamma_{k+1}
    <= min(tol, gamma_k), k + 2 steps into orbit(x), and sums terms 0..k-1;
    two consecutive small terms guard against an isolated one before a
    spike.  tail_bound is a truncation part plus a rounding part, neither of
    them rigorous.  The truncation part is gamma_k + gamma_{k+1}; a later
    large partial quotient can make a term spike past it.  The rounding
    part, _rounding_bound, is first order: it can miss where the float orbit
    has left the branch of the true orbit (6 of 4000 measure points at
    abs_tol 1e-10, against a 60-digit evaluation at the same double), and
    below abs_tol ~1e-8 it grows like u/beta_k while the true error stays
    near 1e-8.

    An orbit that ends after j steps first is decided by float_end_error.
    If the float orbit could not step on, all j terms are summed, and the
    truncation part bounds the rest, beta_{j-1} W(alpha_j), by the heuristic
    720 beta_{j-1} plus one ulp of the sum: |W(y)| passes 720 only within
    about e^-700 of a rational.  Below x ~ 1e-13, where a double cannot
    resolve {1/x}, that is log(1/x) within 720 x.
    """
    tol = cfg.abs_tol
    betas, gammas = [], []
    for a, beta in islice(orbit(x), MAX_TERMS + 1):
        betas.append(beta)
        gammas.append(beta * -math.log(a))
        k = len(gammas) - 2
        if k >= 1 and gammas[k] < tol and gammas[k + 1] <= min(tol, gammas[k]):
            value, trunc = _alternating_sum(gammas[:k]), gammas[k] + gammas[k + 1]
            break
    else:
        if err := float_end_error(x, "the W series", len(gammas)):
            raise err
        k = len(gammas)
        betas.append(beta * a)
        value = _alternating_sum(gammas)
        trunc = 720.0 * betas[-1] + math.ulp(value)
    return WiltonEval(x, value, k, trunc + _rounding_bound(np.array(betas), k))


def partial_sums(x: float, n: int) -> PartialSumEval:
    """L(x, n) = sum_{v=0}^{n} (-1)^v (T^v l)(x) and D(x, n) = L - l(x).

    (T^v l)(x) is exactly gamma_v(x), so L is the n-th partial sum of the
    Wilton series.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_TERMS:
        raise ValueError(f"n {n} exceeds MAX_TERMS {MAX_TERMS}")
    alphas, _, gammas, truncated = orbit_arrays(x, n)
    if truncated or len(gammas) <= n:
        raise EffectiveRationalError(f"orbit of {x} ended before depth {n}")
    L = _alternating_sum(gammas[: n + 1])
    return PartialSumEval(point=x, n=n, L_value=L, D_value=L - ell(x))


# a stopped row steps on from here until its block compacts: the float orbit of
# this double stays above 2e-3 for 400 steps, so it never ends and never
# reaches a candidate step (test_stopped_rows_never_end)
_GOLDEN = 0.6180339887498949
# a block compacts once this share of its rows has stopped since it last did.
# g_batch on moment(2)'s and moment(20)'s 5e5 points (seeds 11, 12) at 1 worker,
# best CPU time of 4 alternated runs on 2 vCPU: 0.20 and 0.064 s compacting at
# every step that stops a row, 0.18 and 0.065 s at 1/4 or 1/2, 0.25 and 0.090 s
# never
_COMPACT_SHARE = 0.25


def _orbit_series(
    x: np.ndarray,
    idx: np.ndarray,
    out: tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray],
    tol: float,
    f: Callable[[np.ndarray], np.ndarray] = np.zeros_like,
    supf: float = 0.0,
    h_tol: float = math.inf,
    f_err: float = 0.0,
) -> None:
    """Sum W + H along the orbits of x[idx] into out = (value, err, terms, ok).

    Term k is (-1)^k (gamma_k - 2 beta_{k-1} f(alpha_k)); the default f = 0
    sums W alone.  A point stops at the first k >= 1 where gamma_k < tol,
    gamma_{k+1} <= min(tol, gamma_k) (the rule of wilton) and
    2 beta_{k-1} supf < h_tol.  It then writes its partial sum, the error
    gamma_k + gamma_{k+1} + 4 beta_{k-1} supf + 2 f_err sum_{j<k} beta_{j-1},
    k (unless terms is None) and ok = True.  A point whose orbit ends after
    alpha_k first (orbit_step) stops there by the scalar series' end rule,
    float_end_error: unless x is effectively rational it writes its sum
    through term k, k + 1, ok = True and the error of wilton and _h_with_err,
    720 beta_k + ulp(value) + 4 beta_k supf, plus 2 f_err sum_{j<=k}
    beta_{j-1}.  Other points are left as they were.  Each step reads f
    once, at every row's alpha_k, ended rows included.

    The stop rules are tested only on the rows with gamma_k < tol and the
    rows whose orbit ended, and a step with neither tests nothing.  A
    stopped row's idx becomes -1 and it steps on from _GOLDEN, writing
    nothing, until _COMPACT_SHARE of the rows have stopped; then take
    gathers the running rows.  More than _BLOCK rows run as blocks of
    _BLOCK on pool_map, each on its own; a row's arithmetic does not depend
    on its block or on the rows beside it, so every bit is that of one
    sweep.
    """
    if idx.size > _BLOCK:
        blocks = (idx[lo : lo + _BLOCK] for lo in range(0, idx.size, _BLOCK))
        pool_map(lambda b: _orbit_series(x, b, out, tol, f, supf, h_tol, f_err), blocks)
        return
    value, err, terms, ok = out
    alpha = x[idx]
    idx = idx.copy()
    beta = np.ones(idx.size)
    val = np.zeros(idx.size)
    beta_sum = np.zeros(idx.size)
    prev_g = -np.log(alpha)
    running, stopped = idx.size, 0  # rows still running, rows stopped since the last take
    sign = 1.0
    k = 0
    while running and k < MAX_TERMS:
        alpha_next, beta_next, ended = orbit_step(alpha, beta, x, idx)
        step = f(alpha)
        e = ended.nonzero()[0]
        if e.size:  # the orbit ended after alpha_k: sum through term k, as scalar series do
            b = beta[e]
            v = val[e] + sign * (prev_g[e] - 2.0 * b * step[e])
            tail = (720.0 + 4.0 * supf) * beta_next[e] + 2.0 * f_err * (beta_sum[e] + b)
            tail += np.spacing(np.abs(v))
            fin = np.array([not float_end_error(float(x[j]), "a row", k + 1) for j in idx[e]], bool)
            done = idx[e[fin]]
            value[done], err[done], ok[done] = v[fin], tail[fin], True
            if terms is not None:
                terms[done] = k + 1
            idx[e], alpha_next[e], beta_next[e] = -1, _GOLDEN, 1.0
            running -= e.size
            stopped += e.size
        g_next = np.log(alpha_next)
        np.negative(g_next, out=g_next)
        g_next *= beta_next
        w = (prev_g < tol).nonzero()[0] if k else e[:0]
        if w.size:  # W's rule and H's rule, on the rows below tol
            g = g_next[w]
            w = w[(g <= tol) & (g <= prev_g[w]) & (2.0 * beta[w] * supf < h_tol)]
            done = idx[w]
            if not (live := done >= 0).all():  # stopped rows step on but never stop again
                w, done = w[live], done[live]
        if w.size:
            b = beta[w]
            value[done], ok[done] = val[w], True
            err[done] = prev_g[w] + g_next[w] + 4.0 * b * supf + 2.0 * f_err * beta_sum[w]
            if terms is not None:
                terms[done] = k
            idx[w] = -1
            running -= w.size
            stopped += w.size
        compact = stopped >= _COMPACT_SHARE * idx.size and running
        if w.size and not compact:  # they step on until a later compaction
            alpha_next[w], beta_next[w], g_next[w] = _GOLDEN, 1.0, np.inf

        step *= 2.0 * beta
        np.subtract(prev_g, step, out=step)
        if sign > 0:
            val += step
        else:
            val -= step
        beta_sum += beta
        prev_g = g_next
        beta = beta_next
        alpha = alpha_next
        sign = -sign
        k += 1
        if compact:
            keep = (idx >= 0).nonzero()[0]
            idx, alpha, beta, val, beta_sum, prev_g = (
                a.take(keep) for a in (idx, alpha, beta, val, beta_sum, prev_g)
            )
            stopped = 0


def wilton_batch(
    xs: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized Wilton evaluation: _orbit_series with F = 0.

    Returns (values, tail_bounds, terms_used, ok).  An orbit that ends first
    (orbit_step) ends the series as in wilton, with the tail 720 beta + ulp
    but without wilton's rounding term.  ok is False where x is outside
    (RATIONAL_GUARD, 1), effectively rational (where wilton raises) or still
    running after MAX_TERMS steps; such entries hold 0.  Iterates are
    produced by the same float operations as gauss_map, so residuals of the
    functional equation cancel structurally down to the tail bounds.  Rows
    run in _BLOCK-row blocks on one thread per CPU, with unchanged bits.
    Input that is not 1-D raises ValueError.
    """
    x = np.asarray(xs, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"wilton_batch needs a 1-D array, got shape {x.shape}")
    n = x.shape[0]
    idx = np.flatnonzero((x > RATIONAL_GUARD) & (x < 1.0))
    out = (np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool))
    _orbit_series(x, idx, out, cfg.abs_tol)
    return out


def iterate_l2_means(xs: np.ndarray, n_max: int) -> np.ndarray:
    """Monte Carlo means of (T^n l)^2 over the sample, n = 0..n_max.

    Common samples across n keep successive ratios stable; points outside
    (RATIONAL_GUARD, 1) and points whose orbit ends (orbit_step) before
    alpha_{n_max} are dropped from every n; with none left it raises ValueError.
    """
    x = np.asarray(xs, dtype=np.float64)
    live = (x > RATIONAL_GUARD) & (x < 1.0)
    alpha, beta = np.where(live, x, 0.5), 1.0  # a dead row steps from 0.5 to 0 and ends
    gam = [-np.log(alpha)]
    for _ in range(n_max):
        alpha, beta, ended = orbit_step(alpha, beta, x)
        live &= ~ended
        alpha = np.where(live, alpha, 0.5)
        gam.append(beta * -np.log(alpha))
    if not live.any():
        raise ValueError(f"no point of the sample has an orbit that reaches n_max = {n_max}")
    g = np.array(gam)[:, live]
    return np.mean(g * g, axis=1)
