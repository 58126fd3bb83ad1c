"""Special functions behind the two evaluation routes for g(x).

g(x) = sum_{l>=1} (1 - 2{lx})/l is evaluated either as W(x) + H(x), which
converges geometrically along the continued-fraction orbit, or as a Cesaro
average of the conditionally convergent partial sums of -2 Phi1(x).

Building blocks:

  bernoulli1, bernoulli2   periodic Bernoulli functions B1, B2
  phi2                     Phi2(t) = sum_n B2(n t) / n^2
  big_a                    A(lam) = int_0^inf {t}{lam t} dt / t^2
  f_func                   F(x) = ((x+1)/2) A(1) - A(x) - (x/2) log x
  h_func                   H(x) = -2 sum_j (-1)^j beta_{j-1}(x) F(alpha_j(x))
  phi1_partial             partial sums of Phi1(x) = sum_n B1(n x)/n
  g_func / g_batch         the two g routes (scalar precise / vectorized)

For lam in (0, 1], A is evaluated through the exact representation

  A(lam) = (lam/2) log(1/lam) + (1 + A(1))/2 * lam
           + (lam^2/2) Phi2(1/lam) - J(1/lam),
  J(T)   = int_T^inf Phi2(t) dt / t^3 = sum_n G(n T),
  G(y)   = int_y^inf B2({u}) du / u^3,

where G has elementary antiderivatives on each integer segment and a
Bernoulli-polynomial asymptotic expansion for large y.  A(1) itself comes
out of the same machinery (A(1) = 1 + pi^2/36 - 2 J(1)), so comparing it
against log(2 pi) - gamma is a genuine accuracy check, not a tautology.

Substituting the A representation into F collapses it to

  F(x) = A(1)/2 - x/2 - psi(x),   psi(x) = (x^2/2) Phi2(1/x) - J(1/x),

which is exact on (0, 1], gives F(0+) = A(1)/2 and F(1) = 0 identically,
and makes |psi| = O(x^2) so tiny arguments cost nothing.

Phi2 near a rational p/q is taken at p/q in closed form, a csc^2(pi r/q)
sum over the residues r <= q/2 (`_phi2_rational`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cf_dynamics import (
    DEFAULT_CONFIG,
    EffectiveRationalError,
    NonConvergenceError,
    ToleranceConfig,
    orbit_arrays,
)
from .wilton import _orbit_series, wilton

PI2_OVER_36 = math.pi * math.pi / 36.0

# Hard caps; series bounds are reported honestly when a cap bites.
_PHI2_MAX_TERMS = 1 << 26
_PHI2_CHUNK = 1 << 22
_SNAP_QMAX = 1_000_000
_SNAP_EPS = 1e-12
_J_MAX_TERMS = 3_000_000
_G_CUT = 64  # exact segments below, Bernoulli asymptotics above
_G_ABS = 0.06  # |G(y)| <= _G_ABS / y^3 for y >= 1
_ROW_BLOCK = 1 << 15  # elements per _psi_vec work buffer; two of them fit in L2

# Bernoulli polynomials B3..B8, descending powers, for the G asymptotics.
_BPOLY = {
    3: (1.0, -1.5, 0.5, 0.0),
    4: (1.0, -2.0, 1.0, 0.0, -1.0 / 30.0),
    5: (1.0, -2.5, 5.0 / 3.0, 0.0, -1.0 / 6.0, 0.0),
    6: (1.0, -3.0, 2.5, 0.0, -0.5, 0.0, 1.0 / 42.0),
    7: (1.0, -3.5, 3.5, 0.0, -7.0 / 6.0, 0.0, 1.0 / 6.0, 0.0),
    8: (1.0, -4.0, 14.0 / 3.0, 0.0, -7.0 / 3.0, 0.0, 2.0 / 3.0, 0.0, -1.0 / 30.0),
}


@dataclass(frozen=True)
class GEval:
    point: float
    value: float
    method: str
    est_error: float


def _frac_part(t: np.ndarray) -> np.ndarray:
    # t - floor(t) can round to exactly 1.0 for tiny negative t; wrap it
    f = t - np.floor(t)
    return np.where(f >= 1.0, f - 1.0, f)


def bernoulli1(t):
    """B1(t) = t - floor(t) - 1/2, periodic, in [-1/2, 1/2)."""
    t = np.asarray(t, dtype=np.float64)
    out = _frac_part(t) - 0.5
    return float(out) if out.ndim == 0 else out


def bernoulli2(t):
    """B2(t) = {t}^2 - {t} + 1/6, periodic, in [-1/12, 1/6]."""
    t = np.asarray(t, dtype=np.float64)
    f = _frac_part(t)
    out = f * f - f + 1.0 / 6.0
    return float(out) if out.ndim == 0 else out


# ----------------------------------------------------------------------
# G(y) = int_y^inf B2({u}) u^-3 du
# ----------------------------------------------------------------------

def _seg_anti(u, m):
    # Antiderivative of ((u-m)^2 - (u-m) + 1/6)/u^3 on [m, m+1].
    c = m * (m + 1.0) + 1.0 / 6.0
    return np.log(u) + (2.0 * m + 1.0) / u - c / (2.0 * u * u)


def _g_asym(y):
    f = y - np.floor(y)
    out = np.zeros_like(y)
    for j, coef in _BPOLY.items():
        b = coef[0]  # Horner, in np.polyval's order
        for c in coef[1:]:
            b = b * f + c
        out -= b / (j * y**j)
    return out


@functools.cache
def _g_cum() -> np.ndarray:
    # cum[k] = G(k) for k = 1.._G_CUT; cum[0] is never dereferenced because
    # the partial-segment formula carries any y in (0, 1) up to u = 1.
    cum = np.zeros(_G_CUT + 1)
    cum[_G_CUT] = float(_g_asym(np.float64(_G_CUT)))
    for i in range(_G_CUT - 1, 0, -1):
        mi = float(i)
        seg = float(_seg_anti(mi + 1.0, mi) - _seg_anti(mi, mi))
        cum[i] = seg + cum[i + 1]
    return cum


def g_tail_integral(y):
    """G(y) = int_y^inf B2({u}) u^-3 du for y > 0, vectorized.

    Exact segment antiderivatives up to the cut, Bernoulli asymptotics
    beyond; the asymptotic remainder at the cut is below 4e-17.
    """
    y = np.asarray(y, dtype=np.float64)
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    if (y <= 0.0).any():
        raise ValueError("g_tail_integral needs y > 0")
    out = np.empty_like(y)
    big = y >= _G_CUT
    if big.any():
        out[big] = _g_asym(y[big])
    small = ~big
    if small.any():
        cum = _g_cum()
        ys = y[small]
        m = np.floor(ys)
        partial = _seg_anti(m + 1.0, m) - _seg_anti(ys, m)
        out[small] = partial + cum[m.astype(np.int64) + 1]
    return float(out[0]) if scalar else out


def _chunked_sum(n_terms: int, term) -> float:
    """sum_{n=1}^{n_terms} term(n), term taking float64 arrays of n, summed
    _PHI2_CHUNK terms at a time in ascending order."""
    total = 0.0
    for start in range(1, n_terms + 1, _PHI2_CHUNK):
        n = np.arange(start, min(start + _PHI2_CHUNK, n_terms + 1), dtype=np.float64)
        total += float(np.sum(term(n)))
    return total


def _j_tail(T: float, tol: float) -> tuple[float, float]:
    """J(T) = int_T^inf Phi2(t)/t^3 dt = sum_n G(n T), with error bound."""
    if T < 1.0:
        raise ValueError("_j_tail needs T >= 1")
    nf = math.sqrt(_G_ABS / (2.0 * tol * T**3)) if tol > 0 else _J_MAX_TERMS
    n = int(min(max(nf, 1.0), _J_MAX_TERMS)) + 1
    total = _chunked_sum(n, lambda k: g_tail_integral(k * T))
    err = _G_ABS / (2.0 * n * n * T**3) + 5e-16 * n
    return total, err


# ----------------------------------------------------------------------
# Phi2
# ----------------------------------------------------------------------

def _snap_rational(x: float, qmax: int, eps: float) -> tuple[int, int] | None:
    """First continued-fraction convergent p/q of x with q <= qmax and
    |x - p/q| <= eps, if any."""
    p_prev, q_prev = 1, 0
    p_cur, q_cur = 0, 1
    y = x
    for _ in range(64):
        if q_cur > qmax:
            return None
        if abs(x - p_cur / q_cur) <= eps:
            return p_cur, q_cur
        if y <= 0.0:
            return None
        z = 1.0 / y
        a = math.floor(z)
        y = z - a
        p_prev, p_cur = p_cur, int(a) * p_cur + p_prev
        q_prev, q_cur = q_cur, int(a) * q_cur + q_prev
    return None


def _phi2_rational(p: int, q: int) -> float:
    """Exact Phi2(p/q) in O(q).

    The classes n = r (mod q) sum to b2_r psi1(r/q) / q^2.  B2 is even, so
    b2_{q-r} = b2_r, and psi1(t) + psi1(1-t) = pi^2 / sin^2(pi t) pairs the
    classes:  Phi2(p/q) = pi^2 (sum_{r <= q/2} b2_r w_r + 1/36) / q^2 with
    w_r = csc^2(pi r/q), and w_{q/2} = 1/2 for even q.  Keeping r <= q/2
    keeps sin away from pi, where its relative error would grow like q u.
    """
    if q == 1:
        return PI2_OVER_36
    r = np.arange(1, q // 2 + 1, dtype=np.int64)
    frac = ((r * p) % q).astype(np.float64) / q
    b2 = frac * frac - frac + 1.0 / 6.0
    s = np.sin(r * (math.pi / q))
    w = 1.0 / (s * s)
    if q % 2 == 0:
        w[-1] = 0.5
    return float(math.pi * math.pi * (b2 @ w + 1.0 / 36.0) / (q * q))


def _phi2_direct(frac: float, n_terms: int) -> float:
    def term(n):
        t = n * frac
        f = t - np.floor(t)
        return (f * f - f + 1.0 / 6.0) / (n * n)

    return _chunked_sum(n_terms, term)


def _snap_error(delta: float) -> float:
    # continuity modulus of Phi2: |Phi2(a) - Phi2(b)| <= d (log(1/(3d)) + 2)
    if delta <= 0.0:
        return 0.0
    return delta * (math.log(1.0 / (3.0 * delta)) + 2.0)


def _phi2_route(frac: float, tol: float) -> tuple[tuple[int, int] | None, int, float]:
    """Path choice for Phi2(frac), frac in [0, 1): (snap, n_terms, err).

    snap is the rational (p, q) to evaluate at, or None for the direct
    series of n_terms terms; err is the chosen path's error bound.
    """
    n_terms = int(min(max(1.0 / (6.0 * tol), 16.0), _PHI2_MAX_TERMS))
    direct_err = 1.0 / (6.0 * n_terms)
    qmax = min(_SNAP_QMAX, max(n_terms // 4, 64))
    eps = max(_SNAP_EPS, 0.1 * tol / (math.log(1.0 / min(tol, 0.1)) + 2.0))
    snap = _snap_rational(frac, qmax, eps)
    if snap is not None:
        p, q = snap
        err = _snap_error(abs(frac - p / q))
        # q == 1: frac in (0,1) snapped to an integer boundary
        if q == 1 or err <= 0.5 * tol or err <= direct_err:
            return snap, n_terms, err + 1e-13
    return None, n_terms, direct_err


def _phi2_core(lam: float, tol: float) -> tuple[float, float]:
    """(Phi2(lam), error bound).

    Periodic reduction first.  A nearby rational p/q is used, through the
    exact csc^2 form of `_phi2_rational`, only when its continuity-modulus
    error meets the tolerance and the O(q) evaluation undercuts direct
    summation; otherwise the series is summed with the absolute tail bound
    (1/6)/N (capped; the reported bound reflects the cap).  `_phi2_route`
    makes the choice.
    """
    if not math.isfinite(lam):
        raise ValueError("phi2 needs a finite argument")
    frac = lam - math.floor(lam)
    if frac == 0.0:
        return PI2_OVER_36, 0.0
    snap, n_terms, err = _phi2_route(frac, tol)
    if snap is None:
        return _phi2_direct(frac, n_terms), err
    return _phi2_rational(*snap), err


def phi2(lam: float, cfg: ToleranceConfig = DEFAULT_CONFIG) -> float:
    """Phi2(lam) = sum_{n>=1} B2(n lam)/n^2; period 1, bounded by pi^2/36."""
    val, _ = _phi2_core(lam, cfg.abs_tol)
    return val


# ----------------------------------------------------------------------
# A, F and the A(1) constant
# ----------------------------------------------------------------------

def _psi_with_err(lam: float, tol: float) -> tuple[float, float]:
    """psi(lam) = (lam^2/2) Phi2(1/lam) - J(1/lam) for lam in (0, 1]."""
    if lam < 1e-9:
        # |psi| <= (pi^2/72) lam^2 + |J| <= 0.1371 lam^2 + 0.072 lam^3,
        # far below any working tolerance (and lam^2 may underflow)
        return 0.0, 0.14 * lam * lam
    T = 1.0 / lam
    phi_tol = tol / (lam * lam)
    pval, perr = _phi2_core(T, phi_tol)
    jval, jerr = _j_tail(T, tol / 2.0)
    half_l2 = 0.5 * lam * lam
    return half_l2 * pval - jval, half_l2 * perr + jerr


@functools.cache
def a1_constant() -> tuple[float, float]:
    """Self-consistent A(1) = 1 + pi^2/36 - 2 J(1), with error bound.

    Independent of the closed form log(2 pi) - gamma, which tests compare
    against.
    """
    jval, jerr = _j_tail(1.0, 5e-12)
    return 1.0 + PI2_OVER_36 - 2.0 * jval, 2.0 * jerr


def _a_with_err(lam: float, tol: float) -> tuple[float, float]:
    if not math.isfinite(lam):
        raise ValueError("big_a needs a finite argument")
    if lam < 0.0:
        raise ValueError("big_a needs lam >= 0")
    if lam == 0.0:
        return 0.0, 0.0
    if lam > 1.0:
        val, err = _a_with_err(1.0 / lam, tol / lam)
        return lam * val, lam * err
    a1, a1e = a1_constant()
    psi, psie = _psi_with_err(lam, tol / 2.0)
    val = -0.5 * lam * math.log(lam) + 0.5 * (1.0 + a1) * lam + psi
    return val, 0.5 * lam * a1e + psie


def big_a(lam: float, cfg: ToleranceConfig = DEFAULT_CONFIG) -> float:
    """A(lam) = int_0^inf {t}{lam t} dt/t^2; A(lam) = lam A(1/lam) above 1."""
    val, _ = _a_with_err(lam, cfg.abs_tol)
    return val


def big_a_integral(lam: float, t_max: float = 1e4) -> tuple[float, float]:
    """Direct quadrature of the defining integral of A, with error bound.

    Test-only oracle: exact antiderivatives between consecutive breakpoints
    of {t} and {lam t} up to t_max, analytic tail beyond (mean 1/4 term,
    single-B1 tails through G, rational mean correction for the cross term
    when lam snaps to p/q).  Slow but entirely independent of the Phi2
    route.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError("big_a_integral covers lam in (0, 1]")
    T = float(t_max)
    ints = np.arange(1.0, math.floor(T) + 1.0)
    k = np.arange(1.0, math.floor(lam * T) + 1.0)
    breaks = np.union1d(ints, k / lam)
    breaks = breaks[(breaks >= 1.0) & (breaks <= T)]
    if breaks[-1] < T:
        breaks = np.append(breaks, T)
    t0 = np.concatenate(([1.0], breaks[:-1]))
    t1 = breaks
    mid = 0.5 * (t0 + t1)
    a = np.floor(mid)
    b = np.floor(lam * mid)
    seg = (
        lam * (t1 - t0)
        - (a * lam + b) * (np.log(t1) - np.log(t0))
        - a * b * (1.0 / t1 - 1.0 / t0)
    )
    body = float(np.sum(seg))

    def b1_tail(tt: float) -> float:
        # int_tt^inf B1({u}) u^-2 du
        f = tt - math.floor(tt)
        b2v = f * f - f + 1.0 / 6.0
        return -b2v / (2.0 * tt * tt) + float(g_tail_integral(tt))

    # substituting u = lam t: int_T^inf B1({lam t}) t^-2 dt = lam * b1_tail(lam T)
    tail = 0.25 / T + 0.5 * b1_tail(T) + 0.5 * lam * b1_tail(lam * T)
    snap = _snap_rational(lam, 10_000, 1e-9)
    if snap is not None and snap[0] > 0:
        p, q = snap
        tail += 1.0 / (12.0 * p * q * T)
        err = q / (T * T) + 2.0 / (T * T)
    else:
        err = 0.25 / T
    return lam + body + tail, err


def f_func(x: float, cfg: ToleranceConfig = DEFAULT_CONFIG) -> float:
    """F(x) = ((x+1)/2) A(1) - A(x) - (x/2) log x on (0, 1]; F(1) = 0."""
    val, _ = _f_with_err(x, cfg.abs_tol)
    return val


def _f_with_err(x: float, tol: float) -> tuple[float, float]:
    if not 0.0 < x <= 1.0:
        raise ValueError(f"f_func needs x in (0, 1], got {x}")
    a1, a1e = a1_constant()
    psi, psie = _psi_with_err(x, tol)
    return 0.5 * a1 - 0.5 * x - psi, 0.5 * a1e + psie


@functools.cache
def sup_f_bound() -> float:
    """Upper bound for sup |F| on (0, 1]: 1.1 (A(1)/2 + 1e-4).

    |psi(x)| <= (pi^2/72) x^2 + 0.06 zeta(3) x^3 <= x/2 on (0, 1], so
    A(1)/2 - x <= F(x) = A(1)/2 - x/2 - psi(x) <= A(1)/2, and |F| <= A(1)/2
    = F(0+) since A(1) > 1.  The margin covers A(1)'s own error many times.
    """
    a1, _ = a1_constant()
    return 1.1 * (0.5 * a1 + 1e-4)


def _psi_vec(xs: np.ndarray, tol_f: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized psi over an array of points in (0, 1], uniform tolerance.

    Direct Phi2 summation with per-point term counts N_i = x_i^2/(6 tol),
    bucketed by N for dense evaluation; J through the O(1) G evaluator.
    """
    x = np.asarray(xs, dtype=np.float64)
    T = 1.0 / x
    fracT = T - np.floor(T)
    n_needed = np.minimum(np.ceil(x * x / (6.0 * tol_f)), 1e7).astype(np.int64)
    n_needed = np.maximum(n_needed, 1)
    phi = np.full(x.shape, PI2_OVER_36)
    live = fracT > 0.0
    phierr = np.zeros(x.shape)
    if live.any():
        phi_live = np.zeros(int(live.sum()))
        fr = fracT[live]
        nn = n_needed[live]
        order = np.argsort(nn, kind="stable")
        fr_s, nn_s = fr[order], nn[order]
        res = np.zeros_like(fr_s)
        start = 0
        while start < len(fr_s):
            n_b = int(nn_s[start])
            # grow bucket to points needing at most 2x the terms
            stop = int(np.searchsorted(nn_s, 2 * n_b, side="right"))
            stop = max(stop, start + 1)
            pts = fr_s[start:stop]
            n_use = int(nn_s[stop - 1])
            n_arr = np.arange(1, n_use + 1, dtype=np.float64)
            # Column chunks fix each row's summation order; row blocks only
            # bound the working set, so the sums do not depend on _ROW_BLOCK.
            acc = np.zeros(len(pts))
            step = max(1, int(4e6 / max(len(pts), 1)))
            width = min(step, n_use)
            rows = max(1, _ROW_BLOCK // width)
            tbuf = np.empty(rows * width)
            fbuf = np.empty_like(tbuf)
            for c0 in range(0, n_use, step):
                nb = n_arr[c0 : c0 + step]
                nb2 = nb * nb
                for r0 in range(0, len(pts), rows):
                    p = pts[r0 : r0 + rows]
                    t = tbuf[: p.size * nb.size].reshape(p.size, nb.size)
                    f = fbuf[: t.size].reshape(t.shape)
                    np.multiply.outer(p, nb, out=t)
                    np.floor(t, out=f)
                    t -= f
                    np.multiply(t, t, out=f)
                    f -= t
                    f += 1.0 / 6.0
                    f /= nb2
                    acc[r0 : r0 + rows] += f.sum(axis=1)
            res[start:stop] = acc
            start = stop
        phi_live[order] = res
        phi[live] = phi_live
        phierr_live = np.zeros_like(fr_s)
        phierr_live[order] = 1.0 / (6.0 * nn_s)
        phierr[live] = phierr_live

    jval = np.zeros(x.shape)
    nj = np.ceil(np.sqrt(_G_ABS * x**3 / tol_f)).astype(np.int64)
    nj = np.maximum(nj, 1)
    nmax = int(nj.max())
    for n in range(1, nmax + 1):
        mask = nj >= n
        if not mask.any():
            break
        jval[mask] += g_tail_integral(n * T[mask])
    jerr = _G_ABS * x**3 / (2.0 * nj * nj)

    half = 0.5 * x * x
    return half * phi - jval, half * phierr + jerr


# ----------------------------------------------------------------------
# H and the decomposition
# ----------------------------------------------------------------------

def h_func(x: float, cfg: ToleranceConfig = DEFAULT_CONFIG) -> float:
    """H(x) = -2 sum_j (-1)^j beta_{j-1}(x) F(alpha_j(x)), geometric in beta.

    The overall sign makes the routes consistent: with it, g = W + H matches
    the directly summed series for g, H satisfies H(x) = -2F(x) - x H(alpha(x)),
    and H(x) -> -A(1) as x -> 0 (the constant that drives the moment
    asymptotics).  The opposite convention appears in parts of the
    literature; it is incompatible with those three facts at once.
    """
    val, _ = _h_with_err(x, cfg)
    return val


def _h_with_err(x: float, cfg: ToleranceConfig) -> tuple[float, float]:
    if not 0.0 < x < 1.0:
        raise ValueError(f"h_func needs x in (0, 1), got {x}")
    if x < _SMALLX_CUT:
        # H = -2F(x) - x H(alpha(x)) with |H| <= 2.7 and 2|psi| <= 0.3 x^2
        a1, a1e = a1_constant()
        return -a1 + x, 3.0 * x + a1e
    tol = cfg.abs_tol
    supf = sup_f_bound()
    alphas, betas, _, truncated = orbit_arrays(x, cfg.max_terms, cfg.rational_guard)
    total = 0.0
    err = 0.0
    sign = -1.0  # term j carries (-1)^{j+1}
    done = False
    for j in range(len(alphas)):
        beta_prev = betas[j]
        if 2.0 * beta_prev * supf < 0.5 * tol:
            err += 2.0 * beta_prev * supf * 2.0
            done = True
            break
        # per-term budget grows as beta decays: sum of 2*beta*eF stays <= tol/4
        ef = tol / (8.0 * (j + 1.0) * (j + 2.0) * beta_prev)
        ef = min(max(ef, 1e-12), 1e-4)
        fval, ferr = _f_with_err(alphas[j], ef)
        total += sign * 2.0 * beta_prev * fval
        err += 2.0 * beta_prev * ferr
        sign = -sign
    if not done:
        if truncated:
            raise EffectiveRationalError(f"orbit of {x} ended before H converged")
        raise NonConvergenceError(f"H series at {x} exceeded {cfg.max_terms} terms")
    return total, err + 1e-14


def decomposition_values(
    x: float, ns: list[int], cfg: ToleranceConfig = DEFAULT_CONFIG
) -> dict[int, float]:
    """l(x) + D(x,n) + H(x) + (-1)^{n+1} (T^{n+1} W)(x) for each requested n.

    All pieces share one orbit: D from the partial sums, the W remainder as
    beta_n times the Wilton value of alpha_{n+1} reconstructed from the
    orbit tail.  The result is n-free up to evaluation tolerances.  H is a
    common additive term, so the n-independence spread does not depend on
    its precision; it is evaluated at a capped tolerance.
    """
    import dataclasses

    tol = cfg.abs_tol
    alphas, betas, gammas, truncated = orbit_arrays(x, cfg.max_terms, cfg.rational_guard)
    from .wilton import _alternating_stop

    k = _alternating_stop(gammas, tol)
    if k is None:
        raise (EffectiveRationalError if truncated else NonConvergenceError)(
            f"orbit series at {x} did not reach tolerance"
        )
    if max(ns) + 2 >= k:
        raise ValueError(f"requested n {max(ns)} too deep for stop index {k}")
    h_cfg = dataclasses.replace(cfg, abs_tol=max(cfg.abs_tol, 1e-6))
    hval, _ = _h_with_err(x, h_cfg)
    lx = -math.log(x)
    out: dict[int, float] = {}
    for n in ns:
        signs = np.where(np.arange(n + 1) % 2 == 0, 1.0, -1.0)
        L = float(signs @ gammas[: n + 1])
        d_val = L - lx
        # gamma_m(alpha_{n+1}) = (beta_{n+m}/beta_n) log(1/alpha_{n+1+m})
        m = np.arange(0, k - (n + 1))
        gam_shift = betas[n + 1 + m] / betas[n + 1] * (-np.log(alphas[n + 1 + m]))
        w_shift = float(np.where(m % 2 == 0, 1.0, -1.0) @ gam_shift)
        remainder = betas[n + 1] * w_shift * (1.0 if (n + 1) % 2 == 0 else -1.0)
        out[n] = lx + d_val + hval + remainder
    return out


# ----------------------------------------------------------------------
# Phi1 and g
# ----------------------------------------------------------------------

def phi1_partial(x: float, n_terms: int) -> float:
    """N-th partial sum of Phi1(x) = sum_n B1(n x)/n.  No convergence claim:
    the full series converges only almost everywhere and diverges at
    rationals."""
    if not 0.0 < x < 1.0:
        raise ValueError(f"phi1_partial needs x in (0, 1), got {x}")
    if n_terms < 1:
        raise ValueError("n_terms must be positive")
    return _chunked_sum(n_terms, lambda n: bernoulli1(n * x) / n)


def _phi1_cesaro(x: float, n0: int, window: int) -> tuple[float, float]:
    """Cesaro average of the partial sums S_{n0}..S_{n0+window-1} of Phi1,
    with a spread-based error heuristic."""
    base = phi1_partial(x, n0 - 1)
    n = np.arange(n0, n0 + window, dtype=np.float64)
    partials = base + np.cumsum(bernoulli1(n * x) / n)
    mean = float(np.mean(partials))
    half = float(np.mean(partials[: window // 2]))
    spread = float(np.std(partials)) + abs(mean - half)
    return mean, spread


def g_func(
    x: float,
    method: str = "wilton_plus_H",
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> GEval:
    """Evaluate g(x) by the requested route.

    wilton_plus_H returns W(x) + H(x); its error is W's tail_bound (a
    truncation heuristic plus a first-order orbit-rounding term, see
    wilton) plus the H series bound.  direct_series returns -2 times a
    Cesaro average of the partial sums S_n, 2^20 <= n < 2^20 + 64, of Phi1
    with a heuristic error.  The orbit route is primary; the series route
    exists as an independent cross-check.
    """
    if method == "wilton_plus_H":
        if 0.0 < x < _SMALLX_CUT:
            a1, a1e = a1_constant()
            return GEval(
                point=x,
                value=-math.log(x) - a1,
                method=method,
                est_error=720.0 * x + a1e,
            )
        w = wilton(x, cfg)
        if w.truncated_rational:
            raise EffectiveRationalError(f"point {x} is effectively rational")
        hval, herr = _h_with_err(x, cfg)
        return GEval(
            point=x,
            value=w.value + hval,
            method=method,
            est_error=w.tail_bound + herr,
        )
    if method == "direct_series":
        mean, spread = _phi1_cesaro(x, 1 << 20, 64)
        return GEval(
            point=x,
            value=-2.0 * mean,
            method=method,
            est_error=2.0 * spread + 64.0 / (1 << 20),
        )
    raise ValueError(f"unknown g method {method!r}")


# ----------------------------------------------------------------------
# Vectorized g for the moment estimators
# ----------------------------------------------------------------------

class _FTable:
    """Uniform table of F on [xmin, 1] = [1e-5, 1], 2^20 segments, built at
    psi tolerance 1e-4, with linear interpolation.

    Below xmin the exact small-x form F = A(1)/2 - x/2 applies (psi is
    O(x^2)).  lookup finds the segment by direct index on the uniform grid
    and returns exactly what np.interp(x, xs, f) returns for finite
    x >= xmin.  err_bound is heuristic: the construction tolerance plus the
    interpolation error away from low-order rational kinks, where F is not
    smooth and the bound is not proven.
    """

    def __init__(self):
        self.xmin = xmin = 1e-5
        size = 1 << 20
        a1, a1e = a1_constant()
        self.a1 = a1
        xs = np.linspace(xmin, 1.0, size + 1)
        psi, psie = _psi_vec(xs, 1e-4)
        self.xs = xs
        self.f = 0.5 * a1 - 0.5 * xs - psi
        self.err_bound = float(np.max(psie)) + a1e + 3e-5
        # slope[size] = 0 makes x >= 1 return f[size], as np.interp does
        self._slope = np.append(np.diff(self.f) / np.diff(xs), 0.0)
        self._inv_h = size / (1.0 - xmin)
        self._last = size - 1

    def lookup(self, x: np.ndarray) -> np.ndarray:
        xs = self.xs
        i = np.fmin(np.fmax((x - self.xmin) * self._inv_h, 0.0), self._last)
        i = i.astype(np.intp)
        # the rounded index is off by at most one segment either way
        i -= (x < xs[i]) & (i > 0)
        i += x >= xs[i + 1]
        return np.where(
            x < self.xmin,
            0.5 * self.a1 - 0.5 * x,
            self._slope[i] * (x - xs[i]) + self.f[i],
        )


@functools.cache
def _ftable() -> _FTable:
    return _FTable()


_SMALLX_CUT = 1e-13


def g_batch(
    xs: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized g = W + H over an array of points.

    The Wilton sum and the H sum share one compacting orbit sweep
    (wilton._orbit_series, the loop wilton_batch also runs); a point stops
    once the W rule holds at 1e-8 and the H tail 2 beta sup|F| is below
    2e-4, within max(max_terms, 80) steps; cfg.abs_tol is not used.  F comes from the interpolation
    table, whose construction tolerance enters the reported per-point error
    bound.  Below 1e-13 the exact relation
    g(x) = log(1/x) - 2F(x) - x g(alpha(x)) collapses to
    g(x) = log(1/x) - A(1) + O(720 x), so those points skip the orbit
    entirely (a double cannot resolve {1/x} there anyway).

    Returns (values, err_bounds, ok); not-ok points (value 0) hit the
    rational guard mid-orbit or the term budget, and should be resampled or
    excluded.
    """
    tab = _ftable()
    supf = sup_f_bound()
    a1, a1e = a1_constant()
    x = np.asarray(xs, dtype=np.float64)
    n = x.shape[0]
    out = (np.zeros(n), np.zeros(n), None, np.zeros(n, dtype=bool))
    gsum, err, _, ok = out

    small = (x > 0.0) & (x < _SMALLX_CUT)
    if small.any():
        gsum[small] = -np.log(x[small]) - a1
        err[small] = 720.0 * x[small] + a1e
        ok[small] = True

    idx = np.flatnonzero((x >= _SMALLX_CUT) & (x < 1.0))
    _orbit_series(
        x, idx, out, 1e-8, cfg.rational_guard, max(cfg.max_terms, 80),
        f=tab.lookup, supf=supf, h_tol=2e-4, f_err=tab.err_bound,
    )
    return gsum, err, ok
