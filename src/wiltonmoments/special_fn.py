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

`_psi_vec` is the one psi evaluator, for the F table and for scalar F, A
and H alike, on one direct Phi2 sum (`_phi2_sums`) and one J sum
(`_j_sums`).  Only a Phi2 sum of 2048 terms or more looks for a nearby
rational p/q, where Phi2 is taken at p/q in closed form, a csc^2(pi r/q)
sum over the residues r <= q/2 (`_phi2_rational`).
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .cf_dynamics import (
    DEFAULT_CONFIG,
    EffectiveRationalError,
    NonConvergenceError,
    ToleranceConfig,
    orbit_arrays,
)
from .wilton import _alternating_stop, _orbit_series, wilton

PI2_OVER_36 = math.pi * math.pi / 36.0

# Hard caps; series bounds are reported honestly when a cap bites.
_PHI2_MAX_TERMS = 1 << 26
_SNAP_QMAX = 1_000_000
_SNAP_EPS = 1e-12
# Below about 2k terms the direct Phi2 sum costs less than the route search.
_SNAP_MIN_TERMS = 2048
_J_MAX_TERMS = 3_000_000
_J_BLOCK = 1 << 16  # G evaluations per _j_sums block; 2^20 runs 2.7x slower (cache)
_G_CUT = 64  # exact segments below, Bernoulli asymptotics above
_G_ABS = 0.06  # |G(y)| <= _G_ABS / y^3 for y >= 1
_ROW_BLOCK = 1 << 15  # elements per _phi2_sums work buffer; two of them fit in L2

# Bernoulli polynomials B3..B8, descending powers, for the G asymptotics.
_BPOLY = {
    3: (1.0, -1.5, 0.5, 0.0),
    4: (1.0, -2.0, 1.0, 0.0, -1.0 / 30.0),
    5: (1.0, -2.5, 5.0 / 3.0, 0.0, -1.0 / 6.0, 0.0),
    6: (1.0, -3.0, 2.5, 0.0, -0.5, 0.0, 1.0 / 42.0),
    7: (1.0, -3.5, 3.5, 0.0, -7.0 / 6.0, 0.0, 1.0 / 6.0, 0.0),
    8: (1.0, -4.0, 14.0 / 3.0, 0.0, -7.0 / 3.0, 0.0, 2.0 / 3.0, 0.0, -1.0 / 30.0),
}


@dataclasses.dataclass(frozen=True)
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


def _j_terms(x, tol):
    """Term count n of J(1/x) = sum_n G(n/x) at tolerance tol, and its bound
    G_ABS x^3/(2 n^2) + 5e-16 n (truncation, plus rounding in any order)."""
    n = np.clip(np.ceil(np.sqrt(_G_ABS * x**3 / tol)), 1, _J_MAX_TERMS).astype(np.int64)
    return n, _G_ABS * x**3 / (2.0 * n * n) + 5e-16 * n


def _j_sums(T: np.ndarray, nj: np.ndarray) -> np.ndarray:
    """sum_{n <= nj_i} G(n T_i) for each i.

    The n-grids of all points are laid end to end and evaluated _J_BLOCK
    terms at a time; np.add.reduceat sums each point's run in a block.
    """
    ends = np.cumsum(nj)
    starts = ends - nj
    total = int(ends[-1]) if len(ends) else 0
    out = np.zeros(len(T))
    for b0 in range(0, total, _J_BLOCK):
        b1 = min(b0 + _J_BLOCK, total)
        i0 = int(np.searchsorted(ends, b0, side="right"))
        i1 = int(np.searchsorted(starts, b1))
        lo = np.maximum(starts[i0:i1], b0)
        cnt = np.minimum(ends[i0:i1], b1) - lo
        k = np.arange(b0 + 1, b1 + 1) - np.repeat(starts[i0:i1], cnt)
        y = k * np.repeat(T[i0:i1], cnt)
        out[i0:i1] += np.add.reduceat(g_tail_integral(y), lo - b0)
    return out


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


def _phi2_sums(fr: np.ndarray, nn: np.ndarray) -> np.ndarray:
    """sum_{n <= nn_i} B2(n fr_i) / n^2 for each i.

    Points are bucketed by term count, each bucket spanning at most a
    factor 2 and summing its largest count for all its rows.  Column chunks
    of at most _ROW_BLOCK terms fix each row's summation order; rows go in
    blocks that keep each work buffer within _ROW_BLOCK elements, which
    does not change the sums.
    """
    order = np.argsort(nn, kind="stable")
    fr_s, nn_s = fr[order], nn[order]
    res = np.zeros(len(fr_s))
    start = 0
    while start < len(fr_s):
        # grow bucket to points needing at most 2x the terms
        stop = max(int(np.searchsorted(nn_s, 2 * nn_s[start], side="right")), start + 1)
        pts = fr_s[start:stop]
        acc = res[start:stop]
        n_use = int(nn_s[stop - 1])
        step = max(1, min(int(4e6 / len(pts)), _ROW_BLOCK))
        width = min(step, n_use)
        rows = min(len(pts), _ROW_BLOCK // width)
        tbuf = np.empty(rows * width)
        fbuf = np.empty_like(tbuf)
        for c0 in range(0, n_use, step):
            nb = np.arange(c0 + 1, min(c0 + step, n_use) + 1, dtype=np.float64)
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
        start = stop
    out = np.empty_like(res)
    out[order] = res
    return out


def _snap_error(delta: float) -> float:
    # continuity modulus of Phi2: |Phi2(a) - Phi2(b)| <= d (log(1/(3d)) + 2)
    return delta * (math.log(1.0 / (3.0 * delta)) + 2.0) if delta > 0.0 else 0.0


def _phi2_route(frac: float, tol: float) -> tuple[tuple[int, int] | None, int, float]:
    """Path choice for Phi2(frac), frac in (0, 1): (snap, n_terms, err).

    The direct series takes n_terms = ceil(1/(6 tol)) terms (at least 1, at
    most 2^26) with error 1/(6 n_terms).  From _SNAP_MIN_TERMS terms on, a
    nearby rational is searched: snap is the (p, q) to evaluate at, or None
    for the direct series; err is the chosen path's error bound.
    """
    n_terms = max(1, math.ceil(min(1.0 / (6.0 * tol), _PHI2_MAX_TERMS)))
    direct_err = 1.0 / (6.0 * n_terms)
    if n_terms < _SNAP_MIN_TERMS:
        return None, n_terms, direct_err
    qmax = min(_SNAP_QMAX, n_terms // 4)
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

    Periodic reduction first, then the path `_phi2_route` chooses: the
    exact csc^2 form of `_phi2_rational` at a nearby p/q, or `_phi2_sums`
    with the absolute tail bound (1/6)/N (capped; the bound reflects it).
    """
    if not math.isfinite(lam):
        raise ValueError("phi2 needs a finite argument")
    frac = lam - math.floor(lam)
    if frac == 0.0:
        return PI2_OVER_36, 0.0
    snap, n_terms, err = _phi2_route(frac, tol)
    if snap is None:
        return float(_phi2_sums(np.array([frac]), np.array([n_terms]))[0]), err
    return _phi2_rational(*snap), err


def phi2(lam: float, cfg: ToleranceConfig = DEFAULT_CONFIG) -> float:
    """Phi2(lam) = sum_{n>=1} B2(n lam)/n^2; period 1, bounded by pi^2/36."""
    val, _ = _phi2_core(lam, cfg.abs_tol)
    return val


# ----------------------------------------------------------------------
# A, F and the A(1) constant
# ----------------------------------------------------------------------

def _psi_vec(xs, tol) -> tuple[np.ndarray, np.ndarray]:
    """psi(x) = (x^2/2) Phi2(1/x) - J(1/x) over points x in [0, 1], with
    error bounds; tol is one tolerance or one per point.

    Phi2 takes N = ceil(x^2/(6 tol)) terms (at most 2^26, error
    (x^2/2)/(6N)), J the `_j_terms` count at the same tol.  A point whose
    Phi2 sum needs _SNAP_MIN_TERMS terms or more goes through
    `_phi2_route`, which may take the csc^2 form at a nearby rational.
    Below x = 1e-9, |psi| <= (pi^2/72) x^2 + 0.072 x^3 is far below any
    working tolerance (and x^2 may underflow), so psi is 0 with bound
    0.14 x^2.
    """
    x = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    tol = np.broadcast_to(tol, x.shape)
    val = np.zeros(x.shape)
    err = 0.14 * x * x
    big = x >= 1e-9
    x, tol = x[big], tol[big]
    T = 1.0 / x
    fr = T - np.floor(T)
    with np.errstate(over="ignore"):  # a subnormal tol: inf, clipped to the caps
        nn = np.clip(np.ceil(x * x / (6.0 * tol)), 1.0, _PHI2_MAX_TERMS)
        nj, jerr = _j_terms(x, tol)
    direct = fr > 0.0
    phi = np.full(x.shape, PI2_OVER_36)
    phierr = np.where(direct, 1.0 / (6.0 * nn), 0.0)
    for i in np.flatnonzero(direct & (nn >= _SNAP_MIN_TERMS)):
        snap, nn[i], phierr[i] = _phi2_route(float(fr[i]), float(tol[i] / (x[i] * x[i])))
        if snap is not None:
            phi[i] = _phi2_rational(*snap)
            direct[i] = False
    phi[direct] = _phi2_sums(fr[direct], nn[direct])
    half = 0.5 * x * x
    val[big] = half * phi - _j_sums(T, nj)
    err[big] = half * phierr + jerr
    return val, err


@functools.cache
def a1_constant() -> tuple[float, float]:
    """Self-consistent A(1) = 1 + pi^2/36 - 2 J(1), with error bound.

    Independent of the closed form log(2 pi) - gamma, which tests compare
    against.
    """
    nj, jerr = _j_terms(np.ones(1), 1e-11)
    (jval,) = _j_sums(np.ones(1), nj)
    return 1.0 + PI2_OVER_36 - 2.0 * float(jval), 2.0 * float(jerr[0])


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
    psi, psie = _psi_vec(lam, tol / 2.0)
    val = -0.5 * lam * math.log(lam) + 0.5 * (1.0 + a1) * lam + float(psi[0])
    return val, 0.5 * lam * a1e + float(psie[0])


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
    psi, psie = _psi_vec(x, tol)
    return 0.5 * a1 - 0.5 * x - float(psi[0]), 0.5 * a1e + float(psie[0])


@functools.cache
def sup_f_bound() -> float:
    """Upper bound for sup |F| on (0, 1]: 1.1 (A(1)/2 + 1e-4).

    |psi(x)| <= (pi^2/72) x^2 + 0.06 zeta(3) x^3 <= x/2 on (0, 1], so
    A(1)/2 - x <= F(x) = A(1)/2 - x/2 - psi(x) <= A(1)/2, and |F| <= A(1)/2
    = F(0+) since A(1) > 1.  The margin covers A(1)'s own error many times.
    """
    a1, _ = a1_constant()
    return 1.1 * (0.5 * a1 + 1e-4)


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
    # the series stops at the first m with 2 beta_{m-1} sup|F| < tol/2
    stops = np.flatnonzero(2.0 * betas[: len(alphas)] * supf < 0.5 * tol)
    if stops.size == 0:
        if truncated:
            raise EffectiveRationalError(f"orbit of {x} ended before H converged")
        raise NonConvergenceError(f"H series at {x} exceeded {cfg.max_terms} terms")
    m = int(stops[0])
    j = np.arange(m, dtype=np.float64)
    beta = betas[:m]
    # per-term budget grows as beta decays: sum of 2*beta*eF stays <= tol/4
    ef = np.clip(tol / (8.0 * (j + 1.0) * (j + 2.0) * beta), 1e-12, 1e-4)
    a1, a1e = a1_constant()
    psi, psie = _psi_vec(alphas[:m], ef)
    fval = 0.5 * a1 - 0.5 * alphas[:m] - psi
    # term j carries (-1)^{j+1}
    total = float(np.sum(np.where(j % 2 == 0, -2.0, 2.0) * beta * fval))
    err = float(2.0 * beta @ (0.5 * a1e + psie)) + 4.0 * betas[m] * supf
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
    alphas, betas, gammas, truncated = orbit_arrays(x, cfg.max_terms, cfg.rational_guard)
    k = _alternating_stop(gammas, cfg.abs_tol)
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
    total, chunk = 0.0, 1 << 22
    for start in range(1, n_terms + 1, chunk):
        n = np.arange(start, min(start + chunk, n_terms + 1), dtype=np.float64)
        total += float(np.sum(bernoulli1(n * x) / n))
    return total


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
