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
and H alike, on one Phi2 route (`_phi2_vec`, also under scalar Phi2) and
one J sum (`_j_sums`).  A Phi2 sum of 2048 terms or more walks exact_cf
once: it stops where a proven continued-fraction tail bound allows, and
takes nearby_fraction's p/q, where close and cheaper, in closed form, a
csc^2(pi r/q) sum over r <= q/2 (`_phi2_rational`).  In a call of 512
rows or more (the F table), every sum of 256 terms or more stops at the
same bound instead, found by one int64 Euclid over all those rows
(`_phi2_tail`), without a snap.  Otherwise it is one direct sum of
ceil(1/(6 tol)) terms.  `_phi2_sums` rounds each count up on a fixed 1.25
grid, so a row's bits depend on the row alone.  The module's one pool_map
call runs the F table's node blocks, and every sum inside a block runs
serially.
"""

from __future__ import annotations

import dataclasses
import math
from itertools import chain, islice, takewhile

import numpy as np

from .cf_dynamics import (
    DEFAULT_CONFIG,
    MAX_TERMS,
    SMALLX_CUT,
    EffectiveRationalError,
    ToleranceConfig,
    effective_denominator,
    exact_cf,
    exact_cf_step,
    float_end_error,
    nearby_fraction,
    once,
    orbit,
    orbit_arrays,
    pool_map,
)
from .wilton import _alternating_sum, _orbit_series, wilton

PI2_OVER_36 = math.pi * math.pi / 36.0

# Hard caps; series bounds are reported honestly when a cap bites.
_PHI2_MAX_TERMS = 1 << 26
_SNAP_QMAX = 1_000_000
_SNAP_EPS = 1e-12
# Below about 2k terms the direct Phi2 sum costs less than the route search.
_SNAP_MIN_TERMS = 2048
# A call of this many rows or more stops each row of _TAIL_MIN_TERMS terms or
# more at _phi2_tail's count, rows of _SNAP_MIN_TERMS terms or more too (the
# F table's nodes above x = 0.58: the per-row _phi2_route made its build
# 0.68-0.78 s instead of 0.13-0.18 s, 2 vCPU).  Break-even 250-450 rows of
# F-table-like rows (2 vCPU, timing _phi2_vec): below, numpy's per-step
# overhead on the walk costs more than the terms it saves.  H's calls (at
# most MAX_TERMS + 1 rows) stay below it, so every scalar path keeps the
# route.
_TAIL_VEC_ROWS = 512
_TAIL_MIN_TERMS = 256  # the F table: 21% of its rows below it, 1% of its terms
_TAIL_MIN_TOL = 1e-8  # _phi2_tail's domain: 3 q^2 and (q + 1) r exact doubles
_C_MARGIN = 2.0**-50  # _phi2_tail's relative inflation of c_k
_J_MAX_TERMS = 3_000_000
# G evaluations per _j_sums piece and block, about 1.3 MB of temporaries on
# the F table's terms: 2^16 put 5 MB on each worker, 2^13 made the build 13%
# slower (2 vCPU), and 2^20 ran 2.7x slower (cache)
_J_BLOCK = 1 << 14
# F-table nodes per pool_map item, about 1.2 MB of temporaries each: 2^13
# built about 8% faster (2 vCPU), but its 2.4 MB per worker put the build's
# tracemalloc peak at 25 MB with 8 workers
_NODE_BLOCK = 1 << 12
# the F table's err_bound at most: its value with 2^18 segments and 1e-4 nodes,
# which sets W's tolerance in g_batch (err_bound / 100)
_F_BUDGET = 1.2761131942231886e-4
_G_CUT = 64  # exact segments below, Bernoulli asymptotics above
_G_ABS = 0.06  # |G(y)| <= _G_ABS / y^3 for y >= 1
_ROW_BLOCK = 1 << 15  # elements per _phi2_sums work buffer; two of them fit in L2
# terms per row group of _phi2_sums' end-to-end form, 64 KB per array: at 2^15
# (one group per call) pointwise-g's p99 latency rose 12%, the heap regrowing
# under its largest calls
_RAGGED_GROUP = 1 << 13
# the term counts _phi2_sums sums: ceil(1.25^k) below the cap, and the cap
_PHI2_COUNTS = np.array(
    sorted({-(-(5**k) // 4**k) for k in range(81)} | {_PHI2_MAX_TERMS}), dtype=np.float64
)

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


@once
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
    """sum_{n <= nj_i} G(n T_i) for each i, nj_i >= 1.

    Each point's n-grid is cut from its own start into pieces of _J_BLOCK
    terms (the last one shorter), and the pieces, laid end to end, are
    evaluated in blocks of whole pieces, those that start in one run of
    _J_BLOCK terms.  np.add.reduceat sums each piece, and a point's pieces
    are added in order, so a sum's bits depend on its own T_i and nj_i
    alone, not on the other points of the call.
    """
    if not len(T):
        return np.zeros(0)
    pieces = (nj + _J_BLOCK - 1) // _J_BLOCK
    first = np.cumsum(pieces) - pieces  # each point's first piece
    row = np.repeat(np.arange(len(T)), pieces)
    k0 = (np.arange(row.size) - first[row]) * _J_BLOCK  # terms before the piece in its grid
    size = np.minimum(nj[row] - k0, _J_BLOCK)
    start = np.cumsum(size) - size
    cuts = [*np.searchsorted(start, np.arange(0, start[-1] + 1, _J_BLOCK)), row.size]

    def block(p0, p1):
        at, n = start[p0:p1] - start[p0], size[p0:p1]
        k = np.arange(1, at[-1] + n[-1] + 1) + np.repeat(k0[p0:p1] - at, n)
        return np.add.reduceat(g_tail_integral(k * np.repeat(T[row[p0:p1]], n)), at)

    sums = np.concatenate([block(p0, p1) for p0, p1 in zip(cuts[:-1], cuts[1:])])
    out = sums[first]
    for j in range(1, int(pieces.max())):
        more = np.flatnonzero(pieces > j)
        out[more] += sums[first[more] + j]
    return out


# ----------------------------------------------------------------------
# Phi2
# ----------------------------------------------------------------------

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


def _b2_terms(t: np.ndarray, n2: np.ndarray, out: np.ndarray) -> np.ndarray:
    # out = B2(t) / n2, t left as its fractional part: the one elementwise
    # kernel of both _phi2_sums paths, so that they agree bit for bit
    np.floor(t, out=out)
    t -= out
    np.multiply(t, t, out=out)
    out -= t
    out += 1.0 / 6.0
    out /= n2
    return out


def _phi2_rows(pts: np.ndarray, acc: np.ndarray, n_use: int, width: int) -> None:
    # acc += sum_{n <= n_use} B2(n pts) / n^2, width columns per chunk, each
    # chunk of a row summed by np.add.reduceat
    rows = min(len(pts), _ROW_BLOCK // width)
    tbuf = np.empty(rows * width)
    fbuf = np.empty_like(tbuf)
    for c0 in range(0, n_use, width):
        nb = np.arange(c0 + 1, min(c0 + width, n_use) + 1, dtype=np.float64)
        nb2 = nb * nb
        for r0 in range(0, len(pts), rows):
            p = pts[r0 : r0 + rows]
            t = tbuf[: p.size * nb.size].reshape(p.size, nb.size)
            f = fbuf[: t.size].reshape(t.shape)
            np.multiply.outer(p, nb, out=t)
            terms = _b2_terms(t, nb2, f).reshape(-1)
            acc[r0 : r0 + rows] += np.add.reduceat(terms, np.arange(0, terms.size, nb.size))


def _phi2_count(nn: np.ndarray) -> np.ndarray:
    """The term counts `_phi2_sums` sums for counts nn <= _PHI2_MAX_TERMS:
    the least of _PHI2_COUNTS at or above each, at most 1.25 nn + 1."""
    return _PHI2_COUNTS[np.searchsorted(_PHI2_COUNTS, nn)]


def _phi2_sums(fr: np.ndarray, nn: np.ndarray) -> np.ndarray:
    """sum_{n <= N_i} B2(n fr_i) / n^2 for each i, N_i = _phi2_count(nn_i).

    The rows of one count N form a bucket, summed in column chunks of
    min(N, _ROW_BLOCK) terms that fix each row's summation order, so a
    row's bits depend on fr_i and N_i alone, not on the other rows.  N >=
    nn_i keeps a caller's truncation bound for nn_i, and the rounding
    allowance of `_phi2_route`, 1e-20 per term, covers the extra terms:
    adding a chunk's sum loses at most 3e-17, 1e-21 per term.  A call of
    at most _ROW_BLOCK terms in all (scalar H's) lays its rows end to end
    instead, in groups of the rows that start in one run of _RAGGED_GROUP
    terms, with the same bits.  Each layout alone keeps every bit but is
    slower (2 vCPU): buckets alone take pointwise-g's wall from 0.48-0.50
    to 0.54-0.55 s, and end-to-end runs alone take the fresh-process F-table
    build from 0.35-0.45 to 0.43-0.50 s (2^15-term groups; 0.68 s at 2^13).
    """
    if not fr.size:
        return np.zeros(0)
    count = _phi2_count(nn)
    if count.sum() <= _ROW_BLOCK:
        each = count.astype(np.intp)
        start = np.cumsum(each) - each
        out = np.empty(fr.size)
        runs = np.arange(0, start[-1] + 1, _RAGGED_GROUP)
        cuts = [*np.unique(np.searchsorted(start, runs)), fr.size]
        for r0, r1 in zip(cuts[:-1], cuts[1:]):
            c, at = each[r0:r1], start[r0:r1] - start[r0]
            n = np.arange(1.0, at[-1] + c[-1] + 1.0)
            n -= np.repeat(at, c)
            t = np.repeat(fr[r0:r1], c)
            t *= n
            n *= n
            out[r0:r1] = np.add.reduceat(_b2_terms(t, n, np.empty_like(t)), at)
        return out
    order = np.argsort(count, kind="stable")
    fr_s, n_s = fr[order], count[order]
    res = np.zeros(len(fr_s))
    starts = np.flatnonzero(np.diff(n_s, prepend=0.0))
    for start, stop in zip(starts, [*starts[1:], len(n_s)]):
        n_use = int(n_s[start])
        _phi2_rows(fr_s[start:stop], res[start:stop], n_use, min(n_use, _ROW_BLOCK))
    out = np.empty_like(res)
    out[order] = res
    return out


def _snap_error(delta: float) -> float:
    # continuity modulus of Phi2: |Phi2(a) - Phi2(b)| <= d (log(1/(3d)) + 2),
    # with -log(3d) where 1/(3d) overflows (d below about 6e-309)
    if not delta > 0.0:
        return 0.0
    inv = 1.0 / (3.0 * delta)
    return delta * ((math.log(inv) if inv < math.inf else -math.log(3.0 * delta)) + 2.0)


def _interp_error(h: float) -> float:
    """Bound on how far linear interpolation of psi on nodes h apart in
    [0, 1] (h <= 1e-3) misses psi; the proof is in _FTable."""
    return 0.5 * _snap_error(h) + 0.55 * h


def _phi2_weight(q: int, r: int, n: int) -> float:
    """c_k = 2 beta_k/q_k of `_phi2_route`'s bound, d_k = r/(n q) from exact_cf."""
    return min(1.0 / 3.0, 1 / (3 * q * q) + (q + 1) * r / (q * n))


def _phi2_route(frac: float, tol: float) -> tuple[tuple[int, int] | None, int, float]:
    """Path choice for Phi2(frac), frac in (0, 1): (snap, n_terms, err).

    Below _SNAP_MIN_TERMS terms the direct series takes n_max = ceil(1/(6
    tol)) terms (at least 1, at most 2^26), error 1/(6 n_max).  From there on
    it takes as few terms N <= n_max as its tail bound, plus 1e-14 + 1e-20 N
    for rounding (the sum's and the bound's own), allows at tol.  snap is the
    (p, q) of nearby_fraction's first hit, found on the same exact_cf walk,
    to take Phi2 at in O(q) where q//2 <= N and its error is small enough, or
    None; err is the chosen path's bound.

    The bound.  With convergents p_k/q_k of frac, next quotient a_{k+1} and
    d_k = |frac - p_k/q_k|, the terms c+1..c+q_k sum to at most beta_k =
    min(q_k/6, 1/(6 q_k) + d_k q_k (q_k+1)/2): j p_k runs over all residues
    mod q_k, sum_r B2(t + r/q) = B2(q t)/q, and B2, 1-Lipschitz on the circle,
    moves by at most j d_k at term c+j.  Ostrowski's greedy M = sum_k b_k q_k,
    b_k <= min(a_{k+1}, M/q_k), cuts 1..M into such blocks, so |P(M)| =
    |sum_{n<=M} B2(n frac)| <= C(M) = sum_{q_k<=M} beta_k min(a_{k+1}, M/q_k),
    nondecreasing in M.  Abel summation with w(M) = 1/M^2 - 1/(M+1)^2 and
    M w(M) <= 2/M - 2/(M+1) bounds the tail past N = L - 1 by 2 sum_{M>N}
    C(M) w(M) <= sum_k c_k g_k(max(L, q_k)), c_k = 2 beta_k/q_k, g_k(L) = 2/L
    - 1/U_k below U_k = a_{k+1} q_k (inf past n_max or for the last
    convergent) and U_k/L^2 from there on.  The walk adds level k once q_{k+1}
    is known, and 7/q_{k+1}^2 closes the levels above it: the i-th has q >=
    phi^(i-1) q_{k+1} and adds at most 1 + M/(6 q^2) to C(M) (a_{j+1} d_j q_j
    < 1/q_j), which summed against w(M) is below 6.53/q_{k+1}^2 (at q_{k+1} =
    1; an integral bounds the sum past 400 q_{k+1}).  Between breakpoints the
    bound is A + B/L + C/L^2, and N is its root on the first piece that meets
    tol at its end.
    """
    n_max = max(1, math.ceil(min(1.0 / (6.0 * tol), _PHI2_MAX_TERMS)))
    direct_err = 1.0 / (6.0 * n_max)
    if n_max < _SNAP_MIN_TERMS:
        return None, n_max, direct_err
    qmax = min(_SNAP_QMAX, n_max // 4)
    eps = max(_SNAP_EPS, 0.1 * tol / (math.log(1.0 / min(tol, 0.1)) + 2.0))
    (eps_num, eps_den), den = eps.as_integer_ratio(), frac.as_integer_ratio()[1]
    t, n_terms, err = tol - 1e-14 - 1e-20 * n_max, n_max, direct_err
    snap, searching, lq, P = None, True, 0, 0.0
    for a, r, p, q in chain(exact_cf(frac), [(math.inf, 0, 0, math.inf)]):
        if searching and lq:  # level k: U_k = a_{k+1} q_k, q = q_{k+1} (inf past the last)
            U = a * lq if a * lq <= n_max else math.inf
            for R, A, B, C in ((U, -lc / U, 2.0 * lc, P), (q, 0.0, 0.0, P + lc * U)):
                R, A = min(R, n_max + 1), A + 7 / (q * q)
                if A + (B + C / R) / R <= t:
                    L = math.ceil((B + math.sqrt(B * B + 4.0 * C * (t - A))) / (2.0 * (t - A)))
                    n_terms, err = L - 1, A + (B + C / L) / L + 1e-14 + 1e-20 * (L - 1)
                    searching = False
                    break
            P += lc * U
        if snap is None and q <= qmax and r * eps_den <= eps_num * den * q:
            snap = p, q
        if q > n_max or not searching and (snap or q > min(qmax, 2 * n_terms + 1)):
            break
        lq, lc = q, _phi2_weight(q, r, den)
    if snap is not None:
        p, q = snap
        serr = _snap_error(abs(frac - p / q))
        # q == 1: frac in (0,1) snapped to an integer boundary
        if q // 2 <= n_terms and (q == 1 or serr <= 0.5 * tol or serr <= err):
            return snap, n_terms, serr + 1e-13
    return None, n_terms, err


def _phi2_tail(fr: np.ndarray, tol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_phi2_route`'s tail-bound (n_terms, err), as it takes them from
    _SNAP_MIN_TERMS terms on, without its snap search, on many rows at once,
    with n_terms at least 1: fr in (0, 1) on the 2^-52 grid, as every
    `_psi_vec` row is (T = 1/x >= 1), and tol >= 1e-8.

    Euclid runs on m/2^52 in int64 (exact_cf_step), and the level and Abel
    arithmetic is `_phi2_route`'s.  In c_k = min(1/3, 1/(3 q^2) + d_k (q+1)),
    d_k = r/(2^52 q), the numerator (q+1) r < 2^53, 3 q^2 (q <= 1/(6 tol))
    and q 2^52 are exact doubles, so c_k is off by at most three roundings,
    under 2^-51 relative.  It is inflated by _C_MARGIN = 2^-50, which also
    covers that product's own rounding, so it never falls below its exact
    value.
    """
    m = np.ldexp(fr, 52)
    if not ((m == np.floor(m)) & (m > 0.0)).all():
        raise ValueError("_phi2_tail needs fractions on the 2^-52 grid in (0, 1)")
    n_max = np.maximum(1.0, np.ceil(np.minimum(1.0 / (6.0 * tol), _PHI2_MAX_TERMS)))
    t = tol - 1e-14 - 1e-20 * n_max
    n_terms, err = n_max.copy(), 1.0 / (6.0 * n_max)
    # after exact_cf's item k = 0, (0, m, 0, 1): level k = 0 waits for q_1
    num, den = np.full(fr.size, 1 << 52, dtype=np.int64), m.astype(np.int64)
    q_prev, q = np.zeros_like(num), np.ones_like(num)
    lc, P = _phi2_weights(q, den), np.zeros(fr.size)
    rows = np.arange(fr.size)
    while rows.size:
        # a row whose remainder reached 0 meets exact_cf's end: a = q = inf
        last = den == 0
        a, r, q_next = exact_cf_step(np.where(last, 0, num), np.where(last, 1, den), q_prev, q)
        a, qn = np.where(last, np.inf, a), np.where(last, np.inf, q_next)
        nmax, tt = n_max[rows], t[rows]
        U = a * q
        U[U > nmax] = np.inf
        # the two pieces (R, A, B, C) of `_phi2_route`'s level k
        A2 = 7.0 / (qn * qn)
        A1 = -lc / U + A2
        R1, R2 = np.minimum(U, nmax + 1.0), np.minimum(qn, nmax + 1.0)
        C2 = P + lc * U
        ok1 = A1 + (2.0 * lc + P / R1) / R1 <= tt
        ok2 = ~ok1 & (A2 + C2 / R2 / R2 <= tt)
        done = np.flatnonzero(ok1 | ok2)
        if done.size:
            o = ok1[done]
            A = np.where(o, A1[done], A2[done])
            B = np.where(o, 2.0 * lc[done], 0.0)
            C = np.where(o, P[done], C2[done])
            ta = tt[done] - A
            L = np.ceil((B + np.sqrt(B * B + 4.0 * C * ta)) / (2.0 * ta))
            n_terms[rows[done]] = np.maximum(L - 1.0, 1.0)  # the bound holds past N too
            err[rows[done]] = A + (B + C / L) / L + 1e-14 + 1e-20 * (L - 1.0)
        go = np.flatnonzero(~(ok1 | ok2) & (qn <= nmax))
        rows, P = rows[go], C2[go]
        num, den, q_prev, q = den[go], r[go], q[go], q_next[go]
        lc = _phi2_weights(q, den)
    return n_terms, err


def _phi2_weights(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """`_phi2_weight` on int64 rows of a fraction m/2^52, inflated by _C_MARGIN."""
    d = ((q + 1) * r).astype(np.float64) / np.ldexp(q.astype(np.float64), 52)
    return np.minimum(1.0 / 3.0, 1.0 / (3 * q * q) + d) * (1.0 + _C_MARGIN)


def _phi2_vec(fr: np.ndarray, nn: np.ndarray, tol: np.ndarray) -> tuple[np.ndarray, ...]:
    """(Phi2(fr), error bound, whether a closed form gave it) for fr in [0, 1):
    pi^2/36 with error 0 at fr = 0, else the sum of nn terms, or of nn
    rounded up on the count grid (`_phi2_sums`), error 1/(6 nn), or from
    _SNAP_MIN_TERMS terms on `_phi2_route`'s path at tolerance tol: its
    shorter sum (nn is updated in place) or its snap.  A call of
    _TAIL_VEC_ROWS rows or more (fr then on the 2^-52 grid) instead stops
    each sum of _TAIL_MIN_TERMS terms or more at `_phi2_tail`'s count,
    without a snap, where tol is in that walk's domain (>= _TAIL_MIN_TOL);
    its rows of _SNAP_MIN_TERMS terms or more below it take the route."""
    direct = fr > 0.0
    phi = np.full(fr.shape, PI2_OVER_36)
    err = np.where(direct, 1.0 / (6.0 * nn), 0.0)
    long = direct & (nn >= _SNAP_MIN_TERMS)
    if fr.size >= _TAIL_VEC_ROWS:
        walk = direct & (nn >= _TAIL_MIN_TERMS) & (tol >= _TAIL_MIN_TOL)
        long &= ~walk
        walk = np.flatnonzero(walk)
        nn[walk], err[walk] = _phi2_tail(fr[walk], tol[walk])
    for i in np.flatnonzero(long):
        snap, nn[i], err[i] = _phi2_route(float(fr[i]), float(tol[i]))
        if snap is not None:
            phi[i] = _phi2_rational(*snap)
            direct[i] = False
    phi[direct] = _phi2_sums(fr[direct], nn[direct])
    return phi, err, ~direct


def _phi2_core(lam: float, tol: float) -> tuple[float, float, bool]:
    """(Phi2(lam), error bound, whether a closed form gave it): `_phi2_vec`
    at the periodic reduction of lam, with a direct count of at most N =
    ceil(1/(6 tol)) (at least 1, at most 2^26; the bound reflects the cap)
    before `_phi2_sums` rounds it up on its grid."""
    if not math.isfinite(lam):
        raise ValueError("phi2 needs a finite argument")
    nn = np.array([max(1, math.ceil(min(1.0 / (6.0 * tol), _PHI2_MAX_TERMS)))], dtype=float)
    phi, err, snapped = _phi2_vec(np.array([lam - math.floor(lam)]), nn, np.array([tol]))
    return float(phi[0]), float(err[0]), bool(snapped[0])


def phi2(lam: float, cfg: ToleranceConfig = DEFAULT_CONFIG) -> float:
    """Phi2(lam) = sum_{n>=1} B2(n lam)/n^2; period 1, bounded by pi^2/36."""
    val, _, _ = _phi2_core(lam, cfg.abs_tol)
    return val


# ----------------------------------------------------------------------
# A, F and the A(1) constant
# ----------------------------------------------------------------------

def _psi_vec(xs, tol) -> tuple[np.ndarray, np.ndarray]:
    """psi(x) = (x^2/2) Phi2(1/x) - J(1/x) over points x in [0, 1], with
    error bounds; tol is one tolerance or one per point.

    Phi2 comes from `_phi2_vec` at tolerance tol/x^2: N = ceil(x^2/(6 tol))
    terms (at most 2^26), or from 2048 on (from 256 on in a call of 512
    rows or more, there without a snap) as few as its tail bound allows;
    J takes the `_j_terms` count at tol.  Below x = 1e-9, |psi| <= (pi^2/72)
    x^2 + 0.072 x^3 is far below any working tolerance (and x^2 may
    underflow), so psi is 0 with bound 0.14 x^2.
    """
    x = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    tol = np.broadcast_to(tol, x.shape)
    val = np.zeros(x.shape)
    err = 0.14 * x * x
    big = x >= 1e-9
    x, tol = x[big], tol[big]
    T = 1.0 / x
    val[big], err[big] = _half_x2_phi2(x, T, tol)
    with np.errstate(over="ignore"):  # a subnormal tol: inf, clipped to the cap
        nj, jerr = _j_terms(x, tol)
    val[big] -= _j_sums(T, nj)
    err[big] += jerr
    return val, err


def _half_x2_phi2(x, T, tol):
    # (x^2/2) Phi2(T), T = 1/x, with its bound at tolerance tol/x^2; a function
    # of its own, so that its arrays are freed before the J sums
    with np.errstate(over="ignore"):  # a subnormal tol: inf, clipped to the cap
        nn = np.clip(np.ceil(x * x / (6.0 * tol)), 1.0, _PHI2_MAX_TERMS)
    phi, phierr, _ = _phi2_vec(T - np.floor(T), nn, tol / (x * x))
    half = 0.5 * x * x
    return half * phi, half * phierr


@once
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
    psi, psie = _psi_vec(lam, max(tol / 2.0, math.ulp(0.0)))  # tol / 2 may round to 0
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
    snap = nearby_fraction(lam, 10_000, 1e-9)
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


@once
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
    val, _ = _h_with_err(x, cfg.abs_tol)
    return val


def _h_with_err(x: float, tol: float) -> tuple[float, float]:
    """H(x), stopped at the first m with 2 beta_{m-1} sup|F| < tol/2, m + 1
    steps into orbit(x), and its error, with the tail term 4 beta_{m-1}
    sup|F|; an orbit that ends first is decided by float_end_error, and
    if the float orbit could not step on, H is summed to its end."""
    if not 0.0 < x < 1.0:
        raise ValueError(f"h_func needs x in (0, 1), got {x}")
    supf = sup_f_bound()
    alphas, betas = [], []
    for a, beta in islice(orbit(x), MAX_TERMS + 1):
        if 2.0 * beta * supf < 0.5 * tol:
            break
        alphas.append(a)
        betas.append(beta)
    else:
        if err := float_end_error(x, "the H series", len(alphas)):
            raise err
        beta = beta * a
    m = len(alphas)
    j = np.arange(m, dtype=np.float64)
    alphas, betas = np.array(alphas), np.array(betas)
    # per-term budget grows as beta decays: sum of 2*beta*eF stays <= tol/4
    ef = np.clip(tol / (8.0 * (j + 1.0) * (j + 2.0) * betas), 1e-12, 1e-4)
    a1, a1e = a1_constant()
    psi, psie = _psi_vec(alphas, ef)
    fval = 0.5 * a1 - 0.5 * alphas - psi
    # term j carries (-1)^{j+1}
    total = float(np.sum(np.where(j % 2 == 0, -2.0, 2.0) * betas * fval))
    err = float(2.0 * betas @ (0.5 * a1e + psie)) + 4.0 * beta * supf
    return total, err + 1e-14


def decomposition_values(
    x: float, ns: list[int], cfg: ToleranceConfig = DEFAULT_CONFIG
) -> dict[int, float]:
    """l(x) + D(x,n) + H(x) + (-1)^{n+1} (T^{n+1} W)(x) for each requested n.

    All pieces share one orbit, walked to wilton's stop index k: D from the
    partial sums, the W remainder as beta_n times the Wilton value of
    alpha_{n+1} reconstructed from the orbit tail.  The result is n-free up
    to evaluation tolerances.  H is a common additive term, so the
    n-independence spread does not depend on its precision; it is evaluated
    at a capped tolerance.
    """
    k = wilton(x, cfg).terms_used
    if max(ns) + 2 >= k:
        raise ValueError(f"requested n {max(ns)} too deep for stop index {k}")
    alphas, betas, gammas, _ = orbit_arrays(x, k - 1)
    hval, _ = _h_with_err(x, max(cfg.abs_tol, 1e-6))
    lx = -math.log(x)
    out: dict[int, float] = {}
    for n in ns:
        d_val = _alternating_sum(gammas[: n + 1]) - lx
        # gamma_m(alpha_{n+1}) = (beta_{n+m}/beta_n) log(1/alpha_{n+1+m})
        m = np.arange(0, k - (n + 1))
        gam_shift = betas[n + 1 + m] / betas[n + 1] * (-np.log(alphas[n + 1 + m]))
        w_shift = _alternating_sum(gam_shift)
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

    wilton_plus_H returns W(x) + H(x), each series on its own orbit(x)
    walked only as deep as its rule needs; its error is W's tail_bound (a
    truncation heuristic plus a first-order orbit-rounding term, see
    wilton) plus the H series bound.  An orbit that ends first raises
    EffectiveRationalError where x is effectively rational, and otherwise
    ends both series with their tail bounds (float_end_error), which
    below x ~ 1e-13 leaves log(1/x) - A(1) + x.  direct_series returns -2
    times a Cesaro average of the partial sums S_n, 2^20 <= n < 2^20 + 64,
    of Phi1 with a heuristic error: the window's spread, 64/2^20, and the
    largest 1/(2^20 q |q x - p|) over the convergents p/q of exact_cf(x)
    with q <= 2^20 (the distance exact in ints), for the partial sums of
    the nearby fraction that the window still sees; q = 1 gives the
    oscillation of period 1/min(x, 1-x).  It raises EffectiveRationalError
    where x is effectively rational or is itself such a p/q, since the
    series diverges at every rational.  The
    orbit route is primary; the series route exists as an independent
    cross-check.
    """
    if method == "wilton_plus_H":
        w = wilton(x, cfg)
        hval, herr = _h_with_err(x, cfg.abs_tol)
        return GEval(
            point=x,
            value=w.value + hval,
            method=method,
            est_error=w.tail_bound + herr,
        )
    if method == "direct_series":
        if 0.0 < x < 1.0 and effective_denominator(x):
            raise EffectiveRationalError(f"the Phi1 series diverges at the effectively rational {x}")
        mean, spread = _phi1_cesaro(x, 1 << 20, 64)
        # |q x - p| = r/n exactly, for x = m/n and each convergent p/q up to 2^20
        n = x.as_integer_ratio()[1]
        cf = list(takewhile(lambda c: c[3] <= 1 << 20, exact_cf(x)))
        _, r, p, q = cf[-1]
        if not r:
            raise EffectiveRationalError(f"the Phi1 series diverges at {x} = {p}/{q}")
        near = max(n / (q * r) for _, r, _, q in cf)
        return GEval(
            point=x,
            value=-2.0 * mean,
            method=method,
            est_error=2.0 * spread + (64.0 + near) / (1 << 20),
        )
    raise ValueError(f"unknown g method {method!r}")


# ----------------------------------------------------------------------
# Vectorized g for the moment estimators
# ----------------------------------------------------------------------

class _FTable:
    """Uniform table of F on [xmin, 1] = [1e-5, 1]: 2^16 segments of width
    h = (1 - xmin)/2^16, nodes built at psi tolerance 2.773e-5, and linear
    interpolation between them.  err_bound stays within _F_BUDGET: the table
    takes the fewest power-of-two segments whose interpolation term fits it
    with A(1)'s error, and the nodes the rest.  Each node with 256 Phi2
    terms or more (79% of them, 42% with 2048 or more) stops its sum at
    `_phi2_tail`'s proven count: 1.97e7 terms in all, 15% of the full
    counts, of which `_phi2_sums` sums 2.20e7, each row's count rounded up
    on _PHI2_COUNTS; the largest node error is 2.7727e-5.  Against F at
    1e-9 the table misses by at most 3.97e-6 on 400 seeded points and by
    3.44e-5 next to the kinks q/p, p < 60.  The nodes are built in blocks of
    _NODE_BLOCK, the build's one pool_map call, and everything inside a
    block runs serially in its worker, so the build's transient memory is
    one block's per worker.  Every Phi2 and J sum depends on its own row alone, so the
    table has the same bits at any block size and worker count.

    Below xmin the exact small-x form F = A(1)/2 - x/2 applies (psi is
    O(x^2)).  Node i is i h + xmin, the bits of np.linspace(xmin, 1,
    2^16 + 1).  Slope and F are stored interleaved, one complex128 per node
    (f is a view of it), so lookup finds the segment by direct index on the
    uniform grid, recomputes its two end nodes, gathers (slope, F) once and
    returns exactly what np.interp(x, xs, f) returns for finite x >= xmin.

    err_bound is the largest node error, plus A(1)'s, plus _interp_error(h)
    = w(h)/2 + 0.55 h, where w(d) = d (log(1/(3d)) + 2) is _snap_error's
    continuity modulus of Phi2; given w, the bound is proven.  F is linear
    but for -psi, and the interpolant at x = (1-t) x0 + t x1 misses psi(x)
    by at most (1-t)|psi(x0) - psi(x)| + t|psi(x1) - psi(x)|, so by the
    largest |psi(x) - psi(y)| with y <= x in one segment, d = x - y <= h:

      psi(x) - psi(y) = (y^2/2)(Phi2(1/x) - Phi2(1/y))
                        + ((x^2 - y^2)/2) Phi2(1/x) - (J(1/x) - J(1/y)).

    - |1/x - 1/y| <= d/y^2.  If d/y^2 <= 1/3, where w still increases,
      the first term is at most (y^2/2) w(d/y^2) = (d/2)(log(y^2/(3d)) + 2)
      <= w(d)/2.  Otherwise (y < sqrt(3h), 6.8e-3 here) the range of Phi2,
      [-pi^2/72, pi^2/36], bounds it by (y^2/2)(pi^2/24) < 0.62 d, below
      w(d)/2 for d <= 1e-3.
    - |x^2 - y^2|/2 <= d and |Phi2| <= pi^2/36.
    - d/dx J(1/x) = x Phi2(1/x), so |J(1/x) - J(1/y)| <= d pi^2/36.

    Each bound grows with y, so their sum is largest next to x = 1, at
    w(d)/2 + (pi^2/18) d, which grows with d up to _interp_error(h);
    pi^2/18 = 0.5483 leaves 0.0017 h for rounding in the nodes and in
    lookup.
    """

    def __init__(self):
        self.xmin = xmin = 1e-5
        a1, a1e = a1_constant()
        self.a1 = a1
        # the fewest power-of-two segments whose interpolation term fits the
        # budget with A(1)'s error (2^16: 9.99e-5; 2^15 would need 1.89e-4),
        # and the nodes take what is left
        size = 1 << 10  # h <= 1e-3, _interp_error's domain
        while _interp_error((1.0 - xmin) / size) >= _F_BUDGET - a1e:
            size *= 2
        self._h = h = (1.0 - xmin) / size
        node_tol = _F_BUDGET - a1e - _interp_error(h)
        # node i is i h + xmin, as lookup computes it: np.linspace(xmin, 1, size + 1)'s bits
        self.xs = xs = np.arange(size + 1) * h + xmin
        # (slope, F) per node, interleaved so lookup gathers both at once; f is a
        # view, and slope[size] = 0 makes x >= 1 return f[size], as np.interp does
        self._sf = np.zeros(size + 1, dtype=np.complex128)
        self.f = self._sf.imag

        def block(lo, hi):
            psi, psie = _psi_vec(xs[lo:hi], node_tol)
            self.f[lo:hi] = 0.5 * a1 - 0.5 * xs[lo:hi] - psi
            return float(psie.max())

        edges = [*range(0, size, _NODE_BLOCK), size + 1]  # the last block takes x = 1 too
        node_err = max(pool_map(lambda e: block(*e), zip(edges[:-1], edges[1:])))
        self._sf.real[:-1] = np.diff(self.f) / np.diff(xs)
        self.err_bound = node_err + a1e + _interp_error(h)
        self._inv_h = size / (1.0 - xmin)
        self._last = size - 1

    def lookup(self, x: np.ndarray) -> np.ndarray:
        h, xmin = self._h, self.xmin
        i = np.fmin(np.fmax((x - xmin) * self._inv_h, 0.0), self._last)
        i = i.astype(np.intp)
        # the rounded index is off by at most one segment either way
        i -= (x < i * h + xmin) & (i > 0)
        i += x >= (i + 1) * h + xmin
        sf = self._sf[i]
        out = sf.real * (x - (i * h + xmin)) + sf.imag
        low = np.flatnonzero(x < xmin)
        out[low] = 0.5 * self.a1 - 0.5 * x[low]
        return out


@once
def _ftable() -> _FTable:
    return _FTable()


def g_batch(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized g = W + H over an array of points.

    The Wilton sum and the H sum share one compacting orbit sweep
    (wilton._orbit_series, the loop wilton_batch also runs); a point stops
    once the W rule holds at err_bound / 100 and the H tail 2 beta sup|F|
    is below 2e-4, within MAX_TERMS steps.  F comes from `_FTable`: 2^16
    segments, nodes built at psi tolerance 2.773e-5, and an err_bound
    (about 1.28e-4, at most _F_BUDGET) that adds the interpolation term
    _interp_error(h) = 9.99e-5, proven given _snap_error's modulus of Phi2.
    Every orbit point's error carries at least 2 err_bound of F, so W's
    truncation (below twice its tolerance) is 1% of it or less.  Below SMALLX_CUT the exact relation
    g(x) = log(1/x) - 2F(x) - x g(alpha(x)) collapses to g(x) = log(1/x)
    - A(1) + O(720 x), so those points skip the orbit (a double cannot
    resolve {1/x} there anyway).

    Returns (values, err_bounds, ok).  A point whose orbit ends first
    (orbit_step) ends as in g_func (float_end_error): its sums run to the
    orbit's end with W's and H's tail bounds.  Not-ok points (value and bound
    0) lie outside (0, 1), nan included, are effectively rational (g_func
    raises) or run MAX_TERMS steps; a caller weighs them 0.  Every other
    value and error is bit for bit that of the float orbit at any CPU count:
    the sweep runs in _BLOCK-row blocks on pool_map, and the F table, sup|F|
    and A(1) are built once, by whichever thread asks first.  Input that is
    not 1-D raises ValueError.
    """
    x = np.asarray(xs, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"g_batch needs a 1-D array, got shape {x.shape}")
    tab = _ftable()
    supf = sup_f_bound()
    a1, a1e = a1_constant()
    n = x.shape[0]
    out = (np.zeros(n), np.zeros(n), None, np.zeros(n, dtype=bool))
    gsum, err, _, ok = out

    small = (x > 0.0) & (x < SMALLX_CUT)
    if small.any():
        gsum[small] = -np.log(x[small]) - a1
        err[small] = 720.0 * x[small] + a1e
        ok[small] = True

    idx = np.flatnonzero((x >= SMALLX_CUT) & (x < 1.0))
    w_tol = tab.err_bound / 100
    _orbit_series(x, idx, out, w_tol, f=tab.lookup, supf=supf, h_tol=2e-4, f_err=tab.err_bound)
    return gsum, err, ok
