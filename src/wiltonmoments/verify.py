"""Named verification suites, runnable from the CLI and the test suite.

Each suite checks one advertised identity, calibration, or trend at a
fixed tolerance and sample budget, and reports a single pass/fail line.
Seeds are fixed so every run reproduces the same numbers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.stats import kstest

from . import cf_dynamics, cotangent, moments, special_fn
from .wilton import iterate_l2_means, wilton_batch

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
A1_CLOSED_FORM = math.log(2.0 * math.pi) - np.euler_gamma


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def crit_calibration() -> tuple[bool, str]:
    """Quadrature and MC calibration against int_0^1 log(1/x)^K dx = Gamma(K+1)."""
    worst_q = 0.0
    worst_m = 0.0
    for K in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        exact = float(gamma_fn(K + 1.0))
        q = moments.log_moment_calibration(K, method="quad")
        worst_q = max(worst_q, abs(q - exact) / exact)
        m = moments.log_moment_calibration(K, method="mc", samples=100_000, seed=11)
        worst_m = max(worst_m, abs(m - exact) / exact)
    ok = worst_q < 1e-6 and worst_m < 1e-6
    return ok, f"max rel err quad {worst_q:.2e}, mc {worst_m:.2e} (tol 1e-6)"


def crit_a1_closed_form() -> tuple[bool, str]:
    """A(1) = log(2 pi) - gamma by the Phi2 route (1e-8) and direct quadrature (1e-4)."""
    cfg = cf_dynamics.ToleranceConfig(abs_tol=1e-10)
    formula = special_fn.big_a(1.0, cfg)
    d_formula = abs(formula - A1_CLOSED_FORM)
    quad, quad_err = special_fn.big_a_integral(1.0, t_max=1e4)
    d_quad = abs(quad - A1_CLOSED_FORM)
    ok = d_formula < 1e-8 and d_quad < 1e-4
    return ok, (
        f"|formula - closed form| {d_formula:.2e} (tol 1e-8), "
        f"|quadrature - closed form| {d_quad:.2e} (tol 1e-4, bound {quad_err:.1e})"
    )


def crit_small_lambda_expansion() -> tuple[bool, str]:
    """Remainder of A(lam) = (lam/2)log(1/lam) + ((1+A(1))/2)lam is O(lam^2)
    with a constant stable within a factor 2 across decades of lam."""
    cfg = cf_dynamics.ToleranceConfig(abs_tol=1e-11)
    a1 = special_fn.big_a(1.0, cfg)
    decade_consts = []
    for lo, hi in ((1e-4, 1e-3), (1e-3, 1e-2), (1e-2, 1e-1)):
        lams = np.geomspace(lo, hi, 9)
        cmax = 0.0
        for lam in lams:
            lam = float(lam)
            resid = special_fn.big_a(lam, cfg) - (
                0.5 * lam * math.log(1.0 / lam) + 0.5 * (1.0 + a1) * lam
            )
            cmax = max(cmax, abs(resid) / (lam * lam))
        decade_consts.append(cmax)
    ratio = max(decade_consts) / min(decade_consts)
    ok = ratio <= 2.0 and all(0.0 < c < 10.0 for c in decade_consts)
    consts = ", ".join(f"{c:.4f}" for c in decade_consts)
    return ok, f"per-decade constants [{consts}], spread x{ratio:.3f} (limit x2)"


def crit_functional_equation() -> tuple[bool, str]:
    """W(x) = log(1/x) - x W(alpha(x)) on 1e4 measure-distributed points."""
    cfg = cf_dynamics.ToleranceConfig(abs_tol=1e-10)
    xs = cf_dynamics.sample_gauss_measure(10_000, seed=20_26_04)
    wx, _, _, ok1 = wilton_batch(xs, cfg)
    ax = cf_dynamics.gauss_map_array(xs)
    inside = (ax > cfg.rational_guard) & (ax < 1.0)
    wax = np.zeros_like(xs)
    ok2 = inside.copy()
    wax[inside], _, _, sub_ok = wilton_batch(ax[inside], cfg)
    ok2[inside] &= sub_ok
    use = ok1 & ok2
    excluded = 1.0 - use.mean()
    resid = np.abs(wx[use] + np.log(xs[use]) + xs[use] * wax[use])
    worst = float(resid.max())
    ok = worst < 1e-9 and excluded < 1e-3
    return ok, f"max residual {worst:.2e} (tol 1e-9), excluded {excluded:.4%} (< 0.1%)"


def crit_decomposition() -> tuple[bool, str]:
    """g = l + D(.,n) + H + (-1)^{n+1} T^{n+1} W is n-free: pairwise spread
    below 1e-8 for n in {0, 2, 5, 9} on 1e3 points."""
    cfg = cf_dynamics.ToleranceConfig(abs_tol=1e-10)
    xs = cf_dynamics.sample_gauss_measure(1_000, seed=20_26_05)
    ns = [0, 2, 5, 9]
    worst = 0.0
    used = 0
    for x in xs:
        try:
            vals = special_fn.decomposition_values(float(x), ns, cfg)
        except (cf_dynamics.EffectiveRationalError, cf_dynamics.NonConvergenceError,
                ValueError):
            continue
        used += 1
        v = list(vals.values())
        worst = max(worst, max(v) - min(v))
    ok = worst < 1e-8 and used >= 990
    return ok, f"max pairwise spread {worst:.2e} (tol 1e-8) on {used} points"


def crit_route_crosscheck() -> tuple[bool, str]:
    """g via W + H against the Cesaro-averaged series route, 100 points."""
    cfg = cf_dynamics.ToleranceConfig(abs_tol=1e-6)
    xs = cf_dynamics.sample_gauss_measure(100, seed=20_26_06)
    worst = 0.0
    for x in xs:
        x = float(x)
        try:
            a = special_fn.g_func(x, "wilton_plus_H", cfg)
            b = special_fn.g_func(x, "direct_series", cfg)
        except (cf_dynamics.EffectiveRationalError, cf_dynamics.NonConvergenceError):
            continue
        worst = max(worst, abs(a.value - b.value))
    ok = worst < 1e-3
    return ok, f"max route disagreement {worst:.2e} (tol 1e-3)"


def crit_contraction() -> tuple[bool, str]:
    """Decay of int (T^n l)^2 dm: successive ratios at most g^2 + 0.05."""
    bound = GOLDEN * GOLDEN + 0.05
    xs = cf_dynamics.sample_gauss_measure(100_000, seed=20_26_07)
    means = iterate_l2_means(xs, 9)
    ratios = means[3:10] / means[2:9]
    worst = float(ratios.max())
    ok = worst <= bound
    return ok, f"max ratio {worst:.4f} over n=2..8 (bound {bound:.4f})"


def crit_measure_invariance() -> tuple[bool, str]:
    """KS distance between pushed-forward measure samples and the measure CDF."""
    xs = cf_dynamics.sample_gauss_measure(1_000_000, seed=20_26_08)
    pushed = cf_dynamics.gauss_map_array(xs)
    pushed = np.clip(pushed, 1e-300, 1.0)
    stat = float(kstest(pushed, cf_dynamics.gauss_measure_cdf).statistic)
    ok = stat < 0.002
    return ok, f"KS statistic {stat:.5f} (tol 0.002)"


def crit_gamma_ratio_trend() -> tuple[bool, str]:
    """M(K)/Gamma(K+1) sits in [0.45, 0.70] for K = 10, 15, 20 and its
    distance to exp(gamma)/pi does not grow beyond twice the noise."""
    ests = moments.gamma_ratio_sweep([10.0, 15.0, 20.0], seed=20_26_09)
    target = moments.TARGET_RATIO
    ratios = [e.gamma_ratio for e in ests]
    sigma = [e.std_error / float(gamma_fn(e.K + 1.0)) for e in ests]
    in_band = all(0.45 <= r <= 0.70 for r in ratios)
    gaps = [abs(r - target) for r in ratios]
    trend = all(
        gaps[i + 1] <= gaps[i] + 2.0 * (sigma[i] + sigma[i + 1])
        for i in range(len(gaps) - 1)
    )
    ok = in_band and trend
    detail = ", ".join(
        f"K={e.K:g}: ratio {r:.4f}+-{s:.4f}" for e, r, s in zip(ests, ratios, sigma)
    )
    return ok, f"{detail}; target {target:.4f}, band [0.45, 0.70], trend {'ok' if trend else 'broken'}"


def crit_cotangent_antisymmetry() -> tuple[bool, str]:
    """c0(r/b) + c0((b-r)/b) = 0 within 1e-9 b over all coprime r."""
    worst_scaled = 0.0
    for b in (101, 1009, 10007):
        rs = np.arange(1, (b + 1) // 2, dtype=np.int64)
        rs = rs[np.gcd(rs, b) == 1]
        v1 = cotangent.c0_values(b, rs)
        v2 = cotangent.c0_values(b, b - rs)
        worst_scaled = max(worst_scaled, float(np.max(np.abs(v1 + v2))) / (1e-9 * b))
    ok = worst_scaled <= 1.0
    return ok, f"max |c0(r/b)+c0((b-r)/b)| = {worst_scaled:.2e} x (1e-9 b)"


def crit_distribution_link() -> tuple[bool, str]:
    """Second moment of c0(r/b)/b at b = 20011 against H_1 = M(2)/pi^2."""
    sweep = cotangent.c0_sweep(20011, 0.5, 1.0, k_max=1)
    m2 = sweep.normalized_moments[0]
    h1 = moments.h_moment(1, seed=20_26_11, samples=1_000_000)
    rel = abs(m2 - h1.value) / h1.value
    ok = rel < 0.10
    return ok, (
        f"sweep moment {m2:.5f} vs H1 {h1.value:.5f} "
        f"(+-{h1.std_error:.5f}), rel diff {rel:.2%} (tol 10%)"
    )


def crit_g_antisymmetry() -> tuple[bool, str]:
    """|g(x) + g(1-x)| within the combined reported error on 1e3 points."""
    cfg = cf_dynamics.ToleranceConfig(abs_tol=1e-5)
    xs = cf_dynamics.sample_gauss_measure(1_000, seed=20_26_12)
    worst_margin = -math.inf
    used = 0
    worst_abs = 0.0
    for x in xs:
        x = float(x)
        y = 1.0 - x
        if not 0.0 < y < 1.0:
            continue
        try:
            a = special_fn.g_func(x, "wilton_plus_H", cfg)
            b = special_fn.g_func(y, "wilton_plus_H", cfg)
        except (cf_dynamics.EffectiveRationalError, cf_dynamics.NonConvergenceError):
            continue
        used += 1
        slack = abs(a.value + b.value) - (a.est_error + b.est_error + 1e-12)
        worst_margin = max(worst_margin, slack)
        worst_abs = max(worst_abs, abs(a.value + b.value))
    ok = worst_margin <= 0.0 and used >= 990
    return ok, (
        f"max |g(x)+g(1-x)| {worst_abs:.2e}, worst margin over combined "
        f"error {worst_margin:.2e} on {used} points"
    )


SUITES = {
    "calibration": crit_calibration,
    "a1-closed-form": crit_a1_closed_form,
    "small-lambda-expansion": crit_small_lambda_expansion,
    "functional-equation": crit_functional_equation,
    "decomposition": crit_decomposition,
    "route-crosscheck": crit_route_crosscheck,
    "contraction": crit_contraction,
    "measure-invariance": crit_measure_invariance,
    "gamma-ratio-trend": crit_gamma_ratio_trend,
    "cotangent-antisymmetry": crit_cotangent_antisymmetry,
    "distribution-link": crit_distribution_link,
    "g-antisymmetry": crit_g_antisymmetry,
}


def run_suite(name: str) -> CriterionResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(SUITES)}")
    start = time.perf_counter()
    passed, detail = SUITES[name]()
    return CriterionResult(name, passed, detail, time.perf_counter() - start)


def run_suites(names: list[str]) -> list[CriterionResult]:
    return [run_suite(n) for n in names]
