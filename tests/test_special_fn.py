import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from wiltonmoments import cf_dynamics, special_fn as sf
from wiltonmoments.cf_dynamics import (
    EffectiveRationalError,
    ToleranceConfig,
    orbit_arrays,
    sample_gauss_measure,
)
from wiltonmoments.wilton import wilton

wilton_module = sys.modules[wilton.__module__]  # the package name wilton is the function
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
A1 = math.log(2.0 * math.pi) - np.euler_gamma  # closed form for A(1)
CFG = ToleranceConfig(abs_tol=1e-10)
CFG6 = ToleranceConfig(abs_tol=1e-6)


class TestBernoulli:
    @pytest.mark.parametrize(
        "t,expect",
        [(0.75, 0.25), (0.0, -0.5), (2.25, -0.25), (-0.25, 0.25)],
    )
    def test_b1_values(self, t, expect):
        assert sf.bernoulli1(t) == pytest.approx(expect, abs=1e-15)

    @pytest.mark.parametrize(
        "t,expect",
        [(0.0, 1.0 / 6.0), (0.25, 1.0 / 16.0 - 1.0 / 4.0 + 1.0 / 6.0), (0.5, -1.0 / 12.0)],
    )
    def test_b2_values(self, t, expect):
        assert sf.bernoulli2(t) == pytest.approx(expect, abs=1e-15)

    @settings(max_examples=100, derandomize=True)
    @given(t=st.floats(min_value=-50.0, max_value=50.0))
    def test_ranges_and_period(self, t):
        b1 = sf.bernoulli1(t)
        b2 = sf.bernoulli2(t)
        assert -0.5 <= b1 < 0.5
        assert -1.0 / 12.0 - 1e-12 <= b2 <= 1.0 / 6.0 + 1e-12
        assert sf.bernoulli1(t + 1.0) == pytest.approx(b1, abs=1e-9)
        assert sf.bernoulli2(t + 1.0) == pytest.approx(b2, abs=1e-9)

    def test_vectorized(self):
        t = np.linspace(-2, 2, 101)
        np.testing.assert_allclose(
            sf.bernoulli2(t), [sf.bernoulli2(float(v)) for v in t], rtol=1e-14
        )


class TestGTail:
    def test_against_quadrature(self):
        # dense Gauss-Legendre integration of B2({u})/u^3 segment by segment
        nodes, weights = np.polynomial.legendre.leggauss(24)
        for y in (1.0, 1.5, 2.75, 10.2, 40.0, 63.5):
            total = 0.0
            edges = np.concatenate(
                [[y], np.arange(math.ceil(y), 400.0), [400.0]]
            )
            for a, b in zip(edges[:-1], edges[1:]):
                if b <= a:
                    continue
                u = 0.5 * (a + b) + 0.5 * (b - a) * nodes
                f = u - np.floor(u)
                total += 0.5 * (b - a) * float(
                    weights @ ((f * f - f + 1.0 / 6.0) / u**3)
                )
            total += float(sf._g_asym(np.float64(400.0)))
            assert sf.g_tail_integral(y) == pytest.approx(total, abs=5e-13)

    def test_bernoulli_poly_coefficients(self):
        # B_n' = n B_{n-1} and B_n(0) match the Bernoulli numbers
        import sympy

        x = sympy.symbols("x")
        for n, coef in sf._BPOLY.items():
            poly = sympy.Poly(sympy.bernoulli(n, x), x)
            expect = [float(c) for c in poly.all_coeffs()]
            assert np.allclose(coef, expect, rtol=0, atol=1e-15)

    def test_decay_bound(self):
        y = np.geomspace(1.0, 1e6, 200)
        g = np.abs(sf.g_tail_integral(y))
        assert (g <= sf._G_ABS / y**3).all()


class TestPhi2:
    def test_integer_argument(self):
        assert sf.phi2(0.0) == pytest.approx(math.pi**2 / 36.0, abs=1e-15)
        assert sf.phi2(7.0) == pytest.approx(math.pi**2 / 36.0, abs=1e-15)

    def test_half(self):
        # split even/odd n: (1/6) zeta(2)/4 - (1/12) (3/4) zeta(2) = -pi^2/288
        assert sf.phi2(0.5, CFG) == pytest.approx(-math.pi**2 / 288.0, abs=1e-12)

    def test_periodicity(self):
        x = 0.2137996805918318
        assert sf.phi2(x + 1.0, CFG6) == pytest.approx(sf.phi2(x, CFG6), abs=1e-9)

    def test_rational_matches_direct(self):
        v_rat = sf._phi2_rational(37, 100)
        v_dir = float(sf._phi2_sums(np.array([0.37]), np.array([2_000_000]))[0])
        assert v_rat == pytest.approx(v_dir, abs=2e-7)

    def test_bounded_by_max(self):
        xs = np.linspace(0.01, 0.99, 37)
        for x in xs:
            assert abs(sf.phi2(float(x), CFG6)) <= math.pi**2 / 36.0 + 1e-9

    def test_snap_error_bound_is_valid(self):
        # perturb a low-order rational by delta; the reported bound plus the
        # continuity modulus over delta must cover the distance to Phi2(1/3)
        base = 1.0 / 3.0
        for delta in (1e-10, 1e-8):
            v1, e1, _ = sf._phi2_core(base + delta, 1e-12)
            v2 = sf._phi2_rational(1, 3)
            assert abs(v1 - v2) <= e1 + sf._snap_error(delta) + 1e-12

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 6, 12, 97, 100, 1000, 4096])
    def test_rational_against_mpmath(self, q):
        # 30-digit sum over all classes r = 1..q-1 of b2_r psi1(r/q), the
        # form before the csc^2 pairing
        import mpmath

        with mpmath.workdps(30):
            tri = [mpmath.psi(1, mpmath.mpf(r) / q) for r in range(1, q)]
            ps = {1, q - 1}
            for p in np.random.default_rng(q).integers(1, q, 20):
                if math.gcd(int(p), q) == 1:
                    ps.add(int(p))
                    break
            for p in sorted(ps):
                total = mpmath.pi**2 / 36
                for r in range(1, q):
                    f = mpmath.mpf((r * p) % q) / q
                    total += (f * f - f + mpmath.mpf(1) / 6) * tri[r - 1]
                expect = float(total / q**2)
                assert sf._phi2_rational(p, q) == pytest.approx(expect, abs=1e-15)

    @pytest.mark.parametrize("q", [65536, 120001])
    def test_rational_against_trigamma_form(self, q):
        from scipy.special import polygamma

        r = np.arange(1, q, dtype=np.int64)
        tri = polygamma(1, r.astype(np.float64) / q)
        for p in (1, q - 1, 40503):
            frac = ((r * p) % q).astype(np.float64) / q
            b2 = frac * frac - frac + 1.0 / 6.0
            expect = float((b2 @ tri) / (q * q) + sf.PI2_OVER_36 / (q * q))
            assert sf._phi2_rational(p, q) == pytest.approx(expect, abs=1e-13)


class TestBigA:
    def test_a1_closed_form(self):
        assert sf.big_a(1.0, CFG) == pytest.approx(A1, abs=1e-9)

    def test_a0(self):
        assert sf.big_a(0.0) == 0.0

    def test_negative_domain(self):
        with pytest.raises(ValueError):
            sf.big_a(-0.5)

    def test_tiny_lambda_psi_bound(self):
        # below lam = 1e-9 psi is reported as 0 with the bound 0.14 lam^2;
        # the series form must lie inside it.  1/lam is an integer here,
        # where Phi2 takes its maximum pi^2/36 (exactly, with error 0)
        lam, tol = 1e-12, 1e-30
        (val,), (err,) = sf._psi_vec(lam, tol)
        pval, perr, snapped = sf._phi2_core(1.0 / lam, tol / (lam * lam))
        nj, _ = sf._j_terms(np.array([lam]), tol)
        (jval,) = sf._j_sums(np.array([1.0 / lam]), nj)
        assert pval == sf.PI2_OVER_36 and perr == 0.0 and snapped
        assert abs(jval) <= 0.072 * lam**3
        assert val == 0.0 and err <= 1e-24
        assert abs(0.5 * lam * lam * pval - jval) <= err

    def test_small_lambda_expansion(self):
        lam = 0.001
        expect = 0.0005 * math.log(1000.0) + 0.5 * (1.0 + A1) * lam
        assert sf.big_a(lam, CFG) == pytest.approx(expect, abs=2e-6)

    def test_scaling_identity(self):
        for lam in np.arange(0.1, 1.0, 0.1):
            lam = float(lam)
            assert abs(sf.big_a(lam, CFG) - lam * sf.big_a(1.0 / lam, CFG)) < 1e-10

    def test_formula_vs_direct_quadrature(self):
        # the two routes are fully independent
        for lam in (1.0, 0.5, 0.25, 1.0 / math.pi, 0.77):
            form = sf.big_a(lam, CFG)
            quad, err = sf.big_a_integral(lam, t_max=2e5)
            assert abs(form - quad) < max(5.0 * err, 1e-9)

    def test_above_one_scaling(self):
        # the branch is A(lam) = lam A(1/lam); tolerances differ between the
        # two calls, so agreement is at the truncation level, not exact
        assert sf.big_a(4.0, CFG) == pytest.approx(4.0 * sf.big_a(0.25, CFG), abs=1e-9)

    @pytest.mark.parametrize("lam", [0.7, 3.0])
    def test_subnormal_tolerance_is_finite(self, lam):
        # tol / 2 (and tol / lam above 1) rounds to 0 at the least subnormal
        cfg = ToleranceConfig(abs_tol=5e-324)
        val, err = sf._a_with_err(lam, cfg.abs_tol)
        assert sf.big_a(lam, cfg) == val
        assert math.isfinite(val) and math.isfinite(err) and err > 0.0
        assert val == pytest.approx(sf.big_a(lam, CFG), abs=1e-8)

    def test_huge_lambda_is_finite(self):
        # A(lam) = lam A(1/lam) with 1/lam far below the psi underflow point
        val = sf.big_a(1e300, CFG)
        assert math.isfinite(val) and val > 0.0


class TestF:
    def test_f_at_one_is_zero(self):
        assert abs(sf.f_func(1.0, CFG)) < 1e-12

    def test_f_small_x_limit(self):
        assert sf.f_func(1e-12, CFG) == pytest.approx(A1 / 2.0, abs=1e-11)

    def test_matches_definition_via_quadrature(self):
        x = 0.5
        a_half, qerr = sf.big_a_integral(0.5, t_max=1e5)
        a_one, qerr1 = sf.big_a_integral(1.0, t_max=1e5)
        expect = 0.75 * a_one - a_half + 0.25 * math.log(2.0)
        assert sf.f_func(x, CFG) == pytest.approx(expect, abs=10 * (qerr + qerr1))

    def test_domain(self):
        with pytest.raises(ValueError):
            sf.f_func(0.0)
        with pytest.raises(ValueError):
            sf.f_func(1.5)

    def test_subnormal_tolerance_is_quiet(self):
        # the term counts overflow to inf and are clipped to their caps
        # without a RuntimeWarning, which the test settings make an error
        val, err = sf._f_with_err(0.37, 1e-310)
        assert math.isfinite(val) and math.isfinite(err)

    def test_sup_bound_is_the_f0_limit(self):
        # |F| <= A(1)/2 = F(0+) on (0, 1]; a dense scan stays below it
        a1, _ = sf.a1_constant()
        assert sf.sup_f_bound() == 1.1 * (0.5 * a1 + 1e-4)
        grid = np.linspace(1e-4, 1.0, 10_000)
        psi, _ = sf._psi_vec(grid, 1e-4)
        assert np.max(np.abs(0.5 * a1 - 0.5 * grid - psi)) <= 0.5 * a1

    def test_sup_bound_covers_scan(self):
        supf = sf.sup_f_bound()
        assert supf >= A1 / 2.0
        xs = np.linspace(1e-3, 1.0, 500)
        for x in xs:
            assert abs(sf.f_func(float(x), CFG6)) <= supf


class TestH:
    def test_golden_geometric_series(self):
        # all iterates equal x: H = -2 F(x) / (1 + x)
        expect = -2.0 * sf.f_func(GOLDEN, CFG) / (1.0 + GOLDEN)
        assert sf.h_func(GOLDEN, CFG6) == pytest.approx(expect, abs=1e-6)

    def test_small_x_limit(self):
        # H -> -A(1) as x -> 0
        for x in (1.2345e-3, 1.2345e-4):
            assert sf.h_func(x, CFG6) == pytest.approx(-A1, abs=0.05 * math.sqrt(x) + 3e-3)

    def test_functional_equation(self):
        # H(x) = -2 F(x) - x H(alpha(x))
        from wiltonmoments.cf_dynamics import gauss_map

        for x in (1.0 / math.pi, 0.6397584817263, 0.1387342):
            lhs = sf.h_func(x, CFG6)
            rhs = -2.0 * sf.f_func(x, CFG) - x * sf.h_func(gauss_map(x), CFG6)
            assert lhs == pytest.approx(rhs, abs=5e-6)

    def test_bounded(self):
        xs = sample_gauss_measure(50, 3)
        supf = sf.sup_f_bound()
        for x in xs:
            assert abs(sf.h_func(float(x), CFG6)) <= 2.0 * supf * 3.5


class TestPhi1:
    def test_single_term(self):
        assert sf.phi1_partial(0.75, 1) == pytest.approx(0.25, abs=1e-15)

    def test_cesaro_matches_orbit_route(self):
        # -2 Phi1 = g = W + H
        g = sf.g_func(GOLDEN, "wilton_plus_H", CFG6)
        mean, _ = sf._phi1_cesaro(GOLDEN, 1 << 20, 64)
        assert -2.0 * mean == pytest.approx(g.value, abs=1e-3)

    def test_divergence_at_rationals(self):
        # harmonic subseries: partial sums grow without bound
        s1 = sf.phi1_partial(0.25, 4_000)
        s2 = sf.phi1_partial(0.25, 400_000)
        assert s2 < s1 - 0.4


class TestG:
    def test_routes_agree(self):
        xs = sample_gauss_measure(20, 77)
        for x in xs:
            x = float(x)
            a = sf.g_func(x, "wilton_plus_H", CFG6)
            b = sf.g_func(x, "direct_series", CFG6)
            assert abs(a.value - b.value) < max(1e-3, a.est_error + b.est_error)

    @pytest.mark.parametrize("x", [0.5, 0.25, 0.75, 1.0 / 3.0, 0.3])
    def test_direct_series_refuses_effectively_rational_points(self, x):
        # the Phi1 series diverges at every rational
        with pytest.raises(EffectiveRationalError):
            sf.g_func(x, "direct_series", CFG6)

    def test_direct_series_error_covers_nearby_fractions(self):
        # the window at n ~ 2^20 still sees the partial sums of a short p/q
        # next to x; the error must say so
        rng = np.random.default_rng(20261019)
        xs = [0.5 + 1e-9, 0.5 + 1e-12, 0.3 + 1e-10]
        while len(xs) < 63:
            q = int(rng.integers(2, 41))
            p = int(rng.integers(1, q))
            if math.gcd(p, q) == 1:
                xs.append(p / q + float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-12, -3))
        for x in xs:
            a = sf.g_func(x, "wilton_plus_H", CFG6)
            b = sf.g_func(x, "direct_series", CFG6)
            assert abs(a.value - b.value) <= a.est_error + b.est_error, x

    def test_direct_series_refuses_short_dyadics(self):
        # 2^-15 is a fraction whose denominator the window sees, though not
        # effectively rational
        with pytest.raises(EffectiveRationalError):
            sf.g_func(2.0**-15, "direct_series", CFG6)

    @pytest.mark.parametrize("x", [1e-8, 1.0 - 1e-6])
    def test_direct_series_error_covers_slow_oscillation(self, x):
        # the partial sums oscillate with period 1/min(x, 1-x), far wider
        # than the 64-term window here; the error must say so
        a = sf.g_func(x, "wilton_plus_H", CFG6)
        b = sf.g_func(x, "direct_series", CFG6)
        assert abs(a.value - b.value) > 0.1
        assert abs(a.value - b.value) <= b.est_error

    def test_antisymmetry(self):
        for x in (1.0 / math.pi, 0.2345678901, GOLDEN):
            a = sf.g_func(x, "wilton_plus_H", CFG6)
            b = sf.g_func(1.0 - x, "wilton_plus_H", CFG6)
            assert abs(a.value + b.value) <= a.est_error + b.est_error

    def test_small_x_shift(self):
        # g(x) - log(1/x) -> gamma - log(2 pi)
        target = np.euler_gamma - math.log(2.0 * math.pi)
        diffs = []
        for x in (1.2345e-2, 1.2345e-3, 1.2345e-4):
            g = sf.g_func(x, "wilton_plus_H", CFG6)
            diffs.append(abs(g.value - math.log(1.0 / x) - target))
        assert diffs[-1] < 0.01
        assert diffs[2] < diffs[0]

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            sf.g_func(0.3, "nope")

    def test_decomposition_needs_some_n(self):
        with pytest.raises(ValueError, match="ns"):
            sf.decomposition_values(1.0 / math.pi, [], CFG)

    def test_decomposition_n_independent(self):
        vals = sf.decomposition_values(1.0 / math.pi, [0, 2, 5, 9], CFG)
        spread = max(vals.values()) - min(vals.values())
        assert spread < 1e-10
        g = sf.g_func(1.0 / math.pi, "wilton_plus_H", CFG6)
        for v in vals.values():
            assert v == pytest.approx(g.value, abs=5e-6)


class TestGBatch:
    def test_matches_scalar(self):
        xs = sample_gauss_measure(200, 55)
        vals, errs, ok = sf.g_batch(xs)
        assert ok.all()
        for i in (0, 50, 199):
            g = sf.g_func(float(xs[i]), "wilton_plus_H", CFG6)
            assert abs(vals[i] - g.value) <= errs[i] + g.est_error

    def test_small_x_branch(self):
        xs = np.array([1e-20, 1e-14, 5e-14])
        vals, errs, ok = sf.g_batch(xs)
        assert ok.all()
        np.testing.assert_allclose(vals, -np.log(xs) - A1, atol=1e-9)

    def test_error_bounds_honest(self):
        xs = sample_gauss_measure(300, 99)
        vals, errs, ok = sf.g_batch(xs)
        sc = [sf.g_func(float(x), "wilton_plus_H", CFG6) for x in xs]
        ref = np.array([g.value for g in sc])
        ref_err = np.array([g.est_error for g in sc])
        assert (np.abs(vals - ref) <= errs + ref_err).all()

    @pytest.mark.parametrize("K, seed", [(2.0, 11), (20.0, 12)])
    def test_w_budget_on_moment_draws(self, K, seed):
        # W stops at err_bound / 100, so its truncation (under 2 err_bound / 100)
        # is 1% or less of the F term every orbit row carries; rows below
        # SMALLX_CUT take the small-x form and carry neither
        from wiltonmoments.moments import _mixture_samples

        xs = _mixture_samples(K, 2000, seed)[0]
        vals, errs, ok = sf.g_batch(xs)
        orbit = ok & (xs >= cf_dynamics.SMALLX_CUT)
        assert orbit.sum() > 1800
        assert (errs[orbit] >= 2.0 * sf._ftable().err_bound).all()
        for x, v, e in zip(xs[ok].tolist(), vals[ok], errs[ok]):
            g = sf.g_func(x, "wilton_plus_H", CFG6)
            assert abs(v - g.value) <= e + g.est_error, x

    def test_guard_ended_moment_draws_finish_as_g_func(self):
        # among moment(20)'s draws, x in [SMALLX_CUT, 1.1e-9] can have a short
        # dyadic float {1/x}, whose orbit ends on RATIONAL_GUARD within four
        # iterates; g_batch sums W and H to the orbit's end, as g_func does
        from wiltonmoments.moments import _mixture_samples

        xs = _mixture_samples(20.0, 500_000, 12)[0]
        xs = xs[xs >= cf_dynamics.SMALLX_CUT]
        alpha, beta, live = xs, 1.0, np.ones(xs.size, dtype=bool)
        for _ in range(4):
            alpha, beta, ended = cf_dynamics.orbit_step(alpha, beta, xs)
            live &= ~ended
            alpha = np.where(live, alpha, 0.5)
        xs = xs[~live][:300]
        assert xs.size == 300
        vals, errs, ok = sf.g_batch(xs)
        assert ok.all(), xs[~ok][:5]
        for x, v, e in zip(xs.tolist(), vals, errs):
            g = sf.g_func(x, "wilton_plus_H", CFG6)
            assert abs(v - g.value) <= e + g.est_error, x

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(xs=arrays(
        np.float64,
        # 1-D arrays, plus 0-d and 2-D ones, which must be refused
        st.one_of(st.integers(0, 24), st.just(()), array_shapes(min_dims=2, max_dims=2)),
        elements=st.one_of(
            st.floats(allow_subnormal=True),
            st.floats(0.0, 1.0),
            st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e-13, 1.0 - 2.0**-53, 0.5, 2.0]),
        ),
    ))
    def test_any_input_gives_finite_or_zero(self, xs):
        if xs.ndim != 1:
            with pytest.raises(ValueError, match="1-D"):
                sf.g_batch(xs)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            vals, errs, ok = sf.g_batch(xs)
        assert np.isfinite(vals[ok]).all() and np.isfinite(errs[ok]).all()
        assert (vals[~ok] == 0.0).all() and (errs[~ok] == 0.0).all()
        assert not ok[~((xs > 0.0) & (xs < 1.0))].any()


def _phi2_sums_outer(fr, nn):
    """sf._phi2_sums with each column chunk as one plain np.outer product:
    each row sums the least count ceil(1.25^k) (or the cap 2^26) at or
    above its nn."""
    grid = sorted({math.ceil(Fraction(5, 4) ** k) for k in range(81)} | {1 << 26})
    counts = np.array([grid[np.searchsorted(grid, n)] for n in nn])
    out = np.zeros_like(fr)
    for n_use in np.unique(counts):
        rows = counts == n_use
        n_arr = np.arange(1, n_use + 1, dtype=np.float64)
        step = min(n_use, sf._ROW_BLOCK)
        for c0 in range(0, n_use, step):
            nb = n_arr[c0 : c0 + step]
            t = np.outer(fr[rows], nb)
            f = t - np.floor(t)
            b = ((f * f - f + 1.0 / 6.0) / (nb * nb)).ravel()
            out[rows] += np.add.reduceat(b, np.arange(0, b.size, nb.size))
    return out


class TestFTable:
    def test_concurrent_first_calls_build_once(self, tmp_path):
        # two threads make a fresh process's first g_batch calls at once: on an
        # empty cache directory the F table is built, and A(1)'s J sum
        # computed, by one of them; on the written file the table is read, and
        # nothing builds it
        code = """if True:
            import sys, threading
            from pathlib import Path
            import numpy as np
            from wiltonmoments import special_fn as sf
            sf._CACHE_DIR = Path(sys.argv[1])
            builds, a1_sums = [], []
            build, j_sums = sf._FTable._build, sf._j_sums
            def counting_build(self):
                builds.append(1)
                return build(self)
            def counting_j(T, nj):
                if T.size == 1 and T[0] == 1.0:
                    a1_sums.append(1)
                return j_sums(T, nj)
            sf._FTable._build, sf._j_sums = counting_build, counting_j
            start = threading.Barrier(2)
            def first_call():
                start.wait()
                sf.g_batch(np.array([0.5 ** 0.5]))
            threads = [threading.Thread(target=first_call) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            print(len(builds), len(a1_sums))
        """
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        outs = []
        for _ in ("cold", "warm"):
            proc = subprocess.run(
                [sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout.split())
        assert outs == [["1", "1"], ["0", "1"]]

    def test_build_memory_peak(self):
        # the build runs its 2^14-node blocks one after another in one thread,
        # so its tracemalloc peak is 7.4 MB at 1 and at 8 CPUs alike; a pool
        # of node blocks would add one block's temporaries per worker (2^12-node
        # blocks on 8 workers peaked at 11.8-12.3 MB)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        for cpus in (1, 8):
            code = f"""if True:
                import os, tracemalloc
                os.cpu_count = lambda: {cpus}
                from wiltonmoments import special_fn as sf
                sf.a1_constant()
                tracemalloc.start()
                sf._FTable()
                print(tracemalloc.get_traced_memory()[1])
            """
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert int(proc.stdout) <= 10 * 2**20, cpus

    def test_lookup_is_interp_bit_for_bit(self):
        tab = sf._ftable()
        xs = tab.xs
        rng = np.random.default_rng(20261018)
        inside = np.concatenate([
            xs,
            np.nextafter(xs[1:], -np.inf),
            np.nextafter(xs[:-1], np.inf),
            [np.nextafter(1.0, np.inf), 1.5],
            rng.uniform(tab.xmin, 1.0, 1_000_000),
        ])
        assert np.array_equal(tab.lookup(inside), np.interp(inside, xs, tab.f))
        below = np.array([np.nextafter(tab.xmin, 0.0), 0.5 * tab.xmin, 1e-300, 0.0])
        assert np.array_equal(tab.lookup(below), 0.5 * tab.a1 - 0.5 * below)

    def test_nodes_are_linspace_and_f_is_a_view(self):
        # lookup recomputes node i as i h + xmin and gathers (slope, F) from one array
        tab = sf._ftable()
        assert tab.xs.tobytes() == np.linspace(tab.xmin, 1.0, tab.xs.size).tobytes()
        assert np.shares_memory(tab.f, tab._sf)

    def test_bound_holds_next_to_kinks(self):
        # psi has log-type kinks at the rationals q/p; probe 0.3 and 0.5 of
        # a segment to either side of those with p < 30
        tab = sf._ftable()
        h = (1.0 - tab.xmin) / (len(tab.xs) - 1)
        kinks = {q / p for p in range(1, 30) for q in range(1, p + 1)}
        offsets = (-0.5 * h, -0.3 * h, 0.3 * h, 0.5 * h)
        xs = [k + s for k in kinks for s in offsets if k + s <= 1.0]
        ref = np.array([sf._f_with_err(x, 2e-7) for x in xs])
        assert (np.abs(tab.lookup(np.array(xs)) - ref[:, 0]) <= tab.err_bound - ref[:, 1]).all()
        # err_bound stays within its value at 2^18 segments and 1e-4 nodes, and
        # the table has the fewest power-of-two segments whose interpolation
        # term fits that budget with A(1)'s error
        assert tab.err_bound <= 1.2761131942231886e-4
        room = sf._F_BUDGET - sf.a1_constant()[1]
        assert (len(tab.xs) - 1).bit_count() == 1
        assert sf._interp_error(h) < room <= sf._interp_error(2.0 * h)

    @pytest.mark.parametrize("tol", [1e-4, 1e-6])
    def test_blocked_psi_matches_outer_reference(self, tol):
        # the Phi2 kernel on the term counts _psi_vec gives it: at 1e-6 the
        # largest buckets need many column chunks; at both tolerances each
        # chunk spans many row blocks
        fr, nn = _psi_phi2_inputs(tol)
        assert np.array_equal(sf._phi2_sums(fr, nn), _phi2_sums_outer(fr, nn))

    def test_row_sums_do_not_depend_on_other_rows(self):
        # a row sums its own count off the grid, so it keeps its bits in any
        # call: alone, in a slice, beside other rows, or in reverse order
        fr, nn = _psi_phi2_inputs(1e-6)
        full = sf._phi2_sums(fr, nn)
        assert sf._phi2_count(nn).sum() < 1.02 * 1.25 * nn.sum()
        assert np.array_equal(sf._phi2_sums(fr[::-1], nn[::-1]), full[::-1])
        assert np.array_equal(sf._phi2_sums(fr[1000:1300], nn[1000:1300]), full[1000:1300])
        for i in (0, 2000, fr.size - 1):
            assert sf._phi2_sums(fr[i : i + 1], nn[i : i + 1])[0] == full[i]
        # a call as small as scalar H's runs end to end in one pass, a row of
        # 20k terms among short ones too
        nn = np.array([50.0, 20_000, 3000, 9, 700, 100])
        assert sf._phi2_count(nn).sum() <= sf._ROW_BLOCK
        one_pass = sf._phi2_sums(fr[:6], nn)
        assert np.array_equal(one_pass, _phi2_sums_outer(fr[:6], nn))
        assert all(sf._phi2_sums(fr[i : i + 1], nn[i : i + 1])[0] == one_pass[i] for i in range(6))

    @pytest.mark.parametrize("extra", [[], [1.0]], ids=["at_row_block", "one_term_above"])
    def test_layouts_meet_at_row_block(self, extra, monkeypatch):
        # rounded counts that sum to exactly _ROW_BLOCK take the one-pass
        # layout, one term more takes the buckets (_phi2_rows); each row keeps
        # its bits in either, and alone
        nn = np.array([12_000.0, 5000, 3000, 700, 100, 9, 7524, 517, 5] + extra)
        assert sf._phi2_count(nn).sum() == sf._ROW_BLOCK + len(extra)
        fr = np.random.default_rng(8).random(nn.size)
        bucket_calls = []
        rows = sf._phi2_rows

        def counting_rows(*args):
            bucket_calls.append(1)
            return rows(*args)

        monkeypatch.setattr(sf, "_phi2_rows", counting_rows)
        out = sf._phi2_sums(fr, nn)
        assert bool(bucket_calls) == bool(extra)
        assert np.array_equal(out, _phi2_sums_outer(fr, nn))
        assert all(sf._phi2_sums(fr[i : i + 1], nn[i : i + 1])[0] == out[i] for i in range(nn.size))

    def test_table_bits_do_not_depend_on_node_blocks(self, monkeypatch):
        # Phi2 and J sums by rows alone: the same table from blocks half as long
        tab = sf._ftable()
        monkeypatch.setattr(sf, "_NODE_BLOCK", sf._NODE_BLOCK // 2)
        assert sf._FTable().f.tobytes() == tab.f.tobytes()

    def test_table_bits_do_not_depend_on_worker_count(self, monkeypatch):
        # three builds at once on pool threads (a cold moment's first block
        # builds on one); frequent thread switches would expose a lost or
        # shared write
        tab = sf._ftable()
        monkeypatch.setattr(cf_dynamics.os, "cpu_count", lambda: 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            tables = cf_dynamics.pool_map(lambda _: sf._FTable(), range(3))
        finally:
            sys.setswitchinterval(interval)
        assert len(tables) == 3
        assert all(t.f.tobytes() == tab.f.tobytes() for t in tables)
        assert all(t.err_bound == tab.err_bound for t in tables)

    def test_build_runs_in_the_calling_thread(self, monkeypatch):
        # the node blocks run in order in the thread that builds, on no pool
        assert not hasattr(sf, "pool_map")
        calls, psi_vec = [], sf._psi_vec

        def recording(xs, tol):
            calls.append((threading.current_thread(), xs.size))
            return psi_vec(xs, tol)

        monkeypatch.setattr(sf, "_psi_vec", recording)
        tab = sf._FTable()
        size = tab.xs.size - 1
        edges = [*range(0, size, sf._NODE_BLOCK), size + 1]
        assert len(edges) > 3
        here = threading.current_thread()
        assert calls == [(here, hi - lo) for lo, hi in zip(edges[:-1], edges[1:])]

    def test_j_sums_match_serial_pieces(self):
        # a quarter of the F table's nodes at its tolerance (about 53 blocks of
        # whole pieces) and four grids over three pieces long
        xs = np.linspace(1e-3, 1.0, 1 << 16)
        nj, _ = sf._j_terms(xs, 1e-4)
        at = [100, 20_000, 40_000, 60_000]
        T = np.insert(1.0 / xs, at, [1.0, 1.3, 2.0, 7.5])
        nj = np.insert(nj, at, 3 * sf._J_BLOCK + 7)
        assert nj.sum() > 20 * sf._J_BLOCK
        assert np.array_equal(sf._j_sums(T, nj), _j_sums_serial(T, nj))

    def test_j_sums_add_blocks_in_block_order(self, monkeypatch):
        # at 64 terms per piece, grids 40 pieces long have piece sums of
        # comparable size, so the order they are added in shows in the bits
        monkeypatch.setattr(sf, "_J_BLOCK", 64)
        xs = np.linspace(1e-3, 1.0, 1 << 12)
        nj, _ = sf._j_terms(xs, 1e-4)
        at = np.arange(100, 4000, 500)
        T = np.insert(1.0 / xs, at, np.geomspace(1e-3, 10.0, at.size))
        nj = np.insert(nj, at, 40 * 64 + 7)
        ref = _j_sums_serial(T, nj)
        assert not np.array_equal(_j_sums_serial(T, nj, last_first=True), ref)
        assert np.array_equal(sf._j_sums(T, nj), ref)


def _j_sums_serial(T, nj, last_first=False):
    """sf._j_sums as one serial loop per point: its grid cut from its own
    start into pieces of _J_BLOCK terms, each summed by np.add.reduceat, and
    the piece sums added into out in place, in order or last piece first."""
    out = np.zeros(len(T))
    for i, (t, n) in enumerate(zip(T, nj)):
        pieces = range(0, int(n), sf._J_BLOCK)
        for k0 in reversed(pieces) if last_first else pieces:
            k = np.arange(k0 + 1, min(k0 + sf._J_BLOCK, int(n)) + 1)
            out[i] += np.add.reduceat(sf.g_tail_integral(k * t), [0])[0]
    return out


def _psi_phi2_inputs(tol):
    """The fractional parts and Phi2 term counts _psi_vec makes on a grid."""
    xs = np.linspace(1e-3, 1.0, 4097)
    T = 1.0 / xs
    keep = T != np.floor(T)
    return (T - np.floor(T))[keep], np.ceil(xs * xs / (6.0 * tol))[keep]


class TestPsiKernels:
    def test_orbit_batch_matches_single_points(self):
        # one _psi_vec call over an orbit with H's per-term tolerances, as
        # _h_with_err makes it, against one call per point
        alphas, betas, _, _ = orbit_arrays(0.2137996805918318, 40)
        j = np.arange(len(alphas))
        tols = np.clip(1e-5 / (8.0 * (j + 1.0) * (j + 2.0) * betas[:-1]), 1e-12, 1e-4)
        psi, err = sf._psi_vec(alphas, tols)
        for a, t, v, e in zip(alphas, tols, psi, err):
            (v1,), _ = sf._psi_vec(a, t)
            assert abs(v - v1) <= e

    def test_j_sums_match_fsum(self):
        # one grid longer than a block, between many short ones, so blocks
        # split both it and its neighbours
        rng = np.random.default_rng(7)
        T = 1.0 + rng.uniform(0.0, 80.0, 301)
        nj = rng.integers(1, 50, 301)
        nj[150] = sf._J_BLOCK + 12_345
        got = sf._j_sums(T, nj)
        for t, n, g in zip(T, nj, got):
            ref = math.fsum(sf.g_tail_integral(np.arange(1, n + 1) * t))
            assert abs(g - ref) <= 5e-16 * n

    def test_long_phi2_sum_works_in_small_buffers(self):
        # one 10^6-term sum takes column chunks of _ROW_BLOCK terms, so its
        # four work arrays stay near 1 MB instead of 4 * 10^6 doubles
        tracemalloc.start()
        try:
            sf._phi2_sums(np.array([0.3711]), np.array([1_000_000]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 8 * sf._ROW_BLOCK

    def test_route_skips_search_below_min_terms(self):
        # 1/3 snaps to (1, 3) for a long series, never for a short one
        snap, n, err = sf._phi2_route(1.0 / 3.0, 1.0 / (6.0 * 2000))
        assert snap is None and n < sf._SNAP_MIN_TERMS and err == 1.0 / (6.0 * n)
        snap, n, _ = sf._phi2_route(1.0 / 3.0, 1e-8)
        assert snap == (1, 3) and n >= sf._SNAP_MIN_TERMS


def _phi2_stress_set() -> list[float]:
    """Uniform fractions; p/q + d with q <= 40 and |d| log-uniform in
    [1e-12, 1e-3]; short dyadics, whose exact continued fractions end early."""
    rng = np.random.default_rng(5)
    q = rng.integers(2, 41, 60)
    near = rng.integers(1, q) / q + rng.choice([-1.0, 1.0], 60) * 10.0 ** rng.uniform(-12, -3, 60)
    dyadic = rng.integers(1, 1 << 10, 20) / 1024.0
    return [float(x) for x in np.concatenate([rng.uniform(0.0, 1.0, 40), near, dyadic])]


def _on_tail_grid(fs) -> np.ndarray:
    """The fractions of the 2^-52 grid nearest to fs, as `_psi_vec`'s rows
    have them, leaving out 0 and 1."""
    m = np.round(np.ldexp(np.asarray(fs), 52))
    return np.ldexp(m[(m > 0.0) & (m < 2.0**52)], -52)


class TestPhi2TailBound:
    def test_route_error_is_honest(self):
        # the route's value (its N-term sum, or the closed form where it snaps)
        # against a 2^23-term sum, whose own tail is at most 1/(6 2^23)
        fr = np.array(_phi2_stress_set())
        ref = sf._phi2_sums(fr, np.full(fr.size, float(1 << 23)))
        misses = 0
        for f, r in zip(fr, ref):
            for tol in (1e-4, 1e-5, 1e-6):
                snap, n, err = sf._phi2_route(float(f), tol)
                if snap is None:
                    (val,) = sf._phi2_sums(np.array([f]), np.array([float(n)]))
                else:
                    val = sf._phi2_rational(*snap)
                misses += abs(val - r) > err + 1.0 / (6 << 23)
        assert misses == 0

    def test_block_and_partial_sums_stay_within_their_bounds(self):
        # the two steps under `_phi2_route`'s bound, for M up to 2^16: the terms
        # c+1..c+q_k sum to at most beta_k = c_k q_k/2, and P(M) = sum_{n<=M}
        # B2(n frac) is at most C(M) = sum_{q_k<=M} beta_k min(a_{k+1}, M/q_k).
        # A short dyadic's period meets beta_k, so half of it fails there, and
        # the blocks of a uniform fraction need beta_k's d_k part
        M = np.arange(1, (1 << 16) + 1, dtype=np.float64)
        for f in _phi2_stress_set():
            P = np.concatenate(([0.0], np.cumsum(sf.bernoulli2(M * f))))
            n = f.as_integer_ratio()[1]
            cf = list(cf_dynamics.exact_cf(f))
            C = np.zeros(M.size)
            for (_, r, _, q), (a, *_) in zip(cf, cf[1:] + [(math.inf,)]):
                if q > M.size:
                    break
                beta = sf._phi2_weight(q, r, n) * q / 2.0
                if 2 * q <= M.size:
                    assert np.max(np.abs(P[q:] - P[:-q])) <= beta + 1e-9
                C += np.where(M >= q, beta * np.minimum(a, M / q), 0.0)
            assert np.all(np.abs(P[1:]) <= C + 1e-9)

    def test_route_contract(self):
        # never more terms than ceil(1/(6 tol)), the full count; a snap only
        # where q//2 <= N; an error within tol wherever 1/(6 ceil(1/(6 tol)))
        # was, and never above it
        for f in _phi2_stress_set() + [GOLDEN, 1.0 / 3.0, 1.0 / math.pi, 1e-300, 1.0 - 2**-53]:
            for tol in (1e-5, 1e-6, 1e-8, 1e-10, 1e-12):
                n_max = max(1, math.ceil(min(1.0 / (6.0 * tol), sf._PHI2_MAX_TERMS)))
                snap, n, err = sf._phi2_route(f, tol)
                assert 1 <= n <= n_max
                assert snap is None or snap[1] // 2 <= n
                assert err <= max(tol, 1.0 / (6.0 * n_max))

    def test_array_form_error_is_honest(self):
        # `_phi2_tail` on the stress set moved to the 2^-52 grid, its N-term sums
        # against 2^22-term sums, whose own tail is at most 1/(6 2^22)
        fr = _on_tail_grid(_phi2_stress_set())
        ref = sf._phi2_sums(fr, np.full(fr.size, float(1 << 22)))
        for tol in (1e-4, 1e-5, 1e-6):
            n, err = sf._phi2_tail(fr, np.full(fr.size, tol))
            assert (np.abs(sf._phi2_sums(fr, n) - ref) <= err + 1.0 / (6 << 22)).all(), tol

    def test_array_form_contract(self):
        # `test_route_contract` on `_phi2_tail`, which refuses fractions off the grid
        fr = _on_tail_grid(_phi2_stress_set() + [GOLDEN, 1.0 / 3.0, 1.0 / math.pi, 2**-52, 1 - 2**-52])
        for tol in (1e-4, 1e-5, 1e-6, 1e-8):
            n_max = max(1, math.ceil(1.0 / (6.0 * tol)))
            n, err = sf._phi2_tail(fr, np.full(fr.size, tol))
            assert (n >= 1).all() and (n <= n_max).all()
            assert (err <= max(tol, 1.0 / (6.0 * n_max))).all()
        for off in (0.1, 2**-53, 0.0):
            with pytest.raises(ValueError, match="grid"):
                sf._phi2_tail(np.array([0.5, off]), np.full(2, 1e-4))

    def test_array_form_matches_scalar_route_on_table_nodes(self, monkeypatch):
        # on 2000 seeded F-table nodes that walk (256 terms or more at the
        # table's psi tolerance, 2048 or more for about half of them), against
        # the scalar route with its 2048-term floor removed: never fewer terms,
        # the same count almost everywhere (the array form inflates c_k), and
        # an error within the tolerance
        tab = sf._ftable()
        xs = tab.xs
        h = (1.0 - tab.xmin) / (xs.size - 1)
        psi_tol = sf._F_BUDGET - sf.a1_constant()[1] - sf._interp_error(h)
        T = 1.0 / xs
        fr, tol, nn = T - np.floor(T), psi_tol / (xs * xs), np.ceil(xs * xs / (6.0 * psi_tol))
        walks = np.flatnonzero((fr > 0.0) & (nn >= sf._TAIL_MIN_TERMS))
        rows = np.random.default_rng(28).choice(walks, 2000, replace=False)
        assert (nn[rows] >= sf._SNAP_MIN_TERMS).sum() >= 800
        n, err = sf._phi2_tail(fr[rows], tol[rows])
        monkeypatch.setattr(sf, "_SNAP_MIN_TERMS", 0)
        scalar = np.array([sf._phi2_route(float(fr[i]), float(tol[i]))[1] for i in rows])
        assert (n >= scalar).all()
        assert np.mean(n == scalar) >= 0.99
        assert (err <= tol[rows]).all()

    def test_big_call_walks_long_rows_within_the_walk_domain(self):
        # in a call of _TAIL_VEC_ROWS rows, rows of 2048 terms or more at tol
        # >= _TAIL_MIN_TOL stop at `_phi2_tail`'s count without a snap; those
        # below it keep `_phi2_route`'s path and a scalar call's bits
        fr = _on_tail_grid(np.random.default_rng(32).uniform(0.0, 1.0, sf._TAIL_VEC_ROWS))
        fr[:4] = _on_tail_grid([1.0 / 3.0 + 1e-13, 0.3, GOLDEN, 1.0 / math.pi])
        tol = np.full(fr.size, 1e-5)
        tol[:4] = 5e-9
        nn = np.ceil(np.minimum(1.0 / (6.0 * tol), sf._PHI2_MAX_TERMS))
        assert fr.size == sf._TAIL_VEC_ROWS and (nn >= sf._SNAP_MIN_TERMS).all()
        phi, err, snapped = sf._phi2_vec(fr, nn, tol)
        n, walk_err = sf._phi2_tail(fr[4:], tol[4:])
        assert np.array_equal(nn[4:], n) and np.array_equal(err[4:], walk_err)
        assert np.array_equal(phi[4:], sf._phi2_sums(fr[4:], n)) and not snapped[4:].any()
        assert snapped[:4].any()
        for i in range(4):
            assert (phi[i], err[i], snapped[i]) == sf._phi2_core(float(fr[i]), float(tol[i]))

    def test_route_edges(self):
        # tol >= 1/6 takes one term, frac = 0 is pi^2/36 exactly
        assert sf._phi2_route(0.3, 0.2) == (None, 1, 1.0 / 6.0)
        assert sf._phi2_core(0.0, 1e-8) == (sf.PI2_OVER_36, 0.0, True)
        assert sf._phi2_core(7.0, 1e-12) == (sf.PI2_OVER_36, 0.0, True)


# g_func (abs_tol 1e-5) on pairs (x, 1 - x), x = 2^U - 1 with U stratified
# over ten strata (jitter seed 11), and its (value, est_error) pinned from
# the Phi2 route that stops each direct sum at its continued-fraction tail
# bound and sums each row to its own count on the 1.25 grid
_PINNED_G = [
    (3.467650109461142, 4.901805493876275e-06),
    (-3.4676501253058323, 5.510806640249177e-06),
    (0.9602853663023374, 7.275263937769392e-06),
    (-0.9602853496082938, 7.851425200855965e-06),
    (0.23561893673479228, 1.1851926569965868e-05),
    (-0.23561891412890507, 1.2011731127490712e-05),
    (0.36724834192466993, 1.6195864639420015e-05),
    (-0.36724834845337745, 1.6253440203664676e-05),
    (-1.444157678970496, 1.6204638332019807e-05),
    (1.4441575757207257, 1.637057924030533e-05),
    (1.0374574664823235, 4.355164933884448e-06),
    (-1.0374574237070462, 4.1483073532761756e-06),
    (0.5814240731959448, 2.313187076001362e-06),
    (-0.5814240839878699, 2.169316300161477e-06),
    (-0.24664206680501233, 2.4333373812324348e-06),
    (0.24664205963138253, 2.4190603632207933e-06),
    (-0.6758656344731149, 1.533700329733313e-05),
    (0.6758656292164712, 1.4711589549596633e-05),
    (-1.7747058147088532, 1.9556106690525034e-05),
    (1.7747058381189524, 1.9451378199589685e-05),
]
# the same, pinned from the code that summed each bucket of term counts
# within a factor 2 to its largest count
_PINNED_G_BUCKET_SUMS = [
    (3.4676501229418992, 4.901805493876275e-06),
    (-3.4676501396234665, 5.510806640249177e-06),
    (0.9602853654950829, 7.275263937769392e-06),
    (-0.9602853366189423, 7.851425200855965e-06),
    (0.2356189349624307, 1.1851926569965868e-05),
    (-0.23561892644012467, 1.2011731127490712e-05),
    (0.36724833966244497, 1.6195864639420015e-05),
    (-0.36724834669762574, 1.6253440203664676e-05),
    (-1.4441576788207868, 1.6204638332019807e-05),
    (1.444157575518799, 1.637057924030533e-05),
    (1.037457464225338, 4.355164933884448e-06),
    (-1.0374574216117014, 4.1483073532761756e-06),
    (0.5814240902563093, 2.313187076001362e-06),
    (-0.581424099073362, 2.169316300161477e-06),
    (-0.2466420644474847, 2.4333373812324348e-06),
    (0.24664206810859568, 2.4190603632207933e-06),
    (-0.6758656360746355, 1.533700329733313e-05),
    (0.675865629283954, 1.4711589549596633e-05),
    (-1.7747057986179697, 1.9556106690525034e-05),
    (1.7747058312076878, 1.9451378199589685e-05),
]
# the same, pinned from the serial F/H code that summed every direct Phi2 sum
# of 2048 terms or more to ceil(1/(6 tol)) terms
_PINNED_G_FULL_SUMS = [
    (3.4676501229418992, 4.901805493876275e-06),
    (-3.467650119735741, 4.914962944488609e-06),
    (0.960285365219137, 7.248312187904251e-06),
    (-0.9602853400259319, 7.169171009480463e-06),
    (0.2356189344111197, 1.1851945196785414e-05),
    (-0.2356189191310107, 1.2012003036007954e-05),
    (0.3672483406162629, 1.6046189060623177e-05),
    (-0.3672483457730339, 1.6132120223862862e-05),
    (-1.4441576788207868, 1.6204638332019807e-05),
    (1.444157575518799, 1.637057924030533e-05),
    (1.0374574644959684, 4.14747357405964e-06),
    (-1.0374574216117014, 4.1483073532761756e-06),
    (0.5814240726400248, 1.5412939203080135e-06),
    (-0.5814240906148948, 1.6052141970965978e-06),
    (-0.24664206588078338, 1.5192559227783957e-06),
    (0.24664206229905838, 1.5103856798521554e-06),
    (-0.6758656391432387, 1.527662362097841e-05),
    (0.6758656273010576, 1.4616188870335774e-05),
    (-1.7747057988351016, 1.8936772830671647e-05),
    (1.7747058348356093, 1.9452082108344832e-05),
]


def _pinned_points() -> list[float]:
    rng = np.random.default_rng(11)
    u = (np.arange(10) + rng.uniform(1e-9, 1.0 - 1e-9, 10)) / 10
    return [p for x in np.exp2(u) - 1.0 for p in (float(x), 1.0 - float(x))]


def test_g_func_matches_pinned_values():
    cfg = ToleranceConfig(abs_tol=1e-5)
    gs = [sf.g_func(x, cfg=cfg) for x in _pinned_points()]
    got = [(g.value, float(g.est_error)) for g in gs]
    assert got == _PINNED_G
    # the shorter sums, and the rows' own counts, move g by less than the
    # two error bounds together
    for old in (_PINNED_G_BUCKET_SUMS, _PINNED_G_FULL_SUMS):
        for (v, e), (v0, e0) in zip(got, old):
            assert abs(v - v0) <= e + e0


# W (value, terms_used, tail_bound) at abs_tol 1e-5 on the points above,
# pinned from the code that walked 200-step orbit arrays; H (value, err)
# pinned with _PINNED_G, and from the code of each of its two older lists
_PINNED_W = [
    (4.718972437420512, 11, 1.2690388640886257e-06),
    (-4.658853855781007, 12, 1.2682571676462962e-06),
    (1.992413310955043, 13, 1.7053007553342037e-06),
    (-1.5309275959186994, 14, 1.705463222260106e-06),
    (1.0586123067749762, 8, 2.7170772849216866e-06),
    (-0.3413988494141016, 9, 2.7173979526639504e-06),
    (1.2207947031425361, 9, 6.6676423888141235e-06),
    (-0.41116614387137357, 10, 6.667663508729259e-06),
    (-0.964683999733239, 8, 7.950140105636233e-06),
    (2.006166891977662, 9, 7.951122252307782e-06),
    (2.2633960594454012, 6, 8.559391637919611e-07),
    (-0.8934892439635869, 5, 8.558264786381044e-07),
    (1.6833081636734106, 12, 6.16050375915189e-08),
    (-0.3433123765529821, 11, 5.706937390699601e-08),
    (-0.05942971504462725, 17, 4.640403722447874e-08),
    (1.1608798793812922, 16, 4.5734409356686017e-08),
    (-1.0635619884920824, 10, 6.041739728967016e-06),
    (1.621150502839048, 9, 6.0727797097371225e-06),
    (-2.6999400352738343, 10, 7.583156152183419e-06),
    (2.9566621887353297, 9, 7.583544502029488e-06),
]
_PINNED_H = [
    (-1.2513223279593704, 3.6327666297876493e-06),
    (1.1912037304751741, 4.242549472602881e-06),
    (-1.0321279446527056, 5.569963182435188e-06),
    (0.5706422463104056, 6.145961978595858e-06),
    (-0.8229933700401839, 9.134849285044181e-06),
    (0.10577993528519654, 9.294333174826762e-06),
    (-0.8535463612178662, 9.528222250605893e-06),
    (0.04391779541799613, 9.585776694935417e-06),
    (-0.47947367923725703, 8.254498226383572e-06),
    (-0.5620093162569362, 8.419456987997547e-06),
    (-1.2259385929630777, 3.4992257700924867e-06),
    (-0.14396817974345927, 3.292480874638071e-06),
    (-1.1018840904774658, 2.251582038409843e-06),
    (-0.2381117074348878, 2.112246926254481e-06),
    (-0.1872123517603851, 2.386933344007956e-06),
    (-0.9142378197499097, 2.3733259538641072e-06),
    (0.3876963540189675, 9.295263568366114e-06),
    (-0.9452848736225768, 8.63880983985951e-06),
    (0.925234220564981, 1.1972950538341615e-05),
    (-1.1819563506163773, 1.1867833697560196e-05),
]
_PINNED_H_BUCKET_SUMS = [
    (-1.2513223144786128, 3.6327666297876493e-06),
    (1.1912037161575402, 4.242549472602881e-06),
    (-1.0321279454599601, 5.569963182435188e-06),
    (0.5706422592997571, 6.145961978595858e-06),
    (-0.8229933718125455, 9.134849285044181e-06),
    (0.10577992297397694, 9.294333174826762e-06),
    (-0.8535463634800912, 9.528222250605893e-06),
    (0.0439177971737478, 9.585776694935417e-06),
    (-0.47947367908754784, 8.254498226383572e-06),
    (-0.5620093164588629, 8.419456987997547e-06),
    (-1.2259385952200632, 3.4992257700924867e-06),
    (-0.14396817764811445, 3.292480874638071e-06),
    (-1.1018840734171014, 2.251582038409843e-06),
    (-0.2381117225203799, 2.112246926254481e-06),
    (-0.18721234940285747, 2.386933344007956e-06),
    (-0.9142378112726965, 2.3733259538641072e-06),
    (0.38769635241744693, 9.295263568366114e-06),
    (-0.945284873555094, 8.63880983985951e-06),
    (0.9252342366558646, 1.1972950538341615e-05),
    (-1.181956357527642, 1.1867833697560196e-05),
]
_PINNED_H_FULL_SUMS = [
    (-1.2513223144786128, 3.6327666297876493e-06),
    (1.1912037360452656, 3.646705776842313e-06),
    (-1.032127945735906, 5.543011432570047e-06),
    (0.5706422558927675, 5.463707787220357e-06),
    (-0.8229933723638565, 9.134867911863727e-06),
    (0.10577993028309088, 9.294605083344004e-06),
    (-0.8535463625262733, 9.378546671809052e-06),
    (0.043917798098339705, 9.464456715133604e-06),
    (-0.47947367908754784, 8.254498226383572e-06),
    (-0.5620093164588629, 8.419456987997547e-06),
    (-1.2259385949494328, 3.291534410267679e-06),
    (-0.14396817764811445, 3.292480874638071e-06),
    (-1.1018840910333858, 1.4796888827164947e-06),
    (-0.23811171406191264, 1.5481448231896019e-06),
    (-0.18721235083615614, 1.472851885553917e-06),
    (-0.9142378170822338, 1.4646512704954694e-06),
    (0.3876963493488437, 9.234883892011392e-06),
    (-0.9452848755379905, 8.543409160598651e-06),
    (0.9252342364387326, 1.1353616678488227e-05),
    (-1.1819563538997204, 1.1868537606315343e-05),
]


def test_w_and_h_match_pinned_values():
    cfg = ToleranceConfig(abs_tol=1e-5)
    pts = _pinned_points()
    ws = [wilton(x, cfg) for x in pts]
    assert [(w.value, w.terms_used, w.tail_bound) for w in ws] == _PINNED_W
    hs = [tuple(map(float, sf._h_with_err(x, 1e-5))) for x in pts]
    assert hs == _PINNED_H
    for old in (_PINNED_H_BUCKET_SUMS, _PINNED_H_FULL_SUMS):
        for (v, e), (v0, e0) in zip(hs, old):
            assert abs(v - v0) <= e + e0


def _counting_orbit(pulled: list[int]):
    def orbit(x):
        pulled.append(0)
        for step in cf_dynamics.orbit(x):
            pulled[-1] += 1
            yield step

    return orbit


def test_series_pull_only_the_steps_their_rules_need(monkeypatch):
    pulled: list[int] = []
    monkeypatch.setattr(wilton_module, "orbit", _counting_orbit(pulled))
    monkeypatch.setattr(sf, "orbit", _counting_orbit(pulled))
    cfg = ToleranceConfig(abs_tol=1e-5)
    for x in _pinned_points() + [float(x) for x in sample_gauss_measure(30, 5)]:
        for tol in (1e-10, 1e-5):
            pulled.clear()
            w = wilton(x, ToleranceConfig(abs_tol=tol))
            assert pulled == [w.terms_used + 2]
        # H stops at the first m with 2 beta_{m-1} sup|F| < tol/2, m + 1 steps in
        betas = orbit_arrays(x, 200)[1]
        m = int(np.flatnonzero(2.0 * betas * sf.sup_f_bound() < 0.5e-5)[0])
        pulled.clear()
        sf._h_with_err(x, 1e-5)
        assert pulled == [m + 1]
        pulled.clear()
        sf.g_func(x, cfg=cfg)
        assert pulled == [w.terms_used + 2, m + 1]


class TestTinyX:
    """Below about 2e-12 the float orbit can end on RATIONAL_GUARD or on an
    overflowing 1/x; the series then end with their tail bounds."""

    _RNG = np.random.default_rng(3)
    POINTS = [
        *_RNG.uniform(1e-13, 2e-13, 400).tolist(),
        *_RNG.uniform(1e-12, 2e-12, 400).tolist(),
        1e-13,
        1e-12,
    ]

    def test_finite_w_h_and_g(self):
        for x in self.POINTS:
            w = wilton(x)
            h = sf._h_with_err(x, CFG.abs_tol)
            g = sf.g_func(x)
            assert all(map(math.isfinite, (w.value, w.tail_bound, *h, g.value, g.est_error))), x
            assert abs(g.value - math.log(1.0 / x) + A1) <= g.est_error + 1e-9

    @pytest.mark.parametrize("x,value,terms,tail", [
        (5e-324, 744.4400719213812, 1, 1.1368683772161603e-13),
        (1e-310, 713.8013788281542, 1, 1.1368683772161603e-13),
        (1e-300, 690.7755278982137, 1, 1.1368683772161603e-13),
        (1e-16, 36.841361487904734, 1, 7.9105427357601e-14),
    ])
    def test_ended_orbit_keeps_small_x_w(self, x, value, terms, tail):
        # pinned from the former small-x branch: log(1/x) within 720 x + ulp
        w = wilton(x)
        assert (w.value, w.terms_used, w.tail_bound) == (value, terms, tail)

    @pytest.mark.parametrize("x", [0.3, 0.7, 0.375, 0.5])
    def test_rationals_still_raise(self, x):
        for evaluate in (wilton, lambda y: sf._h_with_err(y, 1e-8), sf.g_func):
            with pytest.raises(EffectiveRationalError):
                evaluate(x)


class TestAntisymmetryRegression:
    def test_rounding_dominated_pair(self):
        # |g(x) + g(1-x)| = 4.2e-6 came from float-orbit rounding in W,
        # which the reported errors now cover
        x = 0.10273499927357221
        cfg = ToleranceConfig(abs_tol=1e-5)
        a = sf.g_func(x, "wilton_plus_H", cfg)
        b = sf.g_func(1.0 - x, "wilton_plus_H", cfg)
        assert abs(a.value + b.value) > 1e-6
        assert abs(a.value + b.value) <= a.est_error + b.est_error
