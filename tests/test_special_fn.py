import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiltonmoments import special_fn as sf
from wiltonmoments.cf_dynamics import ToleranceConfig, orbit_arrays, sample_gauss_measure
from wiltonmoments.wilton import wilton

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
            v1, e1 = sf._phi2_core(base + delta, 1e-12)
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
        pval, perr = sf._phi2_core(1.0 / lam, tol / (lam * lam))
        nj, _ = sf._j_terms(np.array([lam]), tol)
        (jval,) = sf._j_sums(np.array([1.0 / lam]), nj)
        assert pval == sf.PI2_OVER_36 and perr == 0.0
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
        sc = np.array(
            [sf.g_func(float(x), "wilton_plus_H", CFG6).value for x in xs]
        )
        assert (np.abs(vals - sc) <= errs + 2e-6).all()


def _phi2_sums_outer(fr, nn):
    """sf._phi2_sums with each column chunk as one plain np.outer product."""
    order = np.argsort(nn, kind="stable")
    fr_s, nn_s = fr[order], nn[order]
    res = np.zeros_like(fr_s)
    start = 0
    while start < len(fr_s):
        stop = max(int(np.searchsorted(nn_s, 2 * int(nn_s[start]), side="right")), start + 1)
        pts = fr_s[start:stop]
        n_use = int(nn_s[stop - 1])
        n_arr = np.arange(1, n_use + 1, dtype=np.float64)
        step = max(1, min(int(4e6 / len(pts)), sf._ROW_BLOCK))
        for c0 in range(0, n_use, step):
            nb = n_arr[c0 : c0 + step]
            t = np.outer(pts, nb)
            f = t - np.floor(t)
            res[start:stop] += ((f * f - f + 1.0 / 6.0) / (nb * nb)).sum(axis=1)
        start = stop
    out = np.zeros_like(fr_s)
    out[order] = res
    return out


class TestFTable:
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

    @pytest.mark.parametrize("tol", [1e-4, 1e-6])
    def test_blocked_psi_matches_outer_reference(self, tol):
        # the Phi2 kernel on the term counts _psi_vec gives it: at 1e-6 the
        # largest buckets need many column chunks; at both tolerances each
        # chunk spans many row blocks
        xs = np.linspace(1e-3, 1.0, 4097)
        T = 1.0 / xs
        fr = (T - np.floor(T))[T != np.floor(T)]
        nn = np.ceil(xs * xs / (6.0 * tol))[T != np.floor(T)]
        assert np.array_equal(sf._phi2_sums(fr, nn), _phi2_sums_outer(fr, nn))


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
