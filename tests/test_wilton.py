import math

import numpy as np
import pytest

from wiltonmoments.cf_dynamics import (
    MAX_TERMS,
    EffectiveRationalError,
    ToleranceConfig,
    gauss_map,
    orbit_arrays,
    sample_gauss_measure,
)
from wiltonmoments.wilton import (
    apply_T,
    ell,
    iterate_l2_means,
    partial_sums,
    wilton,
    wilton_batch,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SQRT2M1 = math.sqrt(2.0) - 1.0
CFG = ToleranceConfig(abs_tol=1e-10)


class TestEll:
    def test_log_identity(self):
        assert ell(1.0 / math.e) == pytest.approx(1.0, abs=1e-15)

    def test_golden(self):
        assert ell(GOLDEN) == pytest.approx(0.4812118250596035, abs=1e-12)

    def test_decreasing_to_zero(self):
        assert 0.0 < ell(1.0 - 1e-9) < 2e-9

    @pytest.mark.parametrize("bad", [0.0, 1.0, -1.0])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            ell(bad)


class TestApplyT:
    def test_identity_iterate(self):
        f = lambda y: y * y + 1.0
        assert apply_T(f, 0.3, 0) == f(0.3)

    def test_one_step_golden(self):
        # at the fixed point, T l = x log(1/x)
        assert apply_T(ell, GOLDEN, 1) == pytest.approx(
            GOLDEN * (-math.log(GOLDEN)), abs=1e-12
        )

    def test_one_step_sqrt2(self):
        expect = SQRT2M1 * math.log(math.sqrt(2.0) + 1.0)
        assert apply_T(ell, SQRT2M1, 1) == pytest.approx(expect, abs=1e-10)

    def test_beta_product_formula(self):
        # T^n l equals gamma_n from the orbit
        x = 1.0 / math.pi
        ps = partial_sums(x, 6)
        total = sum((-1.0) ** v * apply_T(ell, x, v) for v in range(7))
        assert ps.L_value == pytest.approx(total, abs=1e-13)

    def test_rational_orbit_signal(self):
        with pytest.raises(EffectiveRationalError):
            apply_T(ell, 0.5, 2)


class TestWilton:
    def test_golden_closed_form(self):
        # fixed point: W = log(1/x)/(1+x); double orbits shadow the point
        # to a few ulps, so agreement saturates near sqrt(ulp)
        w = wilton(GOLDEN, CFG)
        expect = -math.log(GOLDEN) / (1.0 + GOLDEN)
        assert w.value == pytest.approx(expect, abs=5e-8)

    def test_sqrt2_closed_form(self):
        w = wilton(SQRT2M1, CFG)
        expect = math.log(math.sqrt(2.0) + 1.0) / math.sqrt(2.0)
        assert w.value == pytest.approx(expect, abs=5e-8)

    def test_functional_equation_sampled(self):
        xs = sample_gauss_measure(300, 21)
        for x in xs:
            x = float(x)
            lhs = wilton(x, CFG).value
            rhs = ell(x) - x * wilton(gauss_map(x), CFG).value
            assert abs(lhs - rhs) < 1e-9

    def test_terms_within_budget(self):
        w = wilton(1.0 / math.pi, CFG)
        assert 0 < w.terms_used <= MAX_TERMS
        assert w.tail_bound >= 0.0

    def test_rational_flag(self):
        with pytest.raises(EffectiveRationalError):
            wilton(0.375, CFG)

    @pytest.mark.parametrize("x", [1e-16, 1e-40, 1e-300])
    def test_below_guard_keeps_first_term(self, x):
        # W(x) = log(1/x) - x W(alpha(x)); x stays iterate 0 under the guard
        w = wilton(x, CFG)
        assert abs(w.value - math.log(1.0 / x)) <= w.tail_bound <= 1e-10

    def test_alternating_enclosure(self):
        # consecutive partial sums bracket the limit once the terms decay;
        # quotient spikes break monotonicity (1/pi has them), so the bracket
        # is asserted where the terms demonstrably decrease: the golden
        # point, whose gamma_k fall like g^k
        x = GOLDEN
        tight = ToleranceConfig(abs_tol=1e-12)
        deep = wilton(x, tight).value
        _, _, gammas, _ = orbit_arrays(x, 30)
        assert (np.diff(gammas) < 0).all()
        for m in range(4, 24):
            lo = partial_sums(x, m).L_value
            hi = partial_sums(x, m + 1).L_value
            lo, hi = min(lo, hi), max(lo, hi)
            assert lo - 1e-10 <= deep <= hi + 1e-10


def _wilton_mp(x: float) -> float:
    """W at the double x, orbit and sum in 60-digit arithmetic.

    A double is rational, where W has a log singularity; the 60-digit orbit
    stands for a point within about 1e-60 of x.  Moving x by 1e-45 changes
    the result by under 1e-12, far below the float errors tested here.
    """
    import mpmath

    with mpmath.workdps(60):
        a, beta, total, sign = mpmath.mpf(x), mpmath.mpf(1), mpmath.mpf(0), 1
        for _ in range(80):
            term = beta * mpmath.log(1 / a)
            total += sign * term
            if term < 1e-25:
                break
            beta *= a
            a = 1 / a - mpmath.floor(1 / a)
            sign = -sign
        return float(total)


class TestWiltonErrorBound:
    def test_covers_60_digit_value(self):
        # at abs_tol 1e-10 the float-orbit rounding, not truncation, is the
        # error: the truncation part alone misses on nearly every point.
        # The rounding part is first order, so a rare point whose float
        # orbit leaves the true orbit's branch may still miss.
        xs = [float(x) for x in sample_gauss_measure(400, 4242)]
        misses = trunc_misses = 0
        for x in xs:
            w = wilton(x, CFG)
            err = abs(w.value - _wilton_mp(x))
            _, _, g, _ = orbit_arrays(x, MAX_TERMS)
            trunc_misses += err > g[w.terms_used] + g[w.terms_used + 1]
            misses += err > w.tail_bound
        assert trunc_misses > 0.9 * len(xs)
        assert misses <= 0.01 * len(xs)


class TestPartialSums:
    def test_n0(self):
        x = 0.377
        ps = partial_sums(x, 0)
        assert ps.L_value == ell(x)
        assert ps.D_value == 0.0

    def test_n1_golden(self):
        ps = partial_sums(GOLDEN, 1)
        assert ps.L_value == pytest.approx(-math.log(GOLDEN) * (1 - GOLDEN), abs=1e-9)
        assert ps.D_value == pytest.approx(GOLDEN * math.log(GOLDEN), abs=1e-9)

    def test_d_is_l_minus_ell(self):
        x = 1.0 / math.sqrt(3.0)
        ps = partial_sums(x, 7)
        assert ps.D_value == ps.L_value - ell(x)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 10])
    def test_remainder_identity(self, n):
        # W - L(., n) = (-1)^{n+1} T^{n+1} W
        x = 0.2137996805918318
        lhs = wilton(x, CFG).value - partial_sums(x, n).L_value
        rhs = (-1.0) ** (n + 1) * apply_T(lambda y: wilton(y, CFG).value, x, n + 1)
        assert lhs == pytest.approx(rhs, abs=5e-9)


class TestWiltonBatch:
    def test_matches_scalar(self):
        xs = sample_gauss_measure(500, 33)
        vals, tails, terms, ok = wilton_batch(xs, CFG)
        assert ok.all()
        for i in (0, 17, 123, 499):
            w = wilton(float(xs[i]), CFG)
            assert vals[i] == pytest.approx(w.value, abs=1e-13)
            assert terms[i] == w.terms_used

    def test_functional_equation_vectorized(self):
        xs = sample_gauss_measure(5000, 8)
        wx, _, _, ok1 = wilton_batch(xs, CFG)
        ax = 1.0 / xs
        ax -= np.floor(ax)
        wax, _, _, ok2 = wilton_batch(ax, CFG)
        use = ok1 & ok2
        assert use.mean() > 0.999
        resid = np.abs(wx[use] + np.log(xs[use]) + xs[use] * wax[use])
        assert resid.max() < 1e-9

    # float orbits that end on RATIONAL_GUARD before wilton's rule holds: at
    # 1e-12 {1/x} < 1e-15, and the float {1/x} of 1/(2^30 + 7/8) is exactly 7/8
    @pytest.mark.parametrize("x", [1e-12, 1.029652039890502e-12, 1.0 / (2**30 + 0.875)])
    def test_guard_ended_orbit_ends_as_in_wilton(self, x):
        _, betas, _, truncated = orbit_arrays(x, 10)
        assert truncated
        vals, tails, terms, ok = wilton_batch(np.array([x]), CFG)
        w = wilton(x, CFG)
        assert ok[0] and terms[0] == w.terms_used
        assert vals[0] == pytest.approx(w.value, abs=1e-13)
        # wilton's truncation part, 720 beta_{j-1} + ulp, without its rounding part
        assert tails[0] == pytest.approx(720.0 * betas[-1] + math.ulp(w.value), rel=1e-12)

    def test_not_ok_entries_hold_zero(self):
        xs = np.array([0.375, 0.5, 1e-16, 1.0, GOLDEN])
        vals, tails, terms, ok = wilton_batch(xs, CFG)
        assert ok.tolist() == [False, False, False, False, True]
        assert (vals[:4] == 0.0).all() and (tails[:4] == 0.0).all()
        assert vals[4] == wilton(GOLDEN, CFG).value

    @pytest.mark.parametrize("xs", [0.3, np.array([[0.3, 0.4], [0.2, 0.1]])])
    def test_non_1d_input_is_value_error(self, xs):
        with pytest.raises(ValueError, match="1-D"):
            wilton_batch(xs, CFG)


class TestContraction:
    def test_l2_decay_ratios(self):
        xs = sample_gauss_measure(30_000, 17)
        means = iterate_l2_means(xs, 9)
        bound = ((math.sqrt(5.0) - 1.0) / 2.0) ** 2 + 0.05
        ratios = means[3:] / means[2:-1]
        assert (ratios <= bound).all()

    def test_rational_points_leave_the_means(self):
        xs = sample_gauss_measure(30_000, 17)
        means = iterate_l2_means(xs, 9)
        assert iterate_l2_means(np.append(xs, [0.3, 0.7]), 9).tobytes() == means.tobytes()

    @pytest.mark.parametrize("xs", [[0.3, 0.7, 0.5], [0.5], [0.0, 1.0]])
    def test_sample_with_no_surviving_point_is_refused(self, xs):
        with pytest.raises(ValueError, match="n_max = 9"):
            iterate_l2_means(np.array(xs), 9)

