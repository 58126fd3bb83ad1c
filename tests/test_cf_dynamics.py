import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiltonmoments.cf_dynamics import (
    EffectiveRationalError,
    Interval,
    ToleranceConfig,
    cf_expand,
    gauss_map,
    gauss_measure,
    gauss_measure_cdf,
    orbit_arrays,
    sample_gauss_measure,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SQRT2M1 = math.sqrt(2.0) - 1.0


class TestGaussMap:
    def test_golden_fixed_point(self):
        assert abs(gauss_map(GOLDEN) - GOLDEN) <= 4 * math.ulp(GOLDEN)

    def test_sqrt2_fixed_point(self):
        # the surd's representation error is amplified by |alpha'| = 1/x^2,
        # so the achievable bound is ~(1 + 1/x^2) ulps, not 4
        assert abs(gauss_map(SQRT2M1) - SQRT2M1) <= 16 * math.ulp(SQRT2M1)

    def test_one_over_pi(self):
        # 1/(1/pi) = pi, fractional part pi - 3
        assert gauss_map(1.0 / math.pi) == pytest.approx(math.pi - 3.0, abs=1e-15)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.7])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            gauss_map(bad)

    def test_guard_signal(self):
        # 1/2 maps to an exact zero, below any positive guard
        with pytest.raises(EffectiveRationalError):
            gauss_map(0.5, guard=1e-15)


class TestCFExpand:
    def test_golden_quotients_and_convergents(self):
        exp = cf_expand(GOLDEN, 4)
        assert exp.partial_quotients == [1, 1, 1, 1]
        assert exp.convergents == [(0, 1), (1, 1), (1, 2), (2, 3), (3, 5)]

    def test_sqrt2_quotients_and_convergents(self):
        exp = cf_expand(SQRT2M1, 3)
        assert exp.partial_quotients == [2, 2, 2]
        assert exp.convergents == [(0, 1), (1, 2), (2, 5), (5, 12)]

    def test_golden_betas_gammas(self):
        exp = cf_expand(GOLDEN, 10)
        for k in range(10):
            assert exp.betas[k + 1] == pytest.approx(GOLDEN ** (k + 1), rel=1e-9)
            assert exp.gammas[k] == pytest.approx(
                GOLDEN**k * (-math.log(GOLDEN)), rel=1e-9
            )

    def test_beta_recurrence_and_signs(self):
        exp = cf_expand(1.0 / math.pi, 20)
        assert exp.betas[0] == 1.0
        for k in range(exp.depth):
            assert exp.betas[k + 1] == pytest.approx(
                exp.betas[k] * exp.iterates[k], rel=1e-14
            )
            assert exp.betas[k + 1] > 0.0
            assert exp.betas[k + 1] < exp.betas[k]
            assert exp.gammas[k] >= 0.0

    def test_beta_halves_every_two_steps(self):
        rng = np.random.default_rng(11)
        for x in rng.random(50) * 0.98 + 0.01:
            exp = cf_expand(float(x), 15)
            for k in range(exp.depth - 2):
                assert exp.betas[k + 3] < exp.betas[k + 1] / 2.0

    def test_convergent_quality(self):
        # |x - p_k/q_k| < 1/(q_k q_{k+1}), checked exactly on the float's
        # rational value while the orbit is still faithful (q below 1e5;
        # roundoff amplified by q^2 erodes deeper quotients)
        from fractions import Fraction

        rng = np.random.default_rng(7)
        for x in rng.random(1000) * 0.98 + 0.01:
            exp = cf_expand(float(x), 12)
            xf = Fraction(float(x))
            conv = exp.convergents
            for k in range(min(exp.depth, 10)):
                p, q = conv[k]
                _, q_next = conv[k + 1]
                if q_next > 100_000:
                    break
                assert abs(q * xf - p) < Fraction(1, q_next)

    def test_rational_truncates(self):
        # 3/8: the float orbit wanders in the last ambiguous steps but
        # terminates with the truncation flag and passes through the exact
        # convergent
        exp = cf_expand(0.375, 20)
        assert exp.truncated
        assert exp.partial_quotients[:2] == [2, 1]
        assert (3, 8) in exp.convergents

    def test_rational_truncates_with_wider_guard(self):
        cfg = ToleranceConfig(rational_guard=1e-12)
        exp = cf_expand(0.375, 20, cfg)
        assert exp.truncated
        assert exp.convergents[-1] == (3, 8)

    def test_depth_cap(self):
        with pytest.raises(ValueError):
            cf_expand(GOLDEN, 41)

    def test_extended_precision_matches_double_early(self):
        cfg = ToleranceConfig(extended_precision=True)
        a = cf_expand(1.0 / math.pi, 15, cfg)
        b = cf_expand(1.0 / math.pi, 15)
        assert a.partial_quotients[:12] == b.partial_quotients[:12]

    def test_extended_precision_follows_exact_rational(self):
        # the extended orbit reproduces the exact continued fraction of the
        # input double (itself a rational), where the double orbit drifts
        from fractions import Fraction

        def exact_cf(x: float, n: int) -> list[int]:
            f = Fraction(x)
            out = []
            for _ in range(n):
                f = 1 / f
                a = f.numerator // f.denominator
                out.append(int(a))
                f -= a
                if f == 0:
                    break
            return out

        cfg = ToleranceConfig(extended_precision=True)
        exp = cf_expand(GOLDEN, 40, cfg)
        assert exp.partial_quotients == exact_cf(GOLDEN, exp.depth)
        drifting = cf_expand(GOLDEN, 40)
        assert drifting.partial_quotients != exp.partial_quotients

    def test_json_roundtrip_fields(self):
        exp = cf_expand(GOLDEN, 5)
        d = exp.to_dict()
        assert set(d) == {
            "point", "depth", "partial_quotients", "iterates",
            "convergents", "betas", "gammas", "truncated",
        }
        assert len(d["iterates"]) == d["depth"] + 1
        assert len(d["betas"]) == d["depth"] + 2
        assert len(d["gammas"]) == d["depth"] + 1

    def test_sub_guard_input_stays_iterate_zero(self):
        # the guard applies to alpha_k for k >= 1; x itself is kept
        x = 1e-16
        exp = cf_expand(x, 5)
        assert exp.truncated
        assert exp.iterates == [x]
        assert exp.partial_quotients == [math.floor(1.0 / x)]
        assert exp.gammas == [-math.log(x)]
        wide = cf_expand(0.05, 3, ToleranceConfig(rational_guard=0.1))
        assert wide.iterates[0] == 0.05 and wide.partial_quotients[0] == 20


class TestGaussMeasure:
    def test_normalization(self):
        assert gauss_measure(Interval(0.0, 1.0)) == pytest.approx(1.0, abs=1e-15)

    def test_half_interval(self):
        expect = math.log(1.5) / math.log(2.0)
        assert gauss_measure(Interval(0.0, 0.5)) == pytest.approx(expect, abs=1e-15)
        assert gauss_measure(Interval(0.5, 1.0)) == pytest.approx(1 - expect, abs=1e-15)

    @pytest.mark.parametrize("lo,hi", [(0.5, 0.5), (0.7, 0.3), (-0.1, 0.5), (0.5, 1.1)])
    def test_invalid_interval(self, lo, hi):
        with pytest.raises(ValueError):
            Interval(lo, hi)

    @settings(max_examples=50, derandomize=True)
    @given(
        a=st.floats(min_value=0.0, max_value=0.98),
        w1=st.floats(min_value=1e-3, max_value=0.5),
        w2=st.floats(min_value=1e-3, max_value=0.5),
    )
    def test_additivity(self, a, w1, w2):
        b = min(a + w1, 1.0 - 1e-9)
        c = min(b + w2, 1.0)
        if not a < b < c:
            return
        total = gauss_measure(Interval(a, c))
        parts = gauss_measure(Interval(a, b)) + gauss_measure(Interval(b, c))
        assert total == pytest.approx(parts, abs=1e-12)


class TestSampling:
    def test_reproducible(self):
        assert np.array_equal(sample_gauss_measure(100, 5), sample_gauss_measure(100, 5))

    def test_median_is_sqrt2m1(self):
        # U = 1/2 maps to 2**0.5 - 1
        xs = sample_gauss_measure(200_001, 3)
        assert np.median(xs) == pytest.approx(SQRT2M1, abs=2e-3)

    def test_open_interval(self):
        xs = sample_gauss_measure(1_000_000, 9)
        assert (xs > 0.0).all() and (xs < 1.0).all()

    def test_mass_below_half(self):
        xs = sample_gauss_measure(1_000_000, 13)
        frac = float((xs < 0.5).mean())
        expect = math.log(1.5) / math.log(2.0)
        sigma = math.sqrt(expect * (1 - expect) / 1_000_000)
        assert abs(frac - expect) < 3 * sigma + 1e-4

    def test_cdf_matches_measure(self):
        assert gauss_measure_cdf(0.5) == pytest.approx(
            gauss_measure(Interval(0.0, 0.5)), abs=1e-15
        )


class TestOrbitArrays:
    def test_matches_cf_expand(self):
        x = 1.0 / math.e
        alphas, betas, gammas, truncated = orbit_arrays(x, 12)
        exp = cf_expand(x, 12)
        assert not truncated
        np.testing.assert_allclose(alphas, exp.iterates, rtol=1e-15)
        np.testing.assert_allclose(betas, exp.betas, rtol=1e-14)
        np.testing.assert_allclose(gammas, exp.gammas, rtol=1e-13)
