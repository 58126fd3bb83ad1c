import math
import tracemalloc

import numpy as np
import pytest

from wiltonmoments.cotangent import (
    MAX_B,
    DistributionSummary,
    RationalPoint,
    _cot_table,
    _direct_values,
    _is_prime,
    _primitive_root,
    c0,
    c0_sweep,
    c0_values,
    neumaier_sum,
    sweep_residues,
)


class TestRationalPoint:
    def test_valid(self):
        RationalPoint(3, 7)

    @pytest.mark.parametrize("r,b", [(0, 5), (5, 5), (6, 5), (2, 4)])
    def test_invalid(self, r, b):
        with pytest.raises(ValueError):
            RationalPoint(r, b)


class TestC0:
    def test_half(self):
        assert c0(RationalPoint(1, 2)) == 0.0

    def test_third(self):
        # -[(1/3) cot(pi/3) + (2/3) cot(2 pi/3)] = 1/(3 sqrt(3))
        assert c0(RationalPoint(1, 3)) == pytest.approx(
            1.0 / (3.0 * math.sqrt(3.0)), abs=1e-14
        )

    def test_two_thirds_antisymmetric(self):
        assert c0(RationalPoint(2, 3)) == -c0(RationalPoint(1, 3))

    def test_antisymmetry_exact_at_scale(self):
        for b in (101, 1009):
            rs = np.arange(1, (b + 1) // 2, dtype=np.int64)
            rs = rs[np.gcd(rs, b) == 1]
            v1 = c0_values(b, rs)
            v2 = c0_values(b, b - rs)
            assert np.max(np.abs(v1 + v2)) <= 1e-9 * b

    def test_no_overflow_large_b(self):
        v = c0(RationalPoint(1, 999_983))
        assert math.isfinite(v)


class TestSweep:
    def test_enumeration_b5(self):
        s = c0_sweep(5, 0.5, 1.0, 2)
        assert s.count == 2  # r in {3, 4}
        vals = c0_values(5, np.array([3, 4]))
        m2 = float(np.mean((vals / 5.0) ** 2))
        m4 = float(np.mean((vals / 5.0) ** 4))
        assert s.normalized_moments[0] == pytest.approx(m2, rel=1e-12)
        assert s.normalized_moments[1] == pytest.approx(m4, rel=1e-12)

    def test_jensen(self):
        s = c0_sweep(101, 0.5, 1.0, 2)
        assert s.normalized_moments[1] >= s.normalized_moments[0] ** 2 - 1e-15

    def test_moment_trend_stabilizes(self):
        m = [
            c0_sweep(b, 0.5, 1.0, 1).normalized_moments[0]
            for b in (1009, 10007, 20011)
        ]
        assert abs(m[2] - m[1]) < abs(m[1] - m[0])

    def test_pooled_values_match_single_residue(self):
        # 1007 = 19 * 53 takes the direct route; its upper-half coprime
        # residues span several 64-residue chunks, which run on a thread pool
        rs = sweep_residues(1007, 0.5, 1.0)
        assert rs.size > 3 * 64
        single = [c0(RationalPoint(int(r), 1007)) for r in rs]
        assert np.array_equal(c0_values(1007, rs), np.array(single))

    def test_sampled_subset(self):
        s = c0_sweep(10007, 0.5, 1.0, 1, sample=500, seed=4)
        assert s.count == 500
        t = c0_sweep(10007, 0.5, 1.0, 1, sample=500, seed=4)
        assert s.normalized_moments == t.normalized_moments

    def test_empty_range(self):
        with pytest.raises(ValueError):
            c0_sweep(5, 0.81, 0.99, 1)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            c0_sweep(11, 0.9, 0.5, 1)

    def test_no_coprime_residue(self):
        with pytest.raises(ValueError):
            c0_sweep(6, 0.5, 0.6, 1)  # only r = 3, and gcd(3, 6) = 3

    @pytest.mark.parametrize("sample", [0, -1])
    def test_bad_sample(self, sample):
        with pytest.raises(ValueError):
            c0_sweep(101, 0.5, 1.0, 1, sample=sample)

    @pytest.mark.parametrize("b", [20011, 20017])  # prime, and 20017 = 37 * 541
    def test_moments_match_fsum(self, b):
        vals = c0_values(b, sweep_residues(b, 0.5, 1.0))
        s = DistributionSummary.from_values(b, 0.5, 1.0, vals, 3)
        for K, m in zip((2, 4, 6), s.normalized_moments):
            ref = math.fsum(abs(float(v) / b) ** K for v in vals) / vals.size
            assert abs(m - ref) <= 1e-15 * ref

    def test_no_values_is_an_error(self):
        with pytest.raises(ValueError):
            DistributionSummary.from_values(7, 0.5, 1.0, np.array([]), 2)

    def test_to_dict(self):
        d = c0_sweep(7, 0.5, 1.0, 1).to_dict()
        assert set(d) == {"b", "a0", "a1", "count", "normalized_moments"}


class TestPrimePath:
    @pytest.mark.parametrize("b", [3, 5, 7, 101, 1009, 10007, 65537])
    def test_matches_direct_oracle(self, b):
        # 10007 - 1 = 2 * 5003 takes the Bluestein FFT, 65537 - 1 = 2^16 the radix-2 one
        rs = np.arange(1, b, dtype=np.int64)
        if b > 20_000:
            # the direct sums over all 65536 residues take about 45 s
            rs = np.sort(np.random.default_rng(b).choice(rs, size=2048, replace=False))
        oracle = np.array([c0(RationalPoint(int(r), b)) for r in rs])
        assert np.max(np.abs(c0_values(b, rs) - oracle)) <= 1e-12 * b

    @pytest.mark.parametrize("b", [3, 101, 10007, 65537])
    def test_antisymmetry_exact(self, b):
        rs = np.arange(1, b, dtype=np.int64)
        assert np.array_equal(c0_values(b, rs), -c0_values(b, b - rs))

    def test_primitive_root_matches_sympy(self):
        from sympy import primerange
        from sympy.ntheory import primitive_root

        assert [n for n in range(10_000) if _is_prime(n)] == list(primerange(10_000))
        for p in primerange(10_000):
            assert _primitive_root(p) == primitive_root(p)

    def test_composite_takes_direct_route(self):
        rs = sweep_residues(1007, 0.5, 1.0)  # 1007 = 19 * 53
        assert np.array_equal(c0_values(1007, rs), _direct_values(1007, rs))

    def test_b_bound_checked_before_allocating(self):
        b = MAX_B + 19  # prime: the FFT path would hold about 1 GB
        with pytest.raises(ValueError, match="exceeds"):
            c0_values(b, np.array([1]))
        with pytest.raises(ValueError, match="exceeds"):
            c0_sweep(b, 0.5, 1.0, 1)

    def test_no_per_b_arrays_outlive_the_call(self):
        # only the one-entry cot table stays; the Rader values are not kept
        primes = (10007, 10009, 10037)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for p in primes:
                c0_values(p, np.array([1, 2, 3]))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 8 * max(primes) + 16_384
        assert _cot_table.cache_info().currsize <= 1

    def test_sweep_equals_reduction_of_values(self):
        for b in (1009, 1007):
            rs = sweep_residues(b, 0.5, 1.0)
            s = DistributionSummary.from_values(b, 0.5, 1.0, c0_values(b, rs), 3)
            assert s == c0_sweep(b, 0.5, 1.0, 3)


class TestNeumaier:
    def test_cross_block_cancellation(self):
        # compensation applies across the 4096-element blocks
        arr = np.concatenate(
            [[1e16], np.zeros(4095), [-1e16], np.zeros(4095), [1.0]]
        )
        assert neumaier_sum(arr) == 1.0

    def test_negation_symmetry(self):
        rng = np.random.default_rng(2)
        arr = rng.standard_normal(10_000) * rng.lognormal(0, 4, 10_000)
        assert neumaier_sum(-arr) == -neumaier_sum(arr)

    def test_matches_fsum(self):
        rng = np.random.default_rng(3)
        arr = rng.standard_normal(5000)
        assert neumaier_sum(arr) == pytest.approx(math.fsum(arr), abs=1e-12)
