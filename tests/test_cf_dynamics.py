import math
import sys
import threading
import time
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wiltonmoments import cf_dynamics, special_fn
from wiltonmoments.cf_dynamics import (
    EffectiveRationalError,
    Interval,
    cf_expand,
    effective_denominator,
    exact_cf,
    exact_cf_step,
    gauss_map,
    gauss_measure,
    gauss_measure_cdf,
    nearby_fraction,
    once,
    orbit,
    orbit_arrays,
    orbit_step,
    pool_map,
    sample_gauss_measure,
)
from wiltonmoments.moments import moment
from wiltonmoments.special_fn import g_batch, g_func
from wiltonmoments.wilton import wilton, wilton_batch

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
        # 3/8 is effectively rational, so the orbit ends at that convergent
        exp = cf_expand(0.375, 20)
        assert exp.truncated
        assert exp.partial_quotients[:2] == [2, 1]
        assert exp.convergents[-1] == (3, 8)

    def test_rational_truncates_with_wider_guard(self):
        # the float orbit of 3/8 once needed a guard wider than its roundoff
        # to end at (3, 8); the effective-rationality rule ends it there with
        # no knob, as the exact orbit of the double does
        assert effective_denominator(0.375) == 8
        exact = cf_expand(0.375, 20, exact=True)
        for e in (cf_expand(0.375, 20), exact):
            assert e.truncated
            assert e.convergents[-1] == (3, 8)

    def test_depth_cap(self):
        with pytest.raises(ValueError):
            cf_expand(GOLDEN, 41)

    def test_extended_precision_matches_double_early(self):
        a = cf_expand(1.0 / math.pi, 15, exact=True)
        b = cf_expand(1.0 / math.pi, 15)
        assert a.partial_quotients[:12] == b.partial_quotients[:12]

    def test_extended_precision_follows_exact_rational(self):
        # the extended orbit is the exact continued fraction of the input
        # double (itself a rational), with each iterate rounded once, where
        # the double orbit drifts
        for x in [GOLDEN, 0.3, 1e-300] + sample_gauss_measure(200, 7).tolist():
            exp = cf_expand(x, 40, exact=True)
            f, quotients, iterates = Fraction(x), [], [x]
            for _ in range(40):
                f = 1 / f
                quotients.append(f.numerator // f.denominator)
                f -= quotients[-1]
                if f == 0:
                    break
                iterates.append(float(f))
            assert exp.partial_quotients == quotients
            assert exp.iterates == iterates
            assert exp.truncated == (f == 0)
        drifting = cf_expand(GOLDEN, 40)
        assert drifting.partial_quotients != cf_expand(GOLDEN, 40, exact=True).partial_quotients

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

    @pytest.mark.parametrize("x", [1e-310, 5e-324])
    def test_input_whose_inverse_overflows_ends_orbit(self, x):
        # 1/x is inf below 1/DBL_MAX: the orbit ends with no float quotient
        alphas, _, _, truncated = orbit_arrays(x, 5)
        assert truncated and alphas.tolist() == [x]
        exp = cf_expand(x, 5)
        assert exp.truncated and exp.partial_quotients == [] and exp.iterates == [x]


def _fraction_cf(x: float) -> list[tuple[int, int, int, int]]:
    """(a_k, r_k, p_k, q_k) of x = m/n by Fraction arithmetic, where
    r_k = n |q_k x - p_k|."""
    xf = f = Fraction(x)
    out = []
    p_prev, q_prev, p, q = 0, 1, 1, 0
    while True:
        a = f.numerator // f.denominator
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        r = abs(q * xf - p) * xf.denominator
        assert r.denominator == 1
        out.append((a, r.numerator, p, q))
        f -= a
        if f == 0:
            return out
        f = 1 / f


class TestExactCF:
    @settings(max_examples=300, derandomize=True)
    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    @example(5e-324)
    @example(2.0**-1022)
    @example(1.0 - 2.0**-53)
    @example(0.3)
    def test_matches_fraction(self, x):
        terms = list(exact_cf(x))
        assert terms == _fraction_cf(x)
        assert terms[-1][1] == 0 and Fraction(terms[-1][2], terms[-1][3]) == Fraction(x)

    def test_array_step_matches_exact_cf(self):
        # rows m/2^52, started as exact_cf_step's docstring says, give exact_cf's
        # quotients and denominators, and its remainders scaled to the common
        # denominator 2^52; the extremes 2^-52 and 1 - 2^-52 reach a = q = 2^52
        rng = np.random.default_rng(28)
        m = np.concatenate([rng.integers(1, 1 << 52, 300), [1, (1 << 52) - 1, 1 << 51, 3 << 40]])
        xs = [int(v) / 2.0**52 for v in m]
        num, den = np.full(m.size, 1 << 52, dtype=np.int64), m.astype(np.int64)
        q_prev, q = np.zeros_like(num), np.ones_like(num)
        steps = [list(exact_cf(x))[1:] for x in xs]
        scale = [(1 << 52) // x.as_integer_ratio()[1] for x in xs]
        for k in range(max(map(len, steps))):
            live = [i for i, s in enumerate(steps) if k < len(s)]
            a, r, q_next = exact_cf_step(num[live], den[live], q_prev[live], q[live])
            for j, i in enumerate(live):
                ak, rk, _, qk = steps[i][k]
                assert (a[j], r[j], q_next[j]) == (ak, rk * scale[i], qk)
            num[live], den[live], q_prev[live], q[live] = den[live], r, q[live], q_next


class TestNearbyFraction:
    @settings(max_examples=300, derandomize=True)
    @given(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        st.integers(min_value=1, max_value=10**6),
        st.floats(min_value=1e-16, max_value=1e-3),
    )
    @example(0.5 + 2.0**-20, 10, 2.0**-20)  # at distance exactly eps from 1/2
    @example(0.5 + 2.0**-20, 10, math.nextafter(2.0**-20, 0.0))
    @example(1e-300, 5, 1e-16)  # 0/1 counts
    @example(0.3, 9, 1e-3)  # 3/10 is past qmax
    def test_matches_fraction_scan(self, x, qmax, eps):
        expect = None
        for _, _, p, q in exact_cf(x):
            if q > qmax:
                break
            if abs(Fraction(x) - Fraction(p, q)) <= Fraction(eps):
                expect = (p, q)
                break
        assert nearby_fraction(x, qmax, eps) == expect


class TestEffectiveRationality:
    @pytest.mark.parametrize(
        "x,q", [(0.3, 10), (0.7, 10), (0.1, 10), (0.2, 5), (1 / 3, 3), (0.375, 8)]
    )
    def test_flags_short_rationals(self, x, q):
        assert effective_denominator(x) == q

    @pytest.mark.parametrize("x", [1e-16, 1.0 / math.pi, GOLDEN, 1.0 / 12345.0])
    def test_leaves_others(self, x):
        # 1/12345 is rational, but its denominator is above 10^4
        assert effective_denominator(x) is None

    def test_flags_no_measure_point(self):
        xs = sample_gauss_measure(20_000, 99).tolist()
        assert [x for x in xs if effective_denominator(x) is not None] == []

    @pytest.mark.parametrize("q", range(2, 201))
    def test_every_short_fraction_ends_at_itself(self, q):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            exp = cf_expand(p / q, 40)
            assert exp.truncated and exp.convergents[-1] == (p, q), (p, q)
            with pytest.raises(EffectiveRationalError):
                wilton(p / q)


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


def _short_fractions_and_neighbours(qmax: int) -> np.ndarray:
    """Every reduced p/q with q <= qmax and its +-1..8-ulp neighbours."""
    pts = np.array([p / q for q in range(2, qmax + 1) for p in range(1, q) if math.gcd(p, q) == 1])
    out, lo, hi = [pts], pts, pts
    for _ in range(8):
        lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, 1.0)
        out += [lo, hi]
    return np.concatenate(out)


def _orbit_length(x: float, cap: int = 60) -> int:
    return sum(1 for _ in islice(orbit(x), cap))


def _q_count_length(x: float, cap: int = 60) -> int:
    """Reference for _orbit_length: steps of the float orbit up to the end
    below RATIONAL_GUARD or at 1/x overflow, or, for x effectively rational
    with denominator q, up to where q_k from the float quotients reaches q."""
    q_stop = effective_denominator(x) or 0
    a, n, q_prev, q = x, 1, 0, 1
    while n < cap:
        z = 1.0 / a
        if z == math.inf:
            break
        a_k = math.floor(z)
        a = z - a_k
        q_prev, q = q, a_k * q + q_prev
        if a < cf_dynamics.RATIONAL_GUARD or 0 < q_stop <= q:
            break
        n += 1
    return n


def _step_lengths(xs: np.ndarray, cap: int = 60) -> np.ndarray:
    """Iterates of each x before orbit_step ends its row, alpha_0 included."""
    alpha, beta, n = xs, np.ones(xs.size), np.ones(xs.size, dtype=int)
    running = np.ones(xs.size, dtype=bool)
    for _ in range(cap - 1):
        alpha, beta, ended = orbit_step(alpha, beta, xs)
        running &= ~ended
        n += running
        alpha = np.where(running, alpha, 0.5)
    return n


class TestOrbitStep:
    def test_one_step_matches_orbit(self):
        xs = sample_gauss_measure(1000, 5)
        alpha, beta, ended = orbit_step(xs, 1.0, xs)
        assert not ended.any()
        assert beta.tobytes() == xs.tobytes()
        assert alpha.tolist() == [next(islice(orbit(x), 1, None))[0] for x in xs.tolist()]

    def test_gathers_starts_by_index(self):
        x = np.array([GOLDEN, 0.3])
        alpha, beta, idx = x[[1]], np.ones(1), np.array([1])
        for _ in range(_orbit_length(0.3) - 1):
            alpha, beta, ended = orbit_step(alpha, beta, x, idx)
            assert not ended[0]
        assert orbit_step(alpha, beta, x, idx)[2][0]

    def test_guard_is_strict_as_in_orbit(self, monkeypatch):
        a1 = gauss_map(GOLDEN)
        for guard, ends in ((a1, False), (math.nextafter(a1, 1.0), True)):
            monkeypatch.setattr(cf_dynamics, "RATIONAL_GUARD", guard)
            assert orbit_step(np.array([GOLDEN]), 1.0, np.array([GOLDEN]))[2][0] == ends
            assert _orbit_length(GOLDEN, 2) == (1 if ends else 2)

    def test_overflow_ends_as_in_orbit(self):
        x = 2.0**-1050
        assert _orbit_length(x) == 1
        with np.errstate(over="ignore", invalid="ignore"):
            assert orbit_step(np.array([x]), 1.0, np.array([x]))[2][0]

    def test_ends_rational_rows_where_orbit_ends(self):
        xs = np.append(_short_fractions_and_neighbours(200), sample_gauss_measure(20_000, 7))
        ref = [_q_count_length(x) for x in xs.tolist()]
        assert [_orbit_length(x) for x in xs.tolist()] == ref
        assert _step_lengths(xs).tolist() == ref


class TestArrayRoutesEndWhereOrbitEnds:
    """g_batch and wilton_batch refuse what wilton refuses: an effectively
    rational x, whose orbit ends before the series converge."""

    @pytest.mark.parametrize("x", [0.3, 0.7])
    def test_decimal_rationals_not_ok(self, x):
        with pytest.raises(EffectiveRationalError):
            wilton(x)
        assert not g_batch(np.array([x]))[2][0]
        assert not wilton_batch(np.array([x]))[3][0]

    def test_short_fractions_and_flagged_neighbours_not_ok(self):
        pts = _short_fractions_and_neighbours(200)
        flagged = pts[[effective_denominator(float(x)) is not None for x in pts]]
        assert flagged.size > 90_000
        g_ok = g_batch(flagged)[2]
        w_ok = wilton_batch(flagged)[3]
        assert not g_ok.any(), flagged[g_ok][:10]
        assert not w_ok.any(), flagged[w_ok][:10]


def _at_each_worker_count(monkeypatch, run):
    """run() at 1, 2 and 3 CPUs; frequent thread switches would expose a
    lost or shared write."""
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for cpus in (1, 2, 3):
            monkeypatch.setattr(cf_dynamics.os, "cpu_count", lambda: cpus)
            results.append(run())
    finally:
        sys.setswitchinterval(interval)
    return results


class TestOnce:
    def test_concurrent_first_callers_share_one_call_per_key(self):
        calls = []

        @once
        def build(key):
            calls.append(key)
            time.sleep(0.05)  # the other first callers arrive meanwhile
            return object()

        start = threading.Barrier(4)
        results = {}

        def first_call(i):
            start.wait()
            results[i] = build(i % 2)

        threads = [threading.Thread(target=first_call, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(calls) == [0, 1]
        assert results[0] is results[2] is build(0) and results[1] is results[3] is build(1)
        assert results[0] is not results[1] and len(calls) == 2


class TestPoolMap:
    def test_workers_keep_the_callers_errstate(self, monkeypatch):
        # numpy 2 keeps errstate in a context variable, which a new thread
        # does not inherit
        monkeypatch.setattr(cf_dynamics.os, "cpu_count", lambda: 3)
        with np.errstate(divide="ignore"):
            seen = pool_map(lambda i: (i, np.geterr()["divide"]), range(6))
        assert seen == [(i, "ignore") for i in range(6)]

    def test_scalar_g_never_asks_for_the_cpu_count(self, monkeypatch):
        # one item or none runs inline; each scalar psi has one J block and no
        # pooled Phi2 bucket, the F table builds in the calling thread, and
        # os.cpu_count reads /sys on every call
        def no_count():
            raise AssertionError("os.cpu_count called")

        cfg = cf_dynamics.ToleranceConfig(abs_tol=1e-5)
        g_func(0.31830988618379067, cfg=cfg)  # builds A(1) (two J blocks) and sup|F|
        monkeypatch.setattr(cf_dynamics.os, "cpu_count", no_count)
        assert pool_map(lambda i: i + 1, [1]) == [2] and pool_map(abs, []) == []
        g_func(0.31830988618379067, cfg=cfg)
        special_fn._FTable()

    def test_array_routes_do_not_depend_on_worker_count(self, monkeypatch):
        xs = np.append(
            sample_gauss_measure(3 * cf_dynamics._BLOCK + 1000, 5), [0.3, 0.7, 1e-14, np.nan]
        )
        runs = _at_each_worker_count(monkeypatch, lambda: (g_batch(xs), wilton_batch(xs)))
        for g_run, w_run in runs[1:]:
            assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(runs[0][0], g_run))
            assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(runs[0][1], w_run))
        assert runs[0][0][2].sum() == xs.size - 3  # not ok: 0.3, 0.7 and nan

    def test_moment_does_not_depend_on_worker_count(self, monkeypatch):
        runs = _at_each_worker_count(monkeypatch, lambda: moment(2.0, seed=11, samples=10**5))
        assert runs[0] == runs[1] == runs[2]
