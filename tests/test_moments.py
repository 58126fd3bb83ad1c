import math
import os
import platform
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from wiltonmoments import moments as mo


class TestCalibration:
    @pytest.mark.parametrize("K", [0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
    def test_quad_route(self, K):
        exact = math.gamma(K + 1.0)
        v = mo.log_moment_calibration(K, method="quad")
        assert abs(v - exact) / exact < 1e-6

    def test_k_one_and_two(self):
        assert mo.log_moment_calibration(1.0) == pytest.approx(1.0, rel=1e-9)
        assert mo.log_moment_calibration(2.0) == pytest.approx(2.0, rel=1e-9)

    def test_k_5p5(self):
        # substitute x = e^{-t}: Gamma(6.5)
        assert mo.log_moment_calibration(5.5) == pytest.approx(
            math.gamma(6.5), rel=1e-9
        )

    def test_mc_route(self):
        exact = math.gamma(11.0)
        v = mo.log_moment_calibration(10.0, method="mc", samples=50_000, seed=3)
        assert abs(v - exact) / exact < 1e-6

    def test_domain(self):
        with pytest.raises(ValueError):
            mo.log_moment_calibration(0.0)
        with pytest.raises(ValueError):
            mo.log_moment_calibration(1.0, method="simpson")

    @pytest.mark.parametrize("samples", [0, 1, mo.MAX_SAMPLES + 1])
    def test_mc_refuses_the_sample_counts_moment_refuses(self, samples):
        for estimate in (mo.moment, mo.log_moment_calibration):
            with pytest.raises(ValueError, match="samples"):
                estimate(2.0, method="mc", samples=samples)

    @pytest.mark.parametrize("K", [math.nan, math.inf])
    def test_non_finite_k(self, K):
        with pytest.raises(ValueError, match="finite"):
            mo.log_moment_calibration(K)

    @pytest.mark.parametrize("K", [150.0, 170.0])
    def test_quad_stays_in_range_up_to_170(self, K):
        # e^{K log t - t} stays finite wherever Gamma(K+1) does
        v = mo.log_moment_calibration(K, method="quad")
        assert abs(math.log(v) - math.lgamma(K + 1.0)) < 1e-6

    @pytest.mark.parametrize("K,method", [(200.0, "quad"), (200.0, "mc"), (171.0, "quad")])
    def test_result_out_of_double_range_is_refused(self, K, method):
        # Gamma(K+1) leaves double range past K = 170 (171! > DBL_MAX);
        # Tier-1 turns an overflow warning into an error, so none is raised
        with pytest.raises(mo.NonConvergenceError, match="double range"):
            mo.log_moment_calibration(K, method=method, samples=2000)


QUANTILE_KS = [0.01, 0.5, 2.0, 20.0, 40.0, 169.0]


def _u_grid(K):
    """A stratified u grid plus both logit tails, past the end nodes too."""
    rng = np.random.default_rng(int(100 * K))
    n = 1 << 15
    stratified = (np.arange(n) + rng.random(n)) / n
    lower, upper = np.geomspace(1e-200, 0.5, 4000), 1.0 - np.geomspace(3e-13, 0.5, 4000)
    return np.concatenate([stratified, lower, upper])


class TestGammaQuantiles:
    @pytest.mark.parametrize("K", QUANTILE_KS)
    def test_density_is_that_of_the_map(self, K):
        # p(T(u)) T'(u) = 1, T' by central differences at steps symmetric in
        # floats and inside one segment (the map has a kink at every node)
        a = K + 1.0
        u = _u_grid(K)
        h = np.maximum(1e-6 * np.minimum(u, 1.0 - u), np.spacing(u))
        lo, hi = u - h, u + h
        z = mo._gamma_nodes(a)[0]
        seg = lambda v: np.searchsorted(z, np.log(v) - np.log1p(-v))
        keep = (hi - u == u - lo) & (seg(lo) == seg(hi))
        assert keep.mean() > 0.99
        u, lo, hi = u[keep], lo[keep], hi[keep]
        p = mo._gamma_draws(a, u)[1]
        slope = (mo._gamma_draws(a, hi)[0] - mo._gamma_draws(a, lo)[0]) / (hi - lo)
        assert np.abs(p * slope - 1.0).max() < 1e-6

    @pytest.mark.parametrize("K", QUANTILE_KS)
    def test_inverse_map_gives_the_draws_density(self, K):
        t, p = mo._gamma_draws(K + 1.0, _u_grid(K))
        np.testing.assert_allclose(mo._gamma_density(K + 1.0, t), p, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("K", QUANTILE_KS)
    def test_edge_uniforms(self, K):
        u = np.array([0.0, 5e-324, 1.0 - 2.0**-53])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t, p = mo._gamma_draws(K + 1.0, u)
        assert np.isfinite(t).all() and (p[1:] > 0.0).all()
        assert (t[0], p[0]) == (0.0, 0.0)  # x = 1 is refused, and t < log 2 weighs 0

    @pytest.mark.parametrize("K", QUANTILE_KS)
    def test_nodes_match_gammaincinv(self, K):
        # the in-house quantiles against scipy's, best of three uncached runs
        from scipy.special import expit, gammaincinv

        z, log_t, _ = mo._gamma_nodes(K + 1.0)
        ref = gammaincinv(K + 1.0, expit(z))
        assert np.abs(np.exp(log_t) / ref - 1.0).max() <= 1e-12
        seconds = []
        for _ in range(3):
            t0 = time.perf_counter()
            mo._gamma_nodes.__wrapped__(K + 1.0)
            seconds.append(time.perf_counter() - t0)
        assert min(seconds) <= 0.020

    def test_nodes_are_cached_per_k(self):
        assert mo._gamma_nodes(21.0) is mo._gamma_nodes(21.0)


class TestMoment:
    def test_m2_exact_value(self):
        # int g^2 dx = zeta(2)^3 / (3 zeta(4)) = 5 pi^2 / 36
        est = mo.moment(2.0, seed=1, samples=200_000)
        exact = 5.0 * math.pi**2 / 36.0
        assert abs(est.value - exact) < 4.0 * est.std_error + 0.01 * exact

    def test_small_k_approaches_one(self):
        est = mo.moment(0.01, seed=2, samples=100_000)
        assert est.value == pytest.approx(1.0, abs=0.02)

    def test_bitwise_determinism(self):
        a = mo.moment(5.0, seed=7, samples=20_000)
        b = mo.moment(5.0, seed=7, samples=20_000)
        assert a == b

    def test_gamma_ratio_field(self):
        est = mo.moment(10.0, seed=4, samples=50_000)
        assert est.gamma_ratio == pytest.approx(
            est.value / math.gamma(11.0), rel=1e-12
        )
        assert est.target_ratio == pytest.approx(
            math.exp(np.euler_gamma) / math.pi, rel=1e-15
        )

    def test_k20_band(self):
        est = mo.moment(20.0, seed=20, samples=300_000)
        assert 0.45 <= est.gamma_ratio <= 0.70
        assert est.rejections < 0.01 * est.samples

    def test_k20_unbiased_over_seeds(self):
        # the gap gamma_ratio(20) - e^gamma/pi is about +1.6e-7 (exponentially
        # small); redrawing guard-ended points instead of finishing them put
        # the mean near -1.1e-4
        d = np.array([
            mo.moment(20.0, seed=s, samples=600_000).gamma_ratio - mo.TARGET_RATIO
            for s in range(8)
        ])
        sd = float(np.std(d, ddof=1))
        assert -3.0 * sd <= float(np.mean(d)) <= 1e-6 + 3.0 * sd, d

    def test_refused_point_weighs_zero_and_counts_once(self, monkeypatch):
        # g = 1 except at point 500, which g_batch refuses; nothing is redrawn
        calls = []

        def stub(x):
            calls.append(x.size)
            ok = np.arange(x.size) != 500
            return np.where(ok, 1.0, 0.0), np.zeros(x.size), ok

        monkeypatch.setattr(mo, "g_batch", stub)
        est = mo.moment(2.0, seed=1, samples=1000)
        assert calls == [1000]
        assert est.rejections == 1
        _, t, p, n1 = mo._mixture_samples(2.0, 1000, 1)
        w1, w2 = n1 / 1000, (1000 - n1) / 1000
        f_over_p = np.where(t > mo.LOG2, np.exp(-t) / (w1 * p + w2 * 2.0 * np.exp(-t)), 0.0)
        assert f_over_p[500] > 0.0
        f_over_p[500] = 0.0
        want = 2.0 * (w1 * f_over_p[:n1].mean() + w2 * f_over_p[n1:].mean())
        assert est.value == pytest.approx(want, rel=1e-13)

    def test_row_range_draws_are_one_draw(self):
        # blocks of any split, the n1 boundary inside one, give the whole
        # range's bits, and the whole range keeps the one-stream definition
        n, seed = 3 * mo._BLOCK + 123, 5
        whole = mo._mixture_samples(2.0, n, seed)
        n1 = whole[3]
        for edges in (list(range(0, n, mo._BLOCK)) + [n], [0, 17, n1 - 5, n1 + 7, n]):
            parts = [mo._mixture_samples(2.0, n, seed, lo, hi) for lo, hi in zip(edges, edges[1:])]
            for i in range(3):
                assert np.concatenate([q[i] for q in parts]).tobytes() == whole[i].tobytes()
        kid = np.random.SeedSequence(seed).spawn(2)[0]
        u1 = (np.arange(n1) + np.random.default_rng(kid).random(n1)) / n1
        assert mo._gamma_draws(3.0, u1)[0].tobytes() == whole[1][:n1].tobytes()

    def test_blocked_pass_is_the_same_at_any_worker_count(self, monkeypatch):
        n = 3 * mo._BLOCK + 123  # the n1 boundary falls inside the third block
        assert mo._BLOCK * 2 < round(0.95 * n) < mo._BLOCK * 3
        ests = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            ests.append(mo.moment(2.0, seed=3, samples=n))
        assert ests[0] == ests[1]

    def test_cold_pass_is_the_warm_pass(self, tmp_path):
        # in a fresh process on an empty cache directory the first block to
        # need the F table builds it, on a pool thread at 2 workers (in that
        # thread, with no pool_map inside the item: a thread-local depth
        # counts the items running in a thread), while the other blocks wait;
        # a fresh process on the written file builds nothing; the estimate
        # keeps every bit
        code = """if True:
            import dataclasses, os, sys, threading
            from pathlib import Path
            os.cpu_count = lambda: int(sys.argv[1])
            from wiltonmoments import cf_dynamics, moments, special_fn
            special_fn._CACHE_DIR = Path(sys.argv[2])
            builders = []
            build = special_fn._FTable._build
            def recording_build(self):
                builders.append(threading.current_thread() is threading.main_thread())
                return build(self)
            special_fn._FTable._build = recording_build
            depth, pool = threading.local(), cf_dynamics.pool_map
            def checked_pool(fn, items):
                assert getattr(depth, "n", 0) == 0, "pool_map inside a pool_map item"
                def run(item):
                    depth.n = getattr(depth, "n", 0) + 1
                    try:
                        return fn(item)
                    finally:
                        depth.n -= 1
                return pool(run, items)
            for mod in list(sys.modules.values()):  # each module that imported it
                if getattr(mod, "pool_map", None) is pool:
                    mod.pool_map = checked_pool
            n = 3 * moments._BLOCK + 123
            cold, warm = (moments.moment(2.0, seed=3, samples=n) for _ in range(2))
            assert cold == warm, (cold, warm)
            print(builders, dataclasses.astuple(cold))
        """
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        outs = []
        for cpus in (1, 2):
            for _ in ("cold", "warm"):
                proc = subprocess.run(
                    [sys.executable, "-c", code, str(cpus), str(tmp_path / f"cache{cpus}")],
                    env=env, capture_output=True, text=True,
                )
                assert proc.returncode == 0, proc.stderr
                outs.append(proc.stdout.split(" ", 1))
        assert [builders for builders, _ in outs] == ["[True]", "[]", "[False]", "[]"]
        assert len({est for _, est in outs}) == 1

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt")
    def test_library_rerun_reuses_heap_pages(self):
        # the package fixes malloc's thresholds when it loads, so a library
        # caller's blocks reuse freed heap pages as wm moment's do: a second
        # moment(2) at 2e5 samples page-faults 0 times at 1 worker, 8-109 at
        # 2, 78-238 at 4 and 108-1561 at 8 (8 fresh processes each, 2 vCPU),
        # and 12-16k times under glibc's dynamic thresholds
        code = """if True:
            import resource, sys
            from wiltonmoments import moments
            moments.moment(2.0, seed=3, samples=200_000)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            moments.moment(2.0, seed=3, samples=200_000)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            assert "wiltonmoments.cli" not in sys.modules
        """
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 2000

    def test_refusal_in_a_later_block_weighs_zero(self, monkeypatch):
        n = 3 * mo._BLOCK + 123
        x, t, p, n1 = mo._mixture_samples(2.0, n, 1)
        refused = x[mo._BLOCK + 7]
        assert np.count_nonzero(x == refused) == 1

        def stub(xs):
            ok = xs != refused
            return np.where(ok, 1.0, 0.0), np.zeros(xs.size), ok

        monkeypatch.setattr(mo, "g_batch", stub)
        est = mo.moment(2.0, seed=1, samples=n)
        assert est.rejections == 1
        w1, w2 = n1 / n, (n - n1) / n
        f_over_p = np.where(t > mo.LOG2, np.exp(-t) / (w1 * p + w2 * 2.0 * np.exp(-t)), 0.0)
        assert f_over_p[mo._BLOCK + 7] > 0.0
        f_over_p[mo._BLOCK + 7] = 0.0
        want = 2.0 * (w1 * f_over_p[:n1].mean() + w2 * f_over_p[n1:].mean())
        assert est.value == pytest.approx(want, rel=1e-13)

    def test_peak_memory_does_not_grow_with_samples(self, monkeypatch):
        # the blocked pass holds a few blocks at a time, whatever the count
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        mo.moment(20.0, samples=1000)  # the F table and Gamma nodes outside the trace
        peaks = []
        tracemalloc.start()
        try:
            for n in (200_000, 2_000_000):
                tracemalloc.reset_peak()
                mo.moment(20.0, seed=1, samples=n)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0], peaks

    def test_quad_route_close_to_mc(self):
        q = mo.moment(6.0, method="quad", panels=1 << 12)
        m = mo.moment(6.0, seed=6, samples=300_000)
        assert abs(q.value - m.value) / m.value < 0.05

    def test_domain(self):
        with pytest.raises(ValueError):
            mo.moment(0.0)
        with pytest.raises(ValueError):
            mo.moment(1.0, method="trapezoid")

    @pytest.mark.parametrize("panels", [0, 1])
    def test_quad_needs_two_panels(self, panels):
        # one panel would leave the half-resolution pass none, and report
        # the value itself as its error
        with pytest.raises(ValueError, match="panels"):
            mo.moment(2.0, method="quad", panels=panels)

    def test_quad_on_two_panels(self):
        est = mo.moment(2.0, method="quad", panels=2)
        assert math.isfinite(est.value) and math.isfinite(est.std_error)
        assert 0.0 < est.std_error < est.value and est.samples == 32

    @pytest.mark.parametrize("method", ["mc_stratified", "quad_log_substitution"])
    def test_one_name_per_method(self, method):
        for estimate in (mo.moment, mo.log_moment_calibration):
            with pytest.raises(ValueError, match="unknown"):
                estimate(2.0, method=method)

    @pytest.mark.parametrize("K", [math.nan, math.inf])
    def test_non_finite_k(self, K):
        with pytest.raises(ValueError, match="finite"):
            mo.moment(K, samples=100)

    @pytest.mark.parametrize("K", [100.0, 160.0])
    def test_large_k_is_finite(self, K):
        # f/p near 1e157 at K = 100 used to overflow the variance
        est = mo.moment(K, seed=1, samples=2000)
        assert math.isfinite(est.value) and math.isfinite(est.std_error)
        assert 0.0 < est.std_error < est.value
        assert 0.45 <= est.gamma_ratio <= 0.70

    @pytest.mark.parametrize("K", [0.5, 1.0, 3.0, 8.0])
    def test_ratio_sanity_envelope(self, K):
        # not an asymptotic claim, just a guard against gross estimator bugs
        est = mo.moment(K, seed=int(10 * K), samples=50_000)
        assert 0.0 < est.gamma_ratio < 2.0


class TestDoubling:
    def test_half_interval_doubling_consistent(self):
        # antisymmetry: mass on (0,1/2) equals mass on (1/2,1); the mc
        # estimator doubles the half-interval, the quad route integrates the
        # same half.  Compare against a direct uniform-sample estimate of
        # the full interval.
        from wiltonmoments.special_fn import g_batch

        rng = np.random.default_rng(31)
        xs = rng.random(400_000)
        g, _, ok = g_batch(xs)
        direct = float(np.mean(np.abs(g[ok]) ** 2))
        est = mo.moment(2.0, seed=3, samples=200_000)
        assert abs(est.value - direct) < 0.02 * est.value


class TestSweep:
    def test_singleton_consistency(self):
        a = mo.gamma_ratio_sweep([5.0], seed=9, samples=20_000)[0]
        b = mo.moment(5.0, seed=9, samples=20_000)
        assert a == b

    def test_sorted_required(self):
        with pytest.raises(ValueError):
            mo.gamma_ratio_sweep([10.0, 5.0])

    def test_rows_share_target(self):
        ests = mo.gamma_ratio_sweep([3.0, 5.0], seed=1, samples=20_000)
        assert all(e.target_ratio == mo.TARGET_RATIO for e in ests)


class TestHMoment:
    def test_definition_consistency(self):
        h = mo.h_moment(1, seed=12, samples=50_000)
        m = mo.moment(2.0, seed=12, samples=50_000)
        assert h.value == pytest.approx(m.value / math.pi**2, rel=1e-12)

    def test_h1_near_exact(self):
        h = mo.h_moment(1, seed=5, samples=200_000)
        assert h.value == pytest.approx(5.0 / 36.0, abs=0.01 * 5.0 / 36.0)

    def test_growth_scale(self):
        # H_3/H_2 grows roughly like Gamma(7)/(pi^2 Gamma(5)), checked
        # within a loose factor-2 band
        h2 = mo.h_moment(2, seed=21, samples=400_000)
        h3 = mo.h_moment(3, seed=22, samples=400_000)
        scale = math.gamma(7.0) / (math.pi**2 * math.gamma(5.0))
        ratio = h3.value / h2.value
        assert scale / 2.0 < ratio < scale * 2.0

    def test_domain(self):
        with pytest.raises(ValueError):
            mo.h_moment(0)
