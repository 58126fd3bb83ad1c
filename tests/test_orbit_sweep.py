"""g_batch and wilton_batch against a reference copy of the orbit sweep.

The reference is the sweep as it stood before the stop test ran on subsets
and compaction was deferred: every step tests every row, and the rows that
stop leave the working arrays at once (flatnonzero, then take of all nine).
Its stepper and F lookup are the matching full-array forms: the end test on
every row, and the segment search that corrects the rounded index on every
row (np.interp's segment; the package keeps the rounded index, which differs
only one ulp below a node).  The package must give the same bytes, at 1 and
2 workers.
"""

import math
import os
import sys

import numpy as np
import pytest

from wiltonmoments import moments
from wiltonmoments import special_fn as sf
from wiltonmoments.cf_dynamics import (
    _BLOCK,
    _CANDIDATE_ALPHA,
    _CANDIDATE_BETA,
    MAX_TERMS,
    RATIONAL_GUARD,
    ToleranceConfig,
    effective_denominator,
    float_end_error,
)

wilton_module = sys.modules["wiltonmoments.wilton"]


def _reference_lookup(tab, x):
    h, xmin = tab._h, tab.xmin
    i = np.fmin(np.fmax((x - xmin) * tab._inv_h, 0.0), len(tab.xs) - 2)
    i = i.astype(np.intp)
    i -= (x < i * h + xmin) & (i > 0)
    i += x >= (i + 1) * h + xmin
    sf_ = tab._sf[i]
    out = sf_.real * (x - (i * h + xmin)) + sf_.imag
    low = np.flatnonzero(x < xmin)
    out[low] = 0.5 * tab.a1 - 0.5 * x[low]
    return out


def _reference_step(alpha, beta, x, idx):
    beta_next = beta * alpha
    z = 1.0 / alpha
    alpha_next = z - np.floor(z)
    ended = ~(alpha_next >= RATIONAL_GUARD)
    candidates = (alpha_next < _CANDIDATE_ALPHA) & (beta_next > _CANDIDATE_BETA) & ~ended
    for i in np.flatnonzero(candidates):
        if effective_denominator(float(x[idx[i]])):
            ended[i] = True
    return alpha_next, beta_next, ended


def _reference_series(x, idx, out, tol, f=np.zeros_like, supf=0.0, h_tol=math.inf, f_err=0.0):
    value, err, terms, ok = out
    alpha = x[idx]
    beta = np.ones(idx.size)
    val = np.zeros(idx.size)
    beta_sum = np.zeros(idx.size)
    prev_g = -np.log(alpha)
    sign = 1.0
    k = 0
    while idx.size and k < MAX_TERMS:
        alpha_next, beta_next, ended = _reference_step(alpha, beta, x, idx)
        g_next = beta_next * -np.log(np.where(ended, 0.5, alpha_next))
        w_done = (k >= 1) & (prev_g < tol) & (g_next <= tol) & (g_next <= prev_g)
        stop = ended | (w_done & (2.0 * beta * supf < h_tol))
        s = np.flatnonzero(stop)
        if s.size:
            done, v, b, b_sum, e = (a.take(s) for a in (idx, val, beta, beta_sum, ended))
            tail = prev_g.take(s) + g_next.take(s) + 4.0 * b * supf + 2.0 * f_err * b_sum
            if e.any():
                i, b_end = s[e], beta_next.take(s[e])
                v[e] += sign * (prev_g.take(i) - 2.0 * b[e] * f(alpha.take(i)))
                tail[e] = (720.0 + 4.0 * supf) * b_end + 2.0 * f_err * (b_sum[e] + b[e])
                tail[e] += np.spacing(np.abs(v[e]))
                fin = ~e
                fin[e] = [not float_end_error(float(x[j]), "a row", k + 1) for j in done[e]]
                done, v, tail, e = done[fin], v[fin], tail[fin], e[fin]
            value[done], err[done], ok[done] = v, tail, True
            if terms is not None:
                terms[done] = k + e
        keep = np.flatnonzero(~stop)
        if keep.size < idx.size:
            idx, alpha, beta, val, beta_sum, alpha_next, beta_next, prev_g, g_next = (
                a.take(keep)
                for a in (idx, alpha, beta, val, beta_sum, alpha_next, beta_next, prev_g, g_next)
            )
        val += sign * (prev_g - 2.0 * beta * f(alpha))
        beta_sum += beta
        prev_g = g_next
        beta = beta_next
        alpha = alpha_next
        sign = -sign
        k += 1


def _with_neighbours(fractions, ulps):
    xs = []
    for lo in fractions:
        hi = lo
        xs.append(lo)
        for _ in range(ulps):
            lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, 1.0)
            xs += [lo, hi]
    return np.array(xs)


def _inputs():
    rng = np.random.default_rng(20261021)
    n_mix = 3 * _BLOCK + 1234
    sets = {f"mixture-K{K:g}": moments._mixture_samples(K, n_mix, seed)[0]
            for K, seed in ((0.5, 1), (2.0, 11), (20.0, 12))}
    sets["uniform"] = rng.random(40_000)
    # every p/q with q <= 40 and its neighbours 1..8 ulp away
    sets["fractions-q40"] = _with_neighbours(
        [p / q for q in range(1, 41) for p in range(1, q) if math.gcd(p, q) == 1], 8)
    # effectively rational rows past q = 40 end at a candidate step
    qs = rng.integers(41, 10_001, 300)
    sets["fractions-q10000"] = _with_neighbours([int(rng.integers(1, q)) / q for q in qs], 2)
    # below SMALLX_CUT g_batch takes its small-x form; just above it orbits
    # often end on RATIONAL_GUARD
    sets["tiny"] = np.concatenate([np.exp(rng.uniform(math.log(1e-300), math.log(1e-13), 2000)),
                                   rng.uniform(1e-13, 2e-13, 2000)])
    sets["edges"] = np.array([0.0, 1.0, math.nan, -0.5, 1.5, math.inf, 5e-324])
    return sets


INPUTS = _inputs()


def _bytes(arrays):
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("name", list(INPUTS))
def test_sweep_keeps_every_bit_of_the_reference(name, monkeypatch):
    x = INPUTS[name]
    with monkeypatch.context() as m:
        m.setattr(sf._FTable, "lookup", _reference_lookup)
        m.setattr(sf, "_orbit_series", _reference_series)
        m.setattr(wilton_module, "_orbit_series", _reference_series)
        ref_g, ref_w = sf.g_batch(x), wilton_module.wilton_batch(x)
    for cpus in (1, 2):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert _bytes(sf.g_batch(x)) == _bytes(ref_g), cpus
        assert _bytes(wilton_module.wilton_batch(x)) == _bytes(ref_w), cpus


def test_sweep_reads_f_once_per_step(monkeypatch):
    # one lookup per orbit step, of every row stepped, on steps where rows end
    # on RATIONAL_GUARD or at a candidate step as on any other
    steps, looked_up = [], []
    step, lookup = wilton_module.orbit_step, sf._FTable.lookup

    def counting_step(alpha, beta, x, idx):
        out = step(alpha, beta, x, idx)
        steps.append((alpha.size, int(out[2].sum())))
        return out

    def counting_lookup(self, x):
        looked_up.append(x.size)
        return lookup(self, x)

    monkeypatch.setattr(wilton_module, "orbit_step", counting_step)
    monkeypatch.setattr(sf._FTable, "lookup", counting_lookup)
    sf.g_batch(np.concatenate([INPUTS[name] for name in ("mixture-K2", "tiny", "fractions-q10000")]))
    rows, ended = np.array(steps).sum(axis=0)
    assert ended > 0
    assert len(looked_up) == len(steps) and sum(looked_up) == rows


@pytest.mark.parametrize("name,all_ok", [("tiny", True), ("fractions-q10000", False)])
def test_inputs_have_rows_whose_orbit_ends(name, all_ok, monkeypatch):
    # rows that end on RATIONAL_GUARD write their sums (ok); rows that end at a
    # candidate step are effectively rational (not ok)
    ended, step = [], wilton_module.orbit_step

    def counting(*args):
        out = step(*args)
        ended.append(int(out[2].sum()))
        return out

    monkeypatch.setattr(wilton_module, "orbit_step", counting)
    ok = sf.g_batch(INPUTS[name])[2]
    assert sum(ended) > 0 and ok.all() == all_ok


@pytest.mark.parametrize("share", [0.0, 1.0])
@pytest.mark.parametrize("abs_tol", [1e-8, 10.0])
def test_bits_do_not_depend_on_the_compaction_share(share, abs_tol, monkeypatch):
    # share 0 compacts at every step; at share 1 stopped rows step on from
    # _GOLDEN to the end and meet the stop rules again, at tol 10 within two steps
    x, cfg = INPUTS["mixture-K2"], ToleranceConfig(abs_tol=abs_tol)
    with monkeypatch.context() as m:
        m.setattr(wilton_module, "_orbit_series", _reference_series)
        ref = wilton_module.wilton_batch(x, cfg)
    monkeypatch.setattr(wilton_module, "_COMPACT_SHARE", share)
    assert _bytes(wilton_module.wilton_batch(x, cfg)) == _bytes(ref)


def test_stopped_rows_never_end():
    # a stopped row carries idx -1 and steps on from _GOLDEN for up to MAX_TERMS
    # steps; if its orbit ended or reached a candidate step, the sweep would read
    # x[-1] and write over another row's result
    alpha, beta, idx = np.array([wilton_module._GOLDEN]), np.ones(1), np.array([-1])
    floor = max(RATIONAL_GUARD, _CANDIDATE_ALPHA)
    for _ in range(MAX_TERMS):
        alpha, beta, ended = wilton_module.orbit_step(alpha, beta, np.array([0.5]), idx)
        assert not ended.any() and alpha[0] >= floor
