"""Acceptance gate: every advertised criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one line per
criterion, or `wm verify --all` for the same suites from the CLI.
"""

import numpy as np
import pytest

from wiltonmoments import cf_dynamics, verify

CRITERIA = [
    "calibration",
    "a1-closed-form",
    "small-lambda-expansion",
    "functional-equation",
    "decomposition",
    "route-crosscheck",
    "contraction",
    "measure-invariance",
    "gamma-ratio-trend",
    "cotangent-antisymmetry",
    "distribution-link",
    "g-antisymmetry",
]


def test_suite_registry_complete():
    assert list(verify.SUITES) == CRITERIA


@pytest.mark.parametrize("name", CRITERIA)
def test_criterion(name):
    result = verify.run_suite(name)
    print(f"{'PASS' if result.passed else 'FAIL'}  {name}  [{result.seconds:.1f}s]  {result.detail}")
    assert result.passed, f"{name}: {result.detail}"


def _pushed(n, seed):
    # the measure-invariance suite's sample: Gauss-measure points mapped once by T
    xs = cf_dynamics.sample_gauss_measure(n, seed=seed)
    return np.clip(cf_dynamics.orbit_step(xs, 1.0, xs)[0], 1e-300, 1.0)


@pytest.mark.parametrize(
    "sample",
    [lambda: _pushed(1_000_000, 20_26_08), lambda: _pushed(20_000, 5),
     lambda: np.random.default_rng(3).random(1_001)],
    ids=["suite", "pushed_seed5", "uniform_seed3"],
)
def test_ks_statistic_matches_kstest_bits(sample):
    from scipy.stats import kstest  # the reference; the package itself never imports scipy

    x = sample()
    ours = verify.ks_statistic(x, cf_dynamics.gauss_measure_cdf)
    assert ours == float(kstest(x, cf_dynamics.gauss_measure_cdf).statistic)
