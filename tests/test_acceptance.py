"""End-to-end verification gate.

One test per verification criterion, in the order the ``verify`` subcommand
runs them.  Each test prints the underlying PASS/FAIL check lines (visible
under ``pytest -s``) and fails if any check lands outside its pinned band.
Heavy Monte Carlo summaries are shared through a module-level cache, so the
whole gate costs one pass over each fixture.

Bands (fixed here and in the harness, not tunable from tests):
  1  theory-exact                hand-derived limits matched to 1e-10
  2  allocation-clt              n=1000, R=2000: var ratio in [0.85, 1.15],
                                 |mean| <= 0.09; first run under 180 s
  3  estimator-clt               per-arm variance ratios in [0.85, 1.15]
  4  conditional-clt             n=2000, R=2000, per-x ratios in [0.8, 1.2]
  5  plugin-consistency          median relative deviation <= 0.10
  6  bb-closed-forms             allocation and mean-effect variances within
                                 [0.85, 1.15] of the closed forms
  7  covariate-free-coincidence  adaptive == i.i.d. covariance to 1e-10
  8  mle-lse-oracle              grid-search MLE within 1e-3, closed-form
                                 LSE within 1e-10
  9  consistency-rate            median estimation error strictly decreasing
                                 over n = 500, 2000, 10000
 10  determinism                 byte-identical reports across reruns and
                                 worker counts
"""

import time

from carasim.fixtures import DEFAULT_SEED
from carasim.harness import CRITERIA, _f1_clt_summary, _ratio_check

_CACHE = {}


def _run(name):
    checks = CRITERIA[name](DEFAULT_SEED, _CACHE, 1)
    for check in checks:
        print(check.line())
    failed = [check.line() for check in checks if not check.passed]
    assert not failed, "\n".join(failed)
    return checks


def test_criterion_01_theory_exact():
    _run("theory-exact")


def test_criterion_02_allocation_clt():
    fresh = ("f1-clt", DEFAULT_SEED) not in _CACHE
    start = time.perf_counter()
    _run("allocation-clt")
    if fresh:
        assert time.perf_counter() - start < 180.0


def test_criterion_03_estimator_clt():
    _run("estimator-clt")


def test_criterion_04_conditional_clt():
    _run("conditional-clt")


def test_criterion_05_plugin_consistency():
    _run("plugin-consistency")


def test_criterion_06_bb_closed_forms():
    _run("bb-closed-forms")


def test_criterion_07_covariate_free_coincidence():
    _run("covariate-free-coincidence")


def test_criterion_08_mle_lse_oracle():
    _run("mle-lse-oracle")


def test_criterion_09_consistency_rate():
    _run("consistency-rate")


def test_criterion_10_determinism():
    _run("determinism")


def test_perturbed_covariance_target_fails():
    # Doubling the allocation-variance target must flip the verdict: the
    # gate can never pass vacuously.
    s = _f1_clt_summary(DEFAULT_SEED, _CACHE, 1)
    observed, target = s.alloc_dev_cov[0, 0], s.theory.sigma[0, 0]
    check = _ratio_check("allocation-clt", "var-sqrt-n-N1", observed, target, 0.85, 1.15)
    assert check == CRITERIA["allocation-clt"](DEFAULT_SEED, _CACHE, 1)[0]
    assert check.passed
    doubled = _ratio_check("allocation-clt", "var-sqrt-n-N1", observed, 2.0 * target, 0.85, 1.15)
    assert not doubled.passed
