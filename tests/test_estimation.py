import numpy as np
import pytest
from scipy.special import expit

from carasim import estimation
from carasim.engine import TrialHistory, replicate_root, run_trial, run_trials
from carasim.estimation import (
    DEGENERATE_DESIGN,
    SINGULAR_HESSIAN,
    ArmSample,
    EmptySampleError,
    fit_grouped_logistic_mle,
    fit_linear_lse,
    fit_logistic_mle,
)
from carasim.fixtures import MLE_X, MLE_Y, f1_config
from carasim.harness import parse_config
from carasim.model import ArmModel, CovariateSpec, TrialModel, TwoPoint

from oracles import fit_shared_slope_lse, update_all_estimates

BOX1 = (np.array([-5.0]), np.array([5.0]))
BOX2 = (np.array([-5.0, -5.0]), np.array([5.0, 5.0]))


def _fit_one_cell(X, t, s, init):
    """The one-cell IRLS core on rows X with trials t (None: one per row) and
    successes s, without the conditioning guard, as the engine refits."""
    rows = np.empty((1 + X.shape[1], X.shape[0]))
    rows[0], rows[1:] = s, X.T
    with estimation.solve_errstate():
        return estimation.fit_one_cell(rows, t, init, False)


# ---------------------------------------------------------------------------
# Logistic MLE
# ---------------------------------------------------------------------------


def test_balanced_intercept_only_mle_is_zero():
    sample = ArmSample(X=np.ones((20, 1)), y=np.r_[np.ones(10), np.zeros(10)])
    fit = fit_logistic_mle(sample, *BOX1)
    assert fit.converged and not fit.projected
    np.testing.assert_allclose(fit.theta_hat, [0.0], rtol=0, atol=1e-8)


def test_mle_matches_grid_search_oracle():
    grid = np.arange(-5.0, 5.0 + 5e-5, 1e-4)
    mu = np.outer(grid, MLE_X)
    loglik = (MLE_Y * mu - np.logaddexp(0.0, mu)).sum(axis=1)
    theta_grid = grid[int(np.argmax(loglik))]
    fit = fit_logistic_mle(ArmSample(X=MLE_X[:, None], y=MLE_Y), *BOX1)
    assert fit.converged
    assert abs(fit.theta_hat[0] - theta_grid) <= 1e-3


def test_separated_data_projects_onto_box_boundary():
    # x > 0 always succeeds, so the unconstrained MLE diverges.
    sample = ArmSample(X=np.ones((6, 1)), y=np.ones(6))
    fit = fit_logistic_mle(sample, *BOX1)
    assert fit.projected
    np.testing.assert_allclose(fit.theta_hat, [5.0])


def test_interior_mle_has_small_summed_score():
    rng = np.random.default_rng(404)
    X = np.column_stack([np.ones(120), rng.normal(size=120)])
    eta = X @ np.array([0.4, -0.8])
    y = (rng.random(120) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    fit = fit_logistic_mle(ArmSample(X=X, y=y), *BOX2)
    assert fit.converged and not fit.projected
    p = 1.0 / (1.0 + np.exp(-(X @ fit.theta_hat)))
    assert np.max(np.abs(X.T @ (y - p))) <= 1e-6


def test_loglik_nondecreasing_along_iterations(monkeypatch):
    rng = np.random.default_rng(7)
    X = np.column_stack([np.ones(60), rng.normal(size=60)])
    y = (rng.random(60) < 0.5).astype(float)
    # IRLS evaluates expit once per iteration, at the accepted iterate's
    # linear predictor: record those predictors, then the final estimate's
    # (a fit that stops on the step tolerance accepts one more iterate).
    iterates = []

    def recording_expit(mu):
        iterates.append(np.array(mu))
        return expit(mu)

    monkeypatch.setattr(estimation, "expit", recording_expit)
    raw, _, _, singular = _fit_one_cell(X, None, y, np.array([3.0, -3.0]))
    assert not singular
    iterates.append(X @ raw)
    path = np.array([y @ mu - np.logaddexp(0.0, mu).sum() for mu in iterates])
    assert path.shape[0] >= 2
    assert np.all(np.diff(path) >= -1e-12)


def _reference_loglik(mu, t, s, starts):
    """Each cell's log-likelihood with the softplus by ``np.logaddexp``."""
    lae = np.logaddexp(0.0, mu)
    return np.add.reduceat(s * mu - (lae if t is None else t * lae), starts)


def _bare_loglik(mu, t, s, starts):
    """``log1p(exp(mu))`` without the overflow rule: ll = -inf where exp overflows."""
    lae = np.log1p(np.exp(mu))
    return np.add.reduceat(s * mu - (lae if t is None else t * lae), starts)


def test_a_fit_whose_candidates_overflow_exp_keeps_every_halving_decision(monkeypatch):
    """Six separable rows at d = 5, fitted from zero: Newton candidates reach
    linear predictors past 709.78, where ``exp`` overflows.  The fit gives the
    same bits alone and batched between two ordinary cells, and the bits of
    the fit whose log-likelihood takes the softplus from ``logaddexp``; without
    the overflow rule it would halve other steps and end elsewhere."""
    d, rng = 5, np.random.default_rng(854)
    X = np.column_stack([np.ones(6), rng.uniform(-1.0, 1.0, (6, d - 1))])
    y = (rng.random(6) < 0.5).astype(float)
    ordinary = []
    for m in (40, 25):
        Xo = np.column_stack([np.ones(m), rng.uniform(-1.0, 1.0, (m, d - 1))])
        ordinary.append((Xo, (rng.random(m) < expit(Xo @ np.full(d, 0.3))).astype(float)))
    cells = [ordinary[0], (X, y), ordinary[1]]
    rows = np.vstack([np.concatenate([c[1] for c in cells]), np.hstack([c[0].T for c in cells])])
    sizes, init = np.array([c[0].shape[0] for c in cells]), np.zeros((3, d))

    largest = []
    loglik = estimation._loglik

    def spy(mu, t, s, starts):
        largest.append(np.abs(mu).max())
        return loglik(mu, t, s, starts)

    monkeypatch.setattr(estimation, "_loglik", spy)
    alone = _fit_one_cell(X, None, y, np.zeros(d))
    assert max(largest) > 709.78
    largest.clear()
    raw, converged, iterations, singular = estimation.fit_logistic_cells(rows, None, sizes, init)
    assert max(largest) > 709.78
    np.testing.assert_array_equal(raw[1], alone[0])
    assert (converged[1], iterations[1], singular[1]) == alone[1:]
    monkeypatch.setattr(estimation, "_loglik", _reference_loglik)
    reference = _fit_one_cell(X, None, y, np.zeros(d))
    np.testing.assert_array_equal(reference[0], alone[0])
    assert reference[1:] == alone[1:]
    monkeypatch.setattr(estimation, "_loglik", _bare_loglik)
    bare = _fit_one_cell(X, None, y, np.zeros(d))
    assert bare[1:] != alone[1:] or np.any(bare[0] != alone[0])


def test_grouped_and_rowwise_fits_agree():
    points = np.array([[1.0, 0.0], [1.0, 1.0]])
    trials = np.array([40.0, 35.0])
    succ = np.array([24.0, 11.0])
    rows_X = np.repeat(points, trials.astype(int), axis=0)
    rows_y = np.concatenate([
        np.r_[np.ones(int(s)), np.zeros(int(t - s))] for t, s in zip(trials, succ)])
    grouped = fit_grouped_logistic_mle(points, trials, succ, *BOX2)
    rowwise = fit_logistic_mle(ArmSample(X=rows_X, y=rows_y), *BOX2)
    assert grouped.converged and rowwise.converged
    np.testing.assert_allclose(grouped.theta_hat, rowwise.theta_hat, rtol=0, atol=1e-9)
    # Saturated two-point design: the MLE interpolates the group logits.
    np.testing.assert_allclose(grouped.theta_hat[0], np.log(24.0 / 16.0), atol=1e-7)


def test_conditioning_guard_ends_a_nearly_singular_fit():
    # Four points on a line through the origin, two of them perturbed by
    # 1e-6: the Hessian is regular but its condition number passes COND_MAX.
    X = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-6], [2.0, 2.0], [0.5, 0.5 - 1e-6]])
    t, s = np.array([3.0, 3.0, 3.0, 2.0]), np.array([1.0, 2.0, 1.0, 1.0])
    box = (np.full(2, -3.0), np.full(2, 3.0))
    guarded = fit_grouped_logistic_mle(X, t, s, *box)
    assert guarded.reason == SINGULAR_HESSIAN and not guarded.converged
    np.testing.assert_array_equal(guarded.theta_hat, [0.0, 0.0])
    # The engine's refit runs the core without the guard.
    raw, _, _, singular = _fit_one_cell(X, t, s, np.zeros(2))
    assert not singular
    np.testing.assert_array_equal(np.clip(raw, *box), [-3.0, 3.0])
    assert np.any(np.clip(raw, *box) != raw)


def test_empty_sample_raises():
    with pytest.raises(EmptySampleError):
        fit_logistic_mle(ArmSample(X=np.empty((0, 1)), y=np.empty(0)), *BOX1)


# ---------------------------------------------------------------------------
# Least squares
# ---------------------------------------------------------------------------


def test_lse_exact_interpolation():
    sample = ArmSample(X=np.array([[1.0, 1.0], [1.0, 2.0]]), y=np.array([2.0, 3.0]))
    fit = fit_linear_lse(sample, *BOX2)
    assert fit.converged
    np.testing.assert_allclose(fit.theta_hat, [1.0, 1.0], rtol=0, atol=1e-12)
    sse = np.sum((sample.y - sample.X @ fit.theta_hat) ** 2)
    np.testing.assert_allclose(sse, 0.0, rtol=0, atol=1e-20)


def test_lse_matches_explicit_normal_equation_inverse():
    rng = np.random.default_rng(52)
    X = np.column_stack([np.ones(50), rng.normal(size=50)])
    y = X @ np.array([0.7, -1.2]) + rng.normal(size=50)
    A = X.T @ X
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    Ainv = np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]]) / det
    fit = fit_linear_lse(ArmSample(X=X, y=y), *BOX2)
    np.testing.assert_allclose(fit.theta_hat, Ainv @ (X.T @ y), rtol=0, atol=1e-10)


def test_lse_residuals_orthogonal_to_design():
    rng = np.random.default_rng(8)
    X = np.column_stack([np.ones(80), rng.uniform(-1, 1, size=80)])
    y = rng.normal(size=80)
    fit = fit_linear_lse(ArmSample(X=X, y=y), *BOX2)
    assert np.max(np.abs(X.T @ (y - X @ fit.theta_hat))) <= 1e-8


def test_lse_degenerate_design_fails_soft():
    X = np.tile([[1.0, 2.0]], (5, 1))
    fit = fit_linear_lse(ArmSample(X=X, y=np.arange(5.0)), *BOX2)
    assert not fit.converged
    assert fit.reason == DEGENERATE_DESIGN


def test_lse_clamps_to_box():
    sample = ArmSample(X=np.array([[1.0], [1.0]]), y=np.array([9.0, 11.0]))
    fit = fit_linear_lse(sample, np.array([-2.0]), np.array([2.0]))
    assert fit.projected
    np.testing.assert_allclose(fit.theta_hat, [2.0])


# ---------------------------------------------------------------------------
# Shared-slope joint least squares
# ---------------------------------------------------------------------------


def test_shared_slope_lse_recovers_noiseless_coefficients():
    rng = np.random.default_rng(13)
    n, K = 60, 2
    X = np.column_stack([np.ones(n), rng.uniform(-1, 1, n), rng.uniform(0, 2, n)])
    arm = rng.integers(0, K, size=n)
    mu = np.array([1.5, -0.5])
    beta = np.array([0.8, -0.3])
    y = mu[arm] + X[:, 1:] @ beta
    lo = np.full((K, 3), -5.0)
    hi = np.full((K, 3), 5.0)
    fit = fit_shared_slope_lse(X, y, arm, K, lo, hi)
    assert fit.converged
    np.testing.assert_allclose(fit.theta[:, 0], mu, rtol=0, atol=1e-10)
    np.testing.assert_allclose(fit.theta[0, 1:], beta, rtol=0, atol=1e-10)
    np.testing.assert_allclose(fit.theta[0, 1:], fit.theta[1, 1:], rtol=0, atol=0)


def test_shared_slope_lse_requires_unit_first_column():
    X = np.column_stack([np.full(8, 2.0), np.ones(8)])
    with pytest.raises(ValueError):
        fit_shared_slope_lse(X, np.zeros(8), np.zeros(8, dtype=int), 2,
                             np.full((2, 2), -1.0), np.full((2, 2), 1.0))


def test_shared_slope_lse_underdetermined_fails_soft():
    X = np.ones((2, 2))
    fit = fit_shared_slope_lse(X, np.zeros(2), np.array([0, 1]), 2,
                               np.full((2, 2), -1.0), np.full((2, 2), 1.0))
    assert not fit.converged
    assert fit.reason == DEGENERATE_DESIGN


# ---------------------------------------------------------------------------
# update_all_estimates
# ---------------------------------------------------------------------------


def _f1_history(n=200, seed=5):
    cfg = parse_config(f1_config(n=n, replicates=1, seed=seed))
    hist = run_trial(cfg.model, cfg.rule, cfg.n, cfg.m0, replicate_root(seed, 0),
                     cfg.engine_options())
    return hist, cfg.model


def test_update_all_estimates_is_pure():
    hist, model = _f1_history()
    first = update_all_estimates(hist, model)
    second = update_all_estimates(hist, model)
    np.testing.assert_array_equal(first.theta, second.theta)
    np.testing.assert_array_equal(first.converged, second.converged)


def test_update_all_estimates_converges_after_burn_in():
    hist, model = _f1_history(n=200)
    out = update_all_estimates(hist, model)
    assert np.all(out.converged)
    assert np.all(out.theta >= model.box_lo) and np.all(out.theta <= model.box_hi)


def test_update_matches_engine_running_estimate():
    hist, model = _f1_history(n=400)
    out = update_all_estimates(hist, model)
    np.testing.assert_allclose(out.theta, hist.current_theta, rtol=0, atol=1e-6)


def test_update_keeps_previous_estimate_for_degenerate_arm():
    arm = ArmModel(family="normal-linear")
    spec = CovariateSpec.product([TwoPoint(0.0, 1.0, 0.5)], intercept=True)
    model = TrialModel(arms=(arm, arm), covariates=spec,
                       true_theta=np.array([[0.5, 0.2], [-0.5, 0.1]]),
                       box_lo=-3.0, box_hi=3.0)
    # Arm 2 saw a single covariate point: its normal equations are singular.
    covs = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    arms = np.array([0, 0, 1, 1])
    prev = np.array([[0.1, 0.1], [0.2, 0.2]])
    hist = TrialHistory.from_arrays(covs, arms, np.array([0.4, 0.9, -0.2, -0.6]),
                                    K=2, current_theta=prev)
    out = update_all_estimates(hist, model)
    assert out.converged[0] and not out.converged[1]
    np.testing.assert_array_equal(out.theta[1], prev[1])


def test_estimates_tighten_with_horizon():
    cfg_small = parse_config(f1_config(n=300, replicates=60, seed=2024))
    cfg_large = parse_config(f1_config(n=3000, replicates=60, seed=2024))
    errs = {}
    for cfg in (cfg_small, cfg_large):
        seeds = [replicate_root(cfg.seed, i) for i in range(cfg.replicates)]
        batch = run_trials(cfg.model, cfg.rule, cfg.n, cfg.m0, seeds, cfg.engine_options(),
                           histories=False)
        devs = [np.linalg.norm(theta - cfg.model.true_theta) for theta in batch.theta]
        errs[cfg.n] = np.median(devs)
    assert errs[3000] < errs[300]
