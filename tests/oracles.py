"""Reference implementations that the tests check the library against.

The engine refits every arm incrementally, after every patient;
:func:`update_all_estimates` refits every arm in one batch from a stored
history (shared slopes by :func:`fit_shared_slope_lse`, the joint least
squares with one intercept per arm), so the tests can check the running
estimates against a fit from scratch.  :func:`replay_rowwise_refits` replays
each rowwise logistic refit of a history by the one-cell IRLS core on the
arm's rows, without the engine's row store.  :func:`support_index` finds
each patient's covariate support point from its covariates, as the engine's
support counts count them.
:func:`jacobian_fd` is a central finite-difference Jacobian of the
allocation rule, the reference for the analytic one.  The library itself
runs none of these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from carasim.allocation import AllocationRule, probabilities
from carasim.engine import TrialHistory
from carasim.estimation import (
    COND_MAX,
    DEGENERATE_DESIGN,
    ArmSample,
    EmptySampleError,
    fit_linear_lse,
    fit_one_cell,
    solve_errstate,
)
from carasim.model import TrialModel

# ---------------------------------------------------------------------------
# Batch refits of a whole history
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JointFitResult:
    """Outcome of a shared-slope least-squares fit across all arms."""

    theta: np.ndarray  # (K, d)
    converged: bool
    projected: bool
    reason: str = ""


@dataclass(frozen=True)
class EstimatesUpdate:
    theta: np.ndarray  # (K, d)
    converged: np.ndarray  # (K,) bool
    projected: np.ndarray  # (K,) bool


def fit_shared_slope_lse(X: np.ndarray, y: np.ndarray, arm_idx: np.ndarray, K: int,
                         lo: np.ndarray, hi: np.ndarray) -> JointFitResult:
    """Joint least squares: per-arm intercepts, slopes shared across arms.

    Rows must carry a leading constant-1 coordinate; the fitted coefficient
    matrix has rows (mu_k, beta) with one intercept per arm and a common
    slope vector beta.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    arm_idx = np.asarray(arm_idx, dtype=int).ravel()
    n, d = X.shape
    if n == 0:
        raise EmptySampleError("least-squares fit requires at least one observation")
    if y.shape[0] != n or arm_idx.shape[0] != n:
        raise ValueError("X, y and arm_idx must have matching lengths")
    if not np.all(X[:, 0] == 1.0):
        raise ValueError("shared-slope fit requires a leading constant-1 column")
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (K, d))
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (K, d))

    P = K + (d - 1)
    eta = np.zeros((n, P))
    eta[np.arange(n), arm_idx] = 1.0
    eta[:, K:] = X[:, 1:]
    A = eta.T @ eta
    rhs = eta.T @ y

    def _theta_from(coef: np.ndarray) -> np.ndarray:
        theta = np.empty((K, d))
        theta[:, 0] = coef[:K]
        theta[:, 1:] = coef[K:]
        return theta

    mid = _theta_from(np.concatenate([0.5 * (lo[:, 0] + hi[:, 0]),
                                      0.5 * (lo[0, 1:] + hi[0, 1:])]))
    degenerate = JointFitResult(theta=mid, converged=False, projected=False,
                                reason=DEGENERATE_DESIGN)
    if n < P or np.linalg.cond(A) > COND_MAX:
        return degenerate
    try:
        coef = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        return degenerate
    theta = _theta_from(coef)
    clipped = np.clip(theta, lo, hi)
    return JointFitResult(theta=clipped, converged=True,
                          projected=bool(np.any(clipped != theta)))


def update_all_estimates(history: "TrialHistory", model: "TrialModel") -> EstimatesUpdate:
    """Refit every arm from a trial history, warm-starting at its latest
    estimate; arms whose fit fails (or that have no data) keep the previous
    value.  Logistic arms are refitted as the engine refits them, without the
    conditioning guard.  Pure: identical history in, identical estimates out."""
    K, d = model.K, model.d
    prev = history.current_theta
    if prev is None:
        prev = 0.5 * (model.box_lo + model.box_hi)
    theta = np.array(prev, dtype=float)
    converged = np.zeros(K, dtype=bool)
    projected = np.zeros(K, dtype=bool)

    X = history.covariates[:history.n]
    y = history.responses[:history.n]
    arms = history.arms[:history.n]

    if model.shared_slopes:
        if history.n == 0:
            return EstimatesUpdate(theta=theta, converged=converged, projected=projected)
        fit = fit_shared_slope_lse(X, y, arms, K, model.box_lo, model.box_hi)
        if fit.converged:
            theta = fit.theta
        converged[:] = fit.converged
        projected[:] = fit.projected
        return EstimatesUpdate(theta=theta, converged=converged, projected=projected)

    for k in range(K):
        mask = arms == k
        if not np.any(mask):
            continue
        lo, hi = model.box_lo[k], model.box_hi[k]
        if model.arms[k].family == "logistic":
            # The core's C-order block: the successes, then the covariates.
            rows = np.empty((1 + d, int(mask.sum())))
            rows[0], rows[1:] = y[mask], X[mask].T
            with solve_errstate():
                raw, conv, _, failed = fit_one_cell(rows, None, np.clip(theta[k], lo, hi), False)
            est = np.clip(raw, lo, hi)
            moved = np.any(est != raw)
        else:
            fit = fit_linear_lse(ArmSample(X=X[mask], y=y[mask]), lo, hi)
            failed = fit.reason == DEGENERATE_DESIGN
            est, conv, moved = fit.theta_hat, fit.converged, fit.projected
        if failed:
            continue  # keep previous estimate
        theta[k], converged[k], projected[k] = est, conv, moved
    return EstimatesUpdate(theta=theta, converged=converged, projected=projected)


def support_index(model: "TrialModel", covariates: np.ndarray) -> np.ndarray:
    """Each row's index among the model's covariate support points
    (``model.covariates.enumerated()[0]``), which it must equal exactly."""
    points = model.covariates.enumerated()[0]
    hit = np.all(np.asarray(covariates)[:, None, :] == points[None, :, :], axis=2)
    assert np.all(hit.sum(axis=1) == 1), "a row is not one support point"
    return hit.argmax(axis=1)


# ---------------------------------------------------------------------------
# Finite-difference Jacobian of an allocation rule
# ---------------------------------------------------------------------------


_FD_STEP = 1e-6


@dataclass(frozen=True)
class RowwiseReplay:
    theta_records: np.ndarray  # (n - burn + 1, K, d): the estimates after patients burn..n
    converged: np.ndarray  # (K,) bool: each arm's last refit
    projected: np.ndarray  # (K,) bool
    fit_failures: np.ndarray  # (K,) int
    counts: dict  # IRLS counters per arm, by the engine's names
    projected_refits: int  # refits that the box moved


def replay_rowwise_refits(history: "TrialHistory", model: "TrialModel") -> RowwiseReplay:
    """Every refit of a history whose arms are all rowwise logistic arms
    (continuous covariates, ``theta_stride`` 1), replayed by ``fit_one_cell``
    on the arm's rows of the history, without the conditioning guard: at the
    end of burn-in every arm from the box midpoint, and after it the arm
    patient m joined from its estimate after patient m - 1.  A singular fit
    keeps the estimate and counts a fit failure."""
    K, d, burn = history.K, history.d, history.K * history.m0
    lo, hi = model.box_lo, model.box_hi
    theta = 0.5 * (lo + hi)
    converged, projected = np.zeros((2, K), dtype=bool)
    failures = np.zeros(K, dtype=int)
    counts = {name: np.zeros(K, dtype=np.int64)
              for name in ("irls_fits", "irls_iterations", "irls_nonconverged", "irls_singular")}
    records, moved = [], 0
    with solve_errstate():
        for m in range(burn - 1, history.n):
            if m >= burn:
                theta = history.theta_records[m - 1].copy()
            for k in range(K) if m == burn - 1 else [history.arms[m]]:
                mine = history.arms[:m + 1] == k
                rows = np.vstack([history.responses[:m + 1][mine],
                                  history.covariates[:m + 1][mine].T])
                raw, converged[k], iterations, singular = fit_one_cell(rows, None, theta[k], False)
                projected[k] = False
                if singular:
                    failures[k] += 1
                else:
                    theta[k] = np.clip(raw, lo[k], hi[k])
                    projected[k] = np.any(theta[k] != raw)
                moved += projected[k]
                counts["irls_fits"][k] += 1
                counts["irls_iterations"][k] += iterations
                counts["irls_nonconverged"][k] += not (converged[k] or singular)
                counts["irls_singular"][k] += singular
            records.append(theta.copy())
    return RowwiseReplay(theta_records=np.array(records), converged=converged,
                         projected=projected, fit_failures=failures, counts=counts,
                         projected_refits=int(moved))


def jacobian_fd(rule: AllocationRule, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Central finite-difference Jacobian at one covariate, one column per coefficient."""
    theta = np.asarray(theta, dtype=float)
    x = np.asarray(x, dtype=float)
    K, d = theta.shape
    jac = np.empty((K, K * d))
    for j in range(K):
        for l in range(d):
            tp = theta.copy()
            tm = theta.copy()
            tp[j, l] += _FD_STEP
            tm[j, l] -= _FD_STEP
            jac[:, j * d + l] = (probabilities(rule, tp, x)
                                 - probabilities(rule, tm, x)) / (2.0 * _FD_STEP)
    return jac
