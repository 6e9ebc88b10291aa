"""Per-arm maximum likelihood / least squares with box-clamped estimates.

Logistic arms are fitted by iteratively reweighted least squares (Newton with
step halving, so the log-likelihood never decreases along the iteration).
Normal-linear arms are fitted by the normal equations.  Final estimates are
always clamped coordinatewise into the arm's parameter box; ``projected``
records whether the clamp moved the point.

``fit_grouped_logistic_mle`` fits from binomial sufficient statistics
(support points, trial counts, success counts); the rowwise
``fit_logistic_mle`` is the unit-trial special case and both share one IRLS
core, so they return identical estimates on equivalent data.  With
``check_conditioning=False`` (the engine's refits and
``update_all_estimates``) IRLS skips its condition-number guard on the
Hessian; an exactly singular system still ends the fit as singular.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import expit

if TYPE_CHECKING:  # pragma: no cover
    from .engine import TrialHistory
    from .model import TrialModel

__all__ = [
    "ArmSample",
    "FitResult",
    "JointFitResult",
    "EstimatesUpdate",
    "EstimationError",
    "EmptySampleError",
    "fit_logistic_mle",
    "fit_grouped_logistic_mle",
    "fit_linear_lse",
    "fit_shared_slope_lse",
    "update_all_estimates",
]

# Machine-readable failure reasons carried on non-converged fits.
SINGULAR_HESSIAN = "singular-hessian"
DEGENERATE_DESIGN = "degenerate-design"
MAX_ITERATIONS = "max-iterations"


class EstimationError(Exception):
    pass


class EmptySampleError(EstimationError):
    pass


@dataclass(frozen=True)
class ArmSample:
    """Design rows and responses observed on one arm."""

    X: np.ndarray  # (n, d)
    y: np.ndarray  # (n,)

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]} entries")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]


# IRLS converges when the gradient's or the Newton step's largest component
# falls to its tolerance, and gives up after _MAX_ITER iterations; a step is
# halved at most _MAX_HALVINGS times to keep the log-likelihood from
# decreasing.  A matrix whose condition number exceeds COND_MAX is singular;
# with ``check_conditioning`` an IRLS Hessian that is not finite or that
# exceeds it ends the fit as singular.
_GRAD_TOL = 1e-8
_STEP_TOL = 1e-10
_MAX_ITER = 100
_MAX_HALVINGS = 30
COND_MAX = 1e12


@dataclass(frozen=True)
class FitResult:
    """Outcome of a single-arm fit; ``reason`` is empty on success."""

    theta_hat: np.ndarray
    converged: bool
    projected: bool
    iterations: int
    reason: str = ""


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


def _check_box(lo: np.ndarray, hi: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    lo = np.asarray(lo, dtype=float).ravel()
    hi = np.asarray(hi, dtype=float).ravel()
    if lo.shape != (d,) or hi.shape != (d,):
        raise ValueError(f"box bounds must have shape ({d},)")
    if not np.all(lo < hi):
        raise ValueError("box needs lo < hi coordinatewise")
    return lo, hi


def _clamp(theta: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, bool]:
    clipped = np.clip(theta, lo, hi)
    return clipped, bool(np.any(clipped != theta))


def _binomial_loglik(mu: np.ndarray, trials: np.ndarray, successes: np.ndarray) -> float:
    # sum s*mu - t*log(1 + exp(mu)), dropping the mu-free combinatorial term
    return float(successes @ mu - trials @ np.logaddexp(0.0, mu))


def fit_grouped_logistic_mle(points: np.ndarray, trials: np.ndarray,
                             successes: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                             init: np.ndarray | None = None,
                             check_conditioning: bool = True) -> FitResult:
    """Logistic MLE from binomial counts at distinct covariate points."""
    X = np.atleast_2d(np.asarray(points, dtype=float))
    t = np.asarray(trials, dtype=float).ravel()
    s = np.asarray(successes, dtype=float).ravel()
    if X.shape[0] != t.shape[0] or X.shape[0] != s.shape[0]:
        raise ValueError("points, trials and successes must have matching lengths")
    if t.sum() <= 0.0:
        raise EmptySampleError("logistic fit requires at least one observation")
    d = X.shape[1]
    lo, hi = _check_box(lo, hi, d)
    if init is None:
        init = 0.5 * (lo + hi)
    else:
        init = np.asarray(init, dtype=float).ravel()
        if init.shape != (d,):
            raise ValueError(f"init must have shape ({d},)")
        if (init < lo).any() or (init > hi).any():
            raise ValueError("init must lie inside the box")

    theta = init.copy()
    mu = X @ theta  # linear predictor at theta, carried from step to step
    ll = _binomial_loglik(mu, t, s)
    converged = False
    reason = MAX_ITERATIONS
    iterations = 0

    for iterations in range(1, _MAX_ITER + 1):
        p = expit(mu)
        grad = X.T @ (s - t * p)
        if np.abs(grad).max() <= _GRAD_TOL:
            converged, reason = True, ""
            iterations -= 1
            break
        w = t * p * (1.0 - p)
        H = (X * w[:, None]).T @ X
        singular = False
        if check_conditioning and (not np.all(np.isfinite(H))
                                   or np.linalg.cond(H) > COND_MAX):
            singular = True
        if not singular:
            try:
                delta = np.linalg.solve(H, grad)
            except np.linalg.LinAlgError:
                singular = True
            else:
                singular = not np.isfinite(delta).all()
        if singular:
            theta_c, projected = _clamp(init, lo, hi)
            return FitResult(theta_hat=theta_c, converged=False, projected=projected,
                             iterations=iterations, reason=SINGULAR_HESSIAN)
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            cand = theta + scale * delta
            mu_c = X @ cand
            llc = _binomial_loglik(mu_c, t, s)
            if llc >= ll - 1e-12:
                break
            scale *= 0.5
        else:
            scale, cand, mu_c, llc = 0.0, theta, mu, ll
        step_norm = scale * np.abs(delta).max()
        theta, mu, ll = cand, mu_c, llc
        if step_norm <= _STEP_TOL:
            converged, reason = True, ""
            break

    theta_c, projected = _clamp(theta, lo, hi)
    return FitResult(theta_hat=theta_c, converged=converged, projected=projected,
                     iterations=iterations, reason=reason)


def fit_logistic_mle(sample: ArmSample, lo: np.ndarray, hi: np.ndarray,
                     init: np.ndarray | None = None) -> FitResult:
    """Logistic MLE on per-observation rows (binary y)."""
    if sample.n == 0:
        raise EmptySampleError("logistic fit requires at least one observation")
    return fit_grouped_logistic_mle(sample.X, np.ones(sample.n), sample.y, lo, hi, init=init)


def fit_linear_lse(sample: ArmSample, lo: np.ndarray, hi: np.ndarray) -> FitResult:
    """Least squares by the normal equations; degenerate designs fail soft."""
    if sample.n == 0:
        raise EmptySampleError("least-squares fit requires at least one observation")
    d = sample.X.shape[1]
    lo, hi = _check_box(lo, hi, d)
    A = sample.X.T @ sample.X
    degenerate = FitResult(theta_hat=0.5 * (lo + hi), converged=False, projected=False,
                           iterations=0, reason=DEGENERATE_DESIGN)
    if sample.n < d or np.linalg.cond(A) > COND_MAX:
        return degenerate
    try:
        theta = np.linalg.solve(A, sample.X.T @ sample.y)
    except np.linalg.LinAlgError:
        return degenerate
    theta_c, projected = _clamp(theta, lo, hi)
    return FitResult(theta_hat=theta_c, converged=True, projected=projected, iterations=1)


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
        sample = ArmSample(X=X[mask], y=y[mask])
        lo, hi = model.box_lo[k], model.box_hi[k]
        if model.arms[k].family == "logistic":
            init = np.clip(theta[k], lo, hi)
            fit = fit_grouped_logistic_mle(sample.X, np.ones(sample.n), sample.y, lo, hi,
                                           init=init, check_conditioning=False)
        else:
            fit = fit_linear_lse(sample, lo, hi)
        if fit.reason in (SINGULAR_HESSIAN, DEGENERATE_DESIGN):
            continue  # keep previous estimate
        theta[k] = fit.theta_hat
        converged[k] = fit.converged
        projected[k] = fit.projected
    return EstimatesUpdate(theta=theta, converged=converged, projected=projected)
