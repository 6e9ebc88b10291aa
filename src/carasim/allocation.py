"""Allocation rules mapping (coefficients, covariate) to arm probabilities.

A rule evaluates ``pi(theta, x)``, a strictly positive probability vector over
the K arms, from the current coefficient matrix ``theta`` (K rows) and the
incoming patient's covariate ``x``.  Every rule is smooth in
``theta``; ``jacobian`` returns the K-by-(K*d) matrix of partial derivatives
with columns ordered row-major over (arm j, coordinate l), i.e. column
``j*d + l`` holds d pi_k / d theta_{j,l}.  Both accept one covariate (d,)
or a stack of covariates (N, d) and then evaluate every row at once;
``probabilities`` also takes one coefficient matrix per row, theta of shape
(N, K, d), which is how the engine evaluates a batch of replicates.

Kinds:

* ``ratio-of-g``      pi_k = G(z_k) / sum_j G(z_j) with z_k = theta_k @ x and
                      G one of ``exp`` or ``one-plus-z-squared``.
* ``exponential``     pi_k = exp(T z_k) / sum_j exp(T z_j).
* ``odds-ratio``      two arms, pi_k = exp(z_k) / (exp(z_1) + exp(z_2)).
* ``two-arm-g-difference``  two arms, pi = (G(z_1 - z_2), G(z_2 - z_1)) with
                      G(u) = Phi(u / T), so G(0) = 1/2 and G(-u) = 1 - G(u).
* ``covariate-free-normal`` two arms, ignores x; pi_1 = Phi((theta_{1,1} -
                      theta_{2,1}) / T) using the leading (intercept)
                      coefficients only.

Every kind runs through one batched kernel that gives pi and, for the
Jacobian, d pi / d z; :func:`jacobian_fd` is a central finite-difference
reference for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

__all__ = ["AllocationRule", "KIND_PARAMS", "check_rule", "probabilities",
           "probabilities_unchecked", "jacobian", "jacobian_fd"]

# The parameters each kind reads; a kind must be given these and no others.
KIND_PARAMS = {"ratio-of-g": ("g_name",), "exponential": ("T",), "odds-ratio": (),
               "two-arm-g-difference": ("T",), "covariate-free-normal": ("T",)}
_KINDS = tuple(KIND_PARAMS)
_TWO_ARM_KINDS = ("odds-ratio", "two-arm-g-difference", "covariate-free-normal")
_PHI_KINDS = ("two-arm-g-difference", "covariate-free-normal")  # pi_1 = Phi(u)
_G_NAMES = ("exp", "one-plus-z-squared")
# Floor applied to computed probabilities purely to avoid floating underflow;
# never a policy-level clip.
_FLOOR = 1e-300


@dataclass(frozen=True)
class AllocationRule:
    kind: str
    T: float | None = None
    g_name: str | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown allocation kind {self.kind!r}; expected one of {_KINDS}")
        params = KIND_PARAMS[self.kind]
        if "T" in params:
            if self.T is None or not (math.isfinite(self.T) and self.T > 0.0):
                raise ValueError(f"{self.kind} rule requires a positive spread parameter T")
        elif self.T is not None:
            raise ValueError(f"{self.kind} rule does not read a spread parameter T")
        if "g_name" in params:
            if self.g_name not in _G_NAMES:
                raise ValueError(f"ratio-of-g requires g_name in {_G_NAMES}, got {self.g_name!r}")
        elif self.g_name is not None:
            raise ValueError(f"{self.kind} rule does not read g_name")


def check_rule(rule: AllocationRule, K: int) -> None:
    """Check that ``rule`` is defined for K arms."""
    if K < 2:
        raise ValueError("allocation needs at least two arms")
    if rule.kind in _TWO_ARM_KINDS and K != 2:
        raise ValueError(f"{rule.kind} rule is defined for exactly two arms")


def _check_args(rule: AllocationRule, theta: np.ndarray, x: np.ndarray,
                per_row: bool = False) -> tuple[np.ndarray, np.ndarray]:
    theta = np.asarray(theta, dtype=float)
    x = np.asarray(x, dtype=float)
    if per_row and theta.ndim == 3:
        if x.ndim != 2 or x.shape[0] != theta.shape[0] or x.shape[1] != theta.shape[2]:
            raise ValueError(f"covariates have shape {x.shape}, expected "
                             f"({theta.shape[0]}, {theta.shape[2]}) for one theta per row")
    elif theta.ndim != 2:
        raise ValueError(f"theta must be a (K, d) matrix, got shape {theta.shape}")
    elif x.ndim not in (1, 2) or x.shape[-1] != theta.shape[1]:
        raise ValueError(f"covariate has shape {x.shape}, expected ({theta.shape[1]},) "
                         f"or (N, {theta.shape[1]})")
    check_rule(rule, theta.shape[-2])
    return theta, x


def _over_arms(ufunc: np.ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=-1, keepdims=True)``.  Over two arms it is one
    op on the two columns, bit for bit the same: numpy reduces a short last
    axis row by row, which costs about 20 ns a row."""
    if a.shape[-1] == 2:
        return ufunc(a[..., :1], a[..., 1:])
    return ufunc.reduce(a, axis=-1, keepdims=True)


def _normalise(p: np.ndarray) -> np.ndarray:
    p = np.maximum(p, _FLOOR)
    return p / _over_arms(np.add, p)


def _predictors(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Linear predictors z = x theta' for a shared theta or one theta per row."""
    if theta.ndim == 3:
        return (theta @ x[:, :, None])[:, :, 0]
    return x @ theta.T


def _kernel(rule: AllocationRule, theta: np.ndarray, x: np.ndarray,
            derivative: bool):
    """pi for ``rule`` and, with ``derivative``, (d pi / d z, u).

    Every rule's Jacobian is d pi / d theta_{j,l} = (d pi / d z_j) u_l,
    with u = x except for the covariate-free rule, whose u is the unit
    intercept vector.  Leading axes of ``x`` are carried through; ``theta``
    is one (K, d) matrix, or (N, K, d) with one matrix per row of ``x``
    (probabilities only).
    """
    if rule.kind in _PHI_KINDS:
        if rule.kind == "covariate-free-normal":
            t = (theta[..., 0, 0] - theta[..., 1, 0]) / rule.T
            if x.ndim == 2 and theta.ndim == 2:
                t = np.full(x.shape[0], t)
        else:
            z = _predictors(theta, x)
            t = (z[..., 0] - z[..., 1]) / rule.T
        p1 = ndtr(t)
        p = _normalise(np.array([p1, 1.0 - p1]).T)
        if not derivative:
            return p
        g = np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi) / rule.T
        u = x if rule.kind != "covariate-free-normal" else np.broadcast_to(
            np.eye(x.shape[-1])[0], x.shape)
        return p, g[..., None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]]), u
    z = _predictors(theta, x)
    if rule.kind == "ratio-of-g" and rule.g_name == "one-plus-z-squared":
        g = 1.0 + z * z
        p = _normalise(g)
        if not derivative:
            return p
        # d pi_k / d z_j = (delta_kj G'(z_k) - pi_k G'(z_j)) / sum G
        gp = 2.0 * z
        s = g.sum(axis=-1, keepdims=True)
        dpi_dz = (np.eye(theta.shape[0]) * gp[..., None, :]
                  - p[..., :, None] * gp[..., None, :]) / s[..., None]
        return p, dpi_dz, x
    # exponential, odds-ratio and ratio-of-g with G = exp
    T = rule.T if rule.kind == "exponential" else 1.0
    zz = T * z if T != 1.0 else z
    p = _normalise(np.exp(zz - _over_arms(np.maximum, zz)))
    if not derivative:
        return p
    # d pi_k / d z_j = T pi_k (delta_kj - pi_j)
    dpi_dz = T * (p[..., :, None] * np.eye(theta.shape[0]) - p[..., :, None] * p[..., None, :])
    return p, dpi_dz, x


def probabilities(rule: AllocationRule, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate pi(theta, x); strictly positive, sums to 1.

    ``x`` is one covariate (d,), giving shape (K,), or a stack (N, d),
    giving one probability row per covariate, shape (N, K).  ``theta`` is
    one (K, d) matrix for every row, or a stack (N, K, d) with one matrix
    per row of ``x``.
    """
    theta, x = _check_args(rule, theta, x, per_row=True)
    return probabilities_unchecked(rule, theta, x)


def probabilities_unchecked(rule: AllocationRule, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """:func:`probabilities` without its argument checks, for a caller that
    checked the rule once with :func:`check_rule` and passes float arrays of
    matching shapes (the engine, once per patient)."""
    return _kernel(rule, theta, x, derivative=False)


def jacobian(rule: AllocationRule, theta: np.ndarray, x: np.ndarray,
             weights: np.ndarray | None = None) -> np.ndarray:
    """d pi / d theta as a (K, K*d) matrix; columns sum to zero.

    ``x`` of shape (N, d) gives one matrix per row, shape (N, K, K*d).  With
    ``weights`` (N,) the rows are contracted instead: the result is
    sum_n weights[n] * d pi / d theta (theta, x[n]), shape (K, K*d), computed
    as one BLAS product (d pi / d z * weights)' u of the (N, K*K) derivative
    block with the (N, d) covariates, so the per-row stack is never built.
    """
    theta, x = _check_args(rule, theta, x)
    K, d = theta.shape
    _, dpi_dz, u = _kernel(rule, theta, x, derivative=True)
    if weights is None:
        return (dpi_dz[..., None] * u[..., None, None, :]).reshape(x.shape[:-1] + (K, K * d))
    return ((dpi_dz.reshape(-1, K * K) * np.asarray(weights, dtype=float)[:, None]).T
            @ u.reshape(-1, d)).reshape(K, K * d)


_FD_STEP = 1e-6


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
