"""Allocation rules mapping (coefficients, covariate) to arm probabilities.

A rule evaluates ``pi(theta, x)``, a strictly positive probability vector over
the K arms, from the current coefficient matrix ``theta`` (K rows) and the
incoming patient's covariate ``x``.  Every rule is smooth in
``theta``; ``jacobian`` returns the K-by-(K*d) matrix of partial derivatives
with columns ordered row-major over (arm j, coordinate l), i.e. column
``j*d + l`` holds d pi_k / d theta_{j,l}.  Both accept one covariate (d,)
or a stack of covariates (N, d) and then evaluate every row at once.  The
engine evaluates a batch of replicates with one coefficient matrix per row,
theta of shape (N, K, d), through :func:`probabilities_unchecked`.

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
Jacobian, d pi / d z and the linear predictors z = x theta';
:func:`node_pass` returns pi, d pi / d theta and z from one evaluation,
which is how the limit theory and the plug-ins read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

__all__ = ["AllocationRule", "KIND_PARAMS", "check_rule", "probabilities",
           "probabilities_unchecked", "node_pass", "jacobian", "fold_columns"]

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


def _check_args(rule: AllocationRule, theta: np.ndarray,
                x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    theta = np.asarray(theta, dtype=float)
    x = np.asarray(x, dtype=float)
    if theta.ndim != 2:
        raise ValueError(f"theta must be a (K, d) matrix, got shape {theta.shape}")
    if x.ndim not in (1, 2) or x.shape[-1] != theta.shape[1]:
        raise ValueError(f"covariate has shape {x.shape}, expected ({theta.shape[1]},) "
                         f"or (N, {theta.shape[1]})")
    check_rule(rule, theta.shape[0])
    return theta, x


# Rows from which ops on whole columns (or on a (K, K, rows) view) beat
# numpy's loops over a short last axis, which cost about 20 ns a row; on
# fewer rows the few ops of the plain form cost less than the views.
_MANY_ROWS = 128


def fold_columns(ufunc: np.ufunc, a: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """``ufunc.reduce(a, axis=-1, keepdims=keepdims)``, bit for bit.

    numpy reduces a short last axis row by row, at about 20 ns a row.  Over
    two columns, and from ``_MANY_ROWS`` rows on, this is instead a left fold
    of whole-column ops, ((a0 + a1) + a2) + ..., which is numpy's own order up
    to seven columns; numpy adds eight or more elements pairwise, so a wider
    sum is left to ``reduce``.  Over one column the result is that column,
    a view of ``a``.  One exception: numpy starts a sum from +0, so a row of
    negative zeros only sums to +0 there and to -0 here (no caller sums such
    a row: probabilities are positive).
    """
    K = a.shape[-1]
    if K == 2:
        return ufunc(a[..., :1], a[..., 1:]) if keepdims else ufunc(a[..., 0], a[..., 1])
    if K == 1:
        return a if keepdims else a[..., 0]
    if a.size < _MANY_ROWS * K or K < 2 or (K >= 8 and ufunc is np.add):
        return ufunc.reduce(a, axis=-1, keepdims=keepdims)
    out = ufunc(a[..., 0], a[..., 1])
    for j in range(2, K):
        ufunc(out, a[..., j], out=out)
    return out[..., None] if keepdims else out


def _normalise(p: np.ndarray) -> np.ndarray:
    p = np.maximum(p, _FLOOR)
    return p / fold_columns(np.add, p, keepdims=True)


def _predictors(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Linear predictors z = x theta' for a shared theta or one theta per row."""
    if theta.ndim == 3:
        return (theta @ x[:, :, None])[:, :, 0]
    return x @ theta.T


def _kernel(rule: AllocationRule, theta: np.ndarray, x: np.ndarray,
            derivative: bool = False, weights: np.ndarray | None = None):
    """pi for ``rule`` and, with ``derivative``, (d pi / d z, u, z).

    Every rule's Jacobian is d pi / d theta_{j,l} = (d pi / d z_j) u_l,
    with u = x except for the covariate-free rule, whose u is the unit
    intercept vector, and z = x theta' the linear predictors.  d pi / d z
    has shape (..., K, K), times ``weights`` (...,) row by row when they
    are given (:func:`_delta_minus_outer` builds it from pi).
    Leading axes of ``x`` are carried through; ``theta`` is one (K, d)
    matrix, or (N, K, d) with one matrix per row of ``x`` (the engine's
    :func:`probabilities_unchecked` only).
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
        # d pi / d z = g [[1, -1], [-1, 1]]; (-g) w is -(g w) bit for bit
        g = np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi) / rule.T
        if weights is not None:
            g = g * weights
        dpi_dz = g[..., None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])
        if rule.kind == "covariate-free-normal":
            u = np.broadcast_to(np.eye(x.shape[-1])[0], x.shape)
            return p, dpi_dz, u, _predictors(theta, x)
        return p, dpi_dz, x, z
    z = _predictors(theta, x)
    if rule.kind == "ratio-of-g" and rule.g_name == "one-plus-z-squared":
        g = 1.0 + z * z
        p = _normalise(g)
        if not derivative:
            return p
        # d pi_k / d z_j = (delta_kj G'(z_j) - pi_k G'(z_j)) / sum G
        dpi_dz = _delta_minus_outer(p, 2.0 * z, divisor=fold_columns(np.add, g, keepdims=True),
                                    weights=weights)
    else:  # exponential, odds-ratio and ratio-of-g with G = exp
        T = rule.T if rule.kind == "exponential" else 1.0
        zz = T * z if T != 1.0 else z
        p = _normalise(np.exp(zz - fold_columns(np.maximum, zz, keepdims=True)))
        if not derivative:
            return p
        # d pi_k / d z_j = T (pi_k delta_kj - pi_k pi_j)
        dpi_dz = _delta_minus_outer(p, p, factor=T, weights=weights)
    return p, dpi_dz, x, z


# Rows of d pi / d z built at a time: a block of (_BLOCK_ROWS, K, K) stays in
# the CPU's cache through all of its in-place ops.
_BLOCK_ROWS = 2048


def _delta_minus_outer(a: np.ndarray, b: np.ndarray, divisor: np.ndarray | None = None,
                       factor: float = 1.0, weights: np.ndarray | None = None) -> np.ndarray:
    """M[..., k, j] = delta_kj b_j - a_k b_j, divided by ``divisor`` (..., 1),
    times ``factor`` and times ``weights`` (...,), in that order.

    From ``_MANY_ROWS`` rows on, M is built in place on a (K, K, rows) view,
    a block of rows at a time, so that every op loops along the rows; each
    element keeps the float operations of the plain form, so that a product
    of M gives the same bits: 0 - a_k b_j off the diagonal is 0 b_j - a_k b_j
    (also in the sign of a zero) for finite b and positive a, and
    b_k + (0 - a_k b_k) on it is b_k - a_k b_k.
    """
    K = a.shape[-1]
    if a.size < _MANY_ROWS * K:
        out = np.eye(K) * b[..., None, :] - a[..., :, None] * b[..., None, :]
        if divisor is not None:
            out = out / divisor[..., None]
        if factor != 1.0:
            out = factor * out
        return out if weights is None else out * weights[..., None, None]
    out = np.empty(a.shape + (K,))
    rows = out.reshape(-1, K, K).transpose(1, 2, 0)  # (K, K, rows) view
    diagonal = out.reshape(-1, K * K).T[::K + 1]  # (K, rows) view
    at = np.ascontiguousarray(a.reshape(-1, K).T)
    bt = at if b is a else np.ascontiguousarray(b.reshape(-1, K).T)
    divisor = None if divisor is None else divisor.reshape(-1)
    weights = None if weights is None else weights.reshape(-1)
    for i in range(0, at.shape[1], _BLOCK_ROWS):
        block = slice(i, i + _BLOCK_ROWS)
        m, bb = rows[..., block], bt[:, block]
        np.multiply(at[:, None, block], bb[None, :, :], out=m)
        np.subtract(0.0, m, out=m)
        np.add(bb, diagonal[:, block], out=diagonal[:, block])
        if divisor is not None:
            np.divide(m, divisor[block], out=m)
        if factor != 1.0:
            np.multiply(m, factor, out=m)
        if weights is not None:
            np.multiply(m, weights[block], out=m)
    return out


def probabilities(rule: AllocationRule, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate pi(theta, x); strictly positive, sums to 1.

    ``x`` is one covariate (d,), giving shape (K,), or a stack (N, d),
    giving one probability row per covariate, shape (N, K); ``theta`` is
    one (K, d) matrix for every row.
    """
    theta, x = _check_args(rule, theta, x)
    return probabilities_unchecked(rule, theta, x)


def probabilities_unchecked(rule: AllocationRule, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """:func:`probabilities` without its argument checks, for a caller that
    checked the rule once with :func:`check_rule` and passes float arrays of
    matching shapes (the engine, once per patient).  ``theta`` may also be a
    stack (N, K, d) with one matrix per row of ``x`` (N, d): a batch of
    replicates."""
    return _kernel(rule, theta, x)


def node_pass(rule: AllocationRule, theta: np.ndarray, x: np.ndarray,
              weights: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pi, d pi / d theta, z) on the covariates ``x`` from one evaluation of
    the rule kernel at one (K, d) ``theta``.

    pi is :func:`probabilities`, d pi / d theta is :func:`jacobian` (with
    ``weights``, contracted over the rows) and z = x theta' the linear
    predictors, which the arms' GLM weights read
    (:func:`carasim.model.glm_weights`); all three are bit for bit what
    those functions and ``x @ theta.T`` give on their own.
    """
    theta, x = _check_args(rule, theta, x)
    K, d = theta.shape
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
    p, dpi_dz, u, z = _kernel(rule, theta, x, derivative=True, weights=weights)
    if weights is None:
        return p, (dpi_dz[..., None] * u[..., None, None, :]).reshape(x.shape[:-1] + (K, K * d)), z
    # One BLAS product of the (N, K*K) block with the (N, d) covariates.
    return p, (dpi_dz.reshape(-1, K * K).T @ u.reshape(-1, d)).reshape(K, K * d), z


def jacobian(rule: AllocationRule, theta: np.ndarray, x: np.ndarray,
             weights: np.ndarray | None = None) -> np.ndarray:
    """d pi / d theta as a (K, K*d) matrix; columns sum to zero.

    ``x`` of shape (N, d) gives one matrix per row, shape (N, K, K*d).  With
    ``weights`` (N,) the rows are contracted instead: the result is
    sum_n weights[n] * d pi / d theta (theta, x[n]), shape (K, K*d), computed
    as one BLAS product (d pi / d z * weights)' u of the (N, K*K) derivative
    block with the (N, d) covariates, so the per-row stack is never built.
    """
    return node_pass(rule, theta, x, weights)[1]
