"""Response models and covariate distributions for CARA trial simulation.

Each treatment arm follows a one-parameter exponential-family regression with
identity link: logistic (binary response, unit dispersion) or normal-linear
(Gaussian response, variance ``dispersion``).  Coefficient vectors are rows, so
the linear predictor for arm ``k`` at covariate ``x`` is ``theta_k @ x``.
Covariates are i.i.d. draws from a bounded distribution: either an explicit
finite support with probabilities, or a product of independent bounded
one-dimensional coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np
from numpy.random import Generator
from scipy.special import expit, ndtri

__all__ = [
    "Uniform",
    "TwoPoint",
    "Constant",
    "CovariateSpec",
    "ArmModel",
    "TrialModel",
    "tensor_grid",
    "arm_table",
    "responses_from_uniforms",
    "glm_weights",
    "conditional_fisher_info",
]

_PROB_TOL = 1e-12
# Largest finite support we are willing to enumerate for a product spec.
_ENUM_CAP = 4096


# ---------------------------------------------------------------------------
# Covariate distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Uniform:
    """Continuous uniform coordinate on the bounded interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("uniform coordinate bounds must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"uniform coordinate needs lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class TwoPoint:
    """Coordinate taking value ``a`` with probability ``p_a``, else ``b``."""

    a: float
    b: float
    p_a: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("two-point coordinate values must be finite")
        if self.a == self.b:
            raise ValueError(f"two-point coordinate needs two distinct values, got a = b = {self.a}")
        if not 0.0 < self.p_a < 1.0:
            raise ValueError(f"two-point probability must lie in (0, 1), got {self.p_a}")


@dataclass(frozen=True)
class Constant:
    """Degenerate coordinate equal to ``value``."""

    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("constant coordinate value must be finite")


CoordinateDist = Uniform | TwoPoint | Constant


def _as_readonly(a: np.ndarray, dtype=float) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CovariateSpec:
    """Distribution of the i.i.d. covariate vector.

    Two forms are supported.  :meth:`discrete` lists distinct support points
    and their probabilities explicitly (``support`` and ``probs``).
    :meth:`product` specifies independent coordinates (``coords``), each
    uniform, two-point, or constant.  With ``intercept=True`` either
    constructor prepends a leading constant-1 coordinate; ``d`` is the final
    dimension including that intercept.

    Product specs with no uniform coordinate have finite support and are
    enumerated internally, so expectations over them are exact sums.
    """

    d: int
    support: np.ndarray | None = None  # (S, d), includes intercept column
    probs: np.ndarray | None = None  # (S,)
    coords: tuple[CoordinateDist, ...] | None = None
    # Cached enumeration for product specs with finite support; see __post_init__.
    _enum: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)
    _cum: np.ndarray | None = field(default=None, repr=False, compare=False)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def discrete(points: Sequence[Sequence[float]] | np.ndarray,
                 probs: Sequence[float] | np.ndarray,
                 intercept: bool = False) -> "CovariateSpec":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        pr = np.asarray(probs, dtype=float)
        if pts.ndim != 2:
            raise ValueError("discrete support must be a 2-d array of points")
        if pr.ndim != 1 or pr.shape[0] != pts.shape[0]:
            raise ValueError(
                f"probs has length {pr.shape[0] if pr.ndim == 1 else pr.shape}, "
                f"expected {pts.shape[0]}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("discrete support points must be finite")
        srt = pts[np.lexsort(pts.T)]  # equal points are neighbours once sorted
        same = np.flatnonzero(np.all(srt[1:] == srt[:-1], axis=1))
        if same.size:
            raise ValueError(f"discrete support lists {srt[same[0]].tolist()} more than once")
        if np.any(pr <= 0.0):
            raise ValueError("support probabilities must be strictly positive")
        if abs(pr.sum() - 1.0) > _PROB_TOL:
            raise ValueError(f"support probabilities sum to {pr.sum()!r}, not 1")
        if intercept:
            pts = np.hstack([np.ones((pts.shape[0], 1)), pts])
        return CovariateSpec(d=pts.shape[1], support=_as_readonly(pts), probs=_as_readonly(pr))

    @staticmethod
    def product(coords: Sequence[CoordinateDist], intercept: bool = False) -> "CovariateSpec":
        coords = tuple(coords)
        if not coords:
            raise ValueError("product spec needs at least one coordinate")
        for c in coords:
            if not isinstance(c, (Uniform, TwoPoint, Constant)):
                raise ValueError(f"unsupported coordinate distribution: {c!r}")
        if intercept:
            coords = (Constant(1.0),) + coords
        return CovariateSpec(d=len(coords), coords=coords)

    @staticmethod
    def constant(values: Sequence[float] | float) -> "CovariateSpec":
        """Degenerate spec: the covariate always equals ``values``."""
        v = np.atleast_1d(np.asarray(values, dtype=float))
        return CovariateSpec.discrete(v[None, :], [1.0])

    def __post_init__(self):
        if (self.coords is None) == (self.support is None or self.probs is None):
            raise ValueError("a covariate spec needs either support and probs, or coords")
        if self.coords is None:
            enum = (self.support, self.probs)
        else:
            enum = None
            if (not any(isinstance(c, Uniform) for c in self.coords)
                    and 2 ** sum(isinstance(c, TwoPoint) for c in self.coords) <= _ENUM_CAP):
                enum = tuple(map(_as_readonly, tensor_grid(self.coords)))
        object.__setattr__(self, "_enum", enum)
        if enum is not None:
            cum = np.cumsum(enum[1])
            cum[-1] = np.inf  # the last point also takes what rounding leaves short of 1
            object.__setattr__(self, "_cum", cum)

    # -- queries ------------------------------------------------------------

    def enumerated(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(points, probs) when the support is finite, else None."""
        return self._enum

    def mass(self, x: np.ndarray) -> float:
        """P(xi = x); zero when x is off-support or the spec is continuous."""
        if self._enum is None:
            return 0.0
        pts, pr = self._enum
        hit = np.all(pts == np.asarray(x, dtype=float), axis=1)
        idx = np.flatnonzero(hit)
        return float(pr[idx[0]]) if idx.size else 0.0

    def has_unit_first_coordinate(self) -> bool:
        if self._enum is not None:
            return bool(np.all(self._enum[0][:, 0] == 1.0))
        return self.coords is not None and self.coords[0] == Constant(1.0)

    # -- sampling -----------------------------------------------------------

    @property
    def uniforms_per_draw(self) -> int:
        """Uniforms one covariate draw consumes: one for a finite support
        (the support index), else one per non-constant coordinate."""
        if self._enum is not None:
            return 1
        return sum(1 for c in self.coords if not isinstance(c, Constant))

    def from_uniforms(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Covariates (N, d) and support indices (N,), or None when the support
        is not finite, from uniforms (N, uniforms_per_draw).

        A support index is the first point whose cumulative probability
        exceeds the uniform; a coordinate is ``lo + (hi - lo) u`` (uniform) or
        ``a`` when ``u < p_a`` else ``b`` (two-point), in coordinate order.
        """
        if self._enum is not None:
            idx = self._cum.searchsorted(u[:, 0], side="right")
            return self._enum[0].take(idx, 0), idx
        out = np.empty((u.shape[0], self.d))
        j = 0
        for i, c in enumerate(self.coords):
            if isinstance(c, Constant):
                out[:, i] = c.value
                continue
            if isinstance(c, Uniform):
                out[:, i] = c.lo + (c.hi - c.lo) * u[:, j]
            else:
                out[:, i] = np.where(u[:, j] < c.p_a, c.a, c.b)
            j += 1
        return out, None

    def sample_index(self, rng: Generator) -> int:
        """Draw a support index (finite-support specs only)."""
        return int(self._cum.searchsorted(rng.random(), side="right"))

    def sample(self, rng: Generator) -> np.ndarray:
        """Draw one covariate; consumes ``uniforms_per_draw`` uniforms."""
        return self.from_uniforms(rng.random((1, self.uniforms_per_draw)))[0][0]

    def sample_batch(self, rng: Generator, size: int) -> np.ndarray:
        """Draw ``size`` covariates, taking each coordinate's uniforms in one block."""
        return np.array(self.from_uniforms(rng.random((self.uniforms_per_draw, size)).T)[0])


def tensor_grid(coords: Sequence[CoordinateDist],
                uniform_nodes: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Tensor product of per-coordinate nodes: points (S, d) and weights (S,).

    A constant coordinate has one node and a two-point coordinate its two
    values; a uniform coordinate maps ``uniform_nodes`` = (nodes, weights)
    of a rule on [-1, 1] (e.g. Gauss-Legendre) onto [lo, hi], with the
    weights halved so that they sum to one.
    """
    values, weights = [], []
    for c in coords:
        if isinstance(c, Constant):
            values.append(np.array([c.value]))
            weights.append(np.array([1.0]))
        elif isinstance(c, TwoPoint):
            values.append(np.array([c.a, c.b]))
            weights.append(np.array([c.p_a, 1.0 - c.p_a]))
        else:
            mid, half = 0.5 * (c.lo + c.hi), 0.5 * (c.hi - c.lo)
            values.append(mid + half * uniform_nodes[0])
            weights.append(0.5 * uniform_nodes[1])
    # Coordinate i varies along axis i of the grid; the weights multiply in
    # coordinate order, ((w_0 w_1) w_2) ..., by outer products.
    D = len(values)
    pts = np.empty(tuple(v.size for v in values) + (D,))
    for i, v in enumerate(values):
        pts[..., i] = v.reshape((-1,) + (1,) * (D - 1 - i))
    w = weights[0]
    for g in weights[1:]:
        w = np.multiply.outer(w, g)
    return pts.reshape(-1, D), w.ravel()


# ---------------------------------------------------------------------------
# Arm response models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArmModel:
    """One treatment arm: logistic or normal-linear regression, identity link.

    ``dispersion`` is the exponential-family dispersion: fixed at 1 for the
    logistic family, equal to the error variance for the normal family.
    """

    family: Literal["logistic", "normal-linear"]
    dispersion: float = 1.0

    def __post_init__(self):
        if self.family not in ("logistic", "normal-linear"):
            raise ValueError(f"unknown family: {self.family!r}")
        if not (math.isfinite(self.dispersion) and self.dispersion > 0.0):
            raise ValueError(f"dispersion must be positive and finite, got {self.dispersion}")
        if self.family == "logistic" and self.dispersion != 1.0:
            raise ValueError("logistic family has dispersion fixed at 1")


def _check_dims(theta_k: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    theta_k = np.asarray(theta_k, dtype=float)
    x = np.asarray(x, dtype=float)
    if theta_k.ndim != 1 or x.ndim != 1 or theta_k.shape != x.shape:
        raise ValueError(
            f"coefficient/covariate shape mismatch: {theta_k.shape} vs {x.shape}")
    return theta_k, x


def arm_table(arms: Sequence[ArmModel]) -> tuple[np.ndarray, np.ndarray]:
    """(logistic, dispersion): read-only (K,) arrays of which arms are
    logistic and of every arm's dispersion.  A :class:`TrialModel` builds
    them once, as ``model.logistic`` and ``model.dispersion``."""
    return (_as_readonly([a.family == "logistic" for a in arms], bool),
            _as_readonly([a.dispersion for a in arms]))


def glm_weights(logistic: np.ndarray, z: np.ndarray) -> np.ndarray:
    """GLM variance function V_k(x) of every arm, shape (K,) or (N, K).

    ``logistic`` marks the logistic arms (:func:`arm_table`) and ``z`` holds
    the linear predictors x theta' of one covariate (K,) or a stack (N, K).
    V_k = p(1-p) with p = expit(z_k) for logistic arms and 1 for
    normal-linear arms, so that with dispersion phi_k
    Var(Y_k | x) = phi_k V_k(x) and I_k(theta_k | x) = (V_k(x) / phi_k) x'x.
    """
    p = expit(z)
    v = np.multiply(p, np.subtract(1.0, p), out=p)
    return v if logistic.all() else np.where(logistic, v, 1.0)


def responses_from_uniforms(logistic: np.ndarray, dispersion: np.ndarray, theta: np.ndarray,
                            x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Responses (N, K) of every arm at covariates ``x`` (N, d) with
    coefficient rows ``theta`` (K, d), from one uniform ``u`` (N,) per
    covariate; ``logistic`` and ``dispersion`` describe the arms
    (:func:`arm_table`).

    This is the one response transform: patient i's uniform goes through
    each arm's inverse CDF, so a patient consumes exactly one uniform
    whatever arm it gets, and the engine keeps the chosen arm's column.
    Logistic arms give 1 when u < expit(theta_k x); normal arms give
    theta_k x + sqrt(dispersion) Phi^{-1}(u), with u clamped away from 0 and 1.
    """
    # One (1, d) @ (d, 1) product per arm and row: bitwise the one-row theta_k @ x.
    mu = (theta[:, None, None, :] @ x[:, :, None])[:, :, 0, 0].T
    # Each family transforms whole (N, K) arrays: for a few patients that
    # costs less than selecting the family's columns.
    any_logistic = np.logical_or.reduce(logistic)
    if any_logistic:
        e = np.exp(-np.abs(mu))
        y = (u[:, None] < np.where(mu >= 0.0, 1.0, e) / (1.0 + e)).astype(float)
        if np.logical_and.reduce(logistic):
            return y
    z = ndtri(np.minimum(np.maximum(u, 2.0 ** -55), 1.0 - 2.0 ** -53))
    normal = mu + np.sqrt(dispersion) * z[:, None]
    return np.where(logistic, y, normal) if any_logistic else normal


def conditional_fisher_info(arm: ArmModel, theta_k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Fisher information I_k(theta_k | x), a d-by-d outer-product matrix.

    Identity link: p(1-p) x'x for logistic, x'x / sigma^2 for normal-linear.
    """
    theta_k, x = _check_dims(theta_k, x)
    logistic, _ = arm_table((arm,))
    w = float(glm_weights(logistic, x @ theta_k[None, :].T)[0]) / arm.dispersion
    return w * np.outer(x, x)


# ---------------------------------------------------------------------------
# Trial model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialModel:
    """Full data-generating model: K arms, covariate law, truth, parameter box.

    ``true_theta`` is the (K, d) matrix of true coefficient rows and must lie
    strictly inside the per-arm box [box_lo, box_hi].  Estimates are always
    clamped back into the box, which keeps allocation rules evaluated at
    estimated coefficients well defined from the first adaptive patient on.

    ``shared_slopes=True`` declares a homoscedastic normal-linear model whose
    non-intercept coefficients are common across arms; estimation then runs a
    single joint least-squares fit (arm indicators plus shared slopes).
    """

    arms: tuple[ArmModel, ...]
    covariates: CovariateSpec
    true_theta: np.ndarray
    box_lo: np.ndarray
    box_hi: np.ndarray
    shared_slopes: bool = False
    # Derived from ``arms`` once (arm_table): which arms are logistic, and
    # every arm's dispersion, as read-only (K,) arrays.
    logistic: np.ndarray = field(init=False, repr=False, compare=False)
    dispersion: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.arms) < 2:
            raise ValueError("a trial needs at least two arms")
        K, d = len(self.arms), self.covariates.d
        theta = np.ascontiguousarray(np.asarray(self.true_theta, dtype=float))
        if theta.shape != (K, d):
            raise ValueError(f"true_theta has shape {theta.shape}, expected {(K, d)}")
        lo = np.broadcast_to(np.asarray(self.box_lo, dtype=float), (K, d)).copy()
        hi = np.broadcast_to(np.asarray(self.box_hi, dtype=float), (K, d)).copy()
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("parameter box must be bounded")
        if not np.all(lo < hi):
            raise ValueError("parameter box needs box_lo < box_hi coordinatewise")
        if not (np.all(lo < theta) and np.all(theta < hi)):
            raise ValueError("true_theta must lie strictly inside the parameter box")
        if self.shared_slopes:
            if any(a.family != "normal-linear" or a != self.arms[0] for a in self.arms):
                raise ValueError("shared_slopes requires normal-linear arms of a common dispersion")
            if not self.covariates.has_unit_first_coordinate():
                raise ValueError("shared_slopes requires a leading constant-1 covariate")
            if d >= 2 and not np.allclose(theta[:, 1:], theta[0, 1:]):
                raise ValueError("shared_slopes requires equal non-intercept rows in true_theta")
        object.__setattr__(self, "true_theta", _as_readonly(theta))
        object.__setattr__(self, "box_lo", _as_readonly(lo))
        object.__setattr__(self, "box_hi", _as_readonly(hi))
        logistic, dispersion = arm_table(self.arms)
        object.__setattr__(self, "logistic", logistic)
        object.__setattr__(self, "dispersion", dispersion)

    @property
    def K(self) -> int:
        return len(self.arms)

    @property
    def d(self) -> int:
        return self.covariates.d

    @property
    def param_cols(self) -> np.ndarray:
        """Column of each coefficient theta_{k,l} in the fitted parameter
        vector, a (K, d) integer array: ``arange(K * d).reshape(K, d)`` when
        arms are fitted one by one; with shared slopes, arm k's intercept is
        parameter k and every arm's slope l is parameter K + l - 1."""
        K, d = self.K, self.d
        if self.shared_slopes:
            return np.column_stack([np.arange(K), np.tile(np.arange(K, K + d - 1), (K, 1))])
        return np.arange(K * d).reshape(K, d)

    @property
    def n_params(self) -> int:  # length of the fitted vector that param_cols indexes
        return self.K + self.d - 1 if self.shared_slopes else self.K * self.d
