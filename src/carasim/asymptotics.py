"""Asymptotic covariances for CARA designs, and their plug-in estimates.

Notation (row-vector coefficients; K arms, covariate dimension d):

* ``v = E[pi(theta, xi)]`` is the target allocation and ``dg = E[d pi /
  d theta]`` its coefficient sensitivity, a K-by-(K*d) matrix whose column
  ``j*d + l`` differentiates in theta_{j,l}.
* ``I_k = E[pi_k(theta, xi) I_k(theta_k | xi)]`` is the design-weighted
  Fisher information of arm k and ``V_k = I_k^{-1}`` the asymptotic
  covariance of sqrt(n) (theta_hat_k - theta_k) when arm k is fitted alone.
* ``C`` is the asymptotic covariance of sqrt(n) (theta_hat - theta), in the
  column order of ``dg``: the inverse of the joint information, which adds
  every I_k at its arm's parameter columns (``TrialModel.param_cols``).
  Arms fitted one by one give C = blockdiag(V_k); shared slopes couple them.
* sqrt(n) (N_n / n - v) is asymptotically normal with covariance
  ``Sigma = Sigma1 + 2 Sigma2`` where ``Sigma1 = diag(v) - v'v`` and
  ``Sigma2 = dg C dg'``: the allocation CLT needs only the covariance of the
  whole theta_hat, however the arms share parameters.
* Conditionally on covariate value x with positive mass,
  sqrt(N_n(x)) (N_{n|x} / N_n(x) - pi(theta, x)) is asymptotically normal
  with covariance ``diag(pi) - pi'pi + 2 P(xi = x) (d pi / d theta) C
  (d pi / d theta)'``.

Each of these is one weighted sum over a set of covariate nodes of pi,
d pi / d theta and the arms' GLM weights (:func:`carasim.model.glm_weights`):
the expectation nodes for the theory, a trial's support points or observed
rows for the plug-ins.  :func:`theory_report` and :func:`plugin_estimates`
evaluate the batched rule kernel once on their node set
(:func:`carasim.allocation.node_pass`): that one evaluation forms the linear
predictors z = x theta' once and gives pi, the weighted sum of d pi / d
theta as one BLAS product of the weighted (N, K*K) block of d pi / d z with
the nodes, and the z from which the GLM weights follow; the information
sums are one BLAS product per arm (:func:`_gram`).  The x values of a
conditional covariance take one more evaluation, on their own rows.  No
function loops over the nodes in Python.

Expectations over the covariate distribution are exact finite sums whenever
the support is finite.  Otherwise uniform coordinates are integrated by
tensor Gauss-Legendre quadrature (64 nodes per dimension by default, up to
three uniform coordinates); beyond that a deterministic Monte Carlo fallback
with a fixed internal seed and a reported standard error is used.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence
from scipy.special import ndtr

from .allocation import AllocationRule, fold_columns, node_pass, probabilities
from .engine import TrialHistory
from .estimation import COND_MAX
from .model import CovariateSpec, TrialModel, Uniform, glm_weights, tensor_grid

__all__ = [
    "TheoryOptions",
    "ExpectationMethod",
    "ConditionalCovariance",
    "TheoryReport",
    "PluginReport",
    "BBClosedForms",
    "LseSandwich",
    "SingularInformationError",
    "ZeroMassCovariateError",
    "expectation_nodes",
    "info_matrices",
    "theory_report",
    "plugin_estimates",
    "scaled_mle_covariance",
    "iid_mle_covariance",
    "bb_closed_forms",
    "lse_sandwich",
]

_MC_SEED = 902880311  # fixed internal seed; Monte Carlo fallbacks are deterministic
_PSD_TOL = 1e-10
# Uniform coordinates up to which expectations use tensor quadrature; with
# more, the node count (gl_nodes ** dims) calls for Monte Carlo.
_QUADRATURE_DIMS = 3


class SingularInformationError(ValueError):
    pass


class ZeroMassCovariateError(ValueError):
    pass


@dataclass(frozen=True)
class TheoryOptions:
    gl_nodes: int = 64
    mc_size: int = 1_000_000

    def __post_init__(self):
        for name in ("gl_nodes", "mc_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class ExpectationMethod:
    kind: str  # "exact-enumeration" | "quadrature" | "monte-carlo"
    size: int
    stderr: float | None = None


def _negative_eigenvalues(names, mats: np.ndarray) -> list[tuple[str, float]]:
    """(name, minimum eigenvalue) of each matrix of the stack ``mats`` that is
    not positive semidefinite, in stack order; one eigenvalue call for all."""
    if not len(names):
        return []
    w = np.linalg.eigvalsh(0.5 * (mats + np.swapaxes(mats, -1, -2))).min(axis=-1)
    return [(name, lo) for name, lo in zip(names, w.tolist()) if lo < -_PSD_TOL]


def _assert_psd(names, mats: np.ndarray) -> None:
    """Raise for the first matrix of the stack that is not positive semidefinite."""
    bad = _negative_eigenvalues(names, mats)
    if bad:
        name, lo = bad[0]
        raise ValueError(f"{name} is not positive semidefinite (minimum eigenvalue {lo:.3e})")


# ---------------------------------------------------------------------------
# Expectation nodes
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], (nodes, weights), built
    once per n in a process and shared read-only by every caller."""
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.setflags(write=False)
    return rule


def expectation_nodes(spec: CovariateSpec,
                      opts: TheoryOptions = TheoryOptions()) -> tuple[np.ndarray, np.ndarray, ExpectationMethod]:
    """(points, weights, method) for expectations over the covariate law."""
    enum = spec.enumerated()
    if enum is not None:
        pts, pr = enum
        return pts, pr, ExpectationMethod(kind="exact-enumeration", size=pts.shape[0])
    n_uniform = sum(1 for c in spec.coords if isinstance(c, Uniform))
    if n_uniform <= _QUADRATURE_DIMS:
        pts, w = tensor_grid(spec.coords, _gauss_legendre(opts.gl_nodes))
        return pts, w, ExpectationMethod(kind="quadrature", size=pts.shape[0])
    rng = Generator(PCG64(SeedSequence(_MC_SEED)))
    pts = spec.sample_batch(rng, opts.mc_size)
    w = np.full(opts.mc_size, 1.0 / opts.mc_size)
    return pts, w, ExpectationMethod(kind="monte-carlo", size=opts.mc_size)


def _mc_stderr(values: np.ndarray, weights: np.ndarray) -> float:
    """Worst-case componentwise standard error of the weighted mean."""
    mean = np.tensordot(weights, values, axes=(0, 0))
    var = np.tensordot(weights, (values - mean) ** 2, axes=(0, 0))
    return float(np.sqrt(var / values.shape[0]).max())


# ---------------------------------------------------------------------------
# Theory result types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionalCovariance:
    x: np.ndarray
    mass: float
    pi: np.ndarray  # (K,)
    sigma: np.ndarray  # (K, K)


@dataclass(frozen=True)
class TheoryReport:
    v: np.ndarray
    dg: np.ndarray
    info: np.ndarray  # (K, d, d)
    V: np.ndarray  # (K, d, d)
    theta_cov: np.ndarray  # (K*d, K*d): C
    sigma1: np.ndarray
    sigma2: np.ndarray
    sigma: np.ndarray
    conditional: tuple[ConditionalCovariance, ...]
    method: ExpectationMethod


# ---------------------------------------------------------------------------
# Shared sums over a node set
# ---------------------------------------------------------------------------


def _gram(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """sum_n W[n, k] X[n]'X[n] for every column k of W, shape (K, d, d).

    Each arm's sum is one BLAS product (X * W[:, k])' X over the node axis,
    so no (K, N, d) temporary is built.
    """
    out = np.empty((W.shape[1], X.shape[1], X.shape[1]))
    XT = X.T
    XW = np.empty_like(XT)  # the layout of XT * W[:, k], which decides the BLAS call
    for k in range(W.shape[1]):
        np.matmul(np.multiply(XT, W[:, k], out=XW), X, out=out[k])
    return out


def _fisher_gram(model: TrialModel, X: np.ndarray, W: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_n W[n, k] I_k(theta_k | X[n]), every arm at the model's dispersion,
    from the linear predictors z = X theta'."""
    v = glm_weights(model.logistic, z)
    return _gram(X, np.divide(np.multiply(W, v, out=v), model.dispersion, out=v))


def _invert(info: np.ndarray, what: str) -> np.ndarray:
    """The inverse of every arm's matrix; the first arm whose condition
    number exceeds COND_MAX raises SingularInformationError."""
    singular = np.flatnonzero(np.linalg.cond(info) > COND_MAX)
    if singular.size:
        raise SingularInformationError(
            f"{what} for arm {singular[0] + 1} is singular "
            f"(condition number exceeds {COND_MAX:.1e})")
    return np.linalg.inv(info)


def _theta_covariance(model: TrialModel, info: np.ndarray, inverse=np.linalg.inv) -> np.ndarray:
    """C, (K*d, K*d): each I_k (K, d, d) is added into the joint information at
    arm k's parameter columns, which is positive definite whenever every I_k
    is; its inverse is read back at every coefficient's column."""
    cols = model.param_cols
    joint = np.zeros((model.n_params, model.n_params))
    np.add.at(joint, (cols[:, :, None], cols[:, None, :]), info)
    flat = cols.ravel()
    return inverse(joint).take(flat, 0).take(flat, 1)  # cheaper than np.ix_ indexing


def _allocation_covariance(p: np.ndarray, dg: np.ndarray, C: np.ndarray,
                           c: float = 1.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(diag(p) - p'p, dg C dg', the first plus 2c times the second).

    With p = v, dg = E[d pi / d theta] and c = 1 this is (Sigma1, Sigma2,
    Sigma); at one covariate value x it is Sigma|x with p = pi(theta, x),
    dg = d pi / d theta at x and c = P(xi = x).
    """
    s1 = np.diag(p) - np.outer(p, p)
    s2 = dg @ C @ dg.T
    return s1, s2, s1 + 2.0 * c * s2


def _points(x_list, d: int) -> np.ndarray:
    """The covariate values of ``x_list`` as a (Q, d) array."""
    X = np.asarray(x_list, dtype=float)
    if X.size == 0:
        return X.reshape(0, d)
    if X.ndim != 2 or X.shape[1] != d:
        raise ValueError(f"x_list must hold covariate values of dimension {d}")
    return X


def _conditionals(rule: AllocationRule, theta: np.ndarray, X: np.ndarray,
                  masses: list[float], C: np.ndarray) -> tuple[ConditionalCovariance, ...]:
    if not X.shape[0]:
        return ()  # the rule kernel costs as much on no rows as on a few
    pis, jacs, _ = node_pass(rule, theta, X)
    return tuple(
        ConditionalCovariance(x=X[q], mass=masses[q], pi=pis[q],
                              sigma=_allocation_covariance(pis[q], jacs[q], C, masses[q])[2])
        for q in range(X.shape[0]))


# ---------------------------------------------------------------------------
# Theory-side reports
# ---------------------------------------------------------------------------


def theory_report(model: TrialModel, rule: AllocationRule, x_list=(),
                  opts: TheoryOptions = TheoryOptions()) -> TheoryReport:
    """All limit-theorem quantities for one (model, rule) pair.

    One evaluation of the rule kernel on the expectation nodes
    (:func:`carasim.allocation.node_pass`) gives pi, the weighted sum
    dg = E[d pi / d theta] and the linear predictors; v = E[pi] and the
    design-weighted information (from pi and the GLM weights at those
    predictors) are then weighted sums, from which V_k and C follow.  Sigma
    and every Sigma|x in ``x_list`` are composed from them; the x values
    take one more kernel evaluation, on their own rows.  Each x must have
    positive mass.
    """
    pts, w, method = expectation_nodes(model.covariates, opts)
    theta = model.true_theta
    pi, dg, z = node_pass(rule, theta, pts, w)
    v = w @ pi
    info = _fisher_gram(model, pts, w[:, None] * pi, z)
    V = _invert(info, "design-weighted information")
    _assert_psd([f"V_{k + 1}" for k in range(model.K)], V)
    C = _theta_covariance(model, info)
    if method.kind == "monte-carlo":
        method = replace(method, stderr=_mc_stderr(pi, w))
    s1, s2, total = _allocation_covariance(v, dg, C)
    _assert_psd(("Sigma1", "Sigma2", "Sigma"), np.array([s1, s2, total]))

    X = _points(x_list, model.d)
    masses = [model.covariates.mass(x) for x in X]
    for x, mass in zip(X, masses):
        if mass <= 0.0:
            raise ZeroMassCovariateError(
                f"covariate value {x.tolist()} has zero probability mass")
    conditional = _conditionals(rule, theta, X, masses, C)
    _assert_psd([f"Sigma|x={c.x.tolist()}" for c in conditional],
                np.array([c.sigma for c in conditional]))
    return TheoryReport(v=v, dg=dg, info=info, V=V, theta_cov=C, sigma1=s1, sigma2=s2, sigma=total,
                        conditional=conditional, method=method)


def info_matrices(model: TrialModel, rule: AllocationRule,
                  opts: TheoryOptions = TheoryOptions()) -> TheoryReport:
    """The theory report, read for the design information I_k and V_k = I_k^{-1}."""
    return theory_report(model, rule, opts=opts)


def scaled_mle_covariance(model: TrialModel, rule: AllocationRule) -> np.ndarray:
    """Asymptotic covariance of sqrt(N_{n,k}) (theta_hat_k - theta_k): v_k V_k."""
    rep = theory_report(model, rule)
    return rep.v[:, None, None] * rep.V


def iid_mle_covariance(model: TrialModel) -> np.ndarray:
    """I.i.d.-sample comparator {E[I_k(theta_k | xi)]}^{-1} per arm.

    For covariate-free rules this coincides with
    :func:`scaled_mle_covariance`: adaptivity then costs the coefficient
    estimates nothing asymptotically."""
    pts, w, _ = expectation_nodes(model.covariates)
    info = _fisher_gram(model, pts, w[:, None], pts @ model.true_theta.T)
    return _invert(info, "expected information")


# ---------------------------------------------------------------------------
# Plug-in estimates from a realised trial
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PluginReport:
    theta_hat: np.ndarray  # (K, d)
    counts: np.ndarray  # (K,)
    info_hat: np.ndarray  # (K, d, d)
    V_hat: np.ndarray  # (K, d, d)
    theta_cov_hat: np.ndarray  # (K*d, K*d)
    dg_hat: np.ndarray  # (K, K*d)
    sigma1_hat: np.ndarray
    sigma2_hat: np.ndarray
    sigma_hat: np.ndarray
    conditional: tuple[ConditionalCovariance, ...]
    warnings: tuple[str, ...]


def plugin_estimates(history: TrialHistory, model: TrialModel, rule: AllocationRule,
                     x_list=()) -> PluginReport:
    """Sample analogues of the theory report from one realised trial.

    Expectations become averages over the n observed covariates, the true
    coefficients are replaced by the final estimates, and V_k and C invert
    the sample information (pseudo-inverses, with a warning naming each
    singular arm, when any arm's is singular).  The averages run over the
    covariate support points, weighted by the engine's support counts
    (:meth:`TrialHistory.support_counts`), when it kept them, else over the
    observed rows: one (arm, node) table of patients gives the arm counts,
    node weights, information and ``x_list`` masses.  Every arm's dispersion
    is the model's, as in the theory report.  Positive semidefiniteness is
    only warned about here, never enforced.
    """
    n = history.n
    if n == 0:
        raise ValueError("plug-in estimates require a non-empty history")
    K, d = model.K, model.d
    if (history.K, history.d) != (K, d):
        raise ValueError(f"history has (K, d) = ({history.K}, {history.d}) but the model "
                         f"has ({K}, {d})")
    if history.current_theta is None:
        raise ValueError("history.current_theta is missing; plug-in estimates need the "
                         "final coefficient estimates")
    theta = np.asarray(history.current_theta, dtype=float)
    if theta.shape != (K, d):
        raise ValueError(f"history.current_theta has shape {theta.shape}, expected "
                         f"(K, d) = ({K}, {d})")
    warnings: list[str] = []

    # One kernel evaluation on the nodes (the support points, else the
    # observed rows), weighted by a table of patients per (arm, node) / n,
    # laid out so that both of its sums run along rows, not a short last axis.
    table = history.support_counts()
    if table is None:
        nodes = history.covariates[:n]
        table = np.bincount(history.arms[:n] * n + np.arange(n), minlength=K * n).reshape(K, n)
    else:
        nodes = model.covariates.enumerated()[0]
    counts = table.sum(axis=1)
    _, dg_hat, z = node_pass(rule, theta, nodes, table.sum(axis=0) / n)
    info_hat = _fisher_gram(model, nodes, table.T / n, z)

    inverse = np.linalg.inv
    try:
        V_hat = inverse(info_hat)
    except np.linalg.LinAlgError:
        inverse = np.linalg.pinv
        V_hat = inverse(info_hat)
        warnings += [f"sample information for arm {k + 1} is singular; used pseudo-inverse"
                     for k in np.flatnonzero(np.linalg.matrix_rank(info_hat) < d)]
    C_hat = _theta_covariance(model, info_hat, inverse)

    sigma1_hat, sigma2_hat, sigma_hat = _allocation_covariance(counts / n, dg_hat, C_hat)

    xs = _points(x_list, d)
    masses = [float(table[:, fold_columns(np.logical_and, nodes == x)].sum()) / n for x in xs]
    for x, mass in zip(xs, masses):
        if mass == 0.0:
            raise ZeroMassCovariateError(
                f"covariate value {x.tolist()} never occurred in the history")
    conditional = _conditionals(rule, theta, xs, masses, C_hat)

    names = ["Sigma1_hat", "Sigma_hat"] + [f"Sigma_hat|x={c.x.tolist()}" for c in conditional]
    mats = np.array([sigma1_hat, sigma_hat] + [c.sigma for c in conditional])
    warnings += [f"{name} has negative eigenvalue {lo:.3e}"
                 for name, lo in _negative_eigenvalues(names, mats)]

    return PluginReport(theta_hat=theta, counts=counts, info_hat=info_hat, V_hat=V_hat,
                        theta_cov_hat=C_hat, dg_hat=dg_hat, sigma1_hat=sigma1_hat,
                        sigma2_hat=sigma2_hat, sigma_hat=sigma_hat,
                        conditional=conditional, warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# Closed forms for the covariate-free normal (two-arm, shared-slope) design
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BBClosedForms:
    v: np.ndarray  # (2,)
    mu_cov: np.ndarray  # (2, 2) covariance of sqrt(n) (mu_hat - mu)
    beta_cov: np.ndarray  # (d-1, d-1) covariance of sqrt(n) (beta_hat - beta)
    alloc_var: float  # variance of sqrt(n) (N_{n,1}/n - v_1)
    a: np.ndarray  # E[xi_tilde]
    info_tilde: np.ndarray  # Var(xi_tilde)


def bb_closed_forms(model: TrialModel, rule: AllocationRule) -> BBClosedForms:
    """Closed-form limits for the two-arm covariate-free normal design.

    Requires a shared-slope homoscedastic normal model (leading intercept
    coordinate) allocated by the covariate-free normal rule: pi_1 =
    Phi((mu_hat_1 - mu_hat_2) / T).  With a = E[xi_tilde], J = Var(xi_tilde)
    over the non-intercept covariate block and Delta = mu_1 - mu_2:

        v_1 = Phi(Delta / T)
        Cov sqrt(n) (mu_hat - mu) = sigma^2 [[1/v_1 + c, c], [c, 1/v_2 + c]]
            with c = a J^{-1} a'
        Cov sqrt(n) (beta_hat - beta) = sigma^2 J^{-1}
        Var sqrt(n) (N_{n,1}/n - v_1)
            = v_1 v_2 + 2 sigma^2 (phi(Delta / T) / T)^2 / (v_1 v_2)

    The last term applies the chain rule through Delta / T, so the density
    factor carries a 1/T; at T = 1 this is the familiar phi(Delta)^2 form.
    """
    if model.K != 2:
        raise ValueError("closed forms are for exactly two arms")
    if not model.shared_slopes:
        raise ValueError("closed forms require a shared-slope normal model")
    if rule.kind != "covariate-free-normal":
        raise ValueError("closed forms require the covariate-free normal rule")
    sigma2 = model.arms[0].dispersion
    T = rule.T
    mu = model.true_theta[:, 0]
    delta = float(mu[0] - mu[1])

    pts, w, _ = expectation_nodes(model.covariates)
    tilde = pts[:, 1:]
    a = w @ tilde
    centred = tilde - a
    J = (centred * w[:, None]).T @ centred
    if model.d > 1:
        if np.linalg.cond(J) > COND_MAX:
            raise SingularInformationError("Var(xi_tilde) is singular")
        Jinv = np.linalg.inv(J)
        c = float(a @ Jinv @ a)
        beta_cov = sigma2 * Jinv
    else:
        c = 0.0
        beta_cov = np.empty((0, 0))

    v1 = float(ndtr(delta / T))
    v2 = 1.0 - v1
    v = np.array([v1, v2])
    mu_cov = sigma2 * np.array([[1.0 / v1 + c, c], [c, 1.0 / v2 + c]])
    dens = math.exp(-0.5 * (delta / T) ** 2) / math.sqrt(2.0 * math.pi) / T
    alloc_var = v1 * v2 + 2.0 * sigma2 * dens * dens / (v1 * v2)
    return BBClosedForms(v=v, mu_cov=mu_cov, beta_cov=beta_cov,
                         alloc_var=alloc_var, a=a, info_tilde=J)


# ---------------------------------------------------------------------------
# Sandwich covariance for least-squares working fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LseSandwich:
    V: np.ndarray  # (K, d, d)
    info_x: np.ndarray  # (K, d, d)  E[pi_k xi'xi]
    info_y: np.ndarray  # (K, d, d)  E[pi_k Var(Y_k | xi) xi'xi]
    method: ExpectationMethod


def lse_sandwich(model: TrialModel, rule: AllocationRule,
                 opts: TheoryOptions = TheoryOptions()) -> LseSandwich:
    """Asymptotic covariance of the per-arm least-squares working estimate.

    V_k = (E[pi_k xi'xi])^{-1} E[pi_k Var(Y_k | xi) xi'xi] (E[pi_k xi'xi])^{-1}
    with the model's own response variance, so for normal arms V_k reduces
    to sigma_k^2 (E[pi_k xi'xi])^{-1}.
    """
    pts, w, method = expectation_nodes(model.covariates, opts)
    theta = model.true_theta
    pi = probabilities(rule, theta, pts)
    var_y = model.dispersion * glm_weights(model.logistic, pts @ theta.T)
    info_x = _gram(pts, w[:, None] * pi)
    info_y = _gram(pts, w[:, None] * pi * var_y)
    inv = _invert(info_x, "E[pi_k xi'xi]")
    V = inv @ info_y @ inv
    _assert_psd([f"LSE V_{k + 1}" for k in range(model.K)], V)
    return LseSandwich(V=V, info_x=info_x, info_y=info_y, method=method)
