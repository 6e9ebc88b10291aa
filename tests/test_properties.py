"""Property tests of the batched rule kernel, the limit theory and the lockstep engine."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from carasim import asymptotics
from carasim import allocation, estimation
from carasim.allocation import AllocationRule, jacobian, node_pass, probabilities
from carasim.asymptotics import TheoryOptions, expectation_nodes, lse_sandwich, theory_report
from carasim.engine import (
    EngineOptions,
    TrialHistory,
    replicate_root,
    run_trial,
    run_trials,
    step,
    streams_for_trial,
)
from carasim.estimation import fit_logistic_cells, fit_one_cell, solve_errstate, solve_stack
from carasim.fixtures import bb_config, f1_config, two_point_config
from carasim.harness import parse_config
from carasim.model import ArmModel, CovariateSpec, TrialModel, TwoPoint, Uniform, glm_weights

from oracles import jacobian_fd, replay_rowwise_refits, support_index, update_all_estimates
from test_engine import _assert_same_snapshot, _snapshot

_TWO_ARM = ("odds-ratio", "two-arm-g-difference", "covariate-free-normal")


@st.composite
def rules(draw):
    kind = draw(st.sampled_from(("ratio-of-g", "exponential", "odds-ratio",
                                 "two-arm-g-difference", "covariate-free-normal")))
    if kind == "ratio-of-g":
        return AllocationRule(kind=kind, g_name=draw(st.sampled_from(("exp", "one-plus-z-squared"))))
    if kind == "odds-ratio":
        return AllocationRule(kind=kind)
    return AllocationRule(kind=kind, T=draw(st.floats(0.5, 2.0)))


@st.composite
def rule_cases(draw, bound=2.0, max_d=5):
    """(rule, theta (K, d), X (N, d)) for a built-in rule."""
    rule = draw(rules())
    K = 2 if rule.kind in _TWO_ARM else draw(st.integers(2, 4))
    d = draw(st.integers(1, max_d))
    N = draw(st.integers(1, 8))
    values = st.floats(-bound, bound)
    theta = draw(arrays(np.float64, (K, d), elements=values))
    X = draw(arrays(np.float64, (N, d), elements=values))
    return rule, theta, X


@given(rule_cases())
def test_probabilities_are_positive_and_rows_sum_to_one(case):
    rule, theta, X = case
    P = probabilities(rule, theta, X)
    assert P.shape == (X.shape[0], theta.shape[0])
    assert np.all(P > 0.0)
    np.testing.assert_allclose(P.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@given(rule_cases())
def test_jacobian_columns_sum_to_zero(case):
    rule, theta, X = case
    J = jacobian(rule, theta, X)
    np.testing.assert_allclose(J.sum(axis=1), 0.0, rtol=0, atol=1e-12)


@given(rule_cases())
def test_analytic_jacobian_matches_finite_differences_on_every_row(case):
    rule, theta, X = case
    J = jacobian(rule, theta, X)
    for n in range(X.shape[0]):
        np.testing.assert_allclose(J[n], jacobian_fd(rule, theta, X[n]), rtol=0, atol=1e-6)


@given(rule_cases(), st.integers(0, 2**32 - 1))
def test_batched_rows_match_single_row_calls(case, seed):
    rule, theta, X = case
    P = probabilities(rule, theta, X)
    J = jacobian(rule, theta, X)
    for n in range(X.shape[0]):
        np.testing.assert_allclose(P[n], probabilities(rule, theta, X[n]), rtol=0, atol=1e-14)
        np.testing.assert_allclose(J[n], jacobian(rule, theta, X[n]), rtol=0, atol=1e-14)
    w = np.random.default_rng(seed).random(X.shape[0])
    np.testing.assert_allclose(jacobian(rule, theta, X, weights=w),
                               np.tensordot(w, J, axes=1), rtol=0, atol=1e-14)


def _textbook_dpi_dz(rule, theta, X):
    """(d pi / d z (N, K, K), u) by the textbook forms: T (pi_k delta_kj -
    pi_k pi_j), (delta_kj G'(z_j) - pi_k G'(z_j)) / sum G and
    g [[1, -1], [-1, 1]], each built from eye and outer-product stacks."""
    K = theta.shape[0]
    p = probabilities(rule, theta, X)
    z = X @ theta.T
    eye = np.eye(K)
    if rule.kind in ("two-arm-g-difference", "covariate-free-normal"):
        if rule.kind == "covariate-free-normal":
            t = np.full(X.shape[0], (theta[0, 0] - theta[1, 0]) / rule.T)
            u = np.broadcast_to(np.eye(X.shape[1])[0], X.shape)
        else:
            t = (z[:, 0] - z[:, 1]) / rule.T
            u = X
        g = np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi) / rule.T
        return g[:, None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]]), u
    if rule.kind == "ratio-of-g" and rule.g_name == "one-plus-z-squared":
        gp = 2.0 * z
        s = (1.0 + z * z).sum(axis=-1, keepdims=True)
        return (eye * gp[:, None, :] - p[:, :, None] * gp[:, None, :]) / s[:, None], X
    T = rule.T if rule.kind == "exponential" else 1.0
    return T * (p[:, :, None] * eye - p[:, :, None] * p[:, None, :]), X


@st.composite
def node_pass_cases(draw):
    """(rule, theta (K, d), X (N, d), weights (N,), logistic (K,)) with K up
    to 5 and N one, a few, several hundred, or a few thousand rows (more than
    one block of the kernel's derivative)."""
    rule = draw(rules())
    K = 2 if rule.kind in _TWO_ARM else draw(st.integers(2, 5))
    d = draw(st.integers(1, 4))
    N = draw(st.one_of(st.just(1), st.integers(2, 9), st.integers(200, 700),
                       st.integers(allocation._BLOCK_ROWS, 2 * allocation._BLOCK_ROWS + 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = rng.uniform(-2.0, 2.0, (K, d))
    X = rng.uniform(-2.0, 2.0, (N, d))
    w = np.where(rng.random(N) < 0.2, 0.0, rng.random(N))
    return rule, theta, X, w, rng.random(K) < 0.5


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(node_pass_cases())
def test_node_pass_is_bitwise_the_separate_calls(case):
    rule, theta, X, w, logistic = case
    K, d = theta.shape
    p, dg, z = node_pass(rule, theta, X, w)
    _same_bytes(p, probabilities(rule, theta, X))
    _same_bytes(dg, jacobian(rule, theta, X, weights=w))
    _same_bytes(glm_weights(logistic, z), glm_weights(logistic, X @ theta.T))
    # The in-place derivative block gives the bits of the textbook stacks.
    dpi_dz, u = _textbook_dpi_dz(rule, theta, X)
    _same_bytes(dg, ((dpi_dz.reshape(-1, K * K) * w[:, None]).T @ u).reshape(K, K * d))
    p_rows, jac_rows, z_rows = node_pass(rule, theta, X)
    _same_bytes(p_rows, p)
    _same_bytes(z_rows, z)
    _same_bytes(jac_rows, (dpi_dz[..., None] * u[:, None, None, :]).reshape(-1, K, K * d))


@st.composite
def designs(draw):
    """A K-arm model on a finite support that spans every coordinate, and a rule."""
    rule, theta, extra = draw(rule_cases(bound=1.0, max_d=3))
    K, d = theta.shape
    points = np.vstack([np.eye(d), extra])
    points[:, 0] = 1.0  # intercept column; the unit rows keep the support spanning
    points = np.unique(points, axis=0)
    probs = np.full(points.shape[0], 1.0 / points.shape[0])
    families = draw(st.lists(st.sampled_from(("logistic", "normal-linear")), min_size=K, max_size=K))
    arms = tuple(ArmModel(family=f, dispersion=1.0 if f == "logistic" else 2.0) for f in families)
    model = TrialModel(arms=arms, covariates=CovariateSpec.discrete(points, probs),
                       true_theta=theta, box_lo=-3.0, box_hi=3.0)
    return model, rule, points


@given(designs())
def test_theory_sigma_rows_sum_to_zero_and_V_inverts_the_information(design):
    model, rule, points = design
    rep = theory_report(model, rule, x_list=points)
    scale = max(1.0, float(np.abs(rep.sigma).max()))
    np.testing.assert_allclose(rep.sigma.sum(axis=1), 0.0, rtol=0, atol=1e-10 * scale)
    for cond in rep.conditional:
        scale = max(1.0, float(np.abs(cond.sigma).max()))
        np.testing.assert_allclose(cond.sigma.sum(axis=1), 0.0, rtol=0, atol=1e-10 * scale)
    for k in range(model.K):
        np.testing.assert_allclose(rep.V[k] @ rep.info[k], np.eye(model.d), rtol=0, atol=1e-8)


@st.composite
def bb_designs(draw):
    """Two normal arms with a common error variance and shared slopes on
    (1, 1-3 two-point coordinates), under the covariate-free normal rule.
    The coordinates' ranges keep cond(I_k) below about 1e3, so that both the
    general theory and the closed forms carry rounding errors far below the
    1e-12 they are compared at (about 3e-14 at worst over 3000 draws)."""
    u = draw(st.integers(1, 3))
    coords = []
    for _ in range(u):
        a = draw(st.floats(-1.0, 1.0))
        coords.append(TwoPoint(a, a + draw(st.floats(0.5, 2.0)), draw(st.floats(0.2, 0.8))))
    slopes = draw(arrays(np.float64, u, elements=st.floats(-2.0, 2.0)))
    mu2, delta = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.5, 1.5))
    sigma2 = draw(st.floats(0.25, 4.0))
    arm = ArmModel(family="normal-linear", dispersion=sigma2)
    model = TrialModel(arms=(arm, arm), covariates=CovariateSpec.product(coords, intercept=True),
                       true_theta=np.array([[mu2 + delta, *slopes], [mu2, *slopes]]),
                       box_lo=-5.0, box_hi=5.0, shared_slopes=True)
    return model, AllocationRule(kind="covariate-free-normal", T=draw(st.floats(0.5, 2.0)))


@given(bb_designs())
def test_shared_slope_theory_equals_the_closed_forms(design):
    model, rule = design
    rep = theory_report(model, rule)
    bb = asymptotics.bb_closed_forms(model, rule)
    np.testing.assert_allclose(rep.sigma[0, 0], bb.alloc_var, rtol=1e-12, atol=0)
    d = model.d
    cov = np.diag(rep.theta_cov).reshape(2, d)
    np.testing.assert_allclose(cov[:, 0], np.diag(bb.mu_cov), rtol=1e-12, atol=0)
    for k in range(2):
        np.testing.assert_allclose(cov[k, 1:], np.diag(bb.beta_cov), rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# Node sums: BLAS products against einsum on the same nodes
# ---------------------------------------------------------------------------

@st.composite
def continuous_designs(draw):
    """A K-arm model on (1, U(lo, hi)^u) with a rule and expectation options:
    tensor quadrature for u <= 3, Monte Carlo for u = 4."""
    rule = draw(rules())
    K = 2 if rule.kind in _TWO_ARM else draw(st.integers(2, 4))
    u = draw(st.integers(1, 4))
    lo = draw(st.floats(-2.0, 1.0))
    coords = [Uniform(lo, lo + draw(st.floats(0.5, 2.0))) for _ in range(u)]
    theta = draw(arrays(np.float64, (K, u + 1), elements=st.floats(-1.0, 1.0)))
    families = draw(st.lists(st.sampled_from(("logistic", "normal-linear")), min_size=K, max_size=K))
    arms = tuple(ArmModel(family=f, dispersion=1.0 if f == "logistic" else 2.0) for f in families)
    model = TrialModel(arms=arms, covariates=CovariateSpec.product(coords, intercept=True),
                       true_theta=theta, box_lo=-3.0, box_hi=3.0)
    opts = TheoryOptions(gl_nodes=draw(st.integers(2, 12)), mc_size=draw(st.integers(50, 400)))
    return model, rule, opts


def _assert_node_sum(got, weights, *factors):
    """``got`` equals the einsum over n of weights[n, ...] * prod(factors) to
    rtol 1e-12 plus 1e-14 times the einsum of the terms' magnitudes."""
    subscripts = ["nk"] + ["ni", "nj"][:len(factors)]
    out = "kij"[:1 + len(factors)]
    expr = ",".join(subscripts) + "->" + out
    ref = np.einsum(expr, weights, *factors)
    size = np.einsum(expr, np.abs(weights), *map(np.abs, factors))
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref) + 1e-14 * size)


@settings(max_examples=40, deadline=None)
@given(continuous_designs())
def test_theory_node_sums_equal_einsum(design):
    model, rule, opts = design
    pts, w, _ = expectation_nodes(model.covariates, opts)
    theta = model.true_theta
    pi = probabilities(rule, theta, pts)
    phi = np.array([a.dispersion for a in model.arms])
    gw = glm_weights(model.logistic, pts @ theta.T)
    rep = theory_report(model, rule, opts=opts)
    _assert_node_sum(rep.info, w[:, None] * pi * gw / phi, pts, pts)
    lse = lse_sandwich(model, rule, opts)
    _assert_node_sum(lse.info_x, w[:, None] * pi, pts, pts)
    _assert_node_sum(lse.info_y, w[:, None] * pi * phi * gw, pts, pts)
    K, d = theta.shape
    per_row = jacobian(rule, theta, pts).reshape(-1, K * K * d)
    _assert_node_sum(jacobian(rule, theta, pts, weights=w).ravel(), w[:, None] * per_row)


@given(st.integers(1, 80))
def test_gauss_legendre_rule_is_shared_read_only(n):
    nodes, weights = asymptotics._gauss_legendre(n)
    assert not nodes.flags.writeable and not weights.flags.writeable
    again = asymptotics._gauss_legendre(n)
    np.testing.assert_array_equal(again[0], nodes)
    np.testing.assert_array_equal(again[1], weights)
    expected = np.polynomial.legendre.leggauss(n)
    np.testing.assert_array_equal(nodes, expected[0])
    np.testing.assert_array_equal(weights, expected[1])


# ---------------------------------------------------------------------------
# The batched IRLS core
# ---------------------------------------------------------------------------

@st.composite
def logistic_cells(draw, infinite=False):
    """1-8 cells of binomial counts with ragged row counts, d = 1..4.  With
    ``infinite``, d >= 2, covariates past the first column may be +-inf and
    every start coefficient is nonzero, so that a cell's linear predictors
    are infinite and its gradient and Newton steps can hold a NaN or an
    infinite entry after a finite first entry."""
    d = draw(st.integers(2 if infinite else 1, 4))
    starts = st.floats(0.125, 3.0) | st.floats(-3.0, -0.125) if infinite else st.floats(-3.0, 3.0)
    cells = []
    for _ in range(draw(st.integers(1, 8))):
        m = draw(st.integers(1, 12))
        X = draw(arrays(np.float64, (m, d), elements=st.floats(-2.0, 2.0)))
        if infinite:
            for _ in range(draw(st.integers(0, 2))):
                X[draw(st.integers(0, m - 1)), draw(st.integers(1, d - 1))] = draw(
                    st.sampled_from((np.inf, -np.inf)))
        t = draw(arrays(np.float64, m, elements=st.integers(1, 5).map(float)))
        if draw(st.booleans()):
            s = t.copy()  # every trial a success: the MLE lies at infinity
        else:
            s = np.floor(t * draw(arrays(np.float64, m, elements=st.floats(0.0, 1.0))))
        init = draw(arrays(np.float64, d, elements=starts))
        cells.append((X, t, s, init))
    return d, cells


def _stacked(cells):
    """The cells' rows as one (1 + d, N) block (successes, covariates), their
    trials, sizes and starting points, as ``fit_logistic_cells`` takes them."""
    rows = np.vstack([np.concatenate([c[2] for c in cells]),
                      np.hstack([c[0].T for c in cells])])
    return (rows, np.concatenate([c[1] for c in cells]),
            np.array([c[0].shape[0] for c in cells]), np.array([c[3] for c in cells]))


@settings(max_examples=60, deadline=None)
@given(logistic_cells())
def test_each_cell_of_a_batched_fit_is_bitwise_its_fit_alone(case):
    # The batched loop, at every C from 1, against fit_one_cell without its
    # conditioning guard (as the engine fits), which fits each cell alone.
    _assert_each_cell_fits_as_alone(case)


@settings(max_examples=60, deadline=None)
@given(logistic_cells(infinite=True))
# The first cell's one row is (1, inf) with a success: at the start its
# gradient is (0, NaN), whose first entry passes the gradient test.
@example((2, [(np.array([[1.0, np.inf]]), np.ones(1), np.ones(1), np.array([0.5, 1.0])),
              (np.array([[1.0, 0.5], [1.0, -np.inf], [1.0, 1.5]]), np.full(3, 2.0),
               np.array([1.0, 2.0, 0.0]), np.array([-1.0, 0.25]))]))
def test_a_cell_with_infinite_covariates_ends_its_fit_as_in_a_batch(case):
    """NaN and inf entries of a gradient or Newton step, also after a finite
    first entry, end a cell's fit alone as the batched loop's reductions end
    it: the two agree bit for bit, NaN estimates included."""
    _assert_each_cell_fits_as_alone(case)


def _assert_each_cell_fits_as_alone(case):
    d, cells = case
    raw, converged, iterations, singular = fit_logistic_cells(*_stacked(cells))
    for i, (X, t, s, init) in enumerate(cells):
        rows = np.empty((1 + d, X.shape[0]))
        rows[0], rows[1:] = s, X.T
        with solve_errstate():
            alone = fit_one_cell(rows, t, init, False)
        np.testing.assert_array_equal(raw[i], alone[0])
        assert (converged[i], iterations[i], singular[i]) == alone[1:]
        if singular[i]:
            np.testing.assert_array_equal(raw[i], init)


def _ulps(a, b):
    """Units in the last place between float arrays of one sign (-0.0 and 0.0
    count as one value)."""
    return np.abs((a + 0.0).view(np.int64) - (b + 0.0).view(np.int64))


@given(arrays(np.float64, st.integers(1, 40), elements=st.floats() | st.floats(-800.0, 800.0)),
       st.none() | st.integers(0, 6))
@example(np.array([-4.157659143137575, 709.78, 709.79, 1.2e8, np.inf, -np.inf, np.nan, 0.0]), 2)
def test_loglik_softplus_is_logaddexp_row_by_row(mu, k):
    """Every row its own cell, with no successes, so that -ll is the row's
    softplus times its trials (2**k, which scales exactly; None: one trial).
    For finite mu it is within 4 ulp of ``np.logaddexp(0, mu)``: exp and
    log1p are each within 1 ulp in numpy and in libm, and log1p carries the
    relative error of its argument at most 1:1.  A dense probe found gaps of
    3 ulp near mu = -4.156 (the example).  Where exp overflows it is
    ``logaddexp``'s value exactly, and non-finite mu give the reference's
    ll (NaN from 0 * inf, -inf from 1 * -inf with all successes)."""
    N = mu.size
    t = None if k is None else np.full(N, 2.0 ** k)
    trials = np.ones(N) if t is None else t
    rows, none = np.arange(N), np.zeros(N)
    with solve_errstate():  # exp overflows, and 0 * inf is NaN
        softplus = trials * np.logaddexp(0.0, mu)
        ll = estimation._loglik(mu, t, none, rows)
        all_successes = estimation._loglik(mu, t, trials, rows)
        expected = (none * mu - softplus, trials * mu - softplus)
    finite = np.isfinite(mu)
    assert np.all(_ulps(-ll[finite], softplus[finite]) <= 4)
    overflow = finite & (mu > 709.78)
    np.testing.assert_array_equal(-ll[overflow], softplus[overflow])
    np.testing.assert_array_equal(ll[~finite], expected[0][~finite])
    exact = overflow | ~finite
    np.testing.assert_array_equal(all_successes[exact], expected[1][exact])


@st.composite
def newton_stacks(draw):
    """1-8 systems (C, d, d) and (C, d) with d = 1..5, each regular, exactly
    singular (a zero row or column), or with a NaN or infinite entry."""
    d = draw(st.integers(1, 5))
    C = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.uniform(-2.0, 2.0, (C, d, d))
    b = rng.uniform(-2.0, 2.0, (C, d))
    for i in range(C):
        kind = draw(st.sampled_from(("regular", "zero-row", "zero-column", "nan", "inf")))
        j, k = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        if kind == "zero-row":
            A[i, j] = 0.0
        elif kind == "zero-column":
            A[i, :, j] = 0.0
        elif kind != "regular":
            A[i, j, k] = np.nan if kind == "nan" else draw(st.sampled_from((np.inf, -np.inf)))
    return A, b


@settings(max_examples=200, deadline=None)
@given(newton_stacks())
def test_solve_stack_is_numpys_solve_system_by_system(case):
    """Under the fits' error state, a stack is solved without a warning; a
    system that ``np.linalg.solve`` solves alone gives its bits (NaN and inf
    included), and one that it refuses as singular gives a row of NaN.  The
    one-system form gives the same bits.  This pins the private numpy gufunc
    that ``solve_stack`` calls."""
    A, b = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with solve_errstate():
            x = solve_stack(A, b)
            single = [solve_stack(A[i], b[i]) for i in range(A.shape[0])]
    assert x.shape == b.shape and x.dtype == np.float64
    for i in range(A.shape[0]):
        _same_bytes(single[i], x[i])
        try:
            alone = np.linalg.solve(A[i], b[i])
        except np.linalg.LinAlgError:
            assert np.isnan(x[i]).all()
        else:
            _same_bytes(x[i], alone)


# ---------------------------------------------------------------------------
# The lockstep engine
# ---------------------------------------------------------------------------

def _lse_design():
    """Per-arm least squares: two normal arms and a logistic one on a finite support."""
    arms = (ArmModel("normal-linear", 1.5), ArmModel("normal-linear", 0.7), ArmModel("logistic"))
    covariates = CovariateSpec.discrete([[1.0, 0.0], [1.0, 1.0], [1.0, -0.5]], [0.3, 0.3, 0.4])
    theta = np.array([[0.5, -0.5], [0.0, 0.4], [0.2, 0.1]])
    return (TrialModel(arms=arms, covariates=covariates, true_theta=theta, box_lo=-3.0, box_hi=3.0),
            AllocationRule(kind="exponential", T=1.0), 4)


def _continuous_lse_design():
    """Normal arms on a continuous covariate: least squares off a finite support."""
    arm = ArmModel("normal-linear", 1.0)
    covariates = CovariateSpec.product([Uniform(-1.0, 1.0), Uniform(0.0, 2.0)], intercept=True)
    theta = np.array([[0.3, 0.5, -0.2], [-0.1, 0.2, 0.4]])
    return (TrialModel(arms=(arm, arm), covariates=covariates, true_theta=theta,
                       box_lo=-3.0, box_hi=3.0), AllocationRule(kind="odds-ratio"), 4)


def _continuous_logit_design():
    """Logistic arms on a continuous covariate: IRLS on each arm's rows.  With
    burn-in filling the first 64 rows, a favoured arm outgrows them."""
    arm = ArmModel("logistic")
    covariates = CovariateSpec.product([Uniform(-1.0, 1.0)], intercept=True)
    theta = np.array([[0.8, 0.6], [-0.4, 0.3]])
    return (TrialModel(arms=(arm, arm), covariates=covariates, true_theta=theta,
                       box_lo=-3.0, box_hi=3.0), AllocationRule(kind="odds-ratio"), 32)


def _boxed_logit_design():
    """The continuous logistic design in the box +-0.5: estimates often end
    on the box, and the next refit starts from the clamped estimate."""
    arm = ArmModel("logistic")
    covariates = CovariateSpec.product([Uniform(-1.0, 1.0)], intercept=True)
    theta = np.array([[0.45, 0.4], [-0.3, 0.2]])
    return (TrialModel(arms=(arm, arm), covariates=covariates, true_theta=theta,
                       box_lo=-0.5, box_hi=0.5), AllocationRule(kind="odds-ratio"), 32)


def _continuous_logit_d1_design():
    """Logistic arms on one covariate without an intercept: d = 1, where numpy
    collapses array layouts and a reduction is likeliest to change its order
    with the number of cells fitted together."""
    arm = ArmModel("logistic")
    covariates = CovariateSpec.product([Uniform(0.5, 2.0)], intercept=False)
    theta = np.array([[0.7], [-0.3]])
    return (TrialModel(arms=(arm, arm), covariates=covariates, true_theta=theta,
                       box_lo=-3.0, box_hi=3.0), AllocationRule(kind="odds-ratio"), 8)


def _continuous_logit_d5_design():
    """Three logistic arms on (1, U(-1, 1)^4), like the benchmark's
    four-coordinate design: every refit solves 5 x 5 Newton systems."""
    arm = ArmModel("logistic")
    covariates = CovariateSpec.product([Uniform(-1.0, 1.0)] * 4, intercept=True)
    theta = np.array([[0.4, 0.8, 0.7, 0.9, 0.8], [0.0, -0.6, -0.5, -0.7, -0.6],
                      [-0.3, 0.3, 0.2, 0.4, 0.3]])
    return (TrialModel(arms=(arm, arm, arm), covariates=covariates, true_theta=theta,
                       box_lo=-3.0, box_hi=3.0), AllocationRule(kind="exponential", T=1.0), 6)


def _sparse_saturated_design():
    """Logistic arms saturated on three support points, one of probability
    0.1: with m0 = 4 an arm's support group is often still empty after
    burn-in, and an empty group leaves the closed form undefined."""
    arm = ArmModel("logistic")
    covariates = CovariateSpec.discrete([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]],
                                        [0.6, 0.3, 0.1])
    theta = np.array([[0.3, 0.5, -0.4], [-0.2, 0.1, 0.6]])
    return (TrialModel(arms=(arm, arm), covariates=covariates, true_theta=theta,
                       box_lo=-3.0, box_hi=3.0), AllocationRule(kind="odds-ratio"), 4)


def _saturated_three_arm_design():
    """Three logistic arms saturated on a two-point support: the closed form
    is evaluated on the joined cells only."""
    arm = ArmModel("logistic")
    covariates = CovariateSpec.discrete([[1.0, 0.0], [1.0, 1.0]], [0.6, 0.4])
    theta = np.array([[0.5, -0.5], [0.0, 0.4], [-0.3, 0.8]])
    return (TrialModel(arms=(arm, arm, arm), covariates=covariates, true_theta=theta,
                       box_lo=-3.0, box_hi=3.0), AllocationRule(kind="exponential", T=1.0), 3)


def _saturated_with_least_squares_design():
    """Two logistic arms saturated on a two-point support beside a normal arm:
    the closed form is written only to the grouped cells."""
    arms = (ArmModel("normal-linear", 1.0), ArmModel("logistic"), ArmModel("logistic"))
    covariates = CovariateSpec.discrete([[1.0, 0.0], [1.0, 1.0]], [0.7, 0.3])
    theta = np.array([[0.5, -0.5], [1.2, 0.9], [-0.3, 1.5]])
    return (TrialModel(arms=arms, covariates=covariates, true_theta=theta, box_lo=-3.0, box_hi=3.0),
            AllocationRule(kind="exponential", T=1.0), 3)


def _from_config(raw):
    cfg = parse_config(raw)
    return cfg.model, cfg.rule, cfg.m0


def _rare_shared_slope_design():
    """The shared-slope fixture with its second covariate coordinate at 1 with
    probability 0.03 (0 otherwise): the joint Gram matrix stays singular until
    that value turns up, at a different patient in each replicate."""
    raw = bb_config(n=100, replicates=1, seed=0)
    raw["model"]["covariates"]["coords"][2] = {"kind": "two-point", "a": 0.0, "b": 1.0,
                                               "p_a": 0.97}
    return _from_config(raw)


DESIGNS = {
    "grouped-logit-intercept": lambda: _from_config(f1_config(n=100, replicates=1, seed=0)),
    "grouped-logit-saturated": lambda: _from_config(two_point_config(n=100, replicates=1, seed=0)),
    "grouped-logit-sparse": _sparse_saturated_design,
    "grouped-logit-three-arms": _saturated_three_arm_design,
    "grouped-logit-with-least-squares": _saturated_with_least_squares_design,
    "least-squares": _lse_design,
    "least-squares-continuous": _continuous_lse_design,
    "row-logit-boxed": _boxed_logit_design,
    "row-logit-continuous": _continuous_logit_design,
    "row-logit-d1": _continuous_logit_d1_design,
    "row-logit-d5": _continuous_logit_d5_design,
    "shared-slope": lambda: _from_config(bb_config(n=100, replicates=1, seed=0)),
    "shared-slope-rare": _rare_shared_slope_design,
}
_HISTORY_FIELDS = ("covariates", "arms", "probs", "responses", "theta_records", "record_ms",
                   "current_theta", "converged", "projected", "fit_failures")


def _assert_same_trial(a, b):
    for name in _HISTORY_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        if x is None or y is None:
            assert x is None and y is None, name
        else:
            np.testing.assert_array_equal(x, y, err_msg=name)
    counts_a, counts_b = a.refit_counts(), b.refit_counts()
    assert counts_a.keys() == counts_b.keys()
    for name in counts_a:
        np.testing.assert_array_equal(counts_a[name], counts_b[name], err_msg=name)
    support_a, support_b = a.support_counts(), b.support_counts()
    if support_a is None or support_b is None:
        assert support_a is None and support_b is None
    else:
        np.testing.assert_array_equal(support_a, support_b, err_msg="support_counts")


@settings(max_examples=12)
@given(st.sampled_from(sorted(DESIGNS)), st.integers(0, 2**16), st.integers(1, 7),
       st.integers(1, 3), st.integers(0, 60))
@example("row-logit-d5", 3, 5, 2, 60)  # 5 x 5 Newton systems, one cell and batched
def test_replicate_of_a_lockstep_batch_is_bitwise_run_trial(name, seed, R, cut, extra):
    model, rule, m0 = DESIGNS[name]()
    n = model.K * m0 + extra
    opts = EngineOptions(theta_stride=cut)
    # Replicates 0..R-1 split into two batches at a random point.
    split = seed % (R + 1)
    batches = [list(range(split)), list(range(split, R))]
    got, counts = [], []
    for idx in batches:
        if idx:
            batch = run_trials(model, rule, n, m0, [replicate_root(seed, i) for i in idx], opts)
            got += batch.histories
            counts += [{name: c[j] for name, c in batch.refit_counts.items()} for j in range(len(idx))]
    for i, hist in enumerate(got):
        alone = run_trial(model, rule, n, m0, replicate_root(seed, i), opts)
        _assert_same_trial(hist, alone)
        for name, c in alone.refit_counts().items():
            np.testing.assert_array_equal(counts[i][name], c, err_msg=name)


@settings(max_examples=12)
@given(st.sampled_from(sorted(DESIGNS)), st.integers(0, 2**16), st.integers(0, 120))
def test_incremental_estimates_equal_a_batch_refit(name, seed, extra):
    model, rule, m0 = DESIGNS[name]()
    hist = run_trial(model, rule, model.K * m0 + extra, m0, replicate_root(seed, 0))
    expected = update_all_estimates(hist, model).theta
    logistic = np.array([a.family == "logistic" for a in model.arms])
    # Closed forms and least squares agree to rounding; IRLS to its tolerance.
    np.testing.assert_allclose(hist.current_theta[~logistic], expected[~logistic],
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(hist.current_theta[logistic], expected[logistic],
                               rtol=0, atol=1e-6)


@pytest.mark.parametrize("half", [None, 0.2], ids=["own-box", "tight-box"])
@pytest.mark.parametrize("name", [name for name in sorted(DESIGNS)
                                  if any(a.family != "logistic" for a in DESIGNS[name]()[0].arms)])
def test_least_squares_flags_equal_a_batch_refit(name, half):
    """The ``converged`` and ``projected`` flags of every normal arm, alone and
    in a batch of 4, are a batch refit's.  Least squares writes them through
    the same writer as the batched refits; shared slopes write them per
    replicate, unmasked or (in a batch whose replicates have not all formed
    their fit, or alone before it forms) masked."""
    model, rule, m0 = DESIGNS[name]()
    if half is not None:
        model = replace(model, box_lo=model.true_theta - half, box_hi=model.true_theta + half)
    normal = np.array([a.family != "logistic" for a in model.arms])
    projected = 0
    for seed in range(10):
        n = model.K * m0 + 10 * seed
        seeds = [replicate_root(seed, i) for i in range(4)]
        alone = run_trial(model, rule, n, m0, seeds[0])
        for hist in run_trials(model, rule, n, m0, seeds).histories + (alone,):
            expected = update_all_estimates(hist, model)
            np.testing.assert_array_equal(hist.converged[normal], expected.converged[normal])
            np.testing.assert_array_equal(hist.projected[normal], expected.projected[normal])
            projected += hist.projected[normal].sum()
    if half is not None:
        assert projected > 0


@settings(max_examples=12)
@given(st.sampled_from(sorted(DESIGNS)), st.integers(0, 2**16), st.integers(1, 8),
       st.integers(1, 3), st.integers(0, 30))
@example("row-logit-d5", 3, 8, 2, 30)
def test_steps_reproduce_run_trial(name, seed, k, stride, extra):
    model, rule, m0 = DESIGNS[name]()
    n = model.K * m0 + extra
    opts = EngineOptions(theta_stride=stride)
    whole = run_trial(model, rule, n + k, m0, replicate_root(seed, 0), opts)
    streams = streams_for_trial(replicate_root(seed, 0))
    hist = run_trial(model, rule, n, m0, streams, opts)
    for _ in range(k):
        hist = step(hist, model, rule, streams)
    _assert_same_trial(hist, whole)


@settings(max_examples=12)
@given(st.sampled_from(sorted(DESIGNS)), st.integers(0, 2**16), st.integers(1, 3),
       st.integers(1, 3), st.integers(0, 20), st.lists(st.integers(0, 2**16), min_size=1,
                                                        max_size=8))
@example("shared-slope", 5, 1, 1, 0, list(range(12)))  # a chain that fills its record
@example("row-logit-d1", 9, 3, 2, 3, [0, 1, 1, 2, 0, 5, 5, 7])
def test_a_tree_of_steps_appends_at_its_tips_and_copies_where_it_branches(
        name, seed, B, stride, extra, parents):
    """Steps from anywhere in a tree of histories.  From the last history
    of a chain of steps (its tip), while the chain's record has room,
    ``step()`` appends to that record in place, so the child shares the
    parent's memory; from any other history (an older one, a row of a batch,
    a tip whose record is full) it copies.  Every history keeps the snapshot
    taken when it was made and is bitwise ``run_trial`` of its length."""
    model, rule, m0 = DESIGNS[name]()
    opts = EngineOptions(theta_stride=stride)
    root = replicate_root(seed, B - 1)

    def streams_at(n):
        # Fresh streams, advanced past n patients as run_trial advances them.
        streams = streams_for_trial(root)
        run_trial(model, rule, n, m0, streams, opts)
        return streams

    n = model.K * m0 + extra
    first = run_trials(model, rule, n, m0, [replicate_root(seed, i) for i in range(B)],
                       opts).histories[-1]
    tree, snapshots, streams, tips = [first], [_snapshot(first)], [streams_at(n)], [False]
    for p in parents:
        j = p % len(tree)
        parent, s = tree[j], streams[j] or streams_at(tree[j].n)
        room = parent.engine_state.record.arms.shape[1] > parent.n
        child = step(parent, model, rule, s)
        assert np.shares_memory(child.arms, parent.arms) == (tips[j] and room)
        streams[j], tips[j] = None, False  # the step advanced the parent's streams
        tree.append(child)
        snapshots.append(_snapshot(child))
        streams.append(s)
        tips.append(True)
    for hist, snapshot in zip(tree, snapshots):
        _assert_same_snapshot(_snapshot(hist), snapshot)
        _assert_same_trial(hist, run_trial(model, rule, hist.n, m0, root, opts))


@settings(max_examples=10)
@given(st.sampled_from(["grouped-logit-saturated", "shared-slope"]), st.integers(0, 2**16),
       st.integers(1, 4), st.integers(0, 300))
@example("shared-slope", 7, 3, 292)  # n = 300: a block of 256 patients and a deferred rest
def test_history_support_counts_are_the_bincount_of_its_support_points(name, seed, B, extra):
    """A history's support counts are the bincount of its (arm, support
    point) pairs, the points found from its covariates: on every row of a
    batch, alone and after chained steps, where the saturated two-point
    design refits from them and the shared-slope (bb) design adds them a draw
    block at a time.  Off a finite support or without engine state there are
    none."""
    model, rule, m0 = DESIGNS[name]()
    K, S = model.K, model.covariates.enumerated()[0].shape[0]
    n = K * m0 + extra

    def expected(hist):
        points = support_index(model, hist.covariates)
        return np.bincount(hist.arms * S + points, minlength=K * S).reshape(K, S)

    streams = [streams_for_trial(replicate_root(seed, i)) for i in range(B)]
    batch = run_trials(model, rule, n, m0, streams).histories
    for hist in batch + (run_trial(model, rule, n, m0, replicate_root(seed, 0)),):
        np.testing.assert_array_equal(hist.support_counts(), expected(hist))
    chain = [batch[0]]
    for _ in range(3):
        chain.append(step(chain[-1], model, rule, streams[0]))
    # Read after the whole chain, the last first: every step resumed a state
    # whose last patient's support point was still to be added.
    for hist in reversed(chain[1:]):
        np.testing.assert_array_equal(hist.support_counts(), expected(hist))
    assert TrialHistory.from_arrays(hist.covariates, hist.arms, hist.responses,
                                    K).support_counts() is None
    model, rule, m0 = DESIGNS["row-logit-continuous"]()
    assert run_trial(model, rule, K * m0 + 5, m0, replicate_root(seed, 0)).support_counts() is None


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_every_logistic_cell_refits_once_per_patient_after_burn_in(name):
    """closed-form refits + IRLS fits of a logistic cell = its patients after
    burn-in + 1 (the refit at the end of burn-in), batched and alone: a cell no
    patient joined is not counted, even when its closed form is recomputed."""
    model, rule, m0 = DESIGNS[name]()
    logistic = np.array([a.family == "logistic" for a in model.arms])
    n = model.K * m0 + 40
    for seed in range(4):
        seeds = [replicate_root(seed, i) for i in range(3)]
        batch = run_trials(model, rule, n, m0, seeds)
        for i, root in enumerate(seeds):
            expected = np.where(logistic, batch.counts[i] - m0 + 1, 0)
            alone = run_trial(model, rule, n, m0, root).refit_counts()
            for counts in ({k: c[i] for k, c in batch.refit_counts.items()}, alone):
                np.testing.assert_array_equal(counts["closed_form"] + counts["irls_fits"],
                                              expected)


@pytest.mark.parametrize("name", ["row-logit-boxed", "row-logit-continuous", "row-logit-d5"])
def test_rowwise_refits_replay_bit_for_bit_from_the_history(name):
    """Every rowwise refit, batched or alone, is ``fit_one_cell`` on the arm's
    history rows from the previous estimate: the estimates after each
    patient, the final flags, the fit failures and the IRLS counters.  On the
    boxed design refits end on the box, and the next starts from there."""
    model, rule, m0 = DESIGNS[name]()
    n = model.K * m0 + 80
    projected = 0
    for seed in range(2):
        seeds = [replicate_root(seed, i) for i in range(3)]
        batch = run_trials(model, rule, n, m0, seeds)
        for hist in batch.histories + (run_trial(model, rule, n, m0, seeds[0]),):
            replay = replay_rowwise_refits(hist, model)
            burn = model.K * m0
            np.testing.assert_array_equal(hist.theta_records[burn - 1:], replay.theta_records)
            for field in ("converged", "projected", "fit_failures"):
                np.testing.assert_array_equal(getattr(hist, field), getattr(replay, field),
                                              err_msg=field)
            counts = hist.refit_counts()
            for counter, value in replay.counts.items():
                np.testing.assert_array_equal(counts[counter], value, err_msg=counter)
            projected += replay.projected_refits
    if name == "row-logit-boxed":
        assert projected > 0


@settings(max_examples=2)
@given(st.integers(0, 2**16))
@pytest.mark.parametrize("half", [None, 0.2], ids=["own-box", "tight-box"])
@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_every_refit_writes_an_estimate_in_the_box(name, half, seed):
    """Whatever refit wrote them, batched or alone, every recorded estimate
    lies in the box, and an arm flagged ``projected`` has a coordinate on a
    box face (with shared slopes the flag is the replicate's: some arm has
    one).  Together the designs reach every writer: the whole-array and the
    gathered closed forms, grouped IRLS off the saturated form, per-arm least
    squares, batched and one-cell rowwise refits, and masked and unmasked
    joint fits.  In the box true_theta +- 0.2 the box moves many refits."""
    model, rule, m0 = DESIGNS[name]()
    if half is not None:
        model = replace(model, box_lo=model.true_theta - half, box_hi=model.true_theta + half)
    lo, hi = model.box_lo, model.box_hi
    n = model.K * m0 + 40
    seeds = [replicate_root(seed, i) for i in range(4)]
    histories = list(run_trials(model, rule, n, m0, seeds).histories)
    streams = streams_for_trial(seeds[0])
    hist = run_trial(model, rule, n, m0, streams)
    for _ in range(10):
        histories.append(hist)
        hist = step(hist, model, rule, streams)
    projected = 0
    for hist in histories + [hist]:
        for theta in (hist.theta_records, hist.current_theta):
            assert np.all((lo <= theta) & (theta <= hi))
        on_face = np.any((hist.current_theta == lo) | (hist.current_theta == hi), axis=1)
        if model.shared_slopes:
            assert len(set(hist.projected)) == 1
            on_face[:] = on_face.any()
        assert not np.any(hist.projected & ~on_face)
        projected += hist.projected.sum()
    if half is not None:
        assert projected > 0


def test_only_grouped_logistic_cells_count_successes():
    """Beside a normal arm, the grouped logistic arms' cells hold at most
    their patients' successes, and the normal arm's cells none."""
    model, rule, m0 = DESIGNS["grouped-logit-with-least-squares"]()
    normal = np.array([a.family != "logistic" for a in model.arms])
    batch = run_trials(model, rule, model.K * m0 + 60, m0, [replicate_root(2, i) for i in range(4)])
    state = batch.histories[0].engine_state
    succ = state.succ.reshape(4, model.K, -1)
    assert np.all((0.0 <= succ) & (succ <= state.trials.reshape(succ.shape)))
    assert np.all(succ[:, normal] == 0.0)
    assert np.all(succ[:, ~normal].sum(axis=2) > 0.0)


@pytest.mark.parametrize("name", [name for name in sorted(DESIGNS)
                                  if not DESIGNS[name]()[0].shared_slopes])
def test_an_arm_no_patient_joined_keeps_its_estimate(name):
    """After burn-in only the arm a patient joins is refit (the shared-slope
    fit, left out here, refits every arm): the others keep their estimates bit
    for bit, also where the closed form of every cell is recomputed."""
    model, rule, m0 = DESIGNS[name]()
    burn = model.K * m0
    hist = run_trial(model, rule, burn + 80, m0, replicate_root(11, 0))
    for m in range(burn, hist.n):
        others = np.arange(model.K) != hist.arms[m]
        np.testing.assert_array_equal(hist.theta_records[m][others],
                                      hist.theta_records[m - 1][others])


def test_sparse_saturated_design_falls_back_to_irls_where_a_group_is_empty():
    """At a fixed seed the sparse design refits one arm by IRLS while its
    other refits take the closed form, and an arm whose closed form is
    undefined (an empty support group) keeps its estimate while the other arm
    is refit."""
    model, rule, m0 = DESIGNS["grouped-logit-sparse"]()
    burn = model.K * m0
    hist = run_trial(model, rule, burn + 80, m0, replicate_root(3, 0))
    counts = hist.refit_counts()
    assert counts["irls_fits"].sum() > 0 and counts["closed_form"].sum() > 0
    assert np.isfinite(hist.theta_records).all()
    undefined_and_idle = 0
    points = support_index(model, hist.covariates)
    for m in range(burn, hist.n):
        for k in np.flatnonzero(np.arange(model.K) != hist.arms[m]):
            seen = points[:m + 1][hist.arms[:m + 1] == k]
            if np.bincount(seen, minlength=3).min() == 0:
                undefined_and_idle += 1
                np.testing.assert_array_equal(hist.theta_records[m][k],
                                              hist.theta_records[m - 1][k])
    assert undefined_and_idle > 0


@pytest.mark.parametrize("name", ["grouped-logit-saturated", "grouped-logit-three-arms"])
def test_a_saturated_refit_takes_irls_only_where_the_closed_form_is_undefined(name):
    """On the support (1, 0), (1, 1) the closed form is (l0, l1 - l0) with
    l = logit(s / t) per group: undefined where a group is empty or both
    logits are the same infinity, and taken at every other refit, infinite
    logits included.  Two arms evaluate every cell, three gather the joined
    ones."""
    model, rule, m0 = DESIGNS[name]()
    K, burn = model.K, model.K * m0
    batch = run_trials(model, rule, burn + 60, m0, [replicate_root(3, i) for i in range(4)])
    closed_with_infinite_logit = 0
    for hist, irls_fits in zip(batch.histories, batch.refit_counts["irls_fits"]):
        t, s, expected = np.zeros((K, 2)), np.zeros((K, 2)), np.zeros(K, dtype=int)
        points = support_index(model, hist.covariates)
        for m, (k, group) in enumerate(zip(hist.arms, points), start=1):
            t[k, group] += 1
            s[k, group] += hist.responses[m - 1]
            for cell in range(K) if m == burn else [k] if m > burn else []:
                with np.errstate(divide="ignore", invalid="ignore"):
                    logit = np.log(s[cell] / (t[cell] - s[cell]))
                undefined = (t[cell] == 0).any() or (np.isinf(logit).all()
                                                     and logit[0] == logit[1])
                expected[cell] += undefined
                closed_with_infinite_logit += np.isinf(logit).any() and not undefined
        np.testing.assert_array_equal(irls_fits, expected)
    assert closed_with_infinite_logit > 0


def test_shared_slope_batch_of_formed_and_unformed_replicates_is_each_alone():
    """Replicates whose joint Gram matrices become solvable at different
    patients share refits in which some are formed and some are not; each is
    still bit for bit its trial alone, fit failures included."""
    model, rule, m0 = DESIGNS["shared-slope-rare"]()
    n = model.K * m0 + 60
    seeds = [replicate_root(5, i) for i in range(8)]
    batch = run_trials(model, rule, n, m0, seeds)
    failures = [int(h.fit_failures[0]) for h in batch.histories]
    assert min(failures) < max(failures)
    for root, hist in zip(seeds, batch.histories):
        _assert_same_trial(hist, run_trial(model, rule, n, m0, root))
