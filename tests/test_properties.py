"""Property tests of the batched rule kernel and the limit theory."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from carasim.allocation import AllocationRule, jacobian, jacobian_fd, probabilities
from carasim.asymptotics import theory_report
from carasim.model import ArmModel, CovariateSpec, TrialModel

_TWO_ARM = ("odds-ratio", "two-arm-g-difference", "covariate-free-normal")


@st.composite
def rules(draw):
    kind = draw(st.sampled_from(("ratio-of-g", "exponential", "odds-ratio",
                                 "two-arm-g-difference", "covariate-free-normal")))
    if kind == "ratio-of-g":
        return AllocationRule.ratio_of_g(draw(st.sampled_from(("exp", "one-plus-z-squared"))))
    if kind == "odds-ratio":
        return AllocationRule.odds_ratio()
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
