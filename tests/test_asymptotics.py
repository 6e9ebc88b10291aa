import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from carasim import allocation
from carasim.allocation import AllocationRule, jacobian, probabilities
from carasim.asymptotics import (
    SingularInformationError,
    TheoryOptions,
    ZeroMassCovariateError,
    bb_closed_forms,
    expectation_nodes,
    iid_mle_covariance,
    info_matrices,
    lse_sandwich,
    plugin_estimates,
    scaled_mle_covariance,
    theory_report,
)
from carasim.engine import TrialHistory, replicate_root, run_trial
from carasim.fixtures import (
    F1_EXACT,
    bb_config,
    coincidence_configs,
    f1_config,
    two_point_config,
)
from carasim.harness import parse_config
from carasim.model import (
    ArmModel,
    Constant,
    CovariateSpec,
    TrialModel,
    TwoPoint,
    Uniform,
    conditional_fisher_info,
)


def _pair(raw):
    cfg = parse_config(raw)
    return cfg.model, cfg.rule


def _one_trial(raw, index=0):
    cfg = parse_config(raw)
    hist = run_trial(cfg.model, cfg.rule, cfg.n, cfg.m0,
                     replicate_root(cfg.seed, index), cfg.engine_options())
    return cfg, hist


def _f1_pair():
    return _pair(f1_config(n=100, replicates=1, seed=0))


def _two_point_pair():
    return _pair(two_point_config(n=100, replicates=1, seed=0))


def _bb_pair():
    return _pair(bb_config(n=100, replicates=1, seed=0))


# ---------------------------------------------------------------------------
# Hand-derived exact values on F1
# ---------------------------------------------------------------------------


def test_f1_report_reproduces_hand_values():
    model, rule = _f1_pair()
    rep = theory_report(model, rule)
    assert rep.method.kind == "exact-enumeration"
    for key in ("v", "dg", "info", "V", "sigma1", "sigma2", "sigma"):
        np.testing.assert_allclose(getattr(rep, key), F1_EXACT[key],
                                   rtol=0.0, atol=1e-10)


def test_f1_conditional_at_the_sure_point_equals_sigma():
    # The covariate is 1 with probability one, so conditioning changes nothing.
    model, rule = _f1_pair()
    cond, = theory_report(model, rule, x_list=[[1.0]]).conditional
    assert cond.mass == 1.0
    np.testing.assert_allclose(cond.pi, F1_EXACT["v"], atol=1e-10)
    np.testing.assert_allclose(cond.sigma, F1_EXACT["sigma"], atol=1e-10)


# ---------------------------------------------------------------------------
# Target allocation
# ---------------------------------------------------------------------------


def test_covariate_free_rule_target_is_the_constant_probability():
    model, rule = _bb_pair()
    ta = theory_report(model, rule)
    v1 = ndtr(1.0)  # mu_1 - mu_2 = 1, T = 1
    np.testing.assert_allclose(ta.v, [v1, 1.0 - v1], atol=1e-12)


def test_two_point_target_matches_naive_enumeration():
    model, rule = _two_point_pair()
    pts, pr = model.covariates.enumerated()
    v = sum(pr[s] * probabilities(rule, model.true_theta, pts[s])
            for s in range(pts.shape[0]))
    dg = sum(pr[s] * jacobian(rule, model.true_theta, pts[s])
             for s in range(pts.shape[0]))
    ta = theory_report(model, rule)
    np.testing.assert_allclose(ta.v, v, atol=1e-12)
    np.testing.assert_allclose(ta.dg, dg, atol=1e-12)


def test_product_enumeration_matches_explicit_discrete_support():
    model_prod, rule = _bb_pair()
    pts, pr = model_prod.covariates.enumerated()
    raw = bb_config(n=100, replicates=1, seed=0)
    raw["model"]["covariates"] = {"kind": "discrete", "support": pts.tolist(),
                                  "probs": pr.tolist()}
    model_disc, _ = _pair(raw)
    ta_p = theory_report(model_prod, rule)
    ta_d = theory_report(model_disc, rule)
    np.testing.assert_allclose(ta_p.v, ta_d.v, atol=1e-12)
    np.testing.assert_allclose(ta_p.dg, ta_d.dg, atol=1e-12)
    im_p = info_matrices(model_prod, rule)
    im_d = info_matrices(model_disc, rule)
    np.testing.assert_allclose(im_p.info, im_d.info, atol=1e-12)


def _uniform_model():
    arm = ArmModel(family="logistic")
    spec = CovariateSpec.product([Constant(1.0), Uniform(0.0, 1.0)])
    theta = np.array([[0.5, -1.0], [-0.25, 0.75]])
    return TrialModel(arms=(arm, arm), covariates=spec, true_theta=theta,
                      box_lo=-4.0, box_hi=4.0)


def test_quadrature_matches_adaptive_integration_oracle():
    model = _uniform_model()
    rule = AllocationRule(kind="odds-ratio")
    ta = theory_report(model, rule)
    assert ta.method.kind == "quadrature"
    oracle, err = quad(
        lambda u: probabilities(rule, model.true_theta, np.array([1.0, u]))[0],
        0.0, 1.0, epsabs=1e-12)
    assert err < 1e-9
    np.testing.assert_allclose(ta.v[0], oracle, rtol=1e-8)
    np.testing.assert_allclose(ta.v.sum(), 1.0, atol=1e-12)


def test_monte_carlo_fallback_is_deterministic_and_close():
    # Four uniform coordinates are one more than quadrature takes.
    arm = ArmModel(family="logistic")
    spec = CovariateSpec.product([Uniform(0.0, 1.0)] * 4, intercept=True)
    theta = np.array([[0.5, -1.0, 0.3, 0.2, -0.4], [-0.25, 0.75, -0.5, 0.1, 0.3]])
    model = TrialModel(arms=(arm, arm), covariates=spec, true_theta=theta,
                       box_lo=-4.0, box_hi=4.0)
    rule = AllocationRule(kind="odds-ratio")
    opts = TheoryOptions(mc_size=20000)
    mc1 = theory_report(model, rule, opts=opts)
    mc2 = theory_report(model, rule, opts=opts)
    assert mc1.method.kind == "monte-carlo"
    assert mc1.method.size == 20000
    assert mc1.method.stderr is not None and mc1.method.stderr > 0.0
    np.testing.assert_array_equal(mc1.v, mc2.v)
    # v on a 10-node Gauss-Legendre tensor grid over [0, 1]^4.
    u, wu = np.polynomial.legendre.leggauss(10)
    grid = np.meshgrid(*[0.5 * (u + 1.0)] * 4, indexing="ij")
    pts = np.column_stack([np.ones(10 ** 4)] + [g.ravel() for g in grid])
    w = np.prod([g.ravel() for g in np.meshgrid(*[0.5 * wu] * 4, indexing="ij")], axis=0)
    exact = w @ probabilities(rule, theta, pts)
    assert abs(mc1.v[0] - exact[0]) <= 5.0 * mc1.method.stderr


@pytest.mark.parametrize("field, value", [
    ("mc_size", 0),  # once a ZeroDivisionError in expectation_nodes
    ("gl_nodes", 0),  # once numpy's "deg must be a positive integer"
    ("gl_nodes", -2),
    ("gl_nodes", 2.5),  # once a TypeError
    ("mc_size", 1e6),
    ("gl_nodes", True),
    ("mc_size", False),
])
def test_theory_options_reject_values_that_are_not_positive_integers(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a positive integer"):
        TheoryOptions(**{field: value})


def test_theory_options_accept_numpy_integers():
    opts = TheoryOptions(gl_nodes=np.int64(8), mc_size=np.int32(100))
    assert (opts.gl_nodes, opts.mc_size) == (8, 100)


# ---------------------------------------------------------------------------
# Information matrices
# ---------------------------------------------------------------------------


def test_covariate_free_information_factorises():
    # Under a covariate-free rule I_k = v_k E[I_k(theta_k | xi)].
    raw = coincidence_configs(0)[1]
    model, rule = _pair(raw)
    ta = theory_report(model, rule)
    im = info_matrices(model, rule)
    pts, pr = model.covariates.enumerated()
    for k in range(model.K):
        bare = sum(pr[s] * conditional_fisher_info(model.arms[k],
                                                   model.true_theta[k], pts[s])
                   for s in range(pts.shape[0]))
        np.testing.assert_allclose(im.info[k], ta.v[k] * bare, atol=1e-12)


def test_equal_allocation_unit_covariate_normal_information_is_half():
    arm = ArmModel(family="normal-linear", dispersion=1.0)
    model = TrialModel(arms=(arm, arm), covariates=CovariateSpec.constant([1.0]),
                       true_theta=np.array([[0.3], [0.3]]),
                       box_lo=-3.0, box_hi=3.0)
    im = info_matrices(model, AllocationRule(kind="covariate-free-normal", T=1.0))
    np.testing.assert_allclose(im.info, np.full((2, 1, 1), 0.5), atol=1e-12)
    np.testing.assert_allclose(im.V, np.full((2, 1, 1), 2.0), atol=1e-12)


def test_degenerate_covariate_direction_raises_singular_information():
    arm = ArmModel(family="logistic")
    model = TrialModel(arms=(arm, arm),
                       covariates=CovariateSpec.constant([1.0, 0.0]),
                       true_theta=np.zeros((2, 2)), box_lo=-4.0, box_hi=4.0)
    with pytest.raises(SingularInformationError, match="arm 1"):
        info_matrices(model, AllocationRule(kind="odds-ratio"))


# ---------------------------------------------------------------------------
# Allocation covariance and its conditional version
# ---------------------------------------------------------------------------


def test_report_matrices_are_psd_with_zero_row_sums():
    fixtures = [f1_config(n=100, replicates=1, seed=0),
                two_point_config(n=100, replicates=1, seed=0),
                bb_config(n=100, replicates=1, seed=0)]
    x_lists = [[[1.0]], [[1.0, 0.0], [1.0, 1.0]], []]
    for raw, x_list in zip(fixtures, x_lists):
        model, rule = _pair(raw)
        rep = theory_report(model, rule, x_list=x_list)
        assert np.array_equal(rep.sigma, rep.sigma1 + 2.0 * rep.sigma2)
        assert np.all(rep.v > 0.0) and np.all(rep.v < 1.0)
        np.testing.assert_allclose(rep.v.sum(), 1.0, atol=1e-12)
        for mat in (rep.sigma1, rep.sigma2, rep.sigma):
            assert np.linalg.eigvalsh(mat).min() >= -1e-10
        for mat in (rep.sigma1, rep.sigma):
            np.testing.assert_allclose(mat.sum(axis=1), 0.0, atol=1e-10)
        for k in range(model.K):
            assert np.linalg.eigvalsh(rep.V[k]).min() > 0.0
        for cond in rep.conditional:
            assert cond.mass > 0.0
            assert np.linalg.eigvalsh(cond.sigma).min() >= -1e-10
            np.testing.assert_allclose(cond.sigma.sum(axis=1), 0.0, atol=1e-10)


def test_conditional_covariance_assembled_from_parts():
    model, rule = _two_point_pair()
    im = info_matrices(model, rule)
    x = np.array([1.0, 1.0])
    pi = probabilities(rule, model.true_theta, x)
    jac = jacobian(rule, model.true_theta, x)
    expect = np.diag(pi) - np.outer(pi, pi)
    d = model.d
    for k in range(model.K):
        block = jac[:, k * d:(k + 1) * d]
        expect = expect + 2.0 * 0.5 * (block @ im.V[k] @ block.T)
    cond, = theory_report(model, rule, x_list=[x]).conditional
    assert cond.mass == 0.5
    np.testing.assert_allclose(cond.pi, pi, atol=1e-12)
    np.testing.assert_allclose(cond.sigma, expect, atol=1e-12)


def test_covariate_free_conditional_reduces_to_scaled_sigma():
    # With a covariate-free rule pi(theta, x) = v and d pi / d theta = dg,
    # so conditioning only rescales the feedback term by the point's mass.
    raw = coincidence_configs(0)[1]
    model, rule = _pair(raw)
    pts, pr = model.covariates.enumerated()
    rep = theory_report(model, rule, x_list=pts)
    for s in range(pts.shape[0]):
        cond = rep.conditional[s]
        np.testing.assert_allclose(cond.pi, rep.v, atol=1e-12)
        np.testing.assert_allclose(cond.sigma,
                                   rep.sigma1 + 2.0 * pr[s] * rep.sigma2,
                                   atol=1e-12)


def test_zero_mass_covariate_value_is_rejected():
    model, rule = _two_point_pair()
    with pytest.raises(ZeroMassCovariateError):
        theory_report(model, rule, x_list=[[0.0, 5.0]])


def test_wrong_dimension_x_list_is_rejected():
    # A flat list of 2d numbers must not be read as d-dimensional points.
    model, rule = _two_point_pair()
    for x_list in ([[1.0, 0.0, 1.0, 1.0]], [[1.0]]):
        with pytest.raises(ValueError, match="dimension 2"):
            theory_report(model, rule, x_list=x_list)


def test_swapping_arms_permutes_the_report():
    raw = two_point_config(n=100, replicates=1, seed=0)
    model, rule = _pair(raw)
    swapped = two_point_config(n=100, replicates=1, seed=0)
    swapped["model"]["true_theta"] = raw["model"]["true_theta"][::-1]
    model_sw, _ = _pair(swapped)
    x = [1.0, 0.0]
    rep = theory_report(model, rule, x_list=[x])
    rep_sw = theory_report(model_sw, rule, x_list=[x])
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(rep_sw.v, rep.v[::-1], atol=1e-12)
    np.testing.assert_allclose(rep_sw.info, rep.info[::-1], atol=1e-12)
    np.testing.assert_allclose(rep_sw.sigma, P @ rep.sigma @ P.T, atol=1e-12)
    np.testing.assert_allclose(rep_sw.conditional[0].sigma,
                               P @ rep.conditional[0].sigma @ P.T, atol=1e-12)


# ---------------------------------------------------------------------------
# Adaptive versus i.i.d. estimator covariance
# ---------------------------------------------------------------------------


def test_covariate_free_adaptive_and_iid_covariances_coincide():
    for raw in coincidence_configs(0):
        model, rule = _pair(raw)
        np.testing.assert_allclose(scaled_mle_covariance(model, rule),
                                   iid_mle_covariance(model),
                                   rtol=0.0, atol=1e-10)


def test_covariate_dependent_rule_breaks_the_coincidence():
    model, rule = _two_point_pair()
    gap = np.abs(scaled_mle_covariance(model, rule) - iid_mle_covariance(model))
    assert gap.max() > 1e-3


# ---------------------------------------------------------------------------
# Plug-in estimates from a realised trial
# ---------------------------------------------------------------------------


def test_plugin_covariances_approach_the_limits():
    raw = f1_config(n=4000, replicates=1, seed=11)
    cfg = parse_config(raw)
    devs = []
    for i in range(6):
        hist = run_trial(cfg.model, cfg.rule, cfg.n, cfg.m0,
                         replicate_root(cfg.seed, i), cfg.engine_options())
        rep = plugin_estimates(hist, cfg.model, cfg.rule)
        num = np.abs(rep.sigma_hat - F1_EXACT["sigma"]).max()
        devs.append(num / np.abs(F1_EXACT["sigma"]).max())
    assert np.median(devs) <= 0.15


def test_plugin_structural_invariants():
    raw = two_point_config(n=600, replicates=1, seed=4)
    cfg, hist = _one_trial(raw)
    rep = plugin_estimates(hist, cfg.model, cfg.rule,
                           x_list=[[1.0, 0.0], [1.0, 1.0]])
    np.testing.assert_array_equal(rep.counts, hist.counts())
    np.testing.assert_array_equal(rep.theta_hat, hist.current_theta)
    np.testing.assert_allclose(rep.sigma1_hat.sum(axis=1), 0.0, atol=1e-15)
    assert np.array_equal(rep.sigma_hat, rep.sigma1_hat + 2.0 * rep.sigma2_hat)
    np.testing.assert_allclose(sum(c.mass for c in rep.conditional), 1.0,
                               atol=1e-12)
    for cond in rep.conditional:
        np.testing.assert_allclose(cond.sigma.sum(axis=1), 0.0, atol=1e-12)


def _continuous_config():
    """Three logistic arms on (1, U(-1, 1)), allocated by ratio-of-g with 1 + z^2."""
    raw = two_point_config(n=300, replicates=1, seed=4)
    raw["model"].update(
        arms=[{"family": "logistic"}] * 3, box_lo=-3.0, box_hi=3.0,
        true_theta=[[0.4, 0.8], [0.0, -0.6], [-0.3, 0.3]],
        covariates={"kind": "continuous-product", "intercept": True,
                    "coords": [{"kind": "uniform", "lo": -1.0, "hi": 1.0}]})
    raw["rule"] = {"kind": "ratio-of-g", "g": "one-plus-z-squared"}
    del raw["replication"]["x_list"]
    return raw


@pytest.mark.parametrize("raw", [two_point_config(n=300, replicates=1, seed=4),
                                 _continuous_config()])
def test_one_rule_kernel_evaluation_per_node_set(raw, monkeypatch):
    # theory_report and plugin_estimates evaluate the rule once on their
    # nodes, and once more on the x_list points when there are any (the
    # theory's need positive mass, so only on a finite support).
    cfg, hist = _one_trial(raw)
    x_list = [hist.covariates[0], hist.covariates[1]]
    runs = [(theory_report, (), ()), (plugin_estimates, (hist,), ()),
            (plugin_estimates, (hist,), x_list)]
    if cfg.model.covariates.enumerated() is not None:
        runs.append((theory_report, (), x_list))
    calls = []
    kernel = allocation._kernel

    def counted(*args, **kwargs):
        calls.append(args[2].shape)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(allocation, "_kernel", counted)
    for report, history, points in runs:
        calls.clear()
        report(*history, cfg.model, cfg.rule, x_list=points)
        assert len(calls) == 1 + bool(points), report.__name__
        if points:
            assert calls[1] == (2, cfg.model.d)


def test_plugin_support_points_and_observed_rows_agree():
    # A finite-support trial is summed over its support points; the same rows
    # without support indices are summed row by row.  Both give the same sums.
    raw = two_point_config(n=600, replicates=1, seed=4)
    cfg, hist = _one_trial(raw)
    rows = TrialHistory.from_arrays(hist.covariates, hist.arms, hist.responses, K=cfg.model.K,
                                    current_theta=hist.current_theta)
    x_list = [[1.0, 0.0], [1.0, 1.0]]
    by_point = plugin_estimates(hist, cfg.model, cfg.rule, x_list=x_list)
    by_row = plugin_estimates(rows, cfg.model, cfg.rule, x_list=x_list)
    for name in ("info_hat", "V_hat", "dg_hat", "sigma_hat"):
        np.testing.assert_allclose(getattr(by_row, name), getattr(by_point, name),
                                   rtol=1e-12, atol=1e-14)
    for a, b in zip(by_row.conditional, by_point.conditional):
        np.testing.assert_allclose(a.sigma, b.sigma, rtol=1e-12, atol=1e-14)


def test_covariate_free_plugin_jacobian_has_zero_slope_columns():
    raw = bb_config(n=400, replicates=1, seed=5)
    cfg, hist = _one_trial(raw)
    rep = plugin_estimates(hist, cfg.model, cfg.rule)
    d = cfg.model.d
    for k in range(cfg.model.K):
        block = rep.dg_hat[:, k * d:(k + 1) * d]
        np.testing.assert_array_equal(block[:, 1:], 0.0)


def test_normal_arm_plugin_information_divides_by_the_model_dispersion():
    raw = bb_config(n=400, replicates=1, seed=7)
    raw["model"]["shared_slopes"] = False
    raw["model"]["arms"][1]["dispersion"] = 4.0
    cfg, hist = _one_trial(raw)
    rep = plugin_estimates(hist, cfg.model, cfg.rule)
    for k, phi in enumerate((1.0, 4.0)):
        X = hist.covariates[hist.arms == k]
        np.testing.assert_allclose(rep.info_hat[k], X.T @ X / (hist.n * phi), rtol=1e-12)


def test_singular_sample_information_warns_and_uses_pseudo_inverse():
    # Arm 2 only ever sees x = (1, 0): its sample information is singular.
    X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 1.0],
                  [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    arms = np.array([0, 0, 0, 1, 1, 1])
    y = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    hist = TrialHistory.from_arrays(X, arms, y, K=2,
                                    current_theta=np.zeros((2, 2)))
    arm = ArmModel(family="logistic")
    model = TrialModel(arms=(arm, arm),
                       covariates=CovariateSpec.discrete(
                           [[1.0, 0.0], [1.0, 1.0]], [0.5, 0.5]),
                       true_theta=np.zeros((2, 2)), box_lo=-4.0, box_hi=4.0)
    rep = plugin_estimates(hist, model, AllocationRule(kind="odds-ratio"))
    assert any("arm 2" in w for w in rep.warnings)
    assert np.all(np.isfinite(rep.V_hat)) and np.all(np.isfinite(rep.theta_cov_hat))


def test_plugin_requires_a_non_empty_history():
    hist = TrialHistory.from_arrays(np.empty((0, 1)), np.empty(0, dtype=int),
                                    np.empty(0), K=2,
                                    current_theta=np.zeros((2, 1)))
    model, rule = _f1_pair()
    with pytest.raises(ValueError, match="non-empty"):
        plugin_estimates(hist, model, rule)


def test_plugin_rejects_a_history_that_does_not_fit_the_model():
    model, rule = _two_point_pair()
    rows = dict(arms=np.array([0, 1, 0, 1]), responses=np.array([1.0, 0.0, 0.0, 1.0]), K=2)
    narrow = TrialHistory.from_arrays(np.ones((4, 1)), current_theta=np.zeros((2, 1)), **rows)
    with pytest.raises(ValueError, match=r"history has \(K, d\) = \(2, 1\) but the model has \(2, 2\)"):
        plugin_estimates(narrow, model, rule)
    X = np.column_stack([np.ones(4), [0.0, 1.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match=r"history\.current_theta is missing"):
        plugin_estimates(TrialHistory.from_arrays(X, **rows), model, rule)
    misshapen = dataclasses.replace(TrialHistory.from_arrays(X, **rows), current_theta=np.zeros(4))
    with pytest.raises(ValueError, match=r"history\.current_theta has shape \(4,\), "
                                         r"expected \(K, d\) = \(2, 2\)"):
        plugin_estimates(misshapen, model, rule)


# ---------------------------------------------------------------------------
# Shared slopes: the covariance of the whole theta_hat from the joint design
# ---------------------------------------------------------------------------


def _shared_slope_model(K, coords, mu, slopes, sigma2=1.5):
    arm = ArmModel(family="normal-linear", dispersion=sigma2)
    theta = np.column_stack([mu, np.tile(slopes, (K, 1))])
    return TrialModel(arms=(arm,) * K, covariates=CovariateSpec.product(coords, intercept=True),
                      true_theta=theta, box_lo=-5.0, box_hi=5.0, shared_slopes=True)


def _joint_covariance(model, X, pi, w):
    """sigma^2 (sum_n w_n sum_k pi_k eta_k eta_k')^{-1}, read at each theta_{k,l}.

    eta_k(x) is arm k's row of the joint design: the indicator of arm k's
    intercept, then the non-intercept coordinates of x in the slope columns."""
    K, d = model.K, model.d
    eta = np.zeros((X.shape[0], K, K + d - 1))
    eta[:, np.arange(K), np.arange(K)] = 1.0
    eta[:, :, K:] = X[:, None, 1:]
    M = np.einsum("n,nk,nkp,nkq->pq", w, pi, eta, eta)
    cols = [k if l == 0 else K + l - 1 for k in range(K) for l in range(d)]
    return model.arms[0].dispersion * np.linalg.inv(M)[np.ix_(cols, cols)]


def _assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("K, coords, rule, x_list", [
    (3, [TwoPoint(0.0, 1.0, 0.4), TwoPoint(-1.0, 2.0, 0.7)],
     AllocationRule(kind="exponential", T=1.3), [[1.0, 1.0, -1.0]]),
    (2, [Uniform(0.0, 2.0), TwoPoint(-1.0, 1.0, 0.3)],
     AllocationRule(kind="covariate-free-normal", T=0.6), []),
])
def test_shared_slope_theory_inverts_the_joint_design_information(K, coords, rule, x_list):
    model = _shared_slope_model(K, coords, mu=np.linspace(0.4, -0.3, K), slopes=[0.8, -0.5])
    rep = theory_report(model, rule, x_list=x_list)
    pts, w, _ = expectation_nodes(model.covariates)
    theta = model.true_theta
    C = _joint_covariance(model, pts, probabilities(rule, theta, pts), w)
    _assert_close(rep.theta_cov, C)
    dg = jacobian(rule, theta, pts, weights=w)
    _assert_close(rep.sigma2, dg @ C @ dg.T)
    for cond in rep.conditional:
        jac = jacobian(rule, theta, cond.x)
        pi = probabilities(rule, theta, cond.x)
        _assert_close(cond.sigma, np.diag(pi) - np.outer(pi, pi) + 2.0 * cond.mass * jac @ C @ jac.T)
    # The per-arm blocks keep their meaning.
    for k in range(K):
        np.testing.assert_allclose(rep.V[k] @ rep.info[k], np.eye(model.d), atol=1e-12)


def test_shared_slope_plugins_invert_the_sample_joint_information():
    model = _shared_slope_model(3, [TwoPoint(0.0, 1.0, 0.4), Uniform(-1.0, 2.0)],
                                mu=[0.4, 0.0, -0.3], slopes=[0.8, -0.5])
    rule = AllocationRule(kind="exponential", T=1.3)
    rng = np.random.default_rng(3)
    n = 300
    X = model.covariates.sample_batch(rng, n)
    arms = rng.integers(0, 3, n)
    y = np.sum(X * model.true_theta[arms], axis=1) + rng.normal(0.0, 1.2, n)
    theta_hat = model.true_theta + np.column_stack([rng.normal(0.0, 0.1, 3), np.zeros((3, 2))])
    hist = TrialHistory.from_arrays(X, arms, y, K=3, current_theta=theta_hat)
    rep = plugin_estimates(hist, model, rule)
    C = _joint_covariance(model, X, np.eye(3)[arms], np.full(n, 1.0 / n))
    _assert_close(rep.theta_cov_hat, C)
    dg = jacobian(rule, theta_hat, X, weights=np.full(n, 1.0 / n))
    _assert_close(rep.sigma2_hat, dg @ C @ dg.T)
    assert rep.warnings == ()


# ---------------------------------------------------------------------------
# Closed forms for the covariate-free normal design
# ---------------------------------------------------------------------------


def test_bb_closed_forms_hand_values():
    model, rule = _bb_pair()
    bb = bb_closed_forms(model, rule)
    v1 = ndtr(1.0)
    v2 = 1.0 - v1
    dens = math.exp(-0.5) / math.sqrt(2.0 * math.pi)
    c = 0.5 ** 2 / 0.25 + 0.2 ** 2 / 2.16
    np.testing.assert_allclose(bb.v, [v1, v2], atol=1e-12)
    np.testing.assert_allclose(bb.a, [0.5, 0.2], atol=1e-12)
    np.testing.assert_allclose(bb.info_tilde, np.diag([0.25, 2.16]), atol=1e-12)
    np.testing.assert_allclose(bb.alloc_var,
                               v1 * v2 + 2.0 * dens * dens / (v1 * v2),
                               atol=1e-12)
    np.testing.assert_allclose(bb.mu_cov,
                               [[1.0 / v1 + c, c], [c, 1.0 / v2 + c]],
                               atol=1e-12)
    np.testing.assert_allclose(bb.beta_cov, np.diag([4.0, 1.0 / 2.16]),
                               atol=1e-12)


def test_bb_equal_means_allocate_half():
    raw = bb_config(n=100, replicates=1, seed=0)
    raw["model"]["true_theta"] = [[0.5, 1.0, -0.7], [0.5, 1.0, -0.7]]
    model, rule = _pair(raw)
    bb = bb_closed_forms(model, rule)
    np.testing.assert_allclose(bb.v, [0.5, 0.5], atol=1e-12)


def test_bb_centred_covariates_give_diagonal_mean_covariance():
    raw = bb_config(n=100, replicates=1, seed=0)
    raw["model"]["covariates"]["coords"] = [
        {"kind": "constant", "value": 1.0},
        {"kind": "two-point", "a": -1.0, "b": 1.0, "p_a": 0.5},
        {"kind": "two-point", "a": -2.0, "b": 2.0, "p_a": 0.5},
    ]
    model, rule = _pair(raw)
    bb = bb_closed_forms(model, rule)
    v1 = ndtr(1.0)
    np.testing.assert_array_equal(bb.a, 0.0)
    assert bb.mu_cov[0, 1] == 0.0 and bb.mu_cov[1, 0] == 0.0
    np.testing.assert_allclose(np.diag(bb.mu_cov),
                               [1.0 / v1, 1.0 / (1.0 - v1)], atol=1e-12)


def test_bb_closed_forms_reject_wrong_shapes():
    model, rule = _bb_pair()
    raw = bb_config(n=100, replicates=1, seed=0)
    raw["model"]["shared_slopes"] = False
    flat, _ = _pair(raw)
    with pytest.raises(ValueError, match="shared-slope"):
        bb_closed_forms(flat, rule)
    with pytest.raises(ValueError, match="covariate-free normal"):
        bb_closed_forms(model, AllocationRule(kind="odds-ratio"))
    # Unequal error variances never reach the closed forms: the model
    # refuses them, since its joint fit and C both assume one variance.
    with pytest.raises(ValueError, match="common dispersion"):
        dataclasses.replace(model, arms=(model.arms[0], ArmModel(family="normal-linear",
                                                                  dispersion=2.0)))


def test_bb_degenerate_covariate_block_is_singular():
    arm = ArmModel(family="normal-linear", dispersion=1.0)
    model = TrialModel(arms=(arm, arm),
                       covariates=CovariateSpec.constant([1.0, 0.5]),
                       true_theta=np.array([[0.5, 0.2], [-0.5, 0.2]]),
                       box_lo=-4.0, box_hi=4.0, shared_slopes=True)
    with pytest.raises(SingularInformationError):
        bb_closed_forms(model, AllocationRule(kind="covariate-free-normal", T=1.0))


# ---------------------------------------------------------------------------
# Least-squares sandwich covariance
# ---------------------------------------------------------------------------


def test_lse_sandwich_homoscedastic_reduces_to_scaled_inverse():
    model, rule = _bb_pair()
    ls = lse_sandwich(model, rule)
    for k in range(model.K):
        np.testing.assert_allclose(ls.V[k], np.linalg.inv(ls.info_x[k]),
                                   rtol=0.0, atol=1e-10)


def test_lse_sandwich_equal_allocation_hand_value():
    arm = ArmModel(family="normal-linear", dispersion=2.0)
    model = TrialModel(arms=(arm, arm), covariates=CovariateSpec.constant([1.0]),
                       true_theta=np.array([[0.1], [0.1]]),
                       box_lo=-3.0, box_hi=3.0)
    ls = lse_sandwich(model, AllocationRule(kind="covariate-free-normal", T=1.0))
    np.testing.assert_allclose(ls.info_x, np.full((2, 1, 1), 0.5), atol=1e-12)
    np.testing.assert_allclose(ls.info_y, np.full((2, 1, 1), 1.0), atol=1e-12)
    np.testing.assert_allclose(ls.V, np.full((2, 1, 1), 4.0), atol=1e-12)


def test_lse_sandwich_logistic_moments_match_enumeration():
    model, rule = _two_point_pair()
    ls = lse_sandwich(model, rule)
    pts, pr = model.covariates.enumerated()
    theta = model.true_theta
    for k in range(model.K):
        info_x = np.zeros((2, 2))
        info_y = np.zeros((2, 2))
        for s in range(pts.shape[0]):
            x = pts[s]
            pi_k = probabilities(rule, theta, x)[k]
            p = 1.0 / (1.0 + math.exp(-float(theta[k] @ x)))
            info_x += pr[s] * pi_k * np.outer(x, x)
            info_y += pr[s] * pi_k * p * (1.0 - p) * np.outer(x, x)
        np.testing.assert_allclose(ls.info_x[k], info_x, atol=1e-12)
        np.testing.assert_allclose(ls.info_y[k], info_y, atol=1e-12)
        inv = np.linalg.inv(info_x)
        np.testing.assert_allclose(ls.V[k], inv @ info_y @ inv, atol=1e-12)


def test_lse_sandwich_degenerate_design_is_singular():
    arm = ArmModel(family="normal-linear", dispersion=1.0)
    model = TrialModel(arms=(arm, arm),
                       covariates=CovariateSpec.constant([1.0, 0.0]),
                       true_theta=np.zeros((2, 2)), box_lo=-3.0, box_hi=3.0)
    with pytest.raises(SingularInformationError):
        lse_sandwich(model, AllocationRule(kind="covariate-free-normal", T=1.0))
