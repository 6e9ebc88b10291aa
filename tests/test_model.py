import numpy as np
import pytest

from carasim.model import (
    ArmModel,
    Constant,
    CovariateSpec,
    TrialModel,
    TwoPoint,
    Uniform,
    arm_table,
    conditional_fisher_info,
    glm_weights,
    responses_from_uniforms,
    tensor_grid,
)

LOGISTIC = ArmModel(family="logistic")
NORMAL4 = ArmModel(family="normal-linear", dispersion=4.0)


def _responses(arms, theta, x, u):
    return responses_from_uniforms(*arm_table(arms), theta, x, u)


# ---------------------------------------------------------------------------
# Covariate specs
# ---------------------------------------------------------------------------


def test_constant_spec_always_returns_point():
    spec = CovariateSpec.constant([1.0])
    rng = np.random.default_rng(0)
    for _ in range(50):
        np.testing.assert_array_equal(spec.sample(rng), [1.0])


def test_discrete_frequency_matches_probabilities():
    spec = CovariateSpec.discrete([[1.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
    rng = np.random.default_rng(20240817)
    draws = spec.sample_batch(rng, 100_000)
    freq = np.mean(draws[:, 1] == 1.0)
    assert abs(freq - 0.5) <= 0.01


def test_intercept_flag_prepends_exact_one():
    spec = CovariateSpec.product([Uniform(0.0, 1.0)], intercept=True)
    assert spec.d == 2
    rng = np.random.default_rng(3)
    draws = spec.sample_batch(rng, 200)
    np.testing.assert_array_equal(draws[:, 0], np.ones(200))
    assert np.all((draws[:, 1] >= 0.0) & (draws[:, 1] <= 1.0))


def test_product_enumeration_matches_expected_masses():
    spec = CovariateSpec.product(
        [Constant(1.0), TwoPoint(0.0, 1.0, p_a=0.3), TwoPoint(-1.0, 2.0, p_a=0.6)])
    pts, probs = spec.enumerated()
    assert pts.shape == (4, 3)
    np.testing.assert_allclose(probs.sum(), 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(spec.mass(np.array([1.0, 0.0, -1.0])), 0.3 * 0.6)
    np.testing.assert_allclose(spec.mass(np.array([1.0, 1.0, 2.0])), 0.7 * 0.4)
    assert spec.mass(np.array([1.0, 0.5, -1.0])) == 0.0


def test_tensor_grid_is_bitwise_the_meshgrid_product():
    # Points by broadcasting, weights multiplied in coordinate order.
    glx, glw = np.polynomial.legendre.leggauss(7)
    coords = (Constant(1.0), Uniform(-1.0, 3.0), TwoPoint(0.5, 1.5, p_a=0.3), Uniform(-1.0, 1.0))
    pts, w = tensor_grid(coords, (glx, glw))
    values = [np.array([1.0]), 1.0 + 2.0 * glx, np.array([0.5, 1.5]), 0.0 + 1.0 * glx]
    weights = [np.array([1.0]), 0.5 * glw, np.array([0.3, 1.0 - 0.3]), 0.5 * glw]
    want = np.stack([g.ravel() for g in np.meshgrid(*values, indexing="ij")], axis=1)
    want_w = np.ones(want.shape[0])
    for g in np.meshgrid(*weights, indexing="ij"):
        want_w = want_w * g.ravel()
    assert pts.flags.c_contiguous and pts.tobytes() == want.tobytes()
    assert w.tobytes() == want_w.tobytes()


def test_tensor_grid_maps_uniform_nodes_and_multiplies_weights():
    coords = (Uniform(-1.0, 3.0), TwoPoint(0.5, 1.5, p_a=0.2), Constant(3.0))
    glx, glw = np.polynomial.legendre.leggauss(3)
    pts, w = tensor_grid(coords, (glx, glw))
    assert pts.shape == (6, 3)
    # Index order "ij": the first coordinate varies slowest.
    np.testing.assert_array_equal(pts[:, 0], np.repeat(1.0 + 2.0 * glx, 2))
    np.testing.assert_array_equal(pts[:, 1], np.tile([0.5, 1.5], 3))
    np.testing.assert_array_equal(pts[:, 2], 3.0)
    np.testing.assert_allclose(w, np.outer(0.5 * glw, [0.2, 0.8]).ravel(), rtol=1e-15)
    np.testing.assert_allclose(w @ pts, [1.0, 1.3, 3.0], rtol=1e-14)
    # Only products without uniform coordinates, of at most 4096 points, are enumerated.
    assert CovariateSpec.product(coords).enumerated() is None
    assert CovariateSpec.product([TwoPoint(0.0, 1.0)] * 12).enumerated()[0].shape == (4096, 12)
    assert CovariateSpec.product([TwoPoint(0.0, 1.0)] * 13).enumerated() is None


def test_sample_batch_and_scalar_sampling_agree_in_distribution():
    spec = CovariateSpec.discrete([[0.0], [1.0], [2.0]], [0.2, 0.3, 0.5])
    rng = np.random.default_rng(11)
    batch = spec.sample_batch(rng, 50_000)
    for value, p in [(0.0, 0.2), (1.0, 0.3), (2.0, 0.5)]:
        assert abs(np.mean(batch[:, 0] == value) - p) < 0.01


def test_sample_index_is_the_first_point_whose_cumulative_mass_exceeds_u():
    spec = CovariateSpec.discrete([[0.0], [1.0], [2.0], [3.0]], [0.1, 0.2, 0.3, 0.4])
    cum = np.cumsum([0.1, 0.2, 0.3, 0.4])
    rng = np.random.default_rng(3)
    u = np.random.default_rng(3).random(2000)
    for ui in u:
        expected = next((i for i, c in enumerate(cum) if ui < c), len(cum) - 1)
        assert spec.sample_index(rng) == expected


def test_one_draw_takes_uniforms_per_draw_uniforms():
    spec = CovariateSpec.product([Uniform(-1.0, 1.0), Constant(2.0), TwoPoint(0.0, 1.0, 0.3)],
                                 intercept=True)
    assert spec.uniforms_per_draw == 2
    rng = np.random.default_rng(9)
    x = spec.sample(rng)
    u = np.random.default_rng(9).random(3)
    np.testing.assert_array_equal(x, [1.0, -1.0 + 2.0 * u[0], 2.0, 0.0 if u[1] < 0.3 else 1.0])
    assert rng.random() == u[2]


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        CovariateSpec.discrete([[1.0]], [0.5, 0.5])
    with pytest.raises(ValueError):
        CovariateSpec.discrete([[1.0], [2.0]], [0.6, 0.6])
    with pytest.raises(ValueError):
        CovariateSpec.discrete([[1.0], [2.0]], [1.0, 0.0])
    with pytest.raises(ValueError):
        Uniform(0.0, np.inf)
    with pytest.raises(ValueError):
        TwoPoint(0.0, 1.0, p_a=1.0)
    with pytest.raises(ValueError):
        CovariateSpec.product([])


# ---------------------------------------------------------------------------
# Fisher information and the score
# ---------------------------------------------------------------------------


def _score(arm, theta_k, x, y):
    """Gradient of the log-density in theta_k: (y - E[Y | x]) x / dispersion."""
    mu = theta_k @ x
    mean = 1.0 / (1.0 + np.exp(-mu)) if arm.family == "logistic" else mu
    return (y - mean) / arm.dispersion * x


def test_fisher_info_examples():
    np.testing.assert_allclose(
        conditional_fisher_info(LOGISTIC, np.array([0.0]), np.array([1.0])),
        [[0.25]])
    np.testing.assert_allclose(
        conditional_fisher_info(NORMAL4, np.array([0.0, 0.0]), np.array([1.0, 2.0])),
        np.array([[1.0, 2.0], [2.0, 4.0]]) / 4.0)
    np.testing.assert_array_equal(
        conditional_fisher_info(LOGISTIC, np.array([1.0, 1.0]), np.zeros(2)),
        np.zeros((2, 2)))


def test_mean_response_dimension_mismatch():
    # The linear predictor needs theta_k and x of one length; the shape check
    # is reached through the Fisher information, its one caller.
    with pytest.raises(ValueError):
        conditional_fisher_info(LOGISTIC, np.array([0.0, 1.0]), np.array([1.0]))


def test_fisher_info_matches_score_finite_difference():
    # For logistic arms the information equals the negative Jacobian of the
    # score in theta, checked by central differences at random points.
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(5):
        theta = rng.uniform(-1.5, 1.5, size=2)
        x = rng.uniform(-2.0, 2.0, size=2)
        y = 1.0
        info = conditional_fisher_info(LOGISTIC, theta, x)
        jac = np.empty((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            jac[:, j] = (_score(LOGISTIC, theta + e, x, y)
                         - _score(LOGISTIC, theta - e, x, y)) / (2.0 * h)
        scale = max(1.0, np.max(np.abs(info)))
        np.testing.assert_allclose(-jac, info, rtol=0, atol=1e-5 * scale)


def test_score_has_mean_zero_at_truth():
    rng = np.random.default_rng(99)
    n = 100_000
    for arm, theta in [(LOGISTIC, np.array([0.4])),
                       (ArmModel(family="normal-linear", dispersion=2.0),
                        np.array([1.0]))]:
        x = np.array([1.0])
        ys = _responses((arm,), theta[None], np.tile(x, (n, 1)), rng.random(n))[:, 0]
        draws = np.array([_score(arm, theta, x, y)[0] for y in ys])
        info = conditional_fisher_info(arm, theta, x)[0, 0]
        assert abs(draws.mean()) <= 4.0 * np.sqrt(info / n)


# ---------------------------------------------------------------------------
# Response sampling
# ---------------------------------------------------------------------------


def test_bernoulli_sample_mean():
    rng = np.random.default_rng(12345)
    x = np.array([1.0])
    theta = np.array([0.0])
    draws = _responses((LOGISTIC,), theta[None], np.tile(x, (100_000, 1)),
                       rng.random(100_000))[:, 0]
    assert abs(np.mean(draws) - 0.5) <= 0.01
    assert set(np.unique(draws)) <= {0.0, 1.0}


def test_normal_sample_variance():
    rng = np.random.default_rng(777)
    x = np.array([1.0])
    theta = np.array([1.0])
    draws = _responses((NORMAL4,), theta[None], np.tile(x, (100_000, 1)),
                       rng.random(100_000))[:, 0]
    assert abs(draws.var(ddof=1) - 4.0) <= 0.15
    assert abs(draws.mean() - 1.0) <= 0.03


def test_response_from_uniform_matches_inverse_cdf():
    x = np.array([[1.0], [1.0]])
    arm = ArmModel(family="normal-linear", dispersion=9.0)
    y = _responses((LOGISTIC, arm), np.array([[np.log(3.0)], [2.0]]), x,
                   np.array([0.74, 0.5]))
    # Bernoulli: u below the success probability 3/4 yields 1.
    np.testing.assert_array_equal(y[:, 0], [1.0, 1.0])
    assert _responses((LOGISTIC,), np.array([[np.log(3.0)]]), x[:1],
                      np.array([0.76]))[0, 0] == 0.0
    # Normal: median of the conditional law at u = 1/2.
    np.testing.assert_allclose(y[1, 1], 2.0, atol=1e-12)
    # Var(Y | x) = dispersion times the GLM weight, 1 for normal arms.
    np.testing.assert_allclose(
        arm.dispersion * glm_weights(arm_table((arm,))[0], x[0] @ np.array([[2.0]]).T), [9.0])


def test_model_arm_table_is_built_once_and_read_only():
    model = TrialModel(arms=(LOGISTIC, NORMAL4, LOGISTIC), covariates=CovariateSpec.constant([1.0]),
                       true_theta=np.zeros((3, 1)), box_lo=-1.0, box_hi=1.0)
    np.testing.assert_array_equal(model.logistic, [True, False, True])
    np.testing.assert_array_equal(model.dispersion, [1.0, 4.0, 1.0])
    assert not (model.logistic.flags.writeable or model.dispersion.flags.writeable)
    assert model.logistic is model.logistic and model.dispersion is model.dispersion


def test_arm_model_validation():
    with pytest.raises(ValueError):
        ArmModel(family="poisson")
    with pytest.raises(ValueError):
        ArmModel(family="normal-linear", dispersion=0.0)
    with pytest.raises(ValueError):
        ArmModel(family="logistic", dispersion=2.0)


# ---------------------------------------------------------------------------
# TrialModel validation
# ---------------------------------------------------------------------------


def _two_arm_model(theta, lo=-4.0, hi=4.0, **kwargs):
    return TrialModel(arms=(LOGISTIC, LOGISTIC),
                      covariates=CovariateSpec.constant([1.0]),
                      true_theta=np.asarray(theta, dtype=float),
                      box_lo=lo, box_hi=hi, **kwargs)


def test_trial_model_accepts_interior_theta():
    m = _two_arm_model([[1.0], [0.0]])
    assert m.K == 2 and m.d == 1
    assert m.box_lo.shape == (2, 1) and m.box_hi.shape == (2, 1)


def test_trial_model_rejects_boundary_theta():
    with pytest.raises(ValueError):
        _two_arm_model([[4.0], [0.0]])


def test_trial_model_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        _two_arm_model([[1.0, 0.0], [0.0, 0.0]])


def test_trial_model_rejects_single_arm():
    with pytest.raises(ValueError):
        TrialModel(arms=(LOGISTIC,), covariates=CovariateSpec.constant([1.0]),
                   true_theta=np.array([[0.0]]), box_lo=-1.0, box_hi=1.0)


def test_shared_slopes_validation():
    normal = ArmModel(family="normal-linear")
    spec = CovariateSpec.product([TwoPoint(0.0, 1.0, 0.5)], intercept=True)
    TrialModel(arms=(normal, normal), covariates=spec,
               true_theta=np.array([[0.5, 1.0], [-0.5, 1.0]]),
               box_lo=-3.0, box_hi=3.0, shared_slopes=True)
    with pytest.raises(ValueError):
        TrialModel(arms=(LOGISTIC, LOGISTIC), covariates=spec,
                   true_theta=np.array([[0.5, 1.0], [-0.5, 1.0]]),
                   box_lo=-3.0, box_hi=3.0, shared_slopes=True)
    with pytest.raises(ValueError):
        TrialModel(arms=(normal, normal), covariates=spec,
                   true_theta=np.array([[0.5, 1.0], [-0.5, 2.0]]),
                   box_lo=-3.0, box_hi=3.0, shared_slopes=True)
