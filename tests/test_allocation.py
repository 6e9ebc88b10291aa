import numpy as np
import pytest

from carasim import allocation
from carasim.allocation import AllocationRule, fold_columns, jacobian, probabilities

from oracles import jacobian_fd

ODDS = AllocationRule(kind="odds-ratio")


def test_odds_ratio_hand_value():
    theta = np.array([[np.log(3.0)], [0.0]])
    np.testing.assert_allclose(
        probabilities(ODDS, theta, np.array([1.0])), [0.75, 0.25], rtol=0, atol=1e-15)


def test_equal_linear_predictors_give_uniform_probabilities():
    x = np.array([1.0, -0.5])
    theta = np.tile([[0.3, 0.8]], (4, 1))
    for rule in (AllocationRule(kind="exponential", T=2.0),
                 AllocationRule(kind="ratio-of-g", g_name="exp"),
                 AllocationRule(kind="ratio-of-g", g_name="one-plus-z-squared")):
        np.testing.assert_allclose(probabilities(rule, theta, x), np.full(4, 0.25),
                                   rtol=0, atol=1e-12)


def test_two_arm_g_difference_at_equal_z():
    theta = np.array([[0.7], [0.7]])
    rule = AllocationRule(kind="two-arm-g-difference", T=1.5)
    np.testing.assert_allclose(probabilities(rule, theta, np.array([1.0])),
                               [0.5, 0.5], rtol=0, atol=1e-15)


def test_covariate_free_normal_ignores_covariates():
    rule = AllocationRule(kind="covariate-free-normal", T=2.0)
    theta = np.array([[1.0, 5.0], [0.0, -5.0]])
    p1 = probabilities(rule, theta, np.array([1.0, 0.0]))
    p2 = probabilities(rule, theta, np.array([1.0, 9.0]))
    np.testing.assert_array_equal(p1, p2)
    from scipy.special import ndtr

    np.testing.assert_allclose(p1[0], ndtr(0.5), rtol=0, atol=1e-15)


def test_ratio_of_g_matches_exponential_for_exp_g():
    rng = np.random.default_rng(2)
    for _ in range(10):
        theta = rng.uniform(-2, 2, size=(3, 2))
        x = rng.uniform(-1, 1, size=2)
        np.testing.assert_allclose(
            probabilities(AllocationRule(kind="ratio-of-g", g_name="exp"), theta, x),
            probabilities(AllocationRule(kind="exponential", T=1.0), theta, x),
            rtol=0, atol=1e-14)


def test_jacobian_exponential_hand_value():
    # Two arms at equal z with x = (1): d pi_1 / d theta_1 = T pi_1 (1 - pi_1).
    theta = np.array([[0.0], [0.0]])
    jac = jacobian(AllocationRule(kind="exponential", T=1.0), theta, np.array([1.0]))
    np.testing.assert_allclose(jac, [[0.25, -0.25], [-0.25, 0.25]], rtol=0, atol=1e-15)


def test_covariate_free_normal_jacobian_sparsity():
    rule = AllocationRule(kind="covariate-free-normal", T=1.0)
    theta = np.array([[0.5, 2.0, -1.0], [-0.5, 0.3, 0.7]])
    jac = jacobian(rule, theta, np.array([1.0, 0.2, -0.3]))
    d = 3
    nonintercept = [j for j in range(2 * d) if j % d != 0]
    np.testing.assert_array_equal(jac[:, nonintercept], np.zeros((2, 4)))
    assert jac[0, 0] > 0.0 and jac[0, d] < 0.0


def _random_rules():
    return [
        AllocationRule(kind="exponential", T=0.7),
        AllocationRule(kind="odds-ratio"),
        AllocationRule(kind="ratio-of-g", g_name="one-plus-z-squared"),
        AllocationRule(kind="two-arm-g-difference", T=1.2),
        AllocationRule(kind="covariate-free-normal", T=1.5),
    ]


def test_analytic_jacobian_matches_finite_differences():
    rng = np.random.default_rng(31)
    for rule in _random_rules():
        K = 2
        for _ in range(10):
            theta = rng.uniform(-1.5, 1.5, size=(K, 2))
            x = rng.uniform(-1.0, 1.0, size=2)
            x[0] = 1.0
            np.testing.assert_allclose(jacobian(rule, theta, x),
                                       jacobian_fd(rule, theta, x),
                                       rtol=0, atol=1e-6)


def test_probabilities_form_strict_simplex():
    rng = np.random.default_rng(17)
    rules = _random_rules() + [AllocationRule(kind="exponential", T=3.0)]
    for _ in range(1000):
        rule = rules[rng.integers(len(rules))]
        K = 2
        theta = rng.uniform(-3.0, 3.0, size=(K, 3))
        x = rng.uniform(-2.0, 2.0, size=3)
        p = probabilities(rule, theta, x)
        assert np.all(p > 0.0)
        assert abs(p.sum() - 1.0) <= 1e-12


def test_jacobian_rows_sum_to_zero():
    rng = np.random.default_rng(23)
    for rule in _random_rules():
        theta = rng.uniform(-2.0, 2.0, size=(2, 2))
        x = rng.uniform(-1.0, 1.0, size=2)
        jac = jacobian(rule, theta, x)
        np.testing.assert_allclose(jac.sum(axis=0), np.zeros(4), rtol=0, atol=1e-10)


def test_permutation_equivariance_of_symmetric_kinds():
    rng = np.random.default_rng(41)
    theta = rng.uniform(-1.0, 1.0, size=(3, 2))
    x = np.array([1.0, 0.4])
    perm = np.array([2, 0, 1])
    for rule in (AllocationRule(kind="exponential", T=1.3),
                 AllocationRule(kind="ratio-of-g", g_name="exp"),
                 AllocationRule(kind="ratio-of-g", g_name="one-plus-z-squared")):
        p = probabilities(rule, theta, x)
        np.testing.assert_allclose(probabilities(rule, theta[perm], x), p[perm],
                                   rtol=0, atol=1e-14)


def test_validation_errors():
    with pytest.raises(ValueError):
        AllocationRule(kind="urn")
    with pytest.raises(ValueError):
        AllocationRule(kind="exponential", T=0.0)
    with pytest.raises(ValueError):
        AllocationRule(kind="ratio-of-g", g_name="cosine")
    with pytest.raises(ValueError, match="does not read"):
        AllocationRule(kind="odds-ratio", T=2.0)
    with pytest.raises(ValueError, match="does not read"):
        AllocationRule(kind="exponential", T=2.0, g_name="exp")
    theta3 = np.zeros((3, 1))
    with pytest.raises(ValueError):
        probabilities(ODDS, theta3, np.array([1.0]))
    with pytest.raises(ValueError):
        probabilities(AllocationRule(kind="covariate-free-normal", T=1.0), theta3, np.array([1.0]))
    with pytest.raises(ValueError):
        probabilities(ODDS, np.zeros((2, 2)), np.array([1.0]))
    with pytest.raises(ValueError, match=r"\(K, d\) matrix"):  # one theta per row: engine only
        probabilities(ODDS, np.zeros((3, 2, 1)), np.ones((3, 1)))


@pytest.mark.parametrize("ufunc", [np.add, np.maximum])
@pytest.mark.parametrize("K", range(2, 8))
def test_fold_over_columns_is_bitwise_numpys_reduce(ufunc, K):
    # Magnitudes over 40 decades, both signs and signed zeros: any other
    # order of the additions, e.g. a0 + (a1 + a2), changes last bits.
    rng = np.random.default_rng(K)
    for rows in (1, 5, allocation._MANY_ROWS - 1, allocation._MANY_ROWS, 3000):
        a = rng.standard_normal((rows, K)) * np.exp(rng.uniform(-46.0, 46.0, (rows, K)))
        a[rng.random((rows, K)) < 0.05] = 0.0
        a[rng.random((rows, K)) < 0.05] = -0.0
        a[:, 0] = np.where(np.all(a == 0.0, axis=1), 1.0, a[:, 0])  # no row of zeros only
        for keepdims in (False, True):
            for arr in (a, a.reshape(1, rows, K), np.asfortranarray(a)):
                got = fold_columns(ufunc, arr, keepdims=keepdims)
                want = ufunc.reduce(arr, axis=-1, keepdims=keepdims)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_fold_over_columns_ors_boolean_rows():
    a = np.random.default_rng(3).random((500, 3)) < 0.2
    for cols in (1, 2, 3):
        np.testing.assert_array_equal(fold_columns(np.logical_or, a[:, :cols]),
                                      a[:, :cols].any(axis=1))


def test_fold_over_columns_sums_negative_zeros_to_negative_zero():
    # The one documented difference from numpy, which starts a sum from +0.
    a = np.full((allocation._MANY_ROWS, 3), -0.0)
    assert np.all(np.signbit(fold_columns(np.add, a)))
    assert not np.any(np.signbit(np.add.reduce(a, axis=-1)))
