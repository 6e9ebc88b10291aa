"""Pinned verification fixtures and their hand-derived reference values.

Everything the verification suite runs against lives here: small fully
specified (model, rule) configurations plus independently derived expected
values.  Keeping them in one module means the numbers in tests, the CLI
``verify`` subcommand, and the README all refer to the same source.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DEFAULT_SEED",
    "F1_M0",
    "F1_BOX",
    "F1_EXACT",
    "f1_config",
    "two_point_config",
    "bb_config",
    "coincidence_configs",
    "MLE_X",
    "MLE_Y",
]

# Master seed used by the verification suite when none is supplied.
DEFAULT_SEED = 20250823

# ---------------------------------------------------------------------------
# F1: two logistic arms, no covariate (xi = 1), odds-ratio allocation
# ---------------------------------------------------------------------------
#
# True coefficients theta = (ln 3, 0), so the success probabilities are
# p_1 = 3/4, p_2 = 1/2 and the odds-ratio rule targets
#   v = (p_1, p_2) normalised = (0.75, 0.25)   [e^{ln 3} / (e^{ln 3} + e^0)]
# Hand evaluation of the limit covariances (recorded in F1_EXACT below):
#   d pi_1 / d theta_1 = pi_1 pi_2 = 0.1875 = -d pi_1 / d theta_2
#   I_1 = v_1 p_1 q_1 = 0.75 * 0.1875 = 0.140625      V_1 = 1/I_1 = 64/9
#   I_2 = v_2 p_2 q_2 = 0.25 * 0.25   = 0.0625        V_2 = 16
#   Sigma_1 = diag(v) - v'v = 0.1875 * [[1, -1], [-1, 1]]
#   Sigma_2 = (V_1 + V_2) * 0.1875^2 * [[1, -1], [-1, 1]]
#           = 0.8125 * [[1, -1], [-1, 1]]
#   Sigma   = Sigma_1 + 2 Sigma_2 = 1.8125 * [[1, -1], [-1, 1]]

# Burn-in and box sizes are tuned so that n = 1000 sits inside the CLT
# regime: with a short burn-in or a wide box an arm whose burn-in responses
# all agree gets its intercept clamped far out, the odds-ratio rule then
# near-starves that arm, and a few replicates dominate the allocation
# variance.  Six patients per arm and a box of +/- 2 remove that trap
# (P(six agreeing responses) <= 2^-6 per arm and the clamped odds stay
# within e^{+/-2}) while keeping the burn-in share small.
F1_M0 = 6
F1_BOX = 2.0

_PM = np.array([[1.0, -1.0], [-1.0, 1.0]])
F1_EXACT = {
    "v": np.array([0.75, 0.25]),
    "dg": 0.1875 * np.array([[1.0, -1.0], [-1.0, 1.0]]),
    "info": np.array([[[0.140625]], [[0.0625]]]),
    "V": np.array([[[64.0 / 9.0]], [[16.0]]]),
    "sigma1": 0.1875 * _PM,
    "sigma2": 0.8125 * _PM,
    "sigma": 1.8125 * _PM,
}


def f1_config(n: int, replicates: int, seed: int, plugins: bool = False) -> dict:
    return {
        "model": {
            "arms": [{"family": "logistic"}, {"family": "logistic"}],
            "covariates": {"kind": "constant", "values": [1.0]},
            "true_theta": [[math.log(3.0)], [0.0]],
            "box_lo": -F1_BOX,
            "box_hi": F1_BOX,
        },
        "rule": {"kind": "odds-ratio"},
        "trial": {"n": n, "m0": F1_M0},
        "replication": {
            "replicates": replicates,
            "seed": seed,
            "workers": 1,
            "plugins": plugins,
        },
    }


# ---------------------------------------------------------------------------
# Two-point covariate fixture: conditional allocation proportions
# ---------------------------------------------------------------------------
#
# xi uniform on {(1, 0), (1, 1)}, logistic arms with
# theta_1 = (1.0, -1.0), theta_2 = (0.1, 0.8), odds-ratio rule, so
#   pi_1(theta, (1,0)) = expit(1.0 - 0.1)  ~ 0.711
#   pi_1(theta, (1,1)) = expit(0.0 - 0.9)  ~ 0.289
# Both conditional targets are interior, and the conditional covariance
# Sigma_{|x} comes out of the exact-enumeration theory path.

def two_point_config(n: int, replicates: int, seed: int) -> dict:
    # Conditional targets pi_1(theta, x) = sigmoid(0.5) = 0.622 at x = (1, 0)
    # and sigmoid(-0.4) = 0.401 at x = (1, 1), so the allocation genuinely
    # depends on the covariate while staying well inside the simplex.  The
    # burn-in and box sizes follow the same reasoning as F1_M0 / F1_BOX: with
    # d = 2 a clamped estimate shifts the linear predictor by up to twice the
    # box size, so the box is kept tight (worst-case conditional odds within
    # e^{+/- 3}) and the burn-in long enough that each arm sees about four
    # responses per support point before adapting.
    return {
        "model": {
            "arms": [{"family": "logistic"}, {"family": "logistic"}],
            "covariates": {
                "kind": "discrete",
                "support": [[1.0, 0.0], [1.0, 1.0]],
                "probs": [0.5, 0.5],
            },
            "true_theta": [[0.5, -0.5], [0.0, 0.4]],
            "box_lo": -1.5,
            "box_hi": 1.5,
        },
        "rule": {"kind": "odds-ratio"},
        "trial": {"n": n, "m0": 8},
        "replication": {
            "replicates": replicates,
            "seed": seed,
            "workers": 1,
            "x_list": [[1.0, 0.0], [1.0, 1.0]],
        },
    }


# ---------------------------------------------------------------------------
# Covariate-free normal fixture (Bandyopadhyay-Biswas style)
# ---------------------------------------------------------------------------
#
# Two homoscedastic normal arms sharing slopes: Y = mu_k + beta xi~' + eps,
# sigma^2 = 1, allocated by pi_1 = Phi((mu_hat_1 - mu_hat_2) / T) with T = 1
# and mu_1 - mu_2 = 1.  xi~ has two independent two-point coordinates, so
#   a = E[xi~] = (0.5, 0.2),   Var(xi~) = diag(0.25, 2.16)
#   v_1 = Phi(1) ~ 0.8413
#   Var sqrt(n) (mu_hat_1 - mu_1) -> 1/v_1 + a Var(xi~)^{-1} a' ~ 2.2071
#   Var sqrt(n) (N_{n,1}/n - v_1) -> v_1 v_2 + 2 phi(1)^2 / (v_1 v_2) ~ 1.0108

def bb_config(n: int, replicates: int, seed: int) -> dict:
    return {
        "model": {
            "arms": [
                {"family": "normal-linear", "dispersion": 1.0},
                {"family": "normal-linear", "dispersion": 1.0},
            ],
            "covariates": {
                "kind": "continuous-product",
                "coords": [
                    {"kind": "constant", "value": 1.0},
                    {"kind": "two-point", "a": 0.0, "b": 1.0, "p_a": 0.5},
                    {"kind": "two-point", "a": -1.0, "b": 2.0, "p_a": 0.6},
                ],
            },
            "true_theta": [[0.5, 1.0, -0.7], [-0.5, 1.0, -0.7]],
            "box_lo": -5.0,
            "box_hi": 5.0,
            "shared_slopes": True,
        },
        "rule": {"kind": "covariate-free-normal", "T": 1.0},
        "trial": {"n": n, "m0": 4},
        "replication": {
            "replicates": replicates,
            "seed": seed,
            "workers": 1,
        },
    }


# ---------------------------------------------------------------------------
# Covariate-free coincidence fixtures
# ---------------------------------------------------------------------------
#
# For rules whose probabilities do not depend on the incoming covariate, the
# adaptive-design MLE covariance v_k (E[pi_k I_k])^{-1} coincides with the
# i.i.d.-sample covariance (E[I_k])^{-1}.  Three structurally different
# cases: a degenerate covariate (any rule is covariate-free), a logistic
# model under the covariate-free normal rule, and the shared-slope normal
# fixture above.

def coincidence_configs(seed: int) -> list[dict]:
    logistic_cf = {
        "model": {
            "arms": [{"family": "logistic"}, {"family": "logistic"}],
            "covariates": {
                "kind": "discrete",
                "support": [[1.0, 0.0], [1.0, 1.0]],
                "probs": [0.4, 0.6],
            },
            "true_theta": [[0.8, -0.4], [0.2, 0.3]],
            "box_lo": -4.0,
            "box_hi": 4.0,
        },
        "rule": {"kind": "covariate-free-normal", "T": 1.0},
        "trial": {"n": 100, "m0": 3},
        "replication": {"replicates": 1, "seed": seed},
    }
    return [
        f1_config(n=100, replicates=1, seed=seed),
        logistic_cf,
        bb_config(n=100, replicates=1, seed=seed),
    ]


# ---------------------------------------------------------------------------
# Logistic MLE oracle dataset
# ---------------------------------------------------------------------------
#
# Eight observations of a one-dimensional no-intercept logistic model.  The
# x = 0.25, y = 0 and x = -0.5, y = 0 rows keep the likelihood bounded away
# from the parameter-space boundary, so the maximiser over [-5, 5] is
# interior and a dense grid search is a valid independent oracle.

MLE_X = np.array([1.0, -0.5, 2.0, 0.75, -1.5, 0.25, 1.25, -2.0])
MLE_Y = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0])
