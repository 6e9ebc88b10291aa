"""Workload inputs, generated from the benchmark seed.

A workload is a list of designs.  Every pass of a workload runs the same
study cycle on each of its designs (see ``run.py``): ``carasim replicate``,
``carasim theory`` (or ``theory_report`` when the design needs reduced
quadrature settings), ``lse_sandwich``, one sampled trial continued by
``step()``, and ``plugin_estimates`` on the sampled trial and on generated
histories.  The sizes below decide which layer does most of the work; they
are chosen so that each layer a ROADMAP item rewrites dominates one workload
and is a small share of another.  Every workload runs every layer a little,
so every metric is measured on every workload.

The program receives only the configuration documents and arrays built
here; the seed decides the master seed of every replicate and, for the
continuous designs, the true coefficients and the generated histories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from carasim import fixtures

NAMES = ("replicate-gate", "continuous-logit", "theory-continuous", "stepwise-monitor")


@dataclass(frozen=True)
class Design:
    name: str
    config: dict           # experiment document; trial.n / replicates drive `carasim replicate`
    sample_n: int          # length of the sampled trial (replicate 0 of the master seed)
    replicate: bool = True  # run `carasim replicate` on the document
    theory_opts: dict | None = None  # None: `carasim theory`; else theory_report(TheoryOptions(**opts))
    steps: int = 0         # step() calls that continue the sampled trial
    look_every: int = 0    # plug-in look every this many steps (0: only after the last step)
    arrays_n: int = 0      # rows of the generated from_arrays history (0: none)


def _logistic_design(rng: np.random.Generator, n_uniform: int, rule: dict, n: int,
                     replicates: int, m0: int, seed: int) -> dict:
    """Three logistic arms on (1, U(-1, 1)^n_uniform), coefficients drawn near a base."""
    intercepts = np.array([0.4, 0.0, -0.3]) + rng.uniform(-0.1, 0.1, 3)
    slopes = np.array([0.8, -0.6, 0.3])[:, None] * np.ones((3, n_uniform))
    slopes = slopes + rng.uniform(-0.1, 0.1, (3, n_uniform))
    theta = np.column_stack([intercepts, slopes])
    return {
        "model": {
            "arms": [{"family": "logistic"}] * 3,
            "covariates": {"kind": "continuous-product", "intercept": True,
                           "coords": [{"kind": "uniform", "lo": -1.0, "hi": 1.0}] * n_uniform},
            "true_theta": theta.tolist(),
            "box_lo": -3.0,
            "box_hi": 3.0,
        },
        "rule": rule,
        "trial": {"n": n, "m0": m0},
        "replication": {"replicates": replicates, "seed": seed, "workers": 1},
    }


def designs(workload: str, seed: int) -> list[Design]:
    rng = np.random.default_rng(seed)
    exponential = {"kind": "exponential", "T": 1.0}
    ratio_of_g = {"kind": "ratio-of-g", "g": "one-plus-z-squared"}
    if workload == "replicate-gate":
        # The gate fixtures at their gate n and a reduced R: the per-patient
        # engine path does nearly all the work; theory is a sum over <= 4 nodes.
        return [
            Design("f1", fixtures.f1_config(n=1000, replicates=8, seed=seed), 1000, steps=5),
            Design("two-point", fixtures.two_point_config(n=2000, replicates=6, seed=seed), 2000, steps=5),
            # No steps on bb: a resumed shared-slope trial is not bitwise the
            # uninterrupted one (see the FOUND line in CHANGES.md).
            Design("bb", fixtures.bb_config(n=2000, replicates=6, seed=seed), 2000),
        ]
    if workload == "continuous-logit":
        # No finite support: every adaptive patient refits its arm by IRLS on
        # all of that arm's rows, so estimation dominates.
        raw = _logistic_design(rng, 1, exponential, n=400, replicates=10, m0=10, seed=seed)
        return [Design("logit-3arm-1u", raw, 400, steps=5, arrays_n=400)]
    if workload == "theory-continuous":
        # Expectations over continuous covariates: the Python loop over
        # quadrature or Monte Carlo nodes dominates.  Only the one-coordinate
        # design runs `carasim replicate`, whose theory uses the CLI's default
        # 64 nodes per coordinate; the engine runs that and short trials only.
        return [
            Design("logit-1u-rog", _logistic_design(rng, 1, ratio_of_g, 150, 1, 8, seed), 60,
                   steps=3, arrays_n=500),
            Design("logit-2u-exp", _logistic_design(rng, 2, exponential, 60, 1, 6, seed), 60,
                   replicate=False, steps=3, arrays_n=500),
            Design("logit-3u-rog", _logistic_design(rng, 3, ratio_of_g, 60, 1, 6, seed), 60,
                   replicate=False, theory_opts={"gl_nodes": 10}, steps=3, arrays_n=500),
            Design("logit-4u-exp", _logistic_design(rng, 4, exponential, 60, 1, 6, seed), 60,
                   replicate=False, theory_opts={"mc_size": 2000}, steps=3, arrays_n=500),
        ]
    if workload == "stepwise-monitor":
        # One two-point trial of n0 = 2000 patients continued by step(), which
        # replays the whole history on every call; plug-in looks every 25 steps.
        raw = fixtures.two_point_config(n=500, replicates=2, seed=seed)
        return [Design("two-point-monitor", raw, 2000, steps=150, look_every=25)]
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(NAMES)}")


def history_arrays(model, seed: int, index: int, n: int):
    """Covariates, arms, responses and a near-truth estimate for from_arrays.

    Covariates are (1, U(-1, 1)^(d-1)) like every design that uses this, arms
    are uniform, and responses are Bernoulli draws at the true coefficients.
    """
    rng = np.random.default_rng([seed, index])
    X = np.column_stack([np.ones(n), rng.uniform(-1.0, 1.0, (n, model.d - 1))])
    arms = rng.integers(0, model.K, n)
    p = 1.0 / (1.0 + np.exp(-np.sum(X * model.true_theta[arms], axis=1)))
    y = (rng.random(n) < p).astype(float)
    theta_hat = model.true_theta + rng.normal(0.0, 0.05, model.true_theta.shape)
    return X, arms, y, theta_hat
