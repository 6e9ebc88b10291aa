"""Sequential CARA trial engine.

A trial runs in two phases.  The first ``K * m0`` patients follow restricted
randomization: a uniformly random permutation of the multiset with ``m0``
copies of each arm, so every arm ends burn-in with exactly ``m0`` patients.
All subsequent patients are allocated adaptively: sample the covariate, set
``psi = pi(theta_hat, x)`` from the allocation rule at the current estimates,
draw the arm by inverse CDF, observe the chosen arm's response only, and
refresh estimates on the configured cadence (every patient by default).

Randomness is split into three purpose streams (covariate, assignment,
response) derived from one root seed, so the allocation draw for patient m
never perturbs the response stream and vice versa.  Responses are generated
through a single uniform per patient pushed through the chosen arm's inverse
CDF (:func:`carasim.model.response_from_uniform`); potential responses of
unchosen arms are never materialised.  The allocation rule is evaluated on
one covariate per patient: :func:`carasim.allocation.probabilities` also
takes stacks of covariates, but a row of a batched product is not always
bitwise equal to the one-row product, and a history must not depend on how
patients are grouped.

Estimates are refreshed incrementally: each arm keeps sufficient statistics
(binomial counts on the covariate support for logistic arms with finite
covariate support, normal-equation accumulators for least squares) so a refit
costs the same at patient 100 and patient 10000.  The incremental fits agree
with :func:`carasim.estimation.update_all_estimates` run on the stored
history; a test pins that equivalence.  Unlike the standalone fits, the
incremental least-squares refits skip the conditioning-number guard for
speed; exactly singular systems still fail soft (the arm keeps its previous
estimate).

:func:`step` rebuilds that state by replaying the history, forming the
shared-slope fit's Sherman-Morrison inverse at the same refit as the
uninterrupted run, so stepping reproduces :func:`run_trial` bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence

from .allocation import AllocationRule, probabilities
from .estimation import (
    SINGULAR_HESSIAN,
    FitOptions,
    fit_grouped_logistic_mle,
)
from .model import TrialModel, response_from_uniform

__all__ = [
    "TrialStreams",
    "TrialHistory",
    "EngineOptions",
    "child_sequence",
    "streams_for_trial",
    "replicate_root",
    "burn_in_schedule",
    "run_trial",
    "step",
]


# ---------------------------------------------------------------------------
# Seed derivation
# ---------------------------------------------------------------------------


def child_sequence(root: SeedSequence, key: int) -> SeedSequence:
    """Stateless child derivation: append ``key`` to the spawn key."""
    return SeedSequence(entropy=root.entropy, spawn_key=tuple(root.spawn_key) + (key,))


def replicate_root(master_seed: int, index: int) -> SeedSequence:
    """Root sequence for replicate ``index`` of a run with ``master_seed``."""
    return SeedSequence(master_seed, spawn_key=(index,))


@dataclass(frozen=True)
class TrialStreams:
    """The three purpose streams of one trial plus their common root."""

    root: SeedSequence
    covariate: Generator
    assignment: Generator
    response: Generator


_PURPOSE_COVARIATE, _PURPOSE_ASSIGNMENT, _PURPOSE_RESPONSE = 0, 1, 2


def streams_for_trial(seed: int | SeedSequence) -> TrialStreams:
    root = seed if isinstance(seed, SeedSequence) else SeedSequence(seed)
    gens = [Generator(PCG64(child_sequence(root, p))) for p in range(3)]
    return TrialStreams(root, *gens)


# ---------------------------------------------------------------------------
# Options and history
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EngineOptions:
    refit_interval: int = 1
    theta_stride: int = 1
    fit: FitOptions = FitOptions(check_conditioning=False)

    def __post_init__(self):
        if self.refit_interval < 1:
            raise ValueError(f"refit_interval must be >= 1, got {self.refit_interval}")
        if self.theta_stride < 1:
            raise ValueError(f"theta_stride must be >= 1, got {self.theta_stride}")


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TrialHistory:
    """Immutable record of one trial.

    Per-patient arrays are aligned: row ``m`` holds patient ``m + 1``'s
    covariate, assigned arm (0-based), the allocation probabilities in force
    (the uniform vector during burn-in), and the observed response.
    ``theta_records[r]`` is the working estimate after patient
    ``record_ms[r]``; ``current_theta`` is the estimate after the last
    patient.  ``support_idx`` maps each patient to a covariate support point
    when the covariate distribution has finite support, else it is None.
    """

    n: int
    m0: int
    K: int
    d: int
    covariates: np.ndarray
    support_idx: np.ndarray | None
    arms: np.ndarray
    probs: np.ndarray
    responses: np.ndarray
    theta_records: np.ndarray
    record_ms: np.ndarray
    current_theta: np.ndarray
    converged: np.ndarray
    projected: np.ndarray
    fit_failures: np.ndarray
    pending_refit: np.ndarray
    steps_since_refit: int
    refit_interval: int
    theta_stride: int
    seed_entropy: object = None
    seed_spawn_key: tuple = ()

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_arrays(covariates, arms, responses, K: int,
                    current_theta: np.ndarray | None = None,
                    m0: int = 0) -> "TrialHistory":
        """Wrap raw per-patient arrays (e.g. external data) as a history."""
        covariates = np.atleast_2d(np.asarray(covariates, dtype=float))
        arms = np.asarray(arms, dtype=int)
        responses = np.asarray(responses, dtype=float)
        n, d = covariates.shape
        if arms.shape != (n,) or responses.shape != (n,):
            raise ValueError("covariates, arms and responses must have matching lengths")
        if current_theta is not None:
            current_theta = np.asarray(current_theta, dtype=float)
        probs = np.full((n, K), 1.0 / K)
        zeros = np.zeros(K, dtype=bool)
        return TrialHistory(
            n=n, m0=m0, K=K, d=d,
            covariates=_freeze(covariates), support_idx=None,
            arms=_freeze(arms), probs=_freeze(probs), responses=_freeze(responses),
            theta_records=_freeze(np.empty((0, K, d))), record_ms=_freeze(np.empty(0, dtype=int)),
            current_theta=current_theta, converged=zeros.copy(), projected=zeros.copy(),
            fit_failures=np.zeros(K, dtype=int), pending_refit=zeros.copy(),
            steps_since_refit=0, refit_interval=1, theta_stride=1)

    # -- queries -------------------------------------------------------------

    def counts(self) -> np.ndarray:
        """Patients per arm, N_{n,k}."""
        return np.bincount(self.arms[:self.n], minlength=self.K)

    def counts_given_x(self, x) -> tuple[int, np.ndarray]:
        """(N_n(x), per-arm counts among patients with covariate x)."""
        x = np.asarray(x, dtype=float)
        mask = np.all(self.covariates[:self.n] == x, axis=1)
        return int(mask.sum()), np.bincount(self.arms[:self.n][mask], minlength=self.K)

    # -- serialization -------------------------------------------------------

    def to_patient_csv(self, path=None) -> str:
        """One row per patient: m, x_1..x_d, arm (1-based), psi_1..psi_K, y.

        Returns the CSV text; when ``path`` is given it is also written there
        with LF line endings.
        """
        cols = (["m"] + [f"x_{j + 1}" for j in range(self.d)] + ["arm"]
                + [f"psi_{k + 1}" for k in range(self.K)] + ["y"])
        lines = [",".join(cols)]
        for m in range(self.n):
            row = [str(m + 1)]
            row += [f"{v:.17g}" for v in self.covariates[m]]
            row.append(str(int(self.arms[m]) + 1))
            row += [f"{v:.17g}" for v in self.probs[m]]
            row.append(f"{self.responses[m]:.17g}")
            lines.append(",".join(row))
        text = "\n".join(lines) + "\n"
        if path is not None:
            with open(path, "w", newline="\n") as f:
                f.write(text)
        return text

    def summary(self) -> dict:
        th = self.current_theta
        return {
            "n": int(self.n),
            "m0": int(self.m0),
            "K": int(self.K),
            "d": int(self.d),
            "counts": [int(c) for c in self.counts()],
            "theta_hat": {
                "shape": [int(self.K), int(self.d)],
                "data": [float(v) for v in np.asarray(th).ravel()],
            } if th is not None else None,
            "flags": {
                "converged": [bool(b) for b in self.converged],
                "projected": [bool(b) for b in self.projected],
                "fit_failures": [int(c) for c in self.fit_failures],
            },
            "seed": {
                "entropy": self.seed_entropy,
                "spawn_key": list(self.seed_spawn_key),
            },
        }

    def to_json(self, path) -> None:
        with open(path, "w", newline="\n") as f:
            json.dump(self.summary(), f, indent=2, sort_keys=True)
            f.write("\n")


# ---------------------------------------------------------------------------
# Incremental per-arm estimator state
# ---------------------------------------------------------------------------


class _GroupedLogitState:
    """Binomial counts on the (finite) covariate support for one arm."""

    __slots__ = ("pts", "trials", "succ", "scalar", "sat_inv")

    def __init__(self, support: np.ndarray):
        self.pts = support
        self.trials = np.zeros(support.shape[0])
        self.succ = np.zeros(support.shape[0])
        # Intercept-only logistic regression has the closed form
        # theta = logit(success fraction) / x, clamped to the box.
        self.scalar = support.shape == (1, 1) and support[0, 0] != 0.0
        # With as many support points as coefficients the model is saturated:
        # whenever every group has both outcomes and the interpolated
        # coefficients are interior, the MLE solves X theta = logit(s / t)
        # exactly and the iterative fit can be skipped.
        self.sat_inv = None
        if not self.scalar and support.shape[0] == support.shape[1]:
            if np.linalg.cond(support) < 1e8:
                self.sat_inv = np.linalg.inv(support)

    def update(self, six: int, x: np.ndarray, y: float) -> None:
        self.trials[six] += 1.0
        self.succ[six] += y

    def refit(self, lo, hi, init, opts) -> tuple[np.ndarray, bool, bool, bool]:
        if self.scalar:
            t = self.trials[0]
            s = self.succ[0]
            if s <= 0.0:
                logit = -math.inf
            elif s >= t:
                logit = math.inf
            else:
                logit = math.log(s / (t - s))
            raw = logit / self.pts[0, 0]
            val = min(max(raw, lo[0]), hi[0])
            return np.array([val]), True, val != raw, False
        if self.sat_inv is not None:
            t, s = self.trials, self.succ
            if np.all(s > 0.0) and np.all(s < t):
                theta = self.sat_inv @ np.log(s / (t - s))
                if np.all(theta >= lo) and np.all(theta <= hi):
                    return theta, True, False, False
        fit = fit_grouped_logistic_mle(self.pts, self.trials, self.succ,
                                       lo, hi, init=init, opts=opts)
        failed = fit.reason == SINGULAR_HESSIAN
        return fit.theta_hat, fit.converged, fit.projected, failed


class _RowLogitState:
    """Raw per-observation rows for a logistic arm (continuous covariates)."""

    __slots__ = ("X", "y", "m")

    def __init__(self, d: int):
        self.X = np.empty((64, d))
        self.y = np.empty(64)
        self.m = 0

    def update(self, six: int, x: np.ndarray, y: float) -> None:
        if self.m == self.X.shape[0]:
            self.X = np.concatenate([self.X, np.empty_like(self.X)])
            self.y = np.concatenate([self.y, np.empty_like(self.y)])
        self.X[self.m] = x
        self.y[self.m] = y
        self.m += 1

    def refit(self, lo, hi, init, opts):
        fit = fit_grouped_logistic_mle(self.X[:self.m], np.ones(self.m), self.y[:self.m],
                                       lo, hi, init=init, opts=opts)
        failed = fit.reason == SINGULAR_HESSIAN
        return fit.theta_hat, fit.converged, fit.projected, failed


class _LseState:
    """Normal-equation accumulators for one least-squares arm."""

    __slots__ = ("A", "b", "m")

    def __init__(self, d: int):
        self.A = np.zeros((d, d))
        self.b = np.zeros(d)
        self.m = 0

    def update(self, six: int, x: np.ndarray, y: float) -> None:
        self.A += np.outer(x, x)
        self.b += y * x
        self.m += 1

    def refit(self, lo, hi, init, opts):
        d = self.b.shape[0]
        if self.m < d:
            return init, False, False, True
        try:
            theta = np.linalg.solve(self.A, self.b)
        except np.linalg.LinAlgError:
            return init, False, False, True
        if not np.all(np.isfinite(theta)):
            return init, False, False, True
        clipped = np.minimum(np.maximum(theta, lo), hi)
        return clipped, True, bool(np.any(clipped != theta)), False


class _JointLseState:
    """Normal-equation accumulators for the shared-slope joint fit.

    After the first solvable refit the inverse of the Gram matrix is carried
    forward by rank-one (Sherman-Morrison) updates, so the per-patient refit
    avoids a fresh linear solve.  The rebuild in ``_TrialState.from_history``
    replays the same updates and forms the inverse at the same refit, which
    keeps resumed trials bitwise identical to uninterrupted ones.
    """

    __slots__ = ("K", "d", "P", "A", "b", "Ainv", "m")

    def __init__(self, K: int, d: int):
        self.K = K
        self.d = d
        self.P = K + d - 1
        self.A = np.zeros((self.P, self.P))
        self.b = np.zeros(self.P)
        self.Ainv = None
        self.m = 0

    def update(self, arm: int, x: np.ndarray, y: float) -> None:
        eta = np.zeros(self.P)
        eta[arm] = 1.0
        eta[self.K:] = x[1:]
        self.A += np.outer(eta, eta)
        self.b += y * eta
        self.m += 1
        if self.Ainv is not None:
            v = self.Ainv @ eta
            self.Ainv -= np.outer(v, v / (1.0 + eta @ v))

    def form_inverse(self) -> bool:
        """Invert the Gram matrix at the first refit where it is solvable."""
        if self.Ainv is None and self.m >= self.P and np.linalg.cond(self.A) <= 1e12:
            self.Ainv = np.linalg.inv(self.A)
        return self.Ainv is not None

    def refit(self, lo, hi, prev):
        """Returns (theta (K, d), converged, projected, failed)."""
        if not self.form_inverse():
            return prev, False, False, True
        coef = self.Ainv @ self.b
        if not np.all(np.isfinite(coef)):
            return prev, False, False, True
        theta = np.empty((self.K, self.d))
        theta[:, 0] = coef[:self.K]
        theta[:, 1:] = coef[self.K:]
        clipped = np.minimum(np.maximum(theta, lo), hi)
        return clipped, True, bool(np.any(clipped != theta)), False


# ---------------------------------------------------------------------------
# Trial state
# ---------------------------------------------------------------------------


def burn_in_schedule(K: int, m0: int, rng: Generator) -> np.ndarray:
    """Uniformly random permutation of the multiset {1^m0, ..., K^m0} (0-based)."""
    if m0 < 1:
        raise ValueError(f"m0 must be >= 1, got {m0}")
    return rng.permutation(np.repeat(np.arange(K), m0))


class _TrialState:
    def __init__(self, model: TrialModel, rule: AllocationRule, streams: TrialStreams,
                 m0: int, opts: EngineOptions, capacity: int):
        K, d = model.K, model.d
        if m0 < d + 1:
            raise ValueError(f"m0 must be at least d + 1 = {d + 1}, got {m0}")
        self.model = model
        self.rule = rule
        self.streams = streams
        self.m0 = m0
        self.opts = opts
        self.K, self.d = K, d
        enum = model.covariates.enumerated()
        self.support = enum[0] if enum is not None else None

        self.cov = np.empty((capacity, d))
        self.six = np.empty(capacity, dtype=np.int64)
        self.arm = np.empty(capacity, dtype=np.int64)
        self.psi = np.empty((capacity, K))
        self.resp = np.empty(capacity)
        self.m = 0

        self.theta = 0.5 * (model.box_lo + model.box_hi)
        self.converged = np.zeros(K, dtype=bool)
        self.projected = np.zeros(K, dtype=bool)
        self.fail_counts = np.zeros(K, dtype=int)
        self.pending = np.zeros(K, dtype=bool)
        self.steps_since_refit = 0
        self.records: list[tuple[int, np.ndarray]] = []

        if model.shared_slopes:
            self.joint = _JointLseState(K, d)
            self.states = None
        else:
            self.joint = None
            self.states = []
            for k in range(K):
                if model.arms[k].family == "logistic":
                    if self.support is not None:
                        self.states.append(_GroupedLogitState(self.support))
                    else:
                        self.states.append(_RowLogitState(d))
                else:
                    self.states.append(_LseState(d))

    # -- randomness ----------------------------------------------------------

    def _draw_covariate(self) -> tuple[np.ndarray, int]:
        spec = self.model.covariates
        if self.support is not None:
            i = spec.sample_index(self.streams.covariate)
            return self.support[i], i
        return spec.sample(self.streams.covariate), -1

    def _draw_response(self, k: int, x: np.ndarray) -> float:
        return response_from_uniform(self.model.arms[k], self.model.true_theta[k], x,
                                     self.streams.response.random())

    # -- recording -----------------------------------------------------------

    def _grow(self) -> None:
        cap = max(16, int(self.cov.shape[0] * 1.5) + 1)
        self.cov = np.concatenate([self.cov, np.empty((cap - self.cov.shape[0], self.d))])
        self.six = np.concatenate([self.six, np.empty(cap - self.six.shape[0], dtype=np.int64)])
        self.arm = np.concatenate([self.arm, np.empty(cap - self.arm.shape[0], dtype=np.int64)])
        self.psi = np.concatenate([self.psi, np.empty((cap - self.psi.shape[0], self.K))])
        self.resp = np.concatenate([self.resp, np.empty(cap - self.resp.shape[0])])

    def _record_patient(self, x, six, k, psi, y) -> None:
        m = self.m
        if m == self.cov.shape[0]:
            self._grow()
        self.cov[m] = x
        self.six[m] = six
        self.arm[m] = k
        self.psi[m] = psi
        self.resp[m] = y
        self.m = m + 1

    def _maybe_record_theta(self) -> None:
        # theta_records[r] is the estimate in force after patient record_ms[r],
        # including any refit that patient triggered.
        if self.m % self.opts.theta_stride == 0:
            self.records.append((self.m, self.theta.copy()))

    # -- estimation ----------------------------------------------------------

    def _observe(self, k: int, six: int, x: np.ndarray, y: float) -> None:
        if self.joint is not None:
            self.joint.update(k, x, y)
        else:
            self.states[k].update(six, x, y)
        self.pending[k] = True

    def _refit_pending(self) -> None:
        model = self.model
        if self.joint is not None:
            theta, conv, proj, failed = self.joint.refit(model.box_lo, model.box_hi, self.theta)
            if failed:
                self.fail_counts += 1
            else:
                self.theta = theta
            self.converged[:] = conv
            self.projected[:] = proj
        else:
            for k in np.flatnonzero(self.pending):
                lo, hi = model.box_lo[k], model.box_hi[k]
                init = np.minimum(np.maximum(self.theta[k], lo), hi)
                th, conv, proj, failed = self.states[k].refit(lo, hi, init, self.opts.fit)
                if failed:
                    self.fail_counts[k] += 1
                else:
                    self.theta[k] = th
                self.converged[k] = conv
                self.projected[k] = proj
        self.pending[:] = False
        self.steps_since_refit = 0

    # -- phases --------------------------------------------------------------

    def run_burn_in(self) -> None:
        schedule = burn_in_schedule(self.K, self.m0, self.streams.assignment)
        uniform = np.full(self.K, 1.0 / self.K)
        for i, k in enumerate(schedule):
            x, six = self._draw_covariate()
            y = self._draw_response(int(k), x)
            self._observe(int(k), six, x, y)
            self._record_patient(x, six, int(k), uniform, y)
            if i < schedule.shape[0] - 1:
                self._maybe_record_theta()
        # Estimates are computed once at the end of burn-in, then refreshed on
        # the refit cadence.
        self._refit_pending()
        self._maybe_record_theta()

    def advance(self) -> None:
        x, six = self._draw_covariate()
        psi = probabilities(self.rule, self.theta, x)
        u = self.streams.assignment.random()
        acc = 0.0
        k = self.K - 1
        for j in range(self.K):
            acc += psi[j]
            if u < acc:
                k = j
                break
        y = self._draw_response(k, x)
        self._observe(k, six, x, y)
        self.steps_since_refit += 1
        if self.steps_since_refit >= self.opts.refit_interval:
            self._refit_pending()
        self._record_patient(x, six, k, psi, y)
        self._maybe_record_theta()

    # -- conversion ----------------------------------------------------------

    def freeze(self) -> TrialHistory:
        m = self.m
        if self.records:
            record_ms = np.array([r[0] for r in self.records], dtype=int)
            theta_records = np.stack([r[1] for r in self.records])
        else:
            record_ms = np.empty(0, dtype=int)
            theta_records = np.empty((0, self.K, self.d))
        return TrialHistory(
            n=m, m0=self.m0, K=self.K, d=self.d,
            covariates=_freeze(self.cov[:m].copy()),
            support_idx=_freeze(self.six[:m].copy()) if self.support is not None else None,
            arms=_freeze(self.arm[:m].copy()),
            probs=_freeze(self.psi[:m].copy()),
            responses=_freeze(self.resp[:m].copy()),
            theta_records=_freeze(theta_records),
            record_ms=_freeze(record_ms),
            current_theta=self.theta.copy(),
            converged=self.converged.copy(),
            projected=self.projected.copy(),
            fit_failures=self.fail_counts.copy(),
            pending_refit=self.pending.copy(),
            steps_since_refit=self.steps_since_refit,
            refit_interval=self.opts.refit_interval,
            theta_stride=self.opts.theta_stride,
            seed_entropy=self.streams.root.entropy,
            seed_spawn_key=tuple(self.streams.root.spawn_key),
        )

    @staticmethod
    def from_history(history: TrialHistory, model: TrialModel, rule: AllocationRule,
                     streams: TrialStreams, opts: EngineOptions) -> "_TrialState":
        if history.n < model.K * history.m0:
            raise ValueError("cannot resume a history that has not completed burn-in")
        state = _TrialState(model, rule, streams, history.m0, opts,
                            capacity=history.n + 1)
        n = history.n
        state.cov[:n] = history.covariates
        state.six[:n] = history.support_idx if history.support_idx is not None else -1
        state.arm[:n] = history.arms
        state.psi[:n] = history.probs
        state.resp[:n] = history.responses
        state.m = n
        # Rebuild sufficient statistics by sequential accumulation so the
        # floating-point state matches an engine that ran patient by patient;
        # the joint fit's inverse is formed where that engine first refit.
        burn = model.K * history.m0
        for m in range(n):
            k = int(history.arms[m])
            six = int(history.support_idx[m]) if history.support_idx is not None else -1
            if state.joint is not None:
                state.joint.update(k, history.covariates[m], float(history.responses[m]))
                if m + 1 >= burn and (m + 1 - burn) % history.refit_interval == 0:
                    state.joint.form_inverse()
            else:
                state.states[k].update(six, history.covariates[m], float(history.responses[m]))
        state.theta = np.array(history.current_theta)
        state.converged = history.converged.copy()
        state.projected = history.projected.copy()
        state.fail_counts = history.fit_failures.copy()
        state.pending = history.pending_refit.copy()
        state.steps_since_refit = history.steps_since_refit
        state.records = [(int(mm), np.array(tt))
                         for mm, tt in zip(history.record_ms, history.theta_records)]
        return state


# ---------------------------------------------------------------------------
# Public driver operations
# ---------------------------------------------------------------------------


def run_trial(model: TrialModel, rule: AllocationRule, n: int, m0: int,
              seed: int | SeedSequence | TrialStreams,
              opts: EngineOptions = EngineOptions()) -> TrialHistory:
    """Run one trial of ``n`` patients and return its immutable history.

    ``seed`` may be an integer, a seed sequence, or already-built
    ``TrialStreams`` (the latter lets a caller continue consuming the same
    streams afterwards, e.g. through :func:`step`).
    """
    if n < model.K * m0:
        raise ValueError(f"n = {n} is smaller than the burn-in size K * m0 = {model.K * m0}")
    streams = seed if isinstance(seed, TrialStreams) else streams_for_trial(seed)
    state = _TrialState(model, rule, streams, m0, opts, capacity=n)
    state.run_burn_in()
    while state.m < n:
        state.advance()
    return state.freeze()


def step(history: TrialHistory, model: TrialModel, rule: AllocationRule,
         streams: TrialStreams, opts: EngineOptions | None = None) -> TrialHistory:
    """Append one adaptively allocated patient to a completed-burn-in history.

    With the same streams, repeatedly stepping reproduces ``run_trial``
    patient for patient.  The history's own refit cadence is used unless
    ``opts`` overrides it.
    """
    if opts is None:
        opts = EngineOptions(refit_interval=history.refit_interval,
                             theta_stride=history.theta_stride,
                             fit=FitOptions(check_conditioning=False))
    state = _TrialState.from_history(history, model, rule, streams, opts)
    state.advance()
    return state.freeze()
