"""Sequential CARA trial engine, run as a lockstep batch of replicates.

A trial runs in two phases.  The first ``K * m0`` patients follow restricted
randomization: a uniformly random permutation of the multiset with ``m0``
copies of each arm, so every arm ends burn-in with exactly ``m0`` patients.
All subsequent patients are allocated adaptively: sample the covariate, set
``psi = pi(theta_hat, x)`` from the allocation rule at the current estimates,
draw the arm by inverse CDF, observe the chosen arm's response only, and
refit the chosen arm's estimate.  Every arm is first estimated at the end of
burn-in.

Randomness is split into three purpose streams (covariate, assignment,
response) derived from one root seed, so the allocation draw for patient m
never perturbs the response stream and vice versa.  After the burn-in
permutation every stream takes a fixed number of uniforms per patient (one,
or one per non-constant covariate coordinate), so the engine draws them in
blocks: ``gen.random(m)`` gives the same numbers as m calls of
``gen.random()``; covariates come from them by ``CovariateSpec.from_uniforms``.
A patient's response is its one response uniform pushed
through the chosen arm's inverse CDF
(:func:`carasim.model.responses_from_uniforms`, which transforms a block of
uniforms for every arm at once; the engine keeps the chosen arm's), so no
stream depends on which arm a patient gets.

One patient loop advances B replicates of one design together, one patient
at a time, as array operations over the replicates (the rule is evaluated
with one coefficient matrix per replicate, arms are drawn from the
cumulative probabilities, and every replicate's estimator state is updated
in one step), and writes them into a record whose rows the histories take.
:func:`run_trials` runs it over every patient; :func:`run_trial` is a batch
of one.  Every operation acts on each replicate's own row with the same
floating-point steps whatever B is, so replicate i of a batch is bit for bit
``run_trial`` with replicate i's seed.  The record holds each patient's
covariate, arm, allocation probabilities and response, and the estimates;
what the estimators count stays in the engine state, where
:meth:`TrialHistory.support_counts` and ``refit_counts`` read it.  A state
binds, when it is built or copied, what every patient uses: its rule's
kernel, its refit path and the views of its arrays that patients write.

Grouped, least-squares and joint refits run on sufficient statistics, so they
cost the same at patient 100 and patient 10000.  A rowwise logistic arm (no
finite covariate support) has none: each refit runs IRLS over all of the
arm's rows, so its cost grows with the arm and a trial's with n squared:

* logistic arms on a finite covariate support keep binomial counts per
  support point.  The saturated model (as many support points as
  coefficients; intercept-only regression is the case of one) has the closed
  form theta = S^-1 logit(s / t), with the infinite logits of groups whose
  responses all agree clamped to the box.  When both arms of a two-arm
  design are such arms, a refit evaluates it on whole arrays, for every cell
  of every replicate, instead of gathering the cells the patients joined: a
  cell no patient joined gets back the bits it holds, and only joined cells
  count a closed-form refit (with more arms, the K cells of each replicate
  and the repairs of idle cells whose product is NaN cost more than the
  gathers);
* logistic arms on a continuous support keep their rows in a row store laid
  out as the IRLS core reads them: a (1 + d, C * cap) block whose rows are
  the response and the d covariates, with cell c's rows from column c * cap
  on (cap doubles when a cell outgrows it).  A batched refit gathers its
  cells' columns with one ``take`` at ``np.arange(N) + np.repeat(cells * cap
  - starts, sizes)``; a refit of one cell reads a view of its columns;
* every other logistic refit (grouped counts off the saturated form, joined
  cells whose closed form comes out NaN, and every rowwise refit) runs in
  one call of the batched IRLS :func:`carasim.estimation.fit_logistic_cells`
  per refit, which fits each (replicate, arm) cell as it would alone; a cell
  no patient joined whose closed form is NaN keeps its estimate.  A refit of
  one cell (every refit after burn-in in a batch of one: ``run_trial`` and
  ``step()``) calls the batch-of-one core
  :func:`carasim.estimation.fit_one_cell` directly, under the error state
  the patient loop enters once per call, and writes its result, the clamp
  of it, its ``converged`` flag and the IRLS counters by scalar index (the
  failure counters only when the fit did not converge);
* normal arms keep normal-equation accumulators, solved as one stack;
* the shared-slope joint fit carries the inverse of its Gram matrix forward
  by rank-one (Sherman-Morrison) updates once it is solvable; when every
  replicate's is, and every solution is finite, a refit writes all the
  estimates without masks.

The IRLS cores return unclipped estimates; the box is the engine's.  Every
refit writes what it asked for in ``raw`` and the clamp of that to the box
in ``theta``; a failed refit keeps its estimate in both and counts a fit
failure.  The batched IRLS refit, the gathered closed form, least squares
and the masked joint fit write through :meth:`_Lockstep._store`; the
one-cell refit writes by scalar index, and the whole-array closed form and
the unmasked joint fit clamp whole arrays in place, as each costs less than
the writer's indexing.

Each (replicate, arm) cell counts its logistic refits (``REFIT_COUNTERS``):
closed-form refits, IRLS fits and their iterations, and IRLS fits that
stopped at the iteration limit or on a singular system.
:attr:`TrialBatch.refit_counts` and :meth:`TrialHistory.refit_counts` give
them; like every other output they do not depend on the batch.

A patient step keeps only the estimates and the sufficient statistics that
refits read.  What is only reported is derived when it is read: a cell is
``projected`` where its ``theta`` differs from its ``raw`` (with shared
slopes, every cell of a replicate where any of its cells does); the
closed-form refits of a grouped cell are its refits (one at the end of
burn-in and one per later patient) less its IRLS fits; and the support
counts of designs without grouped logistic arms, whose refits do not read
them, come from the support points of up to a draw block of patients,
added at once.

The incremental fits agree with a batch refit of every arm from the stored
history.  A least-squares cell, like the joint fit, is solved from the first
refit at which its Gram matrix passes the condition-number test
(``COND_MAX``), as the standalone ``fit_linear_lse`` tests it; until then
each of its refits fails soft: the arm keeps its previous estimate, is
flagged unconverged and counts a fit failure.

A history from :func:`run_trial` or :func:`run_trials` carries the engine
state after its last patient, and :func:`step` runs the same patient loop
over one more patient on a copy of it instead of replaying the history, so
stepping reproduces ``run_trial`` bit for bit.  A step from the last
history of a chain appends in place to the record whose first n rows the
histories view, and from any other history copies into a fresh one, so
only a rowwise arm's refit makes a step's cost grow with n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence

from .allocation import _KERNELS, AllocationRule, check_rule, fold_columns
from .estimation import COND_MAX, fit_logistic_cells, fit_one_cell, solve_errstate, solve_stack
from .model import TrialModel, responses_from_uniforms

__all__ = [
    "TrialStreams",
    "TrialHistory",
    "EngineOptions",
    "child_sequence",
    "streams_for_trial",
    "replicate_root",
    "burn_in_schedule",
    "TrialBatch",
    "REFIT_COUNTERS",
    "run_trials",
    "bytes_per_patient",
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
    theta_stride: int = 1

    def __post_init__(self):
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
    patient.  ``engine_state`` is the estimator state after the last patient
    of the batch the trial ran in, and ``engine_row`` the trial's row in it;
    :func:`step` resumes from them, and :meth:`support_counts` and
    :meth:`refit_counts` read them.  Histories built by :meth:`from_arrays`
    have none.
    """

    n: int
    m0: int
    K: int
    d: int
    covariates: np.ndarray
    arms: np.ndarray
    probs: np.ndarray
    responses: np.ndarray
    theta_records: np.ndarray
    record_ms: np.ndarray
    current_theta: np.ndarray
    converged: np.ndarray
    projected: np.ndarray
    fit_failures: np.ndarray
    seed_entropy: object = None
    seed_spawn_key: tuple = ()
    engine_state: "_Lockstep | None" = field(default=None, repr=False, compare=False)
    engine_row: int = field(default=0, repr=False, compare=False)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_arrays(covariates, arms, responses, K: int,
                    current_theta: np.ndarray | None = None) -> "TrialHistory":
        """Wrap raw per-patient arrays (e.g. external data) as a history.
        Covariates and responses must be finite, and arms integer-valued."""
        covariates = np.atleast_2d(np.asarray(covariates, dtype=float))
        given = np.asarray(arms, dtype=float)
        responses = np.asarray(responses, dtype=float)
        n, d = covariates.shape
        if given.shape != (n,) or responses.shape != (n,):
            raise ValueError("covariates, arms and responses must have matching lengths")
        for name, values in (("covariates", covariates), ("responses", responses)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite, got {values[~np.isfinite(values)][0]}")
        whole = np.isfinite(given) & (given == np.round(given))
        if not whole.all():
            raise ValueError(f"arms must be integer-valued, got {given[~whole][0]}")
        arms = given.astype(int)
        if n and (arms.min() < 0 or arms.max() >= K):
            raise ValueError(f"arms must lie in 0..{K - 1} (0-based, K = {K}), "
                             f"got values from {arms.min()} to {arms.max()}")
        if current_theta is not None:
            current_theta = np.asarray(current_theta, dtype=float)
            if current_theta.shape != (K, d):
                raise ValueError(f"current_theta must have shape (K, d) = ({K}, {d}), "
                                 f"got {current_theta.shape}")
        probs = np.full((n, K), 1.0 / K)
        zeros = np.zeros(K, dtype=bool)
        return TrialHistory(
            n=n, m0=0, K=K, d=d,
            covariates=_freeze(covariates),
            arms=_freeze(arms), probs=_freeze(probs), responses=_freeze(responses),
            theta_records=_freeze(np.empty((0, K, d))), record_ms=_freeze(np.empty(0, dtype=int)),
            current_theta=current_theta, converged=zeros.copy(), projected=zeros.copy(),
            fit_failures=np.zeros(K, dtype=int))

    @classmethod
    def _of(cls, **values) -> "TrialHistory":
        """A history from every field's value, without ``__init__``'s 3 us of setattrs."""
        history = object.__new__(cls)
        vars(history).update(values)
        return history

    # -- queries -------------------------------------------------------------

    def counts(self) -> np.ndarray:
        """Patients per arm, N_{n,k}."""
        return np.bincount(self.arms[:self.n], minlength=self.K)

    def support_counts(self) -> np.ndarray | None:
        """Patients per arm and support point, (K, S), or None (no engine state or support)."""
        state = self.engine_state
        if state is None or state.support is None:
            return None
        return state.support_counts()[self.engine_row]

    def refit_counts(self) -> dict[str, np.ndarray] | None:
        """The engine's logistic refits of each arm so far, by counter
        (``REFIT_COUNTERS``); None for a history without engine state."""
        if self.engine_state is None:
            return None
        return {name: counts[self.engine_row]
                for name, counts in self.engine_state.refit_counts().items()}

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
# Lockstep estimator state
# ---------------------------------------------------------------------------


def burn_in_schedule(K: int, m0: int, rng: Generator) -> np.ndarray:
    """Uniformly random permutation of the multiset {1^m0, ..., K^m0} (0-based)."""
    if m0 < 1:
        raise ValueError(f"m0 must be >= 1, got {m0}")
    return rng.permutation(np.repeat(np.arange(K), m0))


_GROUPED, _ROWS, _LSE = 0, 1, 2


# Logistic refits of each (replicate, arm), by kind: closed-form refits, IRLS
# fits, their Newton iterations, and IRLS fits that stopped at the iteration
# limit or on a singular Newton system.  The IRLS counters are per-cell arrays
# of ``_Lockstep`` of the same name; the closed-form refits are the rest of a
# grouped cell's refits (:meth:`_Lockstep.refit_counts`).
REFIT_COUNTERS = ("closed_form", "irls_fits", "irls_iterations", "irls_nonconverged",
                  "irls_singular")
_IRLS_COUNTERS = REFIT_COUNTERS[1:]


class _Lockstep:
    """Estimates and sufficient statistics of B replicates of one design.

    Per-arm quantities are kept per cell ``c = b * K + k`` (replicate b, arm
    k), so that the cells one patient touches are a flat index; the joint
    shared-slope fit is kept per replicate.  Each cell keeps the estimate
    its last refit asked for in ``raw`` beside its estimate ``theta``, and
    :attr:`projected` is read off the two.  :meth:`patient` admits one
    patient to every replicate; what it only reports is derived when read
    (module docstring).
    """

    _PER_CELL = ("theta", "raw", "converged", "fail", "counts", "trials", "succ", "gram", "moment",
                 "solvable") + _IRLS_COUNTERS
    _PER_REPLICATE = ("joint_gram", "joint_moment", "joint_inv", "formed")

    def __init__(self, model: TrialModel, rule: AllocationRule, m0: int,
                 opts: EngineOptions, B: int):
        K, d = model.K, model.d
        if m0 < d + 1:
            raise ValueError(f"m0 must be at least d + 1 = {d + 1}, got {m0}")
        self.model, self.opts = model, opts
        self.K, self.m0 = K, m0
        self._use(rule)
        self.burn = K * m0
        self.B = B
        self.m = 0  # patients admitted to every replicate
        enum = model.covariates.enumerated()
        self.support = enum[0] if enum is not None else None

        C = B * K
        self.lo = np.tile(model.box_lo, (B, 1))
        self.hi = np.tile(model.box_hi, (B, 1))
        self.theta = 0.5 * (self.lo + self.hi)
        self.raw = self.theta.copy()  # what each cell's last refit asked for, before the box
        self.converged = np.zeros(C, dtype=bool)
        self.fail = np.zeros(C, dtype=int)
        (self.irls_fits, self.irls_iterations, self.irls_nonconverged,
         self.irls_singular) = np.zeros((len(_IRLS_COUNTERS), C), dtype=np.int64)

        # How each arm refits: from support counts (_GROUPED), from its rows
        # (_ROWS) or from normal equations (_LSE); shared slopes fit jointly.
        self.joint = model.shared_slopes
        self.arm_kind = np.where(model.logistic,
                                 _GROUPED if self.support is not None else _ROWS, _LSE)
        self.kinds = np.unique(self.arm_kind).tolist()
        self.grouped = _GROUPED in self.kinds
        self.rowwise = _ROWS in self.kinds
        self.lse = not self.joint and _LSE in self.kinds
        # Two grouped arms refit in closed form on whole arrays (_fit_grouped).
        self.whole = self.kinds == [_GROUPED] and K == 2
        if self.support is not None:
            # Patients per (cell, support point), and the successes that
            # grouped logistic arms refit from.  Without such arms no refit
            # reads the counts, so patients' support points are added a
            # block at a time (_fold).
            self.trials = np.zeros((C, self.support.shape[0]))
            self._points = []
        if self.grouped:
            self.succ = np.zeros((C, self.support.shape[0]))
            # Beside other kinds of arm, only the grouped arms' responses are
            # successes (None: every arm is grouped).
            self._succ_arms = None if self.kinds == [_GROUPED] else self.arm_kind == _GROUPED
        # Patients per cell, where the support counts do not give them.
        self.counts = np.zeros(C, dtype=np.int64) if self.support is None else None
        if self.rowwise:
            # The row store: cell c's rows are columns c * cap onwards of
            # (response, covariates), the block the IRLS core reads.
            self.cap = 64
            self.rows = np.empty((1 + d, C * self.cap))
        if self.lse:
            self.gram = np.zeros((C, d, d))
            self.moment = np.zeros((C, d))
            self.solvable = np.zeros(C, dtype=bool)  # a Gram matrix once within COND_MAX
        if self.joint:
            # Coefficients of the joint fit that make up theta, row by row.
            self.joint_cols = model.param_cols.ravel()
            P = model.n_params
            self.joint_gram = np.zeros((B, P, P))
            self.joint_moment = np.zeros((B, P))
            # Zero until formed, so that the rank-one updates leave it zero.
            self.joint_inv = np.zeros((B, P, P))
            self.formed = np.zeros(B, dtype=bool)
            self.n_formed = 0
            self.onehot = np.eye(K, P)  # arm indicators of the joint design row

        # With as many support points as coefficients (intercept-only
        # logistic regression is the case of one) the model is saturated: the
        # MLE solves X theta = logit(s / t) exactly, and the iterative fit can
        # be skipped.
        self.sat_inv = None
        if (self.support is not None and self.support.shape[0] == self.support.shape[1]
                and np.linalg.cond(self.support) < 1e8):
            self.sat_inv = np.linalg.inv(self.support)
        self._first_cell = np.arange(B) * K
        # The refit path: the joint fit, the fit of the one kind of arm, or the split by
        # kind; a function, not a bound method, so that take() copies it as it is.
        self._refit = (_Lockstep._refit_joint if self.joint else self._FITS[self.kinds[0]]
                       if len(self.kinds) == 1 else _Lockstep._refit_by_kind)
        self._views()
        # What take() copies: the design's arrays, and whether each is per cell.
        self._arrays = {name: name in self._PER_CELL for name in self._PER_CELL
                        + self._PER_REPLICATE if getattr(self, name, None) is not None}

    def _use(self, rule: AllocationRule) -> None:
        """Allocate by ``rule`` from now on, through its kernel, looked up once."""
        check_rule(rule, self.K)
        self.rule, self._pi = rule, _KERNELS[rule.kind, rule.g_name]

    def _views(self) -> None:
        """Bind views of the state's own arrays: the estimates and the flat support counts."""
        self._theta3 = self.theta.reshape(self.B, self.K, self.model.d)
        if self.grouped:
            self._trials_at, self._succ_at = self.trials.reshape(-1), self.succ.reshape(-1)

    def take(self, row: int) -> "_Lockstep":
        """A copy that holds only replicate ``row``."""
        K = self.K
        if self.support is not None:
            self._fold()
        new = object.__new__(_Lockstep)
        new.__dict__ = state = dict(self.__dict__)
        one = self.B == 1  # a state of one replicate is copied whole
        cells, reps = slice(row * K, (row + 1) * K), slice(row, row + 1)
        for name, per_cell in self._arrays.items():
            value = state[name]
            state[name] = (value if one else value[cells if per_cell else reps]).copy()
        if self.support is not None:
            new._points = []
        if self.rowwise:
            width = K * self.cap
            new.rows = (self.rows if one else self.rows[:, row * width:(row + 1) * width]).copy()
        if not one:
            new.B = 1
            # Every replicate has the same box, which no refit writes.
            new.lo, new.hi = self.lo[:K], self.hi[:K]
            new._first_cell = self._first_cell[:1]
            if self.joint:
                new.n_formed = int(new.formed.sum())
        new._views()  # the copy's, not its source's
        return new

    def estimates(self) -> np.ndarray:
        """Current estimates, (B, K, d)."""
        return self._theta3

    @property
    def projected(self) -> np.ndarray:
        """Per cell: whether the box moved its last refit (with shared
        slopes: some cell of its replicate's)."""
        off = self.theta != self.raw
        if self.joint:
            return fold_columns(np.logical_or, off.reshape(self.B, -1)).repeat(self.K)
        return fold_columns(np.logical_or, off)

    def _fold(self) -> None:
        """Add the support points that wait in ``_points`` to the support counts."""
        if self._points:
            self.trials += np.bincount(np.concatenate(self._points),
                                       minlength=self.trials.size).reshape(self.trials.shape)
            self._points = []

    def support_counts(self) -> np.ndarray:
        """Patients per arm and support point, (B, K, S)."""
        self._fold()
        return self.trials.reshape(self.B, self.K, -1).astype(np.int64)

    def refit_counts(self) -> dict[str, np.ndarray]:
        """Logistic refits so far, by counter (``REFIT_COUNTERS``), as (B, K)
        arrays.  A grouped cell refits once at the end of burn-in and once
        per patient after it, by IRLS or else in closed form."""
        counts = {name: getattr(self, name).reshape(self.B, self.K).copy()
                  for name in _IRLS_COUNTERS}
        grouped = (self.arm_kind == _GROUPED) & (not self.joint)
        closed_form = np.where(grouped, self.arm_counts() - self.m0 + 1 - counts["irls_fits"], 0)
        return {"closed_form": closed_form, **counts}

    def arm_counts(self) -> np.ndarray:
        """Patients per arm, (B, K)."""
        if self.counts is None:
            return self.support_counts().sum(axis=2)
        return self.counts.reshape(self.B, self.K).copy()

    # -- one patient ---------------------------------------------------------

    def patient(self, x: np.ndarray, six: np.ndarray | None, u_assign: np.ndarray | None,
                responses: np.ndarray, arm: np.ndarray | None = None):
        """Admit one patient to every replicate; returns (arm, psi, y).

        ``x`` (B, d) and ``six`` (B,) are the covariates and their support
        indices (None off a finite support), and ``responses`` (B, K) every
        arm's response.  During burn-in ``arm`` holds the scheduled arms and
        psi is None; afterwards the rule at the current estimates and the
        uniforms ``u_assign`` choose them: the arm is the first whose
        cumulative probability exceeds u, accumulated left to right.
        """
        psi = None
        if arm is None:
            psi = self._pi(self.rule, self._theta3, x)
            acc = psi[:, 0]
            arm = (u_assign >= acc).astype(np.intp)
            for j in range(1, self.K - 1):
                acc = acc + psi[:, j]
                arm += u_assign >= acc
        cell = self._first_cell + arm
        y = responses.reshape(-1)[cell]
        self._observe(x, six, arm, cell, y)
        self.m += 1
        if self.m > self.burn:
            self._refit(self, cell)
        elif self.m == self.burn:
            # Every arm is estimated once at the end of burn-in; afterwards
            # each patient refits the cell it joined.
            self._refit(self, np.arange(self.theta.shape[0]))
        return arm, psi, y

    def _observe(self, x, six, arm, cell, y) -> None:
        if self.support is not None:
            point = cell * self.trials.shape[1] + six  # flat: cheaper than [cell, six]
            if self.grouped:
                np.add.at(self._trials_at, point, 1.0)
                succ = y if self._succ_arms is None else np.where(self._succ_arms[arm], y, 0.0)
                np.add.at(self._succ_at, point, succ)
            else:
                self._points.append(point)
                if len(self._points) == _DRAW_BLOCK:
                    self._fold()
        if self.counts is not None:
            at = self.counts[cell]
            self.counts[cell] = at + 1
        if self.rowwise:
            cap = self.cap
            if self.m >= cap and at.max() == cap:
                # Double every cell's room, keeping its rows.
                grown = np.empty((self.rows.shape[0], self.theta.shape[0], 2 * cap))
                grown[:, :, :cap] = self.rows.reshape(grown.shape[0], -1, cap)
                cap *= 2
                self.rows, self.cap = grown.reshape(grown.shape[0], -1), cap
            column = cell * cap + at
            self.rows[0, column] = y
            self.rows[1:, column] = x.T
        if self.lse:
            self.gram[cell] += x[:, :, None] * x[:, None, :]
            self.moment[cell] += y[:, None] * x
        if self.joint:
            eta = self.onehot.take(arm, 0)  # cheaper than self.onehot[arm]
            eta[:, self.K:] = x[:, 1:]
            if self.n_formed < self.B:
                # Once a replicate's inverse is formed only the inverse is
                # read, so the Gram matrices stop when every one is.
                self.joint_gram += eta[:, :, None] * eta[:, None, :]
            self.joint_moment += y[:, None] * eta
            if self.n_formed:
                v = (self.joint_inv @ eta[:, :, None])[:, :, 0]
                denom = 1.0 + (eta[:, None, :] @ v[:, :, None])[:, 0, 0]
                self.joint_inv -= v[:, :, None] * (v / denom[:, None])[:, None, :]

    # -- refits --------------------------------------------------------------

    def _refit_by_kind(self, cells: np.ndarray) -> None:
        """Refit the cells kind by kind, in ascending order (the split costs about
        5 us, so a design with one kind of arm refits without it)."""
        kinds = self.arm_kind[cells % self.K]
        for kind in self.kinds:
            of_kind = cells[kinds == kind]
            if of_kind.size:
                self._FITS[kind](self, of_kind)

    def _store(self, cells, raw, converged, failed) -> None:
        """Write refits of ``cells`` (indices, or a slice of every cell): the
        unclipped estimates ``raw`` and, in ``theta``, their clamp to the box
        (module docstring); the cells flagged in ``failed`` (None: none can
        fail) keep their estimates in both.  Checking for a failure first
        saves about 2 us."""
        theta = np.minimum(np.maximum(raw, self.lo[cells]), self.hi[cells])
        if failed is not None and np.logical_or.reduce(failed):
            self.fail[cells[failed]] += 1
            theta[failed] = raw[failed] = self.theta[cells[failed]]
        self.converged[cells] = converged
        self.raw[cells] = raw
        self.theta[cells] = theta

    def _irls(self, cells, rows, trials, sizes) -> None:
        """Refit the cells in place by one batched IRLS on their rows (cell
        i owns ``sizes[i]`` consecutive columns of ``rows``, successes and
        covariates, and of ``trials``), warm-started at their current
        estimates (which every refit leaves in the box), without the
        conditioning guard; each writes ``raw`` and ``theta``, and a fit that
        fails keeps the estimate in both.  One cell is fitted by the
        batch-of-one core and written by scalar index (module docstring)."""
        if cells.size == 1:
            c = cells[0]
            raw, converged, iterations, singular = fit_one_cell(rows, trials, self.theta[c], False)
            self.raw[c] = raw  # a singular fit returns its start, the estimate it keeps
            self.theta[c] = np.minimum(np.maximum(raw, self.lo[c]), self.hi[c])
            self.converged[c] = converged
            self.irls_fits[c] += 1
            self.irls_iterations[c] += iterations
            if not converged:  # a singular fit has not converged
                self.fail[c] += singular
                self.irls_nonconverged[c] += not singular
                self.irls_singular[c] += singular
            return
        raw, converged, iterations, singular = fit_logistic_cells(rows, trials, sizes,
                                                                  self.theta[cells])
        self._store(cells, raw, converged, singular)
        self.irls_fits[cells] += 1
        self.irls_iterations[cells] += iterations
        if not np.logical_and.reduce(converged):
            self.irls_nonconverged[cells] += ~converged & ~singular
            self.irls_singular[cells] += singular

    def _fit_grouped(self, cells) -> None:
        if self.sat_inv is None:
            self._irls_grouped(cells)
            return
        # Every cell on whole arrays, or the joined cells (module docstring).
        whole = self.whole
        rows = slice(None) if whole else cells
        t, s = (self.trials, self.succ) if whole else (self.trials[cells], self.succ[cells])
        # A group without both outcomes has a logit of +-inf, which the box
        # clamps.  A zero entry of S^-1 times such a logit gives NaN in the
        # product; those cells are summed again without the zero terms.
        logit = np.log(s / (t - s))
        raw = (self.sat_inv @ logit[:, :, None])[:, :, 0]
        if not math.isnan(np.add.reduce(raw, None)):  # no NaN, nor +inf and -inf in the sum
            if whole:  # every cell is refit, and converges
                np.minimum(np.maximum(raw, self.lo), self.hi, out=self.theta)
                self.raw = raw
                self.converged.fill(True)
                return
        else:
            nan = fold_columns(np.logical_or, np.isnan(raw))
            terms = self.sat_inv * logit[nan][:, None, :]
            raw[nan] = np.where(self.sat_inv != 0.0, terms, 0.0).sum(axis=2)
            nan = fold_columns(np.logical_or, np.isnan(raw))
            if nan.any():
                # Where a coefficient is still NaN (inf - inf, or an empty
                # group) the closed form says nothing: IRLS fits the joined
                # cells, and the others keep their estimates.
                stale = nan[cells] if whole else nan
                if stale.any():
                    self._irls_grouped(cells[stale])
                rows, raw = np.arange(self.theta.shape[0])[rows][~nan], raw[~nan]
        self._store(rows, raw, True, None)

    def _irls_grouped(self, cells) -> None:
        """IRLS on the cells' counts at the support points."""
        S = self.support.shape[0]
        rows = np.empty((1 + self.model.d, cells.size * S))
        rows[0] = self.succ[cells].ravel()
        rows[1:] = np.tile(self.support.T, cells.size)
        self._irls(cells, rows, self.trials[cells].ravel(), np.full(cells.size, S))

    def _fit_rows(self, cells) -> None:
        # The cells' columns of the row store, in one gather (a view for one
        # cell); the slots past each cell's count are never read.
        cap = self.cap
        if cells.size == 1:
            c = cells[0]
            self._irls(cells, self.rows[:, c * cap:c * cap + self.counts[c]], None, None)
            return
        sizes = self.counts[cells]
        ends = sizes.cumsum()
        columns = np.arange(ends[-1]) + (cells * cap - ends + sizes).repeat(sizes)
        self._irls(cells, self.rows.take(columns, axis=1), None, sizes)

    def _fit_lse(self, cells) -> None:
        # As in the joint fit, a cell is solved from the first refit where its
        # Gram matrix is well conditioned; until then it fails and keeps its
        # estimate.
        fresh = cells[~self.solvable[cells]]
        if fresh.size:
            self.solvable[fresh] = np.linalg.cond(self.gram[fresh]) <= COND_MAX
        sol = solve_stack(self.gram[cells], self.moment[cells])
        converged = self.solvable[cells] & np.all(np.isfinite(sol), axis=1)
        self._store(cells, sol, converged, ~converged)

    _FITS = (_fit_grouped, _fit_rows, _fit_lse)  # the refit of each kind of arm

    def _refit_joint(self, cells) -> None:  # every replicate, whatever cells were joined
        B, K = self.B, self.K
        if self.m >= self.joint_gram.shape[1] and self.n_formed < B:
            # Invert the Gram matrix at the first refit where it is solvable.
            todo = np.flatnonzero(~self.formed)
            idx = todo[np.linalg.cond(self.joint_gram[todo]) <= COND_MAX]
            self.joint_inv[idx] = np.linalg.inv(self.joint_gram[idx])
            self.formed[idx] = True
            self.n_formed += idx.size
        coef = (self.joint_inv @ self.joint_moment[:, :, None])[:, :, 0]
        theta = coef.take(self.joint_cols, 1)  # (B, K * d): arm k's row is (mu_k, slopes)
        raw = theta.reshape(self.theta.shape)
        if self.n_formed == B and math.isfinite(np.add.reduce(coef, None)):
            # Every fit stands: no masks.
            np.minimum(np.maximum(theta, self.lo.reshape(B, -1)), self.hi.reshape(B, -1),
                       out=self.theta.reshape(B, -1))
            self.raw = raw
            self.converged.fill(True)
            return
        # Every arm of a replicate shares its fit's fate.
        ok = (self.formed & np.isfinite(coef).all(axis=1)).repeat(K)
        self._store(np.arange(B * K), raw, ok, ~ok)


# ---------------------------------------------------------------------------
# Public driver operations
# ---------------------------------------------------------------------------


# Patients whose uniforms are drawn from each stream in one call.
_DRAW_BLOCK = 256


class _Record:
    """The per-patient arrays of B trials, one row per replicate, under the
    names of the history fields they become, with room for ``cap`` patients
    of which the first ``used`` are written (histories view their first n);
    with ``history`` (a batch of one), those are copies of the history's."""

    def __init__(self, state: _Lockstep, cap: int, history: TrialHistory | None = None):
        B, K, d = state.B, state.K, state.model.d
        stride = state.opts.theta_stride
        self.covariates = np.empty((B, cap, d))
        self.arms = np.empty((B, cap), dtype=np.int64)
        self.probs = np.empty((B, cap, K))
        self.responses = np.empty((B, cap))
        self.theta_records = np.empty((B, cap // stride, K, d))
        self.record_ms = _freeze(np.arange(stride, cap + 1, stride))
        # Read-only views of the arrays, whose slices the histories take, and
        # patient-major views, which the patient loop indexes faster.
        self.views = [_freeze(a.view()) for a in (self.covariates, self.arms, self.probs,
                                                 self.responses, self.theta_records)]
        self.by_patient = (self.arms.T, self.responses.T, self.probs.transpose(1, 0, 2),
                           self.theta_records.transpose(1, 0, 2, 3))
        self.used = 0
        if history is None:
            self.probs[:, :state.burn] = 1.0 / K
            return
        m = self.used = history.n
        self.covariates[0, :m] = history.covariates
        self.arms[0, :m] = history.arms
        self.probs[0, :m] = history.probs
        self.responses[0, :m] = history.responses
        self.theta_records[0, :len(history.theta_records)] = history.theta_records

    def histories(self, state: _Lockstep, streams: list[TrialStreams]) -> tuple[TrialHistory, ...]:
        """Each replicate's history of the ``used`` patients, whose
        per-patient arrays are read-only views of its row of the record;
        ``state`` keeps the record (:func:`step`)."""
        state.record = self
        B, K, n = state.B, state.K, self.used
        record_ms = self.record_ms[:n // state.opts.theta_stride]
        r = len(record_ms)
        covariates, arms, probs, responses, theta_records = self.views
        theta = state.estimates()
        flags = [a.reshape(B, K) for a in (state.converged, state.projected, state.fail)]
        return tuple([
            TrialHistory._of(
                n=n, m0=state.m0, K=K, d=state.model.d, covariates=covariates[i, :n],
                arms=arms[i, :n], probs=probs[i, :n], responses=responses[i, :n],
                theta_records=theta_records[i, :r], record_ms=record_ms,
                current_theta=theta[i].copy(),
                converged=flags[0][i].copy(), projected=flags[1][i].copy(),
                fit_failures=flags[2][i].copy(), seed_entropy=streams[i].root.entropy,
                seed_spawn_key=tuple(streams[i].root.spawn_key), engine_state=state,
                engine_row=i)
            for i in range(B)])


# Closed-form logits of groups without both outcomes are not finite, and a
# singular Newton or normal-equation system sets the invalid flag.
@solve_errstate()
def _admit(state: _Lockstep, streams: list[TrialStreams], stop: int,
           schedule: np.ndarray | None, record: _Record | None) -> None:
    """The patient loop: admit patients ``state.m`` to ``stop - 1`` to every
    replicate (replicate b draws from ``streams[b]``) and write them into
    ``record`` (None: keep no history).  ``schedule`` (B, K * m0) holds the
    burn-in arms, which only a run from the first patient reads."""
    model, B, burn = state.model, state.B, state.burn
    spec = model.covariates
    q = spec.uniforms_per_draw
    stride = state.opts.theta_stride
    if record is not None:
        arms, responses, probs, thetas = record.by_patient
    for start in range(state.m, stop, _DRAW_BLOCK):
        end = min(stop, start + _DRAW_BLOCK)
        c = end - start
        first = max(start, burn)
        # Each stream's uniforms for patients start..end-1, a row per
        # replicate, then patient-major.
        u = np.empty((B, c, q))
        u_resp = np.empty((B, c))
        u_assign = np.empty((B, max(end - first, 0)))
        for b, s in enumerate(streams):
            s.covariate.random(out=u[b])
            s.response.random(out=u_resp[b])
            s.assignment.random(out=u_assign[b])
        xs, sixs = spec.from_uniforms(u.transpose(1, 0, 2).reshape(c * B, q))
        ys = responses_from_uniforms(model.logistic, model.dispersion, model.true_theta,
                                     xs, u_resp.T.reshape(-1))
        xs, ys, u_assign = xs.reshape(c, B, -1), ys.reshape(c, B, -1), u_assign.T
        if sixs is not None:
            sixs = sixs.reshape(c, B)
        for m in range(start, end):
            i = m - start
            six = sixs[i] if sixs is not None else None
            if m < burn:
                k, psi, y = state.patient(xs[i], six, None, ys[i], arm=schedule[:, m])
            else:
                k, psi, y = state.patient(xs[i], six, u_assign[m - first], ys[i])
            if record is not None:
                arms[m] = k
                responses[m] = y
                if psi is not None:
                    probs[m] = psi
                if (m + 1) % stride == 0:
                    thetas[m // stride] = state._theta3
        if record is not None:
            record.covariates[:, start:end] = xs.transpose(1, 0, 2)
            record.used = end


@dataclass(frozen=True)
class TrialBatch:
    """Outcomes of trials run in lockstep by :func:`run_trials`, one row per seed."""

    counts: np.ndarray  # (B, K) patients per arm
    theta: np.ndarray  # (B, K, d) estimates after the last patient
    support_counts: np.ndarray | None  # (B, K, S) patients per arm and support point
    histories: tuple[TrialHistory, ...] | None
    refit_counts: dict[str, np.ndarray]  # (B, K) logistic refits per REFIT_COUNTERS entry


def run_trials(model: TrialModel, rule: AllocationRule, n: int, m0: int, seeds,
               opts: EngineOptions = EngineOptions(), histories: bool = True) -> TrialBatch:
    """Run one trial of ``n`` patients per seed, all in lockstep.

    ``seeds`` holds integers, seed sequences or ``TrialStreams``; each
    trial is bit for bit :func:`run_trial` with its seed, whatever the other
    seeds are.  Per-patient histories are kept only with ``histories``.
    """
    if n < model.K * m0:
        raise ValueError(f"n = {n} is smaller than the burn-in size K * m0 = {model.K * m0}")
    streams = [s if isinstance(s, TrialStreams) else streams_for_trial(s) for s in seeds]
    if not streams:
        raise ValueError("run_trials needs at least one seed")
    state = _Lockstep(model, rule, m0, opts, len(streams))
    schedule = np.stack([burn_in_schedule(model.K, m0, s.assignment) for s in streams])
    record = _Record(state, n) if histories else None
    _admit(state, streams, n, schedule, record)
    return TrialBatch(
        counts=state.arm_counts(), theta=state.estimates().copy(),
        support_counts=state.support_counts() if state.support is not None else None,
        histories=record.histories(state, streams) if histories else None,
        refit_counts=state.refit_counts())


def bytes_per_patient(model: TrialModel, histories: bool) -> int:
    """Bytes per replicate and patient, at most, of what :func:`run_trials`
    keeps that grows with n: the per-patient histories (with ``histories``,
    at stride 1: each patient's covariates, arm, allocation probabilities,
    response and estimates, and ``record_ms``, which the histories of a batch
    share) and the row store that logistic arms on a continuous covariate
    refit from (each arm's response and covariates, with room for twice its
    patients once it holds more than 32)."""
    K, d = model.K, model.d
    total = 8 * (d + K + 3 + K * d) if histories else 0  # covariates, psi, arm, y, m, estimate
    if model.covariates.enumerated() is None and any(a.family == "logistic" for a in model.arms):
        total += 16 * K * (d + 1)
    return total


def run_trial(model: TrialModel, rule: AllocationRule, n: int, m0: int,
              seed: int | SeedSequence | TrialStreams,
              opts: EngineOptions = EngineOptions()) -> TrialHistory:
    """Run one trial of ``n`` patients and return its immutable history.

    ``seed`` may be an integer, a seed sequence, or already-built
    ``TrialStreams`` (the latter lets a caller continue consuming the same
    streams afterwards, e.g. through :func:`step`: the trial takes exactly
    the uniforms its n patients use).
    """
    return run_trials(model, rule, n, m0, [seed], opts).histories[0]


def _same(a, b) -> bool:
    """Equality of models and their parts, comparing arrays by value."""
    if a is b:
        return True
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if is_dataclass(a):
        return type(a) is type(b) and all(_same(getattr(a, f.name), getattr(b, f.name))
                                          for f in fields(a) if f.compare)
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


def step(history: TrialHistory, model: TrialModel, rule: AllocationRule,
         streams: TrialStreams) -> TrialHistory:
    """Append one adaptively allocated patient to a history of :func:`run_trial`
    or :func:`step`, which has always completed burn-in.

    Runs the patient loop of :func:`run_trials` over the new patient, on a
    copy of the engine state the history carries, so the history is never
    replayed; the patient is appended to the history's record when the
    history is its last and it has room, else to a copy with room for 2 (n + 1).
    ``model`` must be the model the history was run with (its sufficient
    statistics and estimates belong to it); ``rule`` allocates the new
    patient and may differ from the one used so far.  With the same streams,
    repeatedly stepping reproduces ``run_trial`` patient for patient, on the
    record stride (``EngineOptions``) the history was run with.
    """
    if history.engine_state is None:
        raise ValueError("the history carries no engine state to resume from; only "
                         "histories from run_trial or step can be continued")
    if not _same(model, history.engine_state.model):
        raise ValueError("step() needs the model the history was run with")
    source = history.engine_state
    state = source.take(history.engine_row)
    if rule is not state.rule:
        state._use(rule)
    n = history.n
    record = source.record
    if source.B > 1 or record.used != n or record.arms.shape[1] == n:
        # Not the last history of a record of one trial with room to spare.
        record = _Record(state, 2 * (n + 1), history)
    _admit(state, [streams], n + 1, None, record)
    return record.histories(state, [streams])[0]
