import dataclasses
import json

import numpy as np
import pytest

from carasim.allocation import AllocationRule, probabilities
from carasim.engine import (
    EngineOptions,
    burn_in_schedule,
    bytes_per_patient,
    child_sequence,
    replicate_root,
    run_trial,
    run_trials,
    step,
    streams_for_trial,
)
from carasim.fixtures import bb_config, f1_config, two_point_config
from carasim.harness import parse_config
from carasim.model import ArmModel, CovariateSpec, TrialModel, Uniform

from oracles import support_index, update_all_estimates

OPTS = EngineOptions()
ODDS_RULE = AllocationRule(kind="odds-ratio")


def _f1(n=100, seed=3, **kw):
    cfg = parse_config(f1_config(n=n, replicates=1, seed=seed, **kw))
    return cfg.model, cfg.rule


def _symmetric_model():
    arm = ArmModel(family="logistic")
    return TrialModel(arms=(arm, arm), covariates=CovariateSpec.constant([1.0]),
                      true_theta=np.zeros((2, 1)), box_lo=-2.0, box_hi=2.0)


def _two_point():
    cfg = parse_config(two_point_config(n=100, replicates=1, seed=0))
    return cfg.model, cfg.rule


def _bb(box: float = 5.0):
    raw = bb_config(n=100, replicates=1, seed=0)
    raw["model"].update(box_lo=-box, box_hi=box)
    cfg = parse_config(raw)
    return cfg.model, cfg.rule


def _continuous_logit():
    arm = ArmModel(family="logistic")
    covariates = CovariateSpec.product([Uniform(-1.0, 1.0)], intercept=True)
    return (TrialModel(arms=(arm, arm), covariates=covariates,
                       true_theta=np.array([[0.8, 0.6], [-0.4, 0.3]]), box_lo=-3.0, box_hi=3.0),
            ODDS_RULE)


# ---------------------------------------------------------------------------
# Burn-in
# ---------------------------------------------------------------------------


def test_burn_in_counts_are_exact_for_every_seed():
    model, rule = _f1()
    for seed in range(10):
        hist = run_trial(model, rule, 12, 6, replicate_root(seed, 0), OPTS)
        np.testing.assert_array_equal(hist.counts(), [6, 6])


def test_burn_in_schedule_varies_with_seed():
    schedules = {tuple(burn_in_schedule(2, 3, np.random.default_rng(s)))
                 for s in range(8)}
    assert len(schedules) > 1
    for sched in schedules:
        assert sorted(sched) == [0, 0, 0, 1, 1, 1]


def test_three_arm_burn_in():
    arm = ArmModel(family="logistic")
    model = TrialModel(arms=(arm, arm, arm), covariates=CovariateSpec.constant([1.0]),
                       true_theta=np.zeros((3, 1)), box_lo=-2.0, box_hi=2.0)
    hist = run_trial(model, AllocationRule(kind="exponential", T=1.0), 6, 2,
                     replicate_root(0, 0), OPTS)
    assert hist.n == 6
    np.testing.assert_array_equal(hist.counts(), [2, 2, 2])


def test_pure_burn_in_trial_has_uniform_probabilities():
    model, rule = _f1()
    hist = run_trial(model, rule, 12, 6, replicate_root(5, 0), OPTS)
    np.testing.assert_array_equal(hist.probs, np.full((12, 2), 0.5))
    assert hist.current_theta is not None


def test_burn_in_size_validation():
    model, rule = _f1()
    with pytest.raises(ValueError):
        run_trial(model, rule, 8, 6, replicate_root(0, 0), OPTS)  # n < K m0
    with pytest.raises(ValueError):
        run_trial(model, rule, 12, 0, replicate_root(0, 0), OPTS)
    with pytest.raises(ValueError, match="at least one seed"):
        run_trials(model, rule, 12, 6, [], OPTS)


# ---------------------------------------------------------------------------
# Adaptive steps
# ---------------------------------------------------------------------------


def test_realized_probabilities_equal_rule_at_recorded_estimates():
    model, rule = _f1(n=80)
    hist = run_trial(model, rule, 80, 6, replicate_root(11, 0), OPTS)
    by_m = {int(m): hist.theta_records[r] for r, m in enumerate(hist.record_ms)}
    for i in range(model.K * 6, hist.n):
        expected = probabilities(rule, by_m[i], hist.covariates[i])
        np.testing.assert_array_equal(hist.probs[i], expected)


def test_run_twice_is_bitwise_identical():
    model, rule = _f1(n=300)
    a = run_trial(model, rule, 300, 6, replicate_root(21, 4), OPTS)
    b = run_trial(model, rule, 300, 6, replicate_root(21, 4), OPTS)
    np.testing.assert_array_equal(a.covariates, b.covariates)
    np.testing.assert_array_equal(a.arms, b.arms)
    np.testing.assert_array_equal(a.probs, b.probs)
    np.testing.assert_array_equal(a.responses, b.responses)
    np.testing.assert_array_equal(a.current_theta, b.current_theta)


def test_stepwise_execution_matches_run_trial_bitwise():
    model, rule = _f1(n=60)
    whole = run_trial(model, rule, 60, 6, replicate_root(9, 2), OPTS)
    streams = streams_for_trial(replicate_root(9, 2))
    hist = run_trial(model, rule, 40, 6, streams, OPTS)
    while hist.n < 60:
        hist = step(hist, model, rule, streams)
    np.testing.assert_array_equal(hist.covariates, whole.covariates)
    np.testing.assert_array_equal(hist.arms, whole.arms)
    np.testing.assert_array_equal(hist.probs, whole.probs)
    np.testing.assert_array_equal(hist.responses, whole.responses)
    np.testing.assert_array_equal(hist.current_theta, whole.current_theta)
    np.testing.assert_array_equal(hist.record_ms, whole.record_ms)


def test_stepwise_shared_slope_matches_run_trial_bitwise():
    # The joint least-squares fit carries its inverse Gram matrix forward by
    # rank-one updates; a resumed trial must form it at the same refit.
    cfg = parse_config(bb_config(n=305, replicates=1, seed=0))
    opts = cfg.engine_options()
    for seed in range(6):
        whole = run_trial(cfg.model, cfg.rule, 305, cfg.m0, replicate_root(seed, 0), opts)
        streams = streams_for_trial(replicate_root(seed, 0))
        hist = run_trial(cfg.model, cfg.rule, 300, cfg.m0, streams, opts)
        while hist.n < 305:
            hist = step(hist, cfg.model, cfg.rule, streams)
        np.testing.assert_array_equal(hist.probs, whole.probs)
        np.testing.assert_array_equal(hist.arms, whole.arms)
        np.testing.assert_array_equal(hist.current_theta, whole.current_theta)


def test_intercept_only_closed_form_respects_negative_covariate():
    # All-equal responses push the logit to +-inf; dividing by x < 0 flips
    # which end of the box the estimate is clamped to.
    arm = ArmModel(family="logistic")
    model = TrialModel(arms=(arm, arm), covariates=CovariateSpec.constant([-1.0]),
                       true_theta=np.zeros((2, 1)), box_lo=-2.0, box_hi=2.0)
    for seed in range(20):
        hist = run_trial(model, ODDS_RULE, 6, 3, replicate_root(seed, 0), OPTS)
        expected = update_all_estimates(hist, model).theta
        np.testing.assert_allclose(hist.current_theta, expected, rtol=0, atol=1e-9)


def test_step_requires_completed_burn_in():
    # step() resumes only histories of run_trial or step, and run_trial never
    # ends inside burn-in; a short history from elsewhere is refused.
    model, rule = _f1()
    streams = streams_for_trial(replicate_root(1, 0))
    from carasim.engine import TrialHistory

    with pytest.raises(ValueError, match="burn-in"):
        run_trial(model, rule, 11, 6, streams)
    partial = TrialHistory.from_arrays(np.ones((3, 1)), np.array([0, 1, 0]),
                                       np.zeros(3), K=2)
    with pytest.raises(ValueError):
        step(partial, model, rule, streams)


def test_step_resumes_only_histories_that_carry_engine_state():
    model, rule = _f1()
    streams = streams_for_trial(replicate_root(1, 0))
    from carasim.engine import TrialHistory

    external = TrialHistory.from_arrays(np.ones((12, 1)), np.array([0, 1] * 6), np.zeros(12),
                                        K=2, current_theta=np.zeros((2, 1)))
    with pytest.raises(ValueError, match="engine state"):
        step(external, model, rule, streams)


def test_a_history_is_frozen_and_equal_to_one_built_by_its_constructor():
    """The engine builds histories without the dataclass ``__init__``; they
    still refuse assignment, and equal and print as the constructor's."""
    from carasim.engine import TrialHistory

    model, rule = _two_point()
    streams = streams_for_trial(replicate_root(4, 0))
    hist = run_trial(model, rule, 40, 8, streams, OPTS)
    for h in (hist, step(hist, model, rule, streams)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            h.n = 7
        with pytest.raises(dataclasses.FrozenInstanceError):
            h.arms = None
        rebuilt = TrialHistory(**{f.name: getattr(h, f.name) for f in dataclasses.fields(h)})
        assert rebuilt == h and repr(rebuilt) == repr(h)
        assert not h.arms.flags.writeable and not h.record_ms.flags.writeable


def test_from_arrays_rejects_arms_and_estimates_that_do_not_fit_k():
    from carasim.engine import TrialHistory

    X, y = np.ones((4, 1)), np.zeros(4)
    with pytest.raises(ValueError, match=r"arms must lie in 0\.\.1.*from 0 to 2"):
        TrialHistory.from_arrays(X, np.array([0, 2, 1, 0]), y, K=2)
    with pytest.raises(ValueError, match="arms must lie"):
        TrialHistory.from_arrays(X, np.array([0, -1, 1, 0]), y, K=2)
    with pytest.raises(ValueError, match=r"current_theta must have shape \(K, d\) = \(2, 1\)"):
        TrialHistory.from_arrays(X, np.array([0, 1, 1, 0]), y, K=2, current_theta=np.zeros(2))
    ok = TrialHistory.from_arrays(X, np.array([0, 1, 1, 0]), y, K=2,
                                  current_theta=np.zeros((2, 1)))
    np.testing.assert_array_equal(ok.counts(), [2, 2])


@pytest.mark.parametrize("arms, covariates, responses, message", [
    ([0, 1.7, 1, 0], [1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0], "arms must be integer-valued"),
    ([0, np.nan, 1, 0], [1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0], "arms must be integer-valued"),
    ([0, 1, 1, 0], [1.0, np.nan, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0], "covariates must be finite"),
    ([0, 1, 1, 0], [1.0, 1.0, np.inf, 1.0], [0.0, 1.0, 0.0, 1.0], "covariates must be finite"),
    ([0, 1, 1, 0], [1.0, 1.0, 1.0, 1.0], [0.0, np.nan, 0.0, 1.0], "responses must be finite"),
], ids=["fractional-arm", "nan-arm", "nan-covariate", "inf-covariate", "nan-response"])
def test_from_arrays_rejects_values_it_cannot_store_faithfully(arms, covariates, responses,
                                                                message):
    """External data is refused, naming the argument, where storing it would
    change it (a fractional arm truncated to an integer) or poison every
    plug-in sum (a covariate or response that is not finite)."""
    from carasim.engine import TrialHistory

    with pytest.raises(ValueError, match=message):
        TrialHistory.from_arrays(np.array(covariates)[:, None], np.array(arms), np.array(responses),
                                 K=2)


_HISTORY_FIELDS = ("covariates", "arms", "probs", "responses", "theta_records", "record_ms",
                   "current_theta", "converged", "projected", "fit_failures")


def _snapshot(hist) -> dict:
    """Copies of a history's fields, its refit counts and its engine state's
    support counts, or the rows of its logistic arms off a finite support."""
    out = {name: getattr(hist, name).copy() for name in _HISTORY_FIELDS}
    out.update(hist.refit_counts())
    state = hist.engine_state
    if state.support is not None:
        out["support_counts"] = hist.support_counts()
    elif state.rowwise:
        cells = range(hist.engine_row * state.K, (hist.engine_row + 1) * state.K)
        out["rows"] = np.hstack([state.rows[:, c * state.cap:c * state.cap + state.counts[c]]
                                 for c in cells])
    return out


def _assert_same_snapshot(a: dict, b: dict):
    assert a.keys() == b.keys()
    for name in a:
        if a[name] is None or b[name] is None:
            assert a[name] is None and b[name] is None, name
        else:
            np.testing.assert_array_equal(a[name], b[name], err_msg=name)


@pytest.mark.parametrize("design", [_f1, _two_point, _bb, _continuous_logit],
                         ids=["f1", "two-point", "bb", "continuous-logit"])
def test_stepping_leaves_the_history_it_resumes_unchanged(design):
    model, rule = design()
    streams = streams_for_trial(replicate_root(12, 0))
    hist = step(run_trial(model, rule, 40, 6, streams, OPTS), model, rule, streams)
    before = _snapshot(hist)
    # Two continuations of one history, from streams in the same state, each
    # stepped twice.
    children = []
    for _ in range(2):
        streams = streams_for_trial(replicate_root(12, 0))
        run_trial(model, rule, 41, 6, streams, OPTS)
        child = step(hist, model, rule, streams)
        children.append((child, _snapshot(child), _snapshot(step(child, model, rule, streams))))
    _assert_same_snapshot(_snapshot(hist), before)
    assert hist.n == 41 and children[0][0].n == children[1][0].n == 42
    for i in range(1, 3):
        _assert_same_snapshot(children[0][i], children[1][i])
    # A child is unchanged by its own continuation.
    _assert_same_snapshot(_snapshot(children[0][0]), children[0][1])


def test_step_allocates_the_new_patient_by_the_rule_it_is_given():
    model, rule = _f1(n=40)
    whole = _snapshot(run_trial(model, rule, 41, 6, replicate_root(5, 0), OPTS))
    # A rule of the odds-ratio rule's kernel (the softmax) and one of another.
    for other in (AllocationRule(kind="exponential", T=3.0),
                  AllocationRule(kind="two-arm-g-difference", T=0.5)):
        streams = streams_for_trial(replicate_root(5, 0))
        hist = run_trial(model, rule, 40, 6, streams, OPTS)
        stepped = step(hist, model, other, streams)
        x = stepped.covariates[-1]
        np.testing.assert_array_equal(stepped.probs[-1],
                                      probabilities(other, hist.current_theta, x))
        assert not np.allclose(stepped.probs[-1], probabilities(rule, hist.current_theta, x))
        # The child keeps allocating by the rule it was given ...
        further = step(stepped, model, other, streams)
        np.testing.assert_array_equal(
            further.probs[-1], probabilities(other, stepped.current_theta, further.covariates[-1]))
        # ... and the history it came from by its own.
        streams = streams_for_trial(replicate_root(5, 0))
        run_trial(model, rule, 40, 6, streams, OPTS)
        _assert_same_snapshot(_snapshot(step(hist, model, rule, streams)), whole)
    # Rows of a batch of 8, stepped one after another: each step counts its
    # patient in its own copy of the batch's state.
    seeds = [replicate_root(5, i) for i in range(8)]
    streams = [streams_for_trial(seed) for seed in seeds]
    batch = run_trials(model, rule, 40, 6, streams, OPTS)
    for i in (3, 0):
        _assert_same_snapshot(_snapshot(step(batch.histories[i], model, rule, streams[i])),
                              _snapshot(run_trial(model, rule, 41, 6, seeds[i], OPTS)))


def test_step_needs_the_model_the_history_was_run_with():
    model, rule = _f1(n=40)
    streams = streams_for_trial(replicate_root(5, 0))
    hist = run_trial(model, rule, 40, 6, streams, OPTS)
    wider = TrialModel(arms=model.arms, covariates=model.covariates, true_theta=model.true_theta,
                       box_lo=model.box_lo - 1.0, box_hi=model.box_hi)
    with pytest.raises(ValueError, match="model the history was run with"):
        step(hist, wider, rule, streams)
    # An equal model built anew is the same model.
    again, _ = _f1(n=40)
    assert again is not model
    assert step(hist, again, rule, streams).n == 41


@pytest.mark.parametrize("stride", [1, 3])
def test_each_history_of_a_batch_can_be_stepped(stride):
    # Replicate i of the batch resumes from row i of the batch's engine state
    # and record; at stride 3 the stepped patient 31 is not recorded, and the
    # next one is.
    model, rule = _f1(n=30)
    opts = EngineOptions(theta_stride=stride)
    streams = [streams_for_trial(replicate_root(8, i)) for i in range(3)]
    batch = run_trials(model, rule, 30, 6, streams, opts)
    for i, (hist, s) in enumerate(zip(batch.histories, streams)):
        stepped = hist
        for n in (31, 32, 33):
            stepped = step(stepped, model, rule, s)
            whole = run_trial(model, rule, n, 6, replicate_root(8, i), opts)
            for name in _HISTORY_FIELDS:
                a, b = getattr(stepped, name), getattr(whole, name)
                np.testing.assert_array_equal(a, b, err_msg=f"{name} of replicate {i} at n = {n}")
            for name, counts in stepped.refit_counts().items():
                np.testing.assert_array_equal(counts, whole.refit_counts()[name], err_msg=name)


def test_a_normal_arm_whose_gram_matrix_is_rank_deficient_fails_soft():
    """Burn-in can give a per-arm least-squares cell a single support point.
    Its Gram matrix is then rank deficient, and with coordinates that are not
    exact in binary it is not exactly singular either: the cell must fail as
    a singular one does, keeping the box midpoint, unconverged, with one
    failure, and not report an arbitrary solution as converged."""
    arm = ArmModel(family="normal-linear")
    model = TrialModel(arms=(arm, arm),
                       covariates=CovariateSpec.discrete([[1.0, 0.3], [1.0, 0.7]], [0.5, 0.5]),
                       true_theta=np.array([[0.5, 0.2], [0.0, 0.4]]), box_lo=-5.0, box_hi=5.0)
    rule = AllocationRule(kind="exponential", T=1.0)
    batch = run_trials(model, rule, 6, 3, range(200), OPTS)
    one_point = 0
    for seed, hist in enumerate(batch.histories):
        for k in range(2):
            if np.unique(support_index(model, hist.covariates)[hist.arms == k]).size == 1:
                one_point += 1
                np.testing.assert_array_equal(hist.current_theta[k], [0.0, 0.0])
                assert not hist.converged[k] and hist.fit_failures[k] == 1, (seed, k)
            else:
                assert hist.converged[k] and hist.fit_failures[k] == 0, (seed, k)
    assert one_point > 0
    # A batch of one agrees.  The cell fails at each refit until it has seen
    # both points, and is solved from then on.
    streams = streams_for_trial(4)
    hist = run_trial(model, rule, 6, 3, streams, OPTS)
    np.testing.assert_array_equal(hist.current_theta, batch.histories[4].current_theta)
    while np.unique(support_index(model, hist.covariates)[hist.arms == 1]).size == 1:
        hist = step(hist, model, rule, streams)
    assert hist.arms[-1] == 1 and hist.converged[1]
    # One failure at the end of burn-in (the arm's m0 = 3 patients), and one
    # at each later patient of the arm before the last.
    assert hist.fit_failures[1] == 1 + np.count_nonzero(hist.arms[:-1] == 1) - 3
    assert np.all(hist.current_theta[1] != 0.0)


def test_different_replicates_differ():
    model, rule = _f1(n=200)
    a = run_trial(model, rule, 200, 6, replicate_root(33, 0), OPTS)
    b = run_trial(model, rule, 200, 6, replicate_root(33, 1), OPTS)
    assert not np.array_equal(a.responses, b.responses)


def test_child_sequence_is_stateless():
    root = replicate_root(99, 7)
    a = child_sequence(root, 2).generate_state(4)
    b = child_sequence(root, 2).generate_state(4)
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# Distributional checks
# ---------------------------------------------------------------------------


def test_symmetric_two_arm_allocation_is_balanced():
    model = _symmetric_model()
    rule = AllocationRule(kind="odds-ratio")
    seeds = [replicate_root(202, i) for i in range(500)]
    fracs = run_trials(model, rule, 400, 6, seeds, OPTS, histories=False).counts[:, 0] / 400
    assert abs(np.mean(fracs) - 0.5) <= 0.01


def test_f1_allocation_concentrates_on_target():
    # 95% band for N_1/n from the allocation CLT: 1.96 sqrt(Sigma_11 / n).
    model, rule = _f1(n=2000)
    band = 1.96 * np.sqrt(1.8125 / 2000)
    seeds = [replicate_root(404, i) for i in range(200)]
    counts = run_trials(model, rule, 2000, 6, seeds, OPTS, histories=False).counts
    inside = int(np.sum(np.abs(counts[:, 0] / 2000 - 0.75) <= band))
    assert inside >= 185


def test_late_assignment_frequency_near_target():
    model, rule = _f1(n=20000)
    hist = run_trial(model, rule, 20000, 6, replicate_root(777, 0), OPTS)
    tail = hist.arms[-2000:]
    freq = np.mean(tail == 0)
    se = np.sqrt(0.75 * 0.25 / 2000)
    assert abs(freq - 0.75) <= 3.0 * se


def test_conditional_proportions_track_rule():
    cfg = parse_config(two_point_config(n=4000, replicates=1, seed=6))
    hist = run_trial(cfg.model, cfg.rule, cfg.n, cfg.m0, replicate_root(6, 0),
                     cfg.engine_options())
    total = 0
    for x in cfg.x_list:
        mask = np.all(hist.covariates == x, axis=1)
        n_x, per_arm = int(mask.sum()), np.bincount(hist.arms[mask], minlength=hist.K)
        total += n_x
        target = probabilities(cfg.rule, cfg.model.true_theta, x)[0]
        assert abs(per_arm[0] / n_x - target) <= 0.05
    assert total == hist.n
    assert int(hist.counts().sum()) == hist.n


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_patient_csv_round_trip(tmp_path):
    model, rule = _f1(n=30)
    hist = run_trial(model, rule, 30, 6, replicate_root(15, 0), OPTS)
    path = tmp_path / "patients.csv"
    text = hist.to_patient_csv(path)
    assert path.read_text() == text
    lines = text.strip().split("\n")
    assert lines[0] == "m,x_1,arm,psi_1,psi_2,y"
    assert len(lines) == 31
    body = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    np.testing.assert_array_equal(body[:, 0], np.arange(1, 31))
    np.testing.assert_array_equal(body[:, 1], hist.covariates[:, 0])
    np.testing.assert_array_equal(body[:, 2] - 1, hist.arms)
    np.testing.assert_array_equal(body[:, 3], hist.probs[:, 0])
    np.testing.assert_array_equal(body[:, 5], hist.responses)


def test_json_summary_round_trip(tmp_path):
    model, rule = _f1(n=24)
    hist = run_trial(model, rule, 24, 6, replicate_root(15, 3), OPTS)
    path = tmp_path / "trial.json"
    hist.to_json(path)
    loaded = json.loads(path.read_text())
    assert loaded["counts"] == [int(c) for c in hist.counts()]
    assert loaded["theta_hat"]["shape"] == [2, 1]
    np.testing.assert_allclose(loaded["theta_hat"]["data"],
                               hist.current_theta.ravel())
    assert loaded["seed"]["spawn_key"] == [3]


def test_theta_stride_thins_records():
    model, rule = _f1(n=60)
    dense = run_trial(model, rule, 60, 6, replicate_root(2, 0), OPTS)
    sparse = run_trial(model, rule, 60, 6, replicate_root(2, 0),
                       EngineOptions(theta_stride=10))
    assert sparse.record_ms.shape[0] < dense.record_ms.shape[0]
    assert np.all(sparse.record_ms % 10 == 0)
    np.testing.assert_array_equal(sparse.probs, dense.probs)





def _logistic_refits(counts: dict) -> np.ndarray:
    return counts["closed_form"] + counts["irls_fits"]


@pytest.mark.parametrize("design", [_f1, _two_point, _continuous_logit],
                         ids=["closed-form-intercept", "saturated-two-point", "irls-rows"])
def test_every_arm_is_fit_after_burn_in_and_refit_by_each_patient_it_gets(design):
    model, rule = design()
    m0, n = 4, 60
    seeds = [replicate_root(8, i) for i in range(3)]
    batch = run_trials(model, rule, n, m0, seeds, OPTS)
    np.testing.assert_array_equal(_logistic_refits(batch.refit_counts), 1 + batch.counts - m0)
    # A stepped patient refits the arm it joins, and only that arm.
    streams = streams_for_trial(seeds[0])
    hist = run_trial(model, rule, n, m0, streams, OPTS)
    stepped = step(hist, model, rule, streams)
    gained = _logistic_refits(stepped.refit_counts()) - _logistic_refits(hist.refit_counts())
    np.testing.assert_array_equal(gained, np.eye(model.K, dtype=int)[stepped.arms[-1]])


def _closed_form_flags(hist, model):
    """converged and projected of each arm's closed-form fit on the history's
    support counts: theta = S^-1 logit(s / t), where a zero entry of S^-1
    leaves out its term, clipped to the box.  The closed form must be
    defined (no IRLS fallback)."""
    K, support = model.K, model.covariates.enumerated()[0]
    t, s = np.zeros((K, support.shape[0])), np.zeros((K, support.shape[0]))
    points = support_index(model, hist.covariates)
    np.add.at(t, (hist.arms, points), 1.0)
    np.add.at(s, (hist.arms, points), hist.responses)
    sat_inv = np.linalg.inv(support)
    with np.errstate(divide="ignore", invalid="ignore"):
        logit = np.log(s / (t - s))
        raw = np.where(sat_inv != 0.0, sat_inv * logit[:, None, :], 0.0).sum(axis=2)
    assert not np.isnan(raw).any()
    return np.ones(K, dtype=bool), ((raw < model.box_lo) | (raw > model.box_hi)).any(axis=1)


def _joint_fit_flags(hist, model):
    """converged and projected of the shared-slope least-squares fit on the
    whole history: a replicate's arms share the projected flag."""
    K = model.K
    design = np.column_stack([np.eye(K)[hist.arms], hist.covariates[:, 1:]])
    coef = np.linalg.solve(design.T @ design, design.T @ hist.responses)
    theta = coef[model.param_cols]
    return (np.ones(K, dtype=bool),
            np.full(K, ((theta < model.box_lo) | (theta > model.box_hi)).any()))


@pytest.mark.parametrize("design, m0, oracle", [
    (_f1, 6, _closed_form_flags),
    (_two_point, 8, _closed_form_flags),
    # A box that cuts the true slope 1.0 close: some fits are projected.
    (lambda: _bb(box=1.05), 4, _joint_fit_flags),
], ids=["f1", "two-point", "bb"])
def test_flags_are_those_of_the_fit_on_the_final_statistics(design, m0, oracle):
    """Each history's converged and projected flags, after run_trials and
    after each of three steps, are those of a fit computed here from the
    history alone."""
    model, rule = design()
    n = model.K * m0 + 4
    seen = set()
    for B in (1, 5):
        streams = [streams_for_trial(replicate_root(4, i)) for i in range(B)]
        for hist, s in zip(run_trials(model, rule, n, m0, streams, OPTS).histories, streams):
            for _ in range(4):
                converged, projected = oracle(hist, model)
                np.testing.assert_array_equal(hist.converged, converged)
                np.testing.assert_array_equal(hist.projected, projected)
                seen.update(projected.tolist())
                hist = step(hist, model, rule, s)
    assert seen == {False, True}


@pytest.mark.parametrize("design", [_two_point, _bb], ids=["two-point", "bb"])
@pytest.mark.parametrize("n", [255, 256, 513])
def test_support_counts_are_the_patients_per_arm_and_support_point(design, n):
    """TrialBatch's support and arm counts, and those of a stepped history's
    engine state, are the bincounts of each history's (arm, support point),
    also where n is not a multiple of the engine's draw block."""
    model, rule = design()
    K, S = model.K, model.covariates.enumerated()[0].shape[0]

    def expected(hist):
        points = support_index(model, hist.covariates)
        return np.bincount(hist.arms * S + points, minlength=K * S).reshape(K, S)

    streams = [streams_for_trial(replicate_root(6, i)) for i in range(3)]
    batch = run_trials(model, rule, n, 8, streams, OPTS)
    for i, (hist, s) in enumerate(zip(batch.histories, streams)):
        np.testing.assert_array_equal(batch.support_counts[i], expected(hist))
        np.testing.assert_array_equal(batch.counts[i], np.bincount(hist.arms, minlength=K))
        stepped = [hist]
        for _ in range(3):
            stepped.append(step(stepped[-1], model, rule, s))
        # Read after the whole chain, the last first: every step resumed
        # a state whose last patient's support point was still to be added.
        for hist in reversed(stepped[1:]):
            np.testing.assert_array_equal(hist.support_counts(), expected(hist))
            np.testing.assert_array_equal(hist.engine_state.arm_counts()[0], hist.counts())


@pytest.mark.parametrize("n", [100, 300, 700])
def test_rowwise_arrays_stay_within_bytes_per_patient(n):
    """The row store of logistic arms on a continuous covariate (responses
    and covariates, room doubling as an arm outgrows it) stays within what
    ``bytes_per_patient`` declares per replicate and patient, which sizes the
    harness's batches.  A history's per-patient arrays at stride 1, its
    ``record_ms`` included, hold exactly what it declares for histories, on
    and off a finite support; a batch's histories share one ``record_ms``."""
    model, rule = _continuous_logit()
    B = 4
    seeds = [replicate_root(n, i) for i in range(B)]
    state = run_trials(model, rule, n, 10, seeds).histories[0].engine_state
    assert state.rows.nbytes / (B * n) <= bytes_per_patient(model, histories=False)
    for design in (_continuous_logit, _two_point):
        model, rule = design()
        histories = run_trials(model, rule, n, 10, seeds, OPTS).histories
        declared = bytes_per_patient(model, True) - bytes_per_patient(model, False)
        for hist in histories:
            held = sum(getattr(hist, name).nbytes for name in
                       ("covariates", "arms", "probs", "responses", "theta_records",
                        "record_ms"))
            assert held == declared * n
            assert hist.record_ms is histories[0].record_ms
