import json
import math
import re

import numpy as np
import pytest

from carasim import cli, harness
from carasim.asymptotics import ZeroMassCovariateError, bb_closed_forms
from carasim.engine import replicate_root, run_trial
from carasim.fixtures import DEFAULT_SEED, bb_config, f1_config, two_point_config
from carasim.harness import (
    ConfigError,
    VerificationReport,
    emit_reports,
    parse_config,
    replicate_csv_lines,
    report_json_bytes,
    run_replications,
    summary_payload,
    verification_json_bytes,
    verify,
)


def _minimal_f1():
    return {
        "model": {
            "arms": [{"family": "logistic"}, {"family": "logistic"}],
            "covariates": {"kind": "constant", "values": [1.0]},
            "true_theta": [[math.log(3.0)], [0.0]],
            "box_lo": -2.0,
            "box_hi": 2.0,
        },
        "rule": {"kind": "odds-ratio"},
        "trial": {"n": 50},
    }


# ---------------------------------------------------------------------------
# Configuration parsing
# ---------------------------------------------------------------------------


def test_minimal_document_fills_defaults():
    cfg = parse_config(_minimal_f1())
    assert cfg.n == 50
    assert cfg.m0 == 2  # d + 1
    assert cfg.theta_stride == 1
    assert cfg.replicates == 1
    assert cfg.seed == 0
    assert cfg.workers == 1
    assert cfg.x_list == ()
    assert cfg.plugins is False
    assert cfg.criteria == ()


def test_burn_in_larger_than_trial_names_the_key():
    doc = _minimal_f1()
    doc["trial"] = {"n": 5, "m0": 3}
    with pytest.raises(ConfigError, match=r"'trial\.n' = 5.*K \* m0 = 6"):
        parse_config(doc)


def test_burn_in_below_dimension_plus_one_is_rejected():
    doc = _minimal_f1()
    doc["trial"] = {"n": 50, "m0": 1}
    with pytest.raises(ConfigError, match=r"'trial\.m0'.*d \+ 1"):
        parse_config(doc)


def test_unknown_rule_kind_lists_the_supported_ones():
    doc = _minimal_f1()
    doc["rule"] = {"kind": "thompson"}
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert "odds-ratio" in str(err.value) and "exponential" in str(err.value)


def test_two_arm_rule_requires_two_arms():
    doc = _minimal_f1()
    doc["model"]["arms"].append({"family": "logistic"})
    doc["model"]["true_theta"].append([0.0])
    with pytest.raises(ConfigError, match="exactly two arms"):
        parse_config(doc)


def test_shared_slopes_with_unequal_dispersions_is_rejected():
    doc = bb_config(n=100, replicates=1, seed=0)
    doc["model"]["arms"][1]["dispersion"] = 2.0
    with pytest.raises(ConfigError, match="shared_slopes requires .* common dispersion"):
        parse_config(doc)


def test_off_support_conditional_point_is_rejected():
    doc = two_point_config(n=60, replicates=2, seed=0)
    doc["replication"]["x_list"] = [[1.0, 0.5]]
    with pytest.raises(ConfigError, match=r"x_list\[0\].*support"):
        parse_config(doc)


def test_wrong_dimension_conditional_point_is_rejected():
    doc = two_point_config(n=60, replicates=2, seed=0)
    doc["replication"]["x_list"] = [[1.0]]
    with pytest.raises(ConfigError, match=r"x_list\[0\].*dimension"):
        parse_config(doc)


@pytest.mark.parametrize("covariates, where", [
    ({"kind": "discrete", "support": [[1.0, 0.0], [1.0, 1.0], [1.0, 0.0]],
      "probs": [0.25, 0.5, 0.25]},
     r"'model\.covariates': discrete support lists \[1\.0, 0\.0\] more than once"),
    ({"kind": "continuous-product", "intercept": True,
      "coords": [{"kind": "two-point", "a": 0.0, "b": 0.0, "p_a": 0.3}]},
     r"'model\.covariates\.coords\[0\]': two-point coordinate needs two distinct values"),
])
def test_a_covariate_point_listed_twice_is_rejected(covariates, where):
    """A support that lists a point twice would give the point only its first
    copy's mass, while the engine pools both copies' patients."""
    doc = two_point_config(n=60, replicates=2, seed=0)
    doc["model"]["covariates"] = covariates
    doc["replication"].pop("x_list")
    with pytest.raises(ConfigError, match=where):
        parse_config(doc)


def _with_flag(key: str, value) -> dict:
    if key == "plugins":
        doc = _minimal_f1()
        doc["replication"] = {"plugins": value}
    elif key == "intercept":
        doc = _minimal_f1()
        doc["model"]["covariates"] = {"kind": "continuous-product", "intercept": value,
                                      "coords": [{"kind": "uniform", "lo": 0.0, "hi": 1.0}]}
        doc["model"]["true_theta"] = [[0.5, 0.0], [0.0, 0.0]]
    else:
        doc = bb_config(n=100, replicates=1, seed=0)
        doc["model"][key] = value
    return doc


@pytest.mark.parametrize("key, path", [("plugins", "replication.plugins"),
                                       ("intercept", "model.covariates.intercept"),
                                       ("shared_slopes", "model.shared_slopes")])
def test_non_boolean_flags_are_rejected(key, path):
    assert parse_config(_with_flag(key, True)).raw == _with_flag(key, True)
    # A string such as "false" must not be read as true, nor 1 as a flag.
    for value in ("false", "no", 1):
        with pytest.raises(ConfigError, match=rf"'{path}' must be true or false"):
            parse_config(_with_flag(key, value))


def _set(path: str, value):
    """A change to a valid document: sets ``value`` at ``path`` (keys and
    list indices separated by dots), such as a copy of the bb fixture, whose
    covariates have coordinates and whose rule reads T."""
    def change(doc):
        *parents, last = path.split(".")
        for key in parents:
            doc = doc[int(key)] if isinstance(doc, list) else doc[key]
        doc[int(last) if isinstance(doc, list) else last] = value
    return change


@pytest.mark.parametrize("change, key", [
    (_set("modle", {}), "modle"),
    (_set("model.shared_slope", True), "model.shared_slope"),
    (_set("model.arms.0.disp", 1.0), "model.arms[0].disp"),
    (_set("model.covariates.support", [[1.0]]), "model.covariates.support"),
    (_set("model.covariates.coords.1.p_b", 0.5), "model.covariates.coords[1].p_b"),
    (_set("rule.temperature", 1.0), "rule.temperature"),
    (_set("trial.burn_in", 4), "trial.burn_in"),
    (_set("replication.replicate", 500), "replication.replicate"),
    (_set("rule", {"kind": "odds-ratio", "T": 2.0}), "rule.T"),
    (_set("rule", {"kind": "exponential", "T": 2.0, "g": "exp"}), "rule.g"),
    # Gate bands, the refit cadence and the plug-in dispersion are fixed.
    (_set("tolerance_overrides", {"theory-exact/max-dev-v": {"band": [0.0, 1.0]}}),
     "tolerance_overrides"),
    (_set("trial.refit_interval", 1), "trial.refit_interval"),
    (_set("replication.dispersion", "model"), "replication.dispersion"),
])
def test_config_rejects_what_it_does_not_read(change, key):
    doc = bb_config(n=100, replicates=1, seed=0)
    change(doc)
    with pytest.raises(ConfigError, match=re.escape(f"unknown key '{key}'")):
        parse_config(doc)


@pytest.mark.parametrize("change, key", [
    (_set("model.true_theta", [[0.5, -0.5], [0.0]]), "model.true_theta"),
    (_set("model.true_theta", [["a", 1.0], [0.0, 0.4]]), "model.true_theta"),
    (_set("model.true_theta", [[0.5, -0.5], [0.0, True]]), "model.true_theta"),
    (_set("model.box_lo", "low"), "model.box_lo"),
    (_set("model.box_hi", [[1.5, 1.5], None]), "model.box_hi"),
    (_set("replication.x_list.1", [1.0, "one"]), "replication.x_list[1]"),
    (_set("replication.x_list.0", [[1.0], [0.0, 1.0]]), "replication.x_list[0]"),
    (_set("model.covariates.support", [["1", 0.0], [1.0, 1.0]]), "model.covariates.support"),
    (_set("model.covariates.probs", [0.5, "0.5"]), "model.covariates.probs"),
    (_set("model.covariates", {"kind": "constant", "values": [1.0, None]}),
     "model.covariates.values"),
])
def test_a_malformed_number_names_its_key(change, key):
    doc = two_point_config(n=60, replicates=2, seed=0)
    change(doc)
    with pytest.raises(ConfigError, match=re.escape(f"key '{key}' must be a number")):
        parse_config(doc)


def test_config_checks_criterion_names():
    doc = _minimal_f1()
    doc["criteria"] = ["smoke", "theory-exact", "all"]
    assert parse_config(doc).criteria == ("smoke", "theory-exact", "all")
    doc["criteria"] = ["theory-exact", "nonsense"]
    with pytest.raises(ConfigError, match=r"'criteria\[1\]': unknown criterion 'nonsense'"):
        parse_config(doc)


def test_config_from_file_and_bad_files(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(_minimal_f1()))
    cfg = parse_config(path)
    assert cfg.n == 50
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config(bad)
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(tmp_path / "missing.json")
    arr = tmp_path / "array.json"
    arr.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError, match="JSON object"):
        parse_config(arr)


# ---------------------------------------------------------------------------
# Replication driver
# ---------------------------------------------------------------------------


def test_single_replicate_reduces_to_run_trial():
    raw = f1_config(n=60, replicates=1, seed=17)
    cfg = parse_config(raw)
    s = run_replications(cfg)
    hist = run_trial(cfg.model, cfg.rule, cfg.n, cfg.m0,
                     replicate_root(cfg.seed, 0), cfg.engine_options())
    np.testing.assert_array_equal(s.counts[0], hist.counts())
    np.testing.assert_array_equal(s.theta_hat[0], hist.current_theta)
    assert s.failures == ()
    assert bool(s.ok.all())


def test_conditional_counts_cover_every_patient():
    raw = two_point_config(n=80, replicates=6, seed=2)
    s = run_replications(parse_config(raw))
    np.testing.assert_array_equal(s.cond_totals.sum(axis=1), 80)
    np.testing.assert_array_equal(s.cond_counts.sum(axis=2), s.cond_totals)
    np.testing.assert_array_equal(s.cond_counts.sum(axis=(1, 2)), 80)


def test_aggregates_match_naive_recomputation_from_the_csv():
    raw = two_point_config(n=80, replicates=40, seed=13)
    s = run_replications(parse_config(raw))
    lines = replicate_csv_lines(s)
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert len(rows) == 40

    sqrt_n = math.sqrt(80.0)
    alloc = np.array([[sqrt_n * (float(r[f"N_{k + 1}"]) / 80.0 - s.theory.v[k])
                       for k in range(2)] for r in rows])
    naive_cov = np.cov(alloc, rowvar=False, ddof=1)
    np.testing.assert_allclose(s.alloc_dev_cov, naive_cov, atol=1e-12)
    np.testing.assert_allclose(s.alloc_dev_mean, alloc.mean(axis=0), atol=1e-12)

    theta = np.array([[sqrt_n * (float(r[f"theta_{k + 1}_{j + 1}"])
                                 - parse_config(raw).model.true_theta[k, j])
                       for k in range(2) for j in range(2)] for r in rows])
    np.testing.assert_allclose(s.theta_dev_cov,
                               np.cov(theta, rowvar=False, ddof=1), atol=1e-12)

    for q in range(2):
        pi = s.theory.conditional[q].pi
        dev = np.array([
            [math.sqrt(float(r[f"n_x{q + 1}"])) * (float(r[f"p_x{q + 1}_{k + 1}"]) - pi[k])
             for k in range(2)]
            for r in rows if float(r[f"n_x{q + 1}"]) > 0])
        assert dev.shape[0] == s.cond_valid[q]
        np.testing.assert_allclose(s.cond_dev_cov[q],
                                   np.cov(dev, rowvar=False, ddof=1), atol=1e-12)


def test_worker_count_does_not_change_a_single_byte():
    raw = f1_config(n=60, replicates=12, seed=5)
    cfg = parse_config(raw)
    b1 = report_json_bytes(run_replications(cfg, workers=1))
    b3 = report_json_bytes(run_replications(cfg, workers=3))
    assert b1 == b3


def test_report_bytes_are_reproducible():
    raw = two_point_config(n=60, replicates=4, seed=21)
    b1 = report_json_bytes(run_replications(parse_config(raw)))
    b2 = report_json_bytes(run_replications(parse_config(raw)))
    assert b1 == b2


def test_report_payload_round_trips(tmp_path):
    raw = two_point_config(n=60, replicates=3, seed=8)
    cfg = parse_config(raw)
    s = run_replications(cfg)
    hist = run_trial(cfg.model, cfg.rule, cfg.n, cfg.m0,
                     replicate_root(cfg.seed, 0), cfg.engine_options())
    paths = emit_reports(s, tmp_path / "out")
    hist.to_patient_csv(tmp_path / "out" / "patients.csv")
    hist.to_json(tmp_path / "out" / "trial.json")
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["config"] == cfg.raw
    assert payload["replicates"] == 3
    v = np.asarray(payload["theory"]["v"]["data"]).reshape(payload["theory"]["v"]["shape"])
    np.testing.assert_allclose(v, s.theory.v, rtol=1e-15)
    cov = payload["empirical"]["alloc_dev_cov"]
    np.testing.assert_allclose(np.asarray(cov["data"]).reshape(cov["shape"]),
                               s.alloc_dev_cov, rtol=1e-15)
    csv = (tmp_path / "out" / "replicates.csv").read_text().splitlines()
    assert len(csv) == 4  # header + three replicates
    assert csv[0].startswith("replicate,seed,N_1,N_2,theta_1_1")
    # Replicate i's stream is rooted at (master seed, i).
    assert [row.split(",")[:2] for row in csv[1:]] == [["0", "8"], ["1", "8"], ["2", "8"]]
    assert (tmp_path / "out" / "patients.csv").exists()
    assert json.loads((tmp_path / "out" / "trial.json").read_text())["n"] == 60
    assert set(paths) == {"report", "replicates"}


def test_plugin_aggregates_are_collected():
    raw = f1_config(n=400, replicates=6, seed=3, plugins=True)
    s = run_replications(parse_config(raw))
    assert s.plugins is not None
    assert np.isfinite(s.plugins.rel_dev_sigma_median)
    assert s.plugins.sigma_hat_median.shape == (2, 2)
    payload = json.loads(report_json_bytes(s).decode())
    assert payload["plugins"]["rel_dev_sigma_median"] >= 0.0


def test_report_bytes_do_not_depend_on_batch_size_or_workers(monkeypatch):
    # Two-point plug-ins sum over the support points.  With a continuous
    # covariate the logistic arms refit from their rows and the plug-ins sum
    # over the observed rows.
    continuous = {
        "model": {
            "arms": [{"family": "logistic"}] * 3,
            "covariates": {"kind": "continuous-product", "intercept": True,
                           "coords": [{"kind": "uniform", "lo": -1.0, "hi": 1.0}]},
            "true_theta": [[0.4, 0.8], [0.0, -0.6], [-0.3, 0.3]],
            "box_lo": -3.0,
            "box_hi": 3.0,
        },
        "rule": {"kind": "exponential", "T": 1.0},
        "trial": {"n": 60, "m0": 6},
        "replication": {"replicates": 7, "seed": 17},
    }
    default_batch = harness._BATCH
    for raw in (two_point_config(n=120, replicates=7, seed=31), continuous):
        raw["replication"]["plugins"] = True
        cfg = parse_config(raw)
        monkeypatch.setattr(harness, "_BATCH", default_batch)
        s = run_replications(cfg, workers=1)
        assert s.failures == () and s.plugin_failures == ()
        expected = (report_json_bytes(s), replicate_csv_lines(s))
        for batch, workers in ((1, 1), (3, 1), (7, 1), (3, 2), (1, 8)):
            monkeypatch.setattr(harness, "_BATCH", batch)
            s = run_replications(cfg, workers=workers)
            assert (report_json_bytes(s), replicate_csv_lines(s)) == expected, (batch, workers)


def test_plugin_failure_is_reported_and_keeps_the_trial(monkeypatch):
    raw = two_point_config(n=200, replicates=6, seed=5)
    without = summary_payload(run_replications(parse_config(raw)))
    raw["replication"]["plugins"] = True
    real = harness.plugin_estimates

    def failing_on_replicate_2(hist, *args, **kwargs):
        if hist.seed_spawn_key == (2,):
            raise ZeroMassCovariateError("covariate value [1.0, 1.0] never occurred")
        return real(hist, *args, **kwargs)

    monkeypatch.setattr(harness, "plugin_estimates", failing_on_replicate_2)
    s = run_replications(parse_config(raw))
    payload = json.loads(report_json_bytes(s))
    assert payload["failures"] == []
    assert payload["plugin_failures"] == [{
        "replicate": 2, "type": "ZeroMassCovariateError",
        "message": "covariate value [1.0, 1.0] never occurred"}]
    # The replicate still counts in every trial aggregate.
    assert json.dumps(payload["empirical"], sort_keys=True) == \
        json.dumps(without["empirical"], sort_keys=True)
    assert bool(s.ok.all())
    assert np.isfinite(s.plugins.rel_dev_sigma_median)


def test_report_without_any_plugin_estimate_has_null_medians_and_fails_the_checks(
        monkeypatch, tmp_path, capsys):
    """When every replicate's plug-in estimates fail there is no median: the
    report holds JSON null, not NaN, the plug-in checks fail, and the CLI
    writes and prints that report."""
    raw = f1_config(n=60, replicates=3, seed=DEFAULT_SEED, plugins=True)

    def failing(hist, *args, **kwargs):
        raise ZeroMassCovariateError("no plug-in estimate")

    monkeypatch.setattr(harness, "plugin_estimates", failing)
    s = run_replications(parse_config(raw), workers=1)

    def strict(name):
        raise ValueError(f"{name} is not JSON")

    payload = json.loads(report_json_bytes(s), parse_constant=strict)
    assert [f["replicate"] for f in payload["plugin_failures"]] == [0, 1, 2]
    assert payload["plugins"] == {
        "sigma_hat_median": None, "sigma1_hat_median": None, "V_hat_median": None,
        "cond_sigma_median": None, "rel_dev_sigma_median": None, "rel_dev_V_median": None,
        "warning_count": 0}
    checks = harness._c_plugin_consistency(DEFAULT_SEED, {("f1-plugin", DEFAULT_SEED): s}, 1)
    assert len(checks) == 1 + s.K and not any(c.passed for c in checks)
    # verification.json writes a missing observation as null, and so does the
    # printed line; the check still fails.
    report = VerificationReport(master_seed=DEFAULT_SEED, criteria=("plugin-consistency",),
                                checks=tuple(checks), passed=False)
    written = json.loads(verification_json_bytes(report), parse_constant=strict)
    assert [c["observed"] for c in written["checks"]] == [None] * len(checks)
    assert not any(c["passed"] for c in written["checks"])
    assert all(": observed null, " in c.line() for c in checks)

    config, out_dir = tmp_path / "exp.json", tmp_path / "results"
    config.write_text(json.dumps(raw))
    assert cli.main(["replicate", "--config", str(config), "--out", str(out_dir)]) == 0
    assert (out_dir / "report.json").read_bytes() == report_json_bytes(s)
    assert cli.main(["report", "--out", str(out_dir)]) == 0
    printed = capsys.readouterr().out.splitlines()
    note = "plug-in median relative deviation: no replicate has plug-in estimates"
    assert printed.count(note) == 2


def test_trial_failure_is_reported_and_other_replicates_are_kept(monkeypatch):
    raw = f1_config(n=80, replicates=7, seed=4)
    clean = run_replications(parse_config(raw))
    real = harness.run_trials

    def failing_on_replicate_3(model, rule, n, m0, seeds, *args, **kwargs):
        if any(seed.spawn_key == (3,) for seed in seeds):
            raise RuntimeError("injected")
        return real(model, rule, n, m0, seeds, *args, **kwargs)

    monkeypatch.setattr(harness, "run_trials", failing_on_replicate_3)
    s = run_replications(parse_config(raw))
    assert s.failures == ((3, "RuntimeError", "injected"),)
    assert json.loads(report_json_bytes(s))["failures"] == [
        {"replicate": 3, "type": "RuntimeError", "message": "injected"}]
    kept = [i for i in range(7) if i != 3]
    np.testing.assert_array_equal(s.ok, [i != 3 for i in range(7)])
    np.testing.assert_array_equal(s.counts[kept], clean.counts[kept])
    np.testing.assert_array_equal(s.theta_hat[kept], clean.theta_hat[kept])
    assert replicate_csv_lines(s) == [line for line in replicate_csv_lines(clean)
                                      if not line.startswith("3,")]


def test_failures_are_gathered_across_worker_blocks(monkeypatch, tmp_path):
    # At three workers the blocks are replicates 0-2, 3-4 and 5-6: the trial
    # failure and the plug-in failure each open a block.
    raw = two_point_config(n=120, replicates=7, seed=31)
    raw["replication"]["plugins"] = True
    cfg = parse_config(raw)
    run_trials, plugin_estimates = harness.run_trials, harness.plugin_estimates

    def failing_trial(model, rule, n, m0, seeds, *args, **kwargs):
        if any(seed.spawn_key == (3,) for seed in seeds):
            raise RuntimeError("injected trial failure")
        return run_trials(model, rule, n, m0, seeds, *args, **kwargs)

    def failing_plugins(hist, *args, **kwargs):
        if hist.seed_spawn_key == (5,):
            raise ZeroMassCovariateError("injected plug-in failure")
        return plugin_estimates(hist, *args, **kwargs)

    monkeypatch.setattr(harness, "run_trials", failing_trial)
    monkeypatch.setattr(harness, "plugin_estimates", failing_plugins)
    outputs = []
    for workers in (1, 3):
        s = run_replications(cfg, workers=workers)
        assert s.failures == ((3, "RuntimeError", "injected trial failure"),)
        assert s.plugin_failures == ((5, "ZeroMassCovariateError", "injected plug-in failure"),)
        out = tmp_path / f"workers-{workers}"
        emit_reports(s, out)
        outputs.append(((out / "report.json").read_bytes(), (out / "replicates.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    csv = outputs[0][1].decode().splitlines()
    assert [row.split(",")[0] for row in csv[1:]] == ["0", "1", "2", "4", "5", "6"]


def test_shared_slope_variance_ratios_use_the_closed_forms():
    from scipy.stats import chi2

    cfg = parse_config(bb_config(n=500, replicates=200, seed=DEFAULT_SEED))
    s = run_replications(cfg)
    bb = bb_closed_forms(cfg.model, cfg.rule)
    np.testing.assert_allclose(s.var_ratio_alloc, np.diag(s.alloc_dev_cov) / bb.alloc_var,
                               rtol=1e-14)
    np.testing.assert_allclose(s.var_ratio_theta[:, 0], np.diag(s.theta_dev_cov)[::3]
                               / np.diag(bb.mu_cov), rtol=1e-14)
    # The gate's band for the allocation variance, widened by the chi-square
    # spread of a variance estimated from R replicates.
    R = s.replicates - len(s.failures)
    lo = 0.85 * chi2.ppf(5e-5, R - 1) / (R - 1)
    hi = 1.15 * chi2.ppf(1.0 - 5e-5, R - 1) / (R - 1)
    assert lo <= s.var_ratio_alloc[0] <= hi


def test_shared_slope_design_without_closed_forms_gets_variance_ratios_from_the_theory():
    # The closed forms do not cover the odds-ratio rule; the ratios divide by
    # the theory report's Sigma and theta_cov all the same.
    raw = bb_config(n=60, replicates=3, seed=1)
    raw["rule"] = {"kind": "odds-ratio"}
    s = run_replications(parse_config(raw))
    assert np.all(np.isfinite(s.var_ratio_alloc)) and np.all(np.isfinite(s.var_ratio_theta))
    np.testing.assert_array_equal(s.var_ratio_alloc, np.diag(s.alloc_dev_cov) / np.diag(s.theory.sigma))
    np.testing.assert_array_equal(s.var_ratio_theta.ravel(),
                                  np.diag(s.theta_dev_cov) / np.diag(s.theory.theta_cov))
    empirical = json.loads(report_json_bytes(s))["empirical"]
    assert "var_ratio_basis" not in empirical
    assert empirical["var_ratio_theta"]["data"] == s.var_ratio_theta.ravel().tolist()


# ---------------------------------------------------------------------------
# Verification entry points
# ---------------------------------------------------------------------------


def test_smoke_criteria_pass_on_the_documented_seed():
    report = verify(("smoke",))
    assert report.passed
    assert {c.criterion for c in report.checks} == {
        "theory-exact", "mle-lse-oracle", "covariate-free-coincidence"}
    line = report.checks[0].line()
    assert line.startswith("PASS ") and "observed" in line and "band" in line


def _failing_criterion(seed, cache, workers):
    return [harness._abs_check("theory-exact", "forced", 1.0, -1.0, -0.5)]


def test_failed_check_line_starts_with_fail():
    check, = _failing_criterion(DEFAULT_SEED, {}, 1)
    assert not check.passed
    assert check.line().startswith("FAIL theory-exact/forced: observed 1")


def test_unknown_and_empty_criteria_are_rejected():
    with pytest.raises(ValueError, match="known names"):
        verify(("theory-exact", "nonsense"))
    with pytest.raises(ValueError, match="empty criteria"):
        verify(())


# ---------------------------------------------------------------------------
# Command-line interface
# ---------------------------------------------------------------------------


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(two_point_config(n=60, replicates=4, seed=9)))
    return path


def test_cli_simulate_writes_patient_csv_to_stdout(config_file, capsys):
    assert cli.main(["simulate", "--config", str(config_file)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "m,x_1,x_2,arm,psi_1,psi_2,y"
    assert len(lines) == 61


def test_cli_simulate_seed_override_changes_the_trial(config_file, capsys):
    cli.main(["simulate", "--config", str(config_file)])
    first = capsys.readouterr().out
    cli.main(["simulate", "--config", str(config_file), "--seed", "10"])
    second = capsys.readouterr().out
    assert first != second


def test_cli_replicate_seed_override_runs_the_trials_of_that_seed(config_file, tmp_path, capsys):
    cli.main(["replicate", "--config", str(config_file), "--seed", "10",
              "--out", str(tmp_path / "flag")])
    doc = json.loads(config_file.read_text())
    doc["replication"]["seed"] = 10
    stored = tmp_path / "seed10.json"
    stored.write_text(json.dumps(doc))
    cli.main(["replicate", "--config", str(stored), "--out", str(tmp_path / "stored")])
    for name in ("replicates.csv", "report.json"):
        assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "stored" / name).read_bytes()


def test_cli_theory_prints_the_report(config_file, capsys):
    assert cli.main(["theory", "--config", str(config_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"]["kind"] == "exact-enumeration"
    assert payload["v"]["shape"] == [2]


def test_cli_replicate_then_report_round_trip(config_file, tmp_path, capsys):
    out_dir = tmp_path / "results"
    assert cli.main(["replicate", "--config", str(config_file),
                     "--out", str(out_dir)]) == 0
    first = capsys.readouterr().out
    assert "target allocation v" in first
    assert (out_dir / "report.json").exists()
    assert (out_dir / "replicates.csv").exists()
    assert cli.main(["report", "--out", str(out_dir)]) == 0
    rendered = capsys.readouterr().out
    assert "replicates: 4" in rendered


def test_cli_verify_writes_verification_json(tmp_path, capsys):
    out_dir = tmp_path / "checks"
    code = cli.main(["verify", "--criteria", "theory-exact",
                     "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS: 6/6 checks passed" in out
    payload = json.loads((out_dir / "verification.json").read_text())
    assert payload["passed"] is True
    assert payload["criteria"] == ["theory-exact"]


def test_cli_verify_with_config_reads_its_criteria(tmp_path, capsys):
    doc = _minimal_f1()
    doc["criteria"] = ["theory-exact"]
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path / "checks")]) == 0
    payload = json.loads((tmp_path / "checks" / "verification.json").read_text())
    assert payload["criteria"] == ["theory-exact"]
    # --criteria takes precedence over the document.
    assert cli.main(["verify", "--config", str(path), "--criteria", "mle-lse-oracle",
                     "--out", str(tmp_path / "flag")]) == 0
    payload = json.loads((tmp_path / "flag" / "verification.json").read_text())
    assert payload["criteria"] == ["mle-lse-oracle"]
    doc["criteria"] = []
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", "--config", str(path)]) == 2
    assert "empty criteria" in capsys.readouterr().err


def test_cli_verify_exit_code_reflects_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(harness.CRITERIA, "theory-exact", _failing_criterion)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(_minimal_f1()))
    code = cli.main(["verify", "--config", str(path),
                     "--criteria", "theory-exact"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL theory-exact/forced" in out


@pytest.mark.parametrize("argv", [
    ["theory", "--seed", "5"],
    ["theory", "--workers", "2"],
    ["simulate", "--workers", "2"],
    ["simulate", "--criteria", "smoke"],
    ["replicate", "--criteria", "smoke"],
    ["report", "--config", "exp.json"],
    ["report", "--seed", "5"],
])
def test_cli_rejects_flags_a_subcommand_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_reports_config_errors_on_stderr(tmp_path, capsys):
    code = cli.main(["simulate", "--config", str(tmp_path / "nope.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: cannot read config file")


@pytest.mark.parametrize("command", ["theory", "replicate"])
def test_cli_reports_a_singular_design_on_stderr(command, tmp_path, capsys):
    # Every patient has the covariate (1, 0.5), so no arm's information is regular.
    doc = two_point_config(n=60, replicates=2, seed=9)
    doc["model"]["covariates"] = {"kind": "discrete", "support": [[1.0, 0.5]], "probs": [1.0]}
    doc["replication"]["x_list"] = []
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    assert cli.main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: design-weighted information for arm 1 is singular")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [["simulate", "--config", "{config}"],
                                  ["theory", "--config", "{config}"],
                                  ["replicate", "--config", "{config}"],
                                  ["verify", "--criteria", "smoke"]])
def test_cli_reports_an_out_path_that_names_a_file_on_stderr(argv, config_file, tmp_path, capsys,
                                                             monkeypatch):
    """The command creates its output directory before it does any work: it
    fails at once, with no check line, trial, report or replication run."""
    calls = []

    def spy(name):
        return lambda *args, **kwargs: calls.append(name)

    for module, name in ((cli, "run_trial"), (cli, "theory_report"), (cli, "run_replications"),
                         (harness, "run_replications")):
        monkeypatch.setattr(module, name, spy(name))
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = [a.format(config=config_file) for a in argv] + ["--out", str(taken)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert calls == [] and captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and "File exists" in err and err.count("\n") == 1


@pytest.mark.parametrize("text", ["{}", "[1, 2]"])
def test_cli_report_rejects_a_json_file_that_is_not_a_report(text, tmp_path, capsys):
    (tmp_path / "report.json").write_text(text)
    assert cli.main(["report", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: stored results at {tmp_path / 'report.json'} are not a replication report")
    assert captured.err.count("\n") == 1


def test_cli_report_requires_an_existing_report(tmp_path, capsys):
    code = cli.main(["report", "--out", str(tmp_path / "empty")])
    captured = capsys.readouterr()
    assert code == 2
    assert "cannot read stored results" in captured.err


def test_cli_replicate_rejects_an_unknown_criterion_in_the_config(tmp_path, capsys):
    doc = two_point_config(n=60, replicates=2, seed=9)
    doc["criteria"] = ["nonsense"]
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["replicate", "--config", str(path)]) == 2
    assert "'criteria[0]': unknown criterion 'nonsense'" in capsys.readouterr().err
