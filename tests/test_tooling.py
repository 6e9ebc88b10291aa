"""The benchmark's span tracer (perfbench/spans.py) wraps carasim functions
by name; these tests fail when a rename or deletion would break a traced
benchmark run.  The benchmark also drives the CLI's ``--workers`` flag,
parses the config documents of its workloads (perfbench/workloads.py) and
calls the engine and the plug-ins with positional arguments."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import carasim
import carasim.cli  # noqa: F401  (the tracer wraps cli.main)
from carasim.estimation import fit_grouped_logistic_mle
from carasim.fixtures import f1_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_carasim():
    for mod, attr, _, _ in _load("spans").TRACED:
        home = importlib.import_module(f"carasim.{mod}")
        if "." in attr:
            cls, meth = attr.split(".")
            assert meth in vars(getattr(home, cls)), f"{mod}.{attr}"
        else:
            assert callable(getattr(home, attr, None)), f"{mod}.{attr}"


def test_irls_fits_report_their_iterations():
    fit = fit_grouped_logistic_mle(np.ones((1, 1)), np.array([4.0]), np.array([1.0]),
                                   np.array([-5.0]), np.array([5.0]))
    assert isinstance(fit.iterations, int) and fit.iterations > 0


def test_tracer_installs_and_measures_a_trial():
    spans = _load("spans")
    cfg = carasim.parse_config(f1_config(n=40, replicates=1, seed=0))
    original = carasim.run_trial
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert carasim.run_trial is not original
        carasim.run_trial(cfg.model, cfg.rule, cfg.n, cfg.m0, 0)
    finally:
        tracer.uninstall()
    assert carasim.run_trial is original
    metrics = tracer.layer_metrics(1)
    assert metrics["engine.run_trial_us_per_patient"] > 0.0


@pytest.mark.parametrize("argv", [
    ["replicate", "--config", "{config}", "--workers", "0"],
    ["verify", "--config", "{config}", "--workers", "-4"],
    ["verify", "--config", "{config}", "--criteria", "smoke", "--workers", "0"],
    ["verify", "--criteria", "smoke", "--workers", "-4"],
    ["verify", "--criteria", "smoke", "--workers", "two"],
])
def test_cli_rejects_a_worker_count_below_one(argv, tmp_path, capsys):
    config = tmp_path / "exp.json"
    config.write_text(json.dumps(f1_config(n=40, replicates=2, seed=0)))
    with pytest.raises(SystemExit) as exc:
        carasim.cli.main([a.format(config=config) for a in argv])
    assert exc.value.code == 2
    assert "argument --workers" in capsys.readouterr().err


def test_every_workload_design_parses_and_runs_as_the_benchmark_calls_it():
    workloads = _load("workloads")
    for name in workloads.NAMES:
        for design in workloads.designs(name, 7):
            cfg = carasim.parse_config(design.config)
            model, rule = cfg.model, cfg.rule
            # Positional, as perfbench/run.py calls them; a short trial.
            n = model.K * cfg.m0 + 3
            hist = carasim.run_trial(model, rule, n, cfg.m0, carasim.replicate_root(cfg.seed, 0),
                                     cfg.engine_options())
            assert hist.n == n, design.name
            rep = carasim.plugin_estimates(hist, model, rule, cfg.x_list)
            assert rep.sigma_hat.shape == (model.K, model.K), design.name


@pytest.mark.parametrize("workload", ["replicate-gate", "continuous-logit"])
def test_theory_reports_pass_the_benchmark_theory_check(workload):
    # The benchmark checks V_k I_k = I and Sigma against its own reference on
    # every design, shared slopes included; a failure there marks a run's
    # outputs incorrect.
    checks, workloads = _load("checks"), _load("workloads")
    for design in workloads.designs(workload, 7):
        cfg = carasim.parse_config(design.config)
        opts = carasim.TheoryOptions(**(design.theory_opts or {}))
        rep = carasim.theory_report(cfg.model, cfg.rule, cfg.x_list, opts)
        pts, w, _ = carasim.asymptotics.expectation_nodes(cfg.model.covariates, opts)
        assert checks.check_theory(checks.theory_from_report(rep), cfg.model, cfg.rule, pts, w,
                                   cfg.x_list, design.name) == [], design.name
