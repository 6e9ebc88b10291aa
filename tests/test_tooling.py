"""The benchmark's span tracer (perfbench/spans.py) wraps carasim functions
by name; these tests fail when a rename or deletion would break a traced
benchmark run.  The benchmark also drives the CLI's ``--workers`` flag,
parses the config documents of its workloads (perfbench/workloads.py) and
calls the engine and the plug-ins with positional arguments.  Every name the
package exports must run outside the tests, or be traced by the benchmark,
and every optional parameter of an exported function must be passed there."""

import ast
import collections
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import carasim
import carasim.cli  # noqa: F401  (the tracer wraps cli.main)
from carasim.allocation import probabilities
from carasim.asymptotics import _fisher_gram, expectation_nodes
from carasim.estimation import fit_grouped_logistic_mle
from carasim.fixtures import bb_config, coincidence_configs, f1_config, two_point_config

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


def _names_read(paths) -> set[str]:
    """Every bare name and attribute name that the code in ``paths`` reads;
    imports, definitions, docstrings and comments do not count."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_exported_name_runs_outside_the_tests():
    # What only tests call belongs in tests/ (tests/oracles.py), not in the
    # package's exports.
    root = PERFBENCH.parent
    read = _names_read([*(root / "src" / "carasim").glob("*.py"), *(root / "bench").glob("*.py"),
                        *PERFBENCH.glob("*.py")])
    traced = {attr.split(".")[0] for _, attr, _, _ in _load("spans").TRACED}
    assert sorted(set(carasim.__all__) - read - traced) == []


def _calls(paths) -> dict:
    """Every call in the code of ``paths``, by the bare or attribute name it calls."""
    calls = collections.defaultdict(list)
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                calls[getattr(f, "id", getattr(f, "attr", None))].append(node)
    return calls


def _passes(call: ast.Call, index: int, param: inspect.Parameter) -> bool:
    """Whether ``call`` passes ``param``, the parameter at ``index``: by
    keyword, through ``**``, or by position (a ``*`` argument covers every
    position)."""
    if any(k.arg in (param.name, None) for k in call.keywords):
        return True
    return param.kind is not param.KEYWORD_ONLY and (
        len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args))


def _exported_callables():
    """(qualified name, called name, parameters as a call passes them) of
    every function in ``carasim.__all__`` and every public method of its
    classes; constructors are out of scope."""
    for name in carasim.__all__:
        obj = getattr(carasim, name)
        if not inspect.isclass(obj):
            yield name, name, list(inspect.signature(obj).parameters.values())
            continue
        for meth, raw in vars(obj).items():
            fn = getattr(obj, meth)
            if meth.startswith("_") or not (inspect.isfunction(fn) or inspect.ismethod(fn)):
                continue
            params = list(inspect.signature(fn).parameters.values())
            if inspect.isfunction(fn) and not isinstance(raw, staticmethod):
                params = params[1:]  # self
            yield f"{name}.{meth}", meth, params


def test_every_optional_parameter_of_an_exported_function_is_passed_outside_the_tests():
    # An option that no program passes is a knob that only tests turn; such
    # a test belongs on the core the option selects.
    root = PERFBENCH.parent
    calls = _calls([*(root / "src" / "carasim").glob("*.py"), *(root / "bench").glob("*.py"),
                    *PERFBENCH.glob("*.py")])
    traced = {attr for _, attr, _, _ in _load("spans").TRACED}
    unpassed = [f"{qual}.{p.name}" for qual, called, params in _exported_callables()
                if qual not in traced
                for i, p in enumerate(params)
                if p.default is not p.empty and not any(_passes(c, i, p) for c in calls[called])]
    assert unpassed == []


def test_info_matrices_and_scaled_covariance_are_the_theory_report_bitwise():
    # On the gate's fixtures and every benchmark design, the two readers of
    # the theory report give its fields bit for bit, and the information is
    # the same bits as a sum over the rule's probabilities at x theta'.
    workloads = _load("workloads")
    fixtures = [f1_config(n=100, replicates=1, seed=0), two_point_config(n=100, replicates=1, seed=0),
                bb_config(n=100, replicates=1, seed=0), *coincidence_configs(0)]
    cases = [(raw, None) for raw in fixtures] + [
        (design.config, design.theory_opts)
        for name in workloads.NAMES for design in workloads.designs(name, 7)]
    for raw, theory_opts in cases:
        cfg = carasim.parse_config(raw)
        model, rule = cfg.model, cfg.rule
        opts = carasim.TheoryOptions(**(theory_opts or {}))
        rep = carasim.theory_report(model, rule, opts=opts)
        im = carasim.info_matrices(model, rule, opts)
        assert np.array_equal(im.info, rep.info) and np.array_equal(im.V, rep.V)
        assert (im.method.kind, im.method.size) == (rep.method.kind, rep.method.size)
        if theory_opts is None:  # the scaled covariance reads the default options
            assert np.array_equal(carasim.scaled_mle_covariance(model, rule),
                                  rep.v[:, None, None] * rep.V)
        pts, w, _ = expectation_nodes(model.covariates, opts)
        theta = model.true_theta
        info = _fisher_gram(model, pts, w[:, None] * probabilities(rule, theta, pts), pts @ theta.T)
        assert np.array_equal(info, rep.info)


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
