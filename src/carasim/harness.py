"""Experiment configuration, Monte Carlo replication, verification, reports.

The harness turns a JSON experiment document into validated objects, fans
replicated trials out over workers with per-replicate seed derivation
(replicate ``i`` of master seed ``s`` uses the stream rooted at
``SeedSequence(s, spawn_key=(i,))``), aggregates empirical moments against
the asymptotic theory, and emits deterministic reports: byte-identical for
the same (config, master seed) at any worker count.

Replicates run in lockstep batches (:func:`carasim.engine.run_trials`),
each worker over one block of consecutive replicates; every output is
independent of the batch size and of the blocks.  The aggregates read what
the library returns, each batch's ``TrialBatch`` and each replicate's
``PluginReport``, with no second record per replicate.  Covariances are sample
covariances (denominator R - 1) computed over the successfully completed
replicates in replicate-index order.  A replicate whose trial raises is
left out of every aggregate; one whose plug-in estimates raise is left out
of the plug-in aggregates only.  Both kinds of failure are reported, each
as (replicate index, exception type, message).
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, fixtures
from .allocation import KIND_PARAMS, AllocationRule, check_rule
from .asymptotics import (
    TheoryReport,
    bb_closed_forms,
    iid_mle_covariance,
    plugin_estimates,
    scaled_mle_covariance,
    theory_report,
)
from .engine import EngineOptions, bytes_per_patient, replicate_root, run_trials
from .estimation import ArmSample, fit_linear_lse, fit_logistic_mle
from .model import ArmModel, Constant, CovariateSpec, TrialModel, TwoPoint, Uniform

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ReplicationSummary",
    "PluginAggregates",
    "CriterionCheck",
    "VerificationReport",
    "parse_config",
    "run_replications",
    "emit_reports",
    "theory_payload",
    "summary_payload",
    "report_json_bytes",
    "verification_json_bytes",
    "verify",
    "CRITERIA",
    "CRITERIA_ALIASES",
]


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _need(doc: dict, key: str, ctx: str):
    if key not in doc:
        raise ConfigError(f"missing key '{ctx}.{key}'" if ctx else f"missing key '{key}'")
    return doc[key]


def _as_mapping(value, ctx: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"key '{ctx}' must be an object")
    return value


def _known(doc: dict, ctx: str, keys: tuple[str, ...], why: str = "") -> None:
    """Reject any key of ``doc`` outside ``keys``."""
    for key in doc:
        if key not in keys:
            where = f"{ctx}.{key}" if ctx else key
            raise ConfigError(f"unknown key '{where}'{why}; expected only {', '.join(keys)}")


def _kind(doc: dict, ctx: str, keys_of: dict) -> str:
    """``doc['kind']``, one of the kinds in ``keys_of``; ``doc`` may hold
    only ``kind`` and the keys ``keys_of[kind]``."""
    kind = _need(doc, "kind", ctx)
    if kind not in tuple(keys_of):
        raise ConfigError(f"key '{ctx}.kind' must be one of {', '.join(keys_of)}; got {kind!r}")
    _known(doc, ctx, ("kind",) + keys_of[kind], f" for kind {kind!r}")
    return kind


def _as_int(value, ctx: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"key '{ctx}' must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"key '{ctx}' must be >= {minimum}, got {value}")
    return value


def _as_bool(value, ctx: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"key '{ctx}' must be true or false")
    return value


def _as_number(value, ctx: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"key '{ctx}' must be a number")
    return float(value)


def _as_array(value, ctx: str) -> np.ndarray:
    """A number, or arrays of numbers nested to one shape, as floats."""
    def numbers(v):
        if isinstance(v, (list, tuple)):
            return all(map(numbers, v))
        return isinstance(v, (int, float)) and not isinstance(v, bool)
    try:
        if numbers(value):
            return np.asarray(value, dtype=float)
    except ValueError:  # nested to more than one shape
        pass
    raise ConfigError(f"key '{ctx}' must be a number or an array of numbers of one shape")


# The keys each kind of coordinate, covariate spec and rule reads (a rule's
# are its parameters in ``allocation.KIND_PARAMS``, with ``g_name`` keyed ``g``).
_COORD_KEYS = {"uniform": ("lo", "hi"), "two-point": ("a", "b", "p_a"), "constant": ("value",)}
_COVARIATE_KEYS = {"discrete": ("support", "probs", "intercept"),
                   "continuous-product": ("coords", "intercept"), "constant": ("values",)}
_RULE_KEYS = {kind: tuple("g" if p == "g_name" else p for p in params)
              for kind, params in KIND_PARAMS.items()}


def _parse_coord(doc, ctx: str):
    doc = _as_mapping(doc, ctx)
    kind = _kind(doc, ctx, _COORD_KEYS)
    try:
        if kind == "uniform":
            return Uniform(_as_number(_need(doc, "lo", ctx), f"{ctx}.lo"),
                           _as_number(_need(doc, "hi", ctx), f"{ctx}.hi"))
        if kind == "two-point":
            return TwoPoint(_as_number(_need(doc, "a", ctx), f"{ctx}.a"),
                            _as_number(_need(doc, "b", ctx), f"{ctx}.b"),
                            _as_number(doc.get("p_a", 0.5), f"{ctx}.p_a"))
        return Constant(_as_number(_need(doc, "value", ctx), f"{ctx}.value"))
    except ValueError as exc:
        raise ConfigError(f"invalid coordinate at '{ctx}': {exc}") from exc


def _parse_covariates(doc, ctx: str) -> CovariateSpec:
    doc = _as_mapping(doc, ctx)
    kind = _kind(doc, ctx, _COVARIATE_KEYS)
    try:
        if kind == "discrete":
            return CovariateSpec.discrete(_as_array(_need(doc, "support", ctx), f"{ctx}.support"),
                                          _as_array(_need(doc, "probs", ctx), f"{ctx}.probs"),
                                          intercept=_as_bool(doc.get("intercept", False),
                                                             f"{ctx}.intercept"))
        if kind == "continuous-product":
            coords = _need(doc, "coords", ctx)
            if not isinstance(coords, list) or not coords:
                raise ConfigError(f"key '{ctx}.coords' must be a non-empty array")
            parsed = [_parse_coord(c, f"{ctx}.coords[{i}]") for i, c in enumerate(coords)]
            return CovariateSpec.product(
                parsed, intercept=_as_bool(doc.get("intercept", False), f"{ctx}.intercept"))
        return CovariateSpec.constant(_as_array(_need(doc, "values", ctx), f"{ctx}.values"))
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid covariate spec at '{ctx}': {exc}") from exc


def _parse_model(doc, ctx: str = "model") -> TrialModel:
    doc = _as_mapping(doc, ctx)
    _known(doc, ctx, ("arms", "covariates", "true_theta", "box_lo", "box_hi", "shared_slopes"))
    arms_doc = _need(doc, "arms", ctx)
    if not isinstance(arms_doc, list) or len(arms_doc) < 2:
        raise ConfigError(f"key '{ctx}.arms' must be an array of at least two arms")
    arms = []
    for i, a in enumerate(arms_doc):
        a = _as_mapping(a, f"{ctx}.arms[{i}]")
        _known(a, f"{ctx}.arms[{i}]", ("family", "dispersion"))
        family = _need(a, "family", f"{ctx}.arms[{i}]")
        try:
            arms.append(ArmModel(family=family,
                                 dispersion=_as_number(a.get("dispersion", 1.0),
                                                       f"{ctx}.arms[{i}].dispersion")))
        except ValueError as exc:
            raise ConfigError(f"invalid arm at '{ctx}.arms[{i}]': {exc}") from exc
    covariates = _parse_covariates(_need(doc, "covariates", ctx), f"{ctx}.covariates")
    theta, lo, hi = (_as_array(_need(doc, key, ctx), f"{ctx}.{key}")
                     for key in ("true_theta", "box_lo", "box_hi"))
    shared_slopes = _as_bool(doc.get("shared_slopes", False), f"{ctx}.shared_slopes")
    try:
        return TrialModel(arms=tuple(arms), covariates=covariates, true_theta=theta,
                          box_lo=lo, box_hi=hi, shared_slopes=shared_slopes)
    except ValueError as exc:
        raise ConfigError(f"invalid model at '{ctx}': {exc}") from exc


def _parse_rule(doc, ctx: str = "rule") -> AllocationRule:
    doc = _as_mapping(doc, ctx)
    kind = _kind(doc, ctx, _RULE_KEYS)
    T = doc.get("T")
    if T is not None:
        T = _as_number(T, f"{ctx}.T")
    try:
        return AllocationRule(kind=kind, T=T, g_name=doc.get("g"))
    except ValueError as exc:
        raise ConfigError(f"invalid rule at '{ctx}': {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    model: TrialModel
    rule: AllocationRule
    n: int
    m0: int
    theta_stride: int
    replicates: int
    seed: int
    workers: int
    x_list: tuple[np.ndarray, ...]
    plugins: bool
    criteria: tuple[str, ...]
    raw: dict

    def engine_options(self) -> EngineOptions:
        return EngineOptions(theta_stride=self.theta_stride)


def parse_config(document: dict | str | Path) -> ExperimentConfig:
    """Validate a JSON experiment document (mapping, JSON text, or file path)."""
    if isinstance(document, (str, Path)):
        path = Path(document)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigError("config document must be a JSON object")
    _known(document, "", ("model", "rule", "trial", "replication", "criteria"))

    model = _parse_model(_need(document, "model", ""))
    rule = _parse_rule(_need(document, "rule", ""))
    try:
        check_rule(rule, model.K)
    except ValueError as exc:
        raise ConfigError(f"key 'rule.kind' = {rule.kind!r}: {exc}, got K = {model.K}") from exc
    if rule.kind == "covariate-free-normal" and not model.covariates.has_unit_first_coordinate():
        raise ConfigError("key 'rule.kind' = 'covariate-free-normal' requires a leading "
                          "constant-1 covariate coordinate (arm means as intercepts)")

    trial = _as_mapping(document.get("trial", {}), "trial")
    _known(trial, "trial", ("n", "m0", "theta_stride"))
    n = _as_int(_need(trial, "n", "trial"), "trial.n", minimum=1)
    m0 = _as_int(trial.get("m0", model.d + 1), "trial.m0", minimum=1)
    if m0 < model.d + 1:
        raise ConfigError(f"key 'trial.m0' must be at least d + 1 = {model.d + 1}, got {m0}")
    if n < model.K * m0:
        raise ConfigError(f"key 'trial.n' = {n} is smaller than the burn-in size "
                          f"K * m0 = {model.K * m0}")
    theta_stride = _as_int(trial.get("theta_stride", 1), "trial.theta_stride", minimum=1)

    rep = _as_mapping(document.get("replication", {}), "replication")
    _known(rep, "replication", ("replicates", "seed", "workers", "plugins", "x_list"))
    replicates = _as_int(rep.get("replicates", 1), "replication.replicates", minimum=1)
    seed = _as_int(rep.get("seed", 0), "replication.seed", minimum=0)
    workers = _as_int(rep.get("workers", 1), "replication.workers", minimum=1)
    plugins = _as_bool(rep.get("plugins", False), "replication.plugins")
    x_raw = rep.get("x_list", [])
    if not isinstance(x_raw, list):
        raise ConfigError("key 'replication.x_list' must be an array of covariate points")
    x_list = []
    for j, xv in enumerate(x_raw):
        x = _as_array(xv, f"replication.x_list[{j}]").ravel()
        if x.shape != (model.d,):
            raise ConfigError(f"key 'replication.x_list[{j}]' has dimension {x.shape[0]}, "
                              f"expected {model.d}")
        if model.covariates.mass(x) <= 0.0:
            raise ConfigError(f"key 'replication.x_list[{j}]' = {x.tolist()} is not a "
                              "support point of the covariate distribution")
        x.setflags(write=False)
        x_list.append(x)

    criteria = document.get("criteria", [])
    if not isinstance(criteria, list) or not all(isinstance(c, str) for c in criteria):
        raise ConfigError("key 'criteria' must be an array of criterion names")
    for i, name in enumerate(criteria):
        try:
            _resolve_criteria((name,))
        except ValueError as exc:
            raise ConfigError(f"key 'criteria[{i}]': {exc}") from exc

    return ExperimentConfig(model=model, rule=rule, n=n, m0=m0, theta_stride=theta_stride,
                            replicates=replicates, seed=seed, workers=workers,
                            x_list=tuple(x_list), plugins=plugins, criteria=tuple(criteria),
                            raw=json.loads(json.dumps(document)))


# ---------------------------------------------------------------------------
# Replication driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PluginAggregates:
    """Medians over the replicates with plug-in estimates; every median is
    None when no replicate has them."""

    sigma_hat_median: np.ndarray | None
    sigma1_hat_median: np.ndarray | None
    V_hat_median: np.ndarray | None
    cond_sigma_median: np.ndarray | None  # (nx, K, K)
    rel_dev_sigma_median: float | None
    rel_dev_V_median: np.ndarray | None  # (K,)
    warning_count: int


@dataclass(frozen=True)
class ReplicationSummary:
    n: int
    K: int
    d: int
    replicates: int
    master_seed: int
    theory: TheoryReport
    counts: np.ndarray  # (R, K)
    theta_hat: np.ndarray  # (R, K, d)
    cond_totals: np.ndarray  # (R, nx)
    cond_counts: np.ndarray  # (R, nx, K)
    ok: np.ndarray  # (R,) bool: the trial ran
    failures: tuple[tuple[int, str, str], ...]  # (replicate, exception type, message) per failed trial
    plugin_failures: tuple[tuple[int, str, str], ...]  # the same for plug-in estimates
    x_list: tuple[np.ndarray, ...]
    alloc_dev_mean: np.ndarray  # (K,)
    alloc_dev_cov: np.ndarray  # (K, K)
    theta_dev_mean: np.ndarray  # (K, d)
    theta_dev_cov: np.ndarray  # (K*d, K*d)
    cond_dev_mean: np.ndarray  # (nx, K)
    cond_dev_cov: np.ndarray  # (nx, K, K)
    cond_valid: np.ndarray  # (nx,)
    var_ratio_alloc: np.ndarray  # (K,)
    var_ratio_theta: np.ndarray  # (K, d)
    plugins: PluginAggregates | None
    config: dict


def _sample_cov(devs: np.ndarray) -> np.ndarray:
    """Two-pass sample covariance (denominator R - 1) of (R, p) deviations."""
    R = devs.shape[0]
    if R < 2:
        return np.zeros((devs.shape[1], devs.shape[1]))
    centred = devs - devs.mean(axis=0)
    return centred.T @ centred / (R - 1)


# Replicates run in lockstep batches of _BATCH.  Engine microseconds per
# patient on the gate fixtures at n = 2000 (one 2-vCPU x86_64 host, one BLAS
# thread), for batches of 16 / 64 / 256 / 1024: F1 3.5 / 1.3 / 0.74 / 0.47,
# two-point 9.3 / 5.5 / 4.8 / 4.8, bb 6.0 / 2.1 / 1.2 / 1.1; past 256 the
# gain is small and the batch's arrays only grow.  Batches are smaller where
# what they keep per patient (engine.bytes_per_patient) would pass
# _BATCH_BYTES.  No output depends on either.
_BATCH = 256
_BATCH_BYTES = 64 * 2**20


def _failure(i: int, exc: Exception) -> tuple[int, str, str]:
    return (i, type(exc).__name__, str(exc))


def _replicate_block(raw: dict, indices: list[int]) -> tuple[list, list, list, list]:
    """Run replicates ``indices`` of the experiment ``raw`` in lockstep batches.

    Returns what the engine and the plug-ins give, in replicate order: each
    batch as (its replicate indices, its ``TrialBatch``, histories dropped
    once their plug-in estimates are taken), each ``PluginReport``, and the
    failures of trials and of plug-in estimates.
    """
    cfg = parse_config(raw)
    model, rule = cfg.model, cfg.rule
    opts = cfg.engine_options()
    batches, reports, failures, plugin_failures = [], [], [], []

    def run(rows: list[int]):
        seeds = [replicate_root(cfg.seed, i) for i in rows]
        return run_trials(model, rule, cfg.n, cfg.m0, seeds, opts, histories=cfg.plugins)

    size = _BATCH
    per_patient = bytes_per_patient(model, cfg.plugins)
    if per_patient:
        size = max(1, min(size, _BATCH_BYTES // (per_patient * cfg.n)))
    for start in range(0, len(indices), size):
        rows = indices[start:start + size]
        try:
            done = [(rows, run(rows))]
        except Exception:
            # A trial that raises stops its whole batch: run the batch's
            # replicates one at a time, so that only the failing ones are lost.
            done = []
            for i in rows:
                try:
                    done.append(([i], run([i])))
                except Exception as exc:
                    failures.append(_failure(i, exc))
        for rows, batch in done:
            for i, hist in zip(rows, batch.histories or ()):
                try:
                    reports.append(plugin_estimates(hist, model, rule, cfg.x_list))
                except Exception as exc:
                    plugin_failures.append(_failure(i, exc))
            batches.append((rows, replace(batch, histories=None)))
    return batches, reports, failures, plugin_failures


def run_replications(config: ExperimentConfig, workers: int | None = None) -> ReplicationSummary:
    """Run R independent trials and aggregate them against the theory report.

    Replicate ``i`` always uses the stream rooted at ``(master seed, i)``, so
    the summary is identical for any worker count.  Per-replicate failures
    are recorded and skipped in the aggregates; the run continues.  The
    empirical variances are scored against the diagonals of the theory
    report's Sigma and theta_cov.  Every trial refits its
    estimates after each patient, and with ``replication.plugins`` each
    replicate's plug-in estimates use the model's dispersions, as the
    theory does.
    """
    if workers is None:
        workers = config.workers
    model, rule = config.model, config.rule
    K, d, nx = model.K, model.d, len(config.x_list)
    R = config.replicates
    theory = theory_report(model, rule, config.x_list)

    # Each worker runs one block of consecutive replicates.
    blocks = [b.tolist() for b in np.array_split(np.arange(R), max(1, min(workers, R)))]
    if len(blocks) == 1:
        results = [_replicate_block(config.raw, blocks[0])]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=len(blocks)) as pool:
            results = list(pool.map(_replicate_block, [config.raw] * len(blocks), blocks))

    counts = np.zeros((R, K), dtype=np.int64)
    theta_hat = np.zeros((R, K, d))
    cond_counts = np.zeros((R, nx, K), dtype=np.int64)
    ok = np.zeros(R, dtype=bool)
    if nx:
        support = model.covariates.enumerated()[0]
        at_x = np.array([[np.all(p == x) for x in config.x_list] for p in support], dtype=np.int64)
    reports, failures, plugin_failures = [], [], []
    for batches, block_reports, block_failures, block_plugin_failures in results:
        for rows, batch in batches:
            counts[rows], theta_hat[rows], ok[rows] = batch.counts, batch.theta, True
            if nx:
                # Patients per arm at each x_list point: sum over the support
                # points equal to it.
                cond_counts[rows] = np.einsum("bks,sq->bqk", batch.support_counts, at_x)
        reports += block_reports
        failures += block_failures
        plugin_failures += block_plugin_failures
    cond_totals = cond_counts.sum(axis=2)

    good = np.flatnonzero(ok)
    sqrt_n = math.sqrt(config.n)

    alloc_dev = sqrt_n * (counts[good] / config.n - theory.v)
    alloc_dev_mean = alloc_dev.mean(axis=0) if good.size else np.zeros(K)
    alloc_dev_cov = _sample_cov(alloc_dev)

    theta_dev = sqrt_n * (theta_hat[good] - model.true_theta)
    theta_flat = theta_dev.reshape(good.size, K * d) if good.size else np.zeros((0, K * d))
    theta_dev_mean = theta_dev.mean(axis=0) if good.size else np.zeros((K, d))
    theta_dev_cov = _sample_cov(theta_flat)

    cond_dev_mean = np.zeros((nx, K))
    cond_dev_cov = np.zeros((nx, K, K))
    cond_valid = np.zeros(nx, dtype=int)
    for q in range(nx):
        totals = cond_totals[good, q].astype(float)
        valid = totals > 0
        cond_valid[q] = int(valid.sum())
        if not np.any(valid):
            continue
        frac = cond_counts[good, q][valid] / totals[valid, None]
        dev = np.sqrt(totals[valid, None]) * (frac - theory.conditional[q].pi)
        cond_dev_mean[q] = dev.mean(axis=0)
        cond_dev_cov[q] = _sample_cov(dev)

    var_ratio_alloc = np.diag(alloc_dev_cov) / np.diag(theory.sigma)
    var_ratio_theta = (np.diag(theta_dev_cov) / np.diag(theory.theta_cov)).reshape(K, d)

    plugins = None
    if config.plugins and not reports:
        plugins = PluginAggregates(None, None, None, None, None, None, warning_count=0)
    elif config.plugins:
        # One row per replicate whose trial and plug-in estimates ran.
        def stacked(values: list, *shape: int) -> np.ndarray:
            return np.array(values).reshape((len(reports),) + shape)

        p_sigma = stacked([r.sigma_hat for r in reports], K, K)
        p_V = stacked([r.V_hat for r in reports], K, d, d)
        p_cond = stacked([[c.sigma for c in r.conditional] for r in reports], nx, K, K)
        # Relative deviations in the max-abs norm, one per replicate (and arm).
        rel_sigma = np.abs(p_sigma - theory.sigma).max(axis=(1, 2)) / np.abs(theory.sigma).max()
        rel_V = np.abs(p_V - theory.V).max(axis=(2, 3)) / np.abs(theory.V).max(axis=(1, 2))
        plugins = PluginAggregates(
            sigma_hat_median=np.median(p_sigma, axis=0),
            sigma1_hat_median=np.median(stacked([r.sigma1_hat for r in reports], K, K), axis=0),
            V_hat_median=np.median(p_V, axis=0),
            cond_sigma_median=np.median(p_cond, axis=0) if nx else np.zeros((0, K, K)),
            rel_dev_sigma_median=float(np.median(rel_sigma)),
            rel_dev_V_median=np.median(rel_V, axis=0),
            warning_count=sum(len(r.warnings) for r in reports),
        )

    return ReplicationSummary(
        n=config.n, K=K, d=d, replicates=R, master_seed=config.seed, theory=theory,
        counts=counts, theta_hat=theta_hat, cond_totals=cond_totals,
        cond_counts=cond_counts, ok=ok, failures=tuple(sorted(failures)),
        plugin_failures=tuple(sorted(plugin_failures)), x_list=config.x_list,
        alloc_dev_mean=alloc_dev_mean, alloc_dev_cov=alloc_dev_cov,
        theta_dev_mean=theta_dev_mean, theta_dev_cov=theta_dev_cov,
        cond_dev_mean=cond_dev_mean, cond_dev_cov=cond_dev_cov, cond_valid=cond_valid,
        var_ratio_alloc=var_ratio_alloc, var_ratio_theta=var_ratio_theta,
        plugins=plugins, config=config.raw)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def _mat(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=float)
    return {"shape": [int(s) for s in a.shape],
            "data": [float(v) for v in a.ravel(order="C")]}


def theory_payload(t: TheoryReport) -> dict:
    return {
        "method": {"kind": t.method.kind, "size": int(t.method.size),
                   "stderr": None if t.method.stderr is None else float(t.method.stderr)},
        "v": _mat(t.v),
        "dg": _mat(t.dg),
        "info": _mat(t.info),
        "V": _mat(t.V),
        "theta_cov": _mat(t.theta_cov),
        "sigma1": _mat(t.sigma1),
        "sigma2": _mat(t.sigma2),
        "sigma": _mat(t.sigma),
        "conditional": [
            {"x": _mat(c.x), "mass": float(c.mass), "pi": _mat(c.pi), "sigma": _mat(c.sigma)}
            for c in t.conditional
        ],
    }


def _failure_payload(f: tuple[int, str, str]) -> dict:
    return {"replicate": int(f[0]), "type": f[1], "message": f[2]}


def summary_payload(s: ReplicationSummary) -> dict:
    payload = {
        "version": __version__,
        "config": s.config,
        "master_seed": int(s.master_seed),
        "n": int(s.n),
        "replicates": int(s.replicates),
        "failures": [_failure_payload(f) for f in s.failures],
        "plugin_failures": [_failure_payload(f) for f in s.plugin_failures],
        "theory": theory_payload(s.theory),
        "empirical": {
            "alloc_dev_mean": _mat(s.alloc_dev_mean),
            "alloc_dev_cov": _mat(s.alloc_dev_cov),
            "theta_dev_mean": _mat(s.theta_dev_mean),
            "theta_dev_cov": _mat(s.theta_dev_cov),
            "var_ratio_alloc": _mat(s.var_ratio_alloc),
            "var_ratio_theta": _mat(s.var_ratio_theta),
            "conditional": [
                {"x": _mat(s.x_list[q]), "replicates_with_mass": int(s.cond_valid[q]),
                 "dev_mean": _mat(s.cond_dev_mean[q]), "dev_cov": _mat(s.cond_dev_cov[q])}
                for q in range(len(s.x_list))
            ],
        },
        "plugins": None,
    }
    if s.plugins is not None:
        p = s.plugins
        payload["plugins"] = {
            name: None if value is None else _mat(value)
            for name, value in (("sigma_hat_median", p.sigma_hat_median),
                                ("sigma1_hat_median", p.sigma1_hat_median),
                                ("V_hat_median", p.V_hat_median),
                                ("cond_sigma_median", p.cond_sigma_median),
                                ("rel_dev_V_median", p.rel_dev_V_median))}
        payload["plugins"].update(
            rel_dev_sigma_median=None if p.rel_dev_sigma_median is None
            else float(p.rel_dev_sigma_median),
            warning_count=int(p.warning_count))
    return payload


def report_json_bytes(s: ReplicationSummary) -> bytes:
    return (json.dumps(summary_payload(s), indent=2, sort_keys=True) + "\n").encode()


def replicate_csv_lines(s: ReplicationSummary) -> list[str]:
    K, d, nx = s.K, s.d, len(s.x_list)
    cols = ["replicate", "seed"]
    cols += [f"N_{k + 1}" for k in range(K)]
    cols += [f"theta_{k + 1}_{j + 1}" for k in range(K) for j in range(d)]
    for q in range(nx):
        cols.append(f"n_x{q + 1}")
        cols += [f"p_x{q + 1}_{k + 1}" for k in range(K)]
    lines = [",".join(cols)]
    for i in range(s.replicates):
        if not s.ok[i]:
            continue
        row = [str(i), str(s.master_seed)]
        row += [str(int(c)) for c in s.counts[i]]
        row += [f"{v:.17g}" for v in s.theta_hat[i].ravel(order="C")]
        for q in range(nx):
            total = int(s.cond_totals[i, q])
            row.append(str(total))
            if total > 0:
                row += [f"{s.cond_counts[i, q, k] / total:.17g}" for k in range(K)]
            else:
                row += ["nan"] * K
        lines.append(",".join(row))
    return lines


def emit_reports(summary: ReplicationSummary, out_dir) -> dict:
    """Write the JSON report and per-replicate CSV into ``out_dir``; returns
    the paths written."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        paths = {}
        report = out / "report.json"
        report.write_bytes(report_json_bytes(summary))
        paths["report"] = str(report)
        csv_path = out / "replicates.csv"
        with open(csv_path, "w", newline="\n") as f:
            f.write("\n".join(replicate_csv_lines(summary)) + "\n")
        paths["replicates"] = str(csv_path)
        return paths
    except OSError as exc:
        raise OSError(f"failed writing reports under {out}: {exc}") from exc


# ---------------------------------------------------------------------------
# Verification criteria
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriterionCheck:
    criterion: str
    check: str
    observed: float
    target: float
    band: tuple[float, float]
    passed: bool

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        observed = f"{self.observed:.6g}" if math.isfinite(self.observed) else "null"
        return (f"{verdict} {self.criterion}/{self.check}: observed {observed}, "
                f"target {self.target:.6g}, band [{self.band[0]:.6g}, {self.band[1]:.6g}]")


@dataclass(frozen=True)
class VerificationReport:
    master_seed: int
    criteria: tuple[str, ...]
    checks: tuple[CriterionCheck, ...]
    passed: bool


def verification_json_bytes(report: VerificationReport) -> bytes:
    payload = {
        "master_seed": int(report.master_seed),
        "criteria": list(report.criteria),
        "passed": bool(report.passed),
        "checks": [
            {"criterion": c.criterion, "check": c.check,
             "observed": float(c.observed) if math.isfinite(c.observed) else None,
             "target": float(c.target), "band": [float(c.band[0]), float(c.band[1])],
             "passed": bool(c.passed)}
            for c in report.checks
        ],
    }
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def _abs_check(criterion: str, check: str, observed: float,
               lo: float, hi: float, target: float = 0.0) -> CriterionCheck:
    """Pass when ``lo <= observed <= hi``."""
    return CriterionCheck(criterion=criterion, check=check, observed=float(observed),
                          target=float(target), band=(lo, hi), passed=lo <= observed <= hi)


def _ratio_check(criterion: str, check: str, observed: float, target: float,
                 lo: float, hi: float) -> CriterionCheck:
    """Pass when ``observed`` lies in the band [lo, hi] times ``target``."""
    return _abs_check(criterion, check, observed, lo * target, hi * target, target)


def _cached_summary(cache: dict, key: tuple, raw: dict, workers: int) -> ReplicationSummary:
    if key not in cache:
        cache[key] = run_replications(parse_config(raw), workers=workers)
    return cache[key]


def _c_theory_exact(seed, cache, workers):
    cfg = parse_config(fixtures.f1_config(n=100, replicates=1, seed=seed))
    rep = theory_report(cfg.model, cfg.rule)
    exact = fixtures.F1_EXACT
    out = []
    for name, got in (("v", rep.v), ("info", rep.info), ("V", rep.V),
                      ("sigma1", rep.sigma1), ("sigma2", rep.sigma2), ("sigma", rep.sigma)):
        dev = float(np.max(np.abs(np.asarray(got) - exact[name])))
        out.append(_abs_check("theory-exact", f"max-dev-{name}", dev, 0.0, 1e-10))
    return out


def _f1_clt_summary(seed, cache, workers):
    raw = fixtures.f1_config(n=1000, replicates=2000, seed=seed)
    return _cached_summary(cache, ("f1-clt", seed), raw, workers)


def _c_allocation_clt(seed, cache, workers):
    s = _f1_clt_summary(seed, cache, workers)
    return [
        _ratio_check("allocation-clt", "var-sqrt-n-N1", s.alloc_dev_cov[0, 0],
                     s.theory.sigma[0, 0], 0.85, 1.15),
        _abs_check("allocation-clt", "mean-sqrt-n-N1", s.alloc_dev_mean[0],
                   -0.09, 0.09),
    ]


def _c_estimator_clt(seed, cache, workers):
    s = _f1_clt_summary(seed, cache, workers)
    out = []
    for k in range(s.K):
        out.append(_ratio_check("estimator-clt", f"var-sqrt-n-theta{k + 1}",
                                s.theta_dev_cov[k * s.d, k * s.d],
                                s.theory.V[k, 0, 0], 0.85, 1.15))
    return out


def _c_conditional_clt(seed, cache, workers):
    raw = fixtures.two_point_config(n=2000, replicates=2000, seed=seed)
    s = _cached_summary(cache, ("two-point-clt", seed), raw, workers)
    out = []
    for q in range(len(s.x_list)):
        out.append(_ratio_check("conditional-clt", f"var-arm1-x{q + 1}",
                                s.cond_dev_cov[q, 0, 0],
                                s.theory.conditional[q].sigma[0, 0], 0.8, 1.2))
    return out


def _c_plugin_consistency(seed, cache, workers):
    raw = fixtures.f1_config(n=5000, replicates=100, seed=seed, plugins=True)
    s = _cached_summary(cache, ("f1-plugin", seed), raw, workers)
    p = s.plugins
    # Without a plug-in estimate there is no median, and every check fails.
    sigma = math.nan if p.rel_dev_sigma_median is None else p.rel_dev_sigma_median
    V = np.full(s.K, math.nan) if p.rel_dev_V_median is None else p.rel_dev_V_median
    out = [_abs_check("plugin-consistency", "median-rel-dev-sigma", sigma, 0.0, 0.10)]
    for k in range(s.K):
        out.append(_abs_check("plugin-consistency", f"median-rel-dev-V{k + 1}",
                              V[k], 0.0, 0.10))
    return out


def _c_bb_closed_forms(seed, cache, workers):
    raw = fixtures.bb_config(n=2000, replicates=2000, seed=seed)
    s = _cached_summary(cache, ("bb-clt", seed), raw, workers)
    cfg = parse_config(raw)
    bb = bb_closed_forms(cfg.model, cfg.rule)
    return [
        _ratio_check("bb-closed-forms", "var-sqrt-n-N1", s.alloc_dev_cov[0, 0],
                     bb.alloc_var, 0.85, 1.15),
        _ratio_check("bb-closed-forms", "var-sqrt-n-mu1", s.theta_dev_cov[0, 0],
                     bb.mu_cov[0, 0], 0.85, 1.15),
    ]


def _c_coincidence(seed, cache, workers):
    out = []
    for i, raw in enumerate(fixtures.coincidence_configs(seed)):
        cfg = parse_config(raw)
        adaptive = scaled_mle_covariance(cfg.model, cfg.rule)
        iid = iid_mle_covariance(cfg.model)
        dev = float(np.max(np.abs(adaptive - iid)))
        out.append(_abs_check("covariate-free-coincidence", f"fixture{i + 1}",
                              dev, 0.0, 1e-10))
    return out


def _c_mle_lse_oracle(seed, cache, workers):
    x, y = fixtures.MLE_X, fixtures.MLE_Y
    grid = np.arange(-5.0, 5.0 + 5e-5, 1e-4)
    mu = np.outer(grid, x)
    ll = (y * mu - np.logaddexp(0.0, mu)).sum(axis=1)
    theta_grid = float(grid[int(np.argmax(ll))])
    fit = fit_logistic_mle(ArmSample(X=x[:, None], y=y), np.array([-5.0]), np.array([5.0]))
    mle_dev = abs(float(fit.theta_hat[0]) - theta_grid)

    rng = np.random.default_rng(seed)
    Xl = np.column_stack([np.ones(50), rng.normal(size=50)])
    yl = Xl @ np.array([0.7, -1.2]) + rng.normal(size=50)
    A = Xl.T @ Xl
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    Ainv = np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]]) / det
    theta_closed = Ainv @ (Xl.T @ yl)
    lfit = fit_linear_lse(ArmSample(X=Xl, y=yl), np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
    lse_dev = float(np.max(np.abs(lfit.theta_hat - theta_closed)))
    return [
        _abs_check("mle-lse-oracle", "logistic-vs-grid", mle_dev, 0.0, 1e-3),
        _abs_check("mle-lse-oracle", "lse-vs-closed-form", lse_dev, 0.0, 1e-10),
    ]


def _c_consistency_rate(seed, cache, workers):
    medians = {}
    for n in (500, 2000, 10000):
        raw = fixtures.f1_config(n=n, replicates=200, seed=seed)
        s = _cached_summary(cache, ("f1-rate", n, seed), raw, workers)
        good = np.flatnonzero(s.ok)
        err = np.linalg.norm(
            (s.theta_hat[good] - parse_config(raw).model.true_theta).reshape(good.size, -1),
            axis=1)
        medians[n] = float(np.median(err))
    return [
        _abs_check("consistency-rate", "median-err-2000-over-500",
                   medians[2000] / medians[500], 0.0, 1.0 - 1e-12, target=1.0),
        _abs_check("consistency-rate", "median-err-10000-over-2000",
                   medians[10000] / medians[2000], 0.0, 1.0 - 1e-12, target=1.0),
    ]


def _c_determinism(seed, cache, workers):
    raw = fixtures.f1_config(n=200, replicates=32, seed=seed)
    cfg = parse_config(raw)
    b1 = report_json_bytes(run_replications(cfg, workers=1))
    b2 = report_json_bytes(run_replications(cfg, workers=1))
    b8 = report_json_bytes(run_replications(cfg, workers=8))
    v1 = verification_json_bytes(verify(("theory-exact",), seed=seed))
    v2 = verification_json_bytes(verify(("theory-exact",), seed=seed))
    return [
        _abs_check("determinism", "rerun-report-bytes", float(b1 != b2), 0.0, 0.0),
        _abs_check("determinism", "workers-1-vs-8-bytes", float(b1 != b8), 0.0, 0.0),
        _abs_check("determinism", "verify-rerun-bytes", float(v1 != v2), 0.0, 0.0),
    ]


CRITERIA = {
    "theory-exact": _c_theory_exact,
    "allocation-clt": _c_allocation_clt,
    "estimator-clt": _c_estimator_clt,
    "conditional-clt": _c_conditional_clt,
    "plugin-consistency": _c_plugin_consistency,
    "bb-closed-forms": _c_bb_closed_forms,
    "covariate-free-coincidence": _c_coincidence,
    "mle-lse-oracle": _c_mle_lse_oracle,
    "consistency-rate": _c_consistency_rate,
    "determinism": _c_determinism,
}

CRITERIA_ALIASES = {
    "all": tuple(CRITERIA),
    "f1": ("theory-exact", "allocation-clt", "estimator-clt",
           "plugin-consistency", "consistency-rate"),
    "smoke": ("theory-exact", "mle-lse-oracle", "covariate-free-coincidence"),
}


def _resolve_criteria(names) -> tuple[str, ...]:
    resolved: list[str] = []
    for name in names:
        expansion = CRITERIA_ALIASES.get(name, (name,))
        for item in expansion:
            if item not in CRITERIA:
                known = sorted(set(CRITERIA) | set(CRITERIA_ALIASES))
                raise ValueError(f"unknown criterion {item!r}; known names: {', '.join(known)}")
            if item not in resolved:
                resolved.append(item)
    if not resolved:
        raise ValueError("empty criteria set: nothing to verify")
    return tuple(resolved)


def verify(criteria=("all",), seed: int | None = None, workers: int = 1) -> VerificationReport:
    """Run the named verification criteria and report per-check verdicts.

    ``criteria`` accepts criterion slugs or aliases ("all", "f1", "smoke").
    ``seed`` defaults to the documented verification seed.  Criteria that
    score the same Monte Carlo run share it within the call.
    """
    names = _resolve_criteria(criteria)
    if seed is None:
        seed = fixtures.DEFAULT_SEED
    cache: dict = {}
    checks: list[CriterionCheck] = []
    for name in names:
        checks.extend(CRITERIA[name](seed, cache, workers))
    return VerificationReport(master_seed=seed, criteria=names, checks=tuple(checks),
                              passed=all(c.passed for c in checks))

