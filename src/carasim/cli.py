"""Command-line interface.

Subcommands
-----------
simulate   run one adaptive trial and emit its per-patient CSV
theory     print the asymptotic theory report for a configuration
replicate  run Monte Carlo replications and store summary outputs
verify     run verification criteria; exits nonzero if any check fails
report     re-render stored replication results as text

Every subcommand but ``report`` reads the same JSON configuration document
(``--config``).  ``--seed`` (simulate, replicate, verify) and ``--workers``
(replicate, verify) override the values stored in it; each subcommand
accepts only the flags it reads.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .asymptotics import theory_report
from .engine import replicate_root, run_trial
from .harness import (
    ConfigError,
    emit_reports,
    parse_config,
    run_replications,
    summary_payload,
    theory_payload,
    verification_json_bytes,
    verify,
)


def _load_config(args):
    if args.config is None:
        raise ConfigError("a configuration file is required (--config <path>)")
    cfg = parse_config(args.config)
    if getattr(args, "seed", None) is not None:
        # Set in the document too: replication workers parse it again.
        rep = dict(cfg.raw.get("replication", {}), seed=args.seed)
        cfg = parse_config(dict(cfg.raw, replication=rep))
    if getattr(args, "workers", None) is not None:
        cfg = replace(cfg, workers=args.workers)
    return cfg


def _out_dir(args) -> Path | None:
    """The ``--out`` directory (None without one), created before the
    command does any work, so that a path that cannot be written fails at
    once."""
    if args.out is None:
        return None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    hist = run_trial(cfg.model, cfg.rule, cfg.n, cfg.m0,
                     replicate_root(cfg.seed, 0), cfg.engine_options())
    if out is None:
        sys.stdout.write(hist.to_patient_csv())
        return 0
    hist.to_patient_csv(out / "patients.csv")
    hist.to_json(out / "trial.json")
    counts = ", ".join(f"N_{k + 1}={c}" for k, c in enumerate(hist.counts()))
    print(f"simulated n={cfg.n} patients (seed {cfg.seed}): {counts}")
    print(f"wrote {out / 'patients.csv'} and {out / 'trial.json'}")
    return 0


def _cmd_theory(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    rep = theory_report(cfg.model, cfg.rule, cfg.x_list)
    text = json.dumps(theory_payload(rep), indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        (out / "theory.json").write_text(text)
        print(f"wrote {out / 'theory.json'}")
    return 0


def _cmd_replicate(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    summary = run_replications(cfg)
    if out is not None:
        paths = emit_reports(summary, out)
        print(f"wrote {paths['report']} and {paths['replicates']}")
    print(_summary_text(summary_payload(summary)))
    return 0


def _fmt_matrix(m: dict) -> str:
    a = np.asarray(m["data"], dtype=float).reshape(m["shape"])
    return np.array2string(a, precision=5, suppress_small=False)


def _summary_text(payload: dict) -> str:
    emp, theory = payload["empirical"], payload["theory"]
    lines = [
        f"replicates: {payload['replicates']} (failures: {len(payload['failures'])}), "
        f"n = {payload['n']}, master seed = {payload['master_seed']}",
        f"target allocation v: {_fmt_matrix(theory['v'])}",
        f"allocation deviation mean: {_fmt_matrix(emp['alloc_dev_mean'])}",
        f"allocation variance / Sigma diagonal: {_fmt_matrix(emp['var_ratio_alloc'])}",
        f"estimator variance / theta_hat covariance diagonal:\n{_fmt_matrix(emp['var_ratio_theta'])}",
    ]
    for cond in emp["conditional"]:
        x = _fmt_matrix(cond["x"])
        lines.append(f"conditional at x = {x}: mass in {cond['replicates_with_mass']} replicates, "
                     f"deviation mean {_fmt_matrix(cond['dev_mean'])}")
    if payload.get("plugins"):
        p = payload["plugins"]
        if p["rel_dev_sigma_median"] is None:
            lines.append("plug-in median relative deviation: no replicate has plug-in estimates")
        else:
            lines.append(f"plug-in median relative deviation: Sigma {p['rel_dev_sigma_median']:.4g}, "
                         f"V {_fmt_matrix(p['rel_dev_V_median'])}")
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    cfg = _load_config(args) if args.config is not None else None
    out = _out_dir(args)
    if cfg is not None:
        report = verify(tuple(args.criteria or cfg.criteria), seed=cfg.seed, workers=cfg.workers)
    else:
        criteria = tuple(args.criteria) if args.criteria else ("all",)
        report = verify(criteria, seed=args.seed,
                        workers=args.workers if args.workers is not None else 1)
    for check in report.checks:
        print(check.line())
    n_pass = sum(c.passed for c in report.checks)
    print(f"{'PASS' if report.passed else 'FAIL'}: {n_pass}/{len(report.checks)} checks passed")
    if out is not None:
        (out / "verification.json").write_bytes(verification_json_bytes(report))
        print(f"wrote {out / 'verification.json'}")
    return 0 if report.passed else 1


def _cmd_report(args) -> int:
    if args.out is None:
        raise ConfigError("report needs the directory that holds report.json (--out <dir>)")
    path = Path(args.out) / "report.json"
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read stored results at {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"stored results at {path} are not valid JSON: {exc}") from exc
    try:
        text = _summary_text(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"stored results at {path} are not a replication report "
                          f"({type(exc).__name__}: {exc})") from exc
    print(text)
    return 0


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


_FLAGS = {
    "config": dict(type=str, default=None, help="path to a JSON experiment configuration"),
    "seed": dict(type=int, default=None, help="master seed (overrides the configuration)"),
    "workers": dict(type=positive_int, default=None,
                    help="worker processes, at least 1 (overrides the configuration)"),
    "criteria": dict(action="append", default=None, metavar="NAME",
                     help="verification criterion or alias; repeatable"),
    "out": dict(type=str, default=None, help="output directory"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carasim",
        description="Simulate and verify covariate-adjusted response-adaptive designs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, flags):
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(fn=fn)

    add("simulate", _cmd_simulate, "run one adaptive trial", ("config", "seed", "out"))
    add("theory", _cmd_theory, "print the asymptotic theory report", ("config", "out"))
    add("replicate", _cmd_replicate, "run Monte Carlo replications",
        ("config", "seed", "workers", "out"))
    add("verify", _cmd_verify, "run verification criteria",
        ("config", "seed", "workers", "criteria", "out"))
    add("report", _cmd_report, "re-render stored replication results", ("out",))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
