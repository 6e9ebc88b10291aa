"""Gate and engine timings for the BENCH trajectory.

    python bench/gate_bench.py --pr N --label change
    python bench/gate_bench.py --pr N --label parent --src OTHER_CHECKOUT/src

Times criteria 2, 3, 4, 6 and 9 of the verification gate at
``fixtures.DEFAULT_SEED`` (one worker and a fresh cache per criterion, as
``tests/test_acceptance.py`` runs them); the engine's microseconds per
patient on the F1, two-point and bb fixtures for batches of 1, 8 and 2000
replicates of ``ENGINE_N`` patients, and on the benchmark's
``continuous-logit`` design (``perfbench/workloads.py`` at
``fixtures.DEFAULT_SEED``: three logistic arms on one uniform covariate, 400
patients) for batches of 1, 10 and 256 (batches of at most
``ENGINE_REPEATS`` replicates are timed that many times); and the
microseconds per call of ``estimation.fit_one_cell`` (the one-cell IRLS
core, started at zero without the conditioning guard, as the engine refits
one cell) on ``IRLS_ROWS`` rows at d = 2 and d = 5, timed ``IRLS_REPEATS``
times; the milliseconds per call of
``asymptotics.theory_report`` and ``asymptotics.lse_sandwich`` at 64, 4,096
and 262,144 expectation nodes (the benchmark's ``theory-continuous`` designs
with one, two and three uniform coordinates, 64 Gauss-Legendre nodes each),
and the peak resident set size of a fresh process that computes the
262,144-node report.  Engine, IRLS and theory rows give
the best timing and the median of the timings scaled to the host speed at
which a fixed numpy kernel takes ``CALIBRATION_REF_S``; the kernel is timed
before and after each timing.  On a shared host the CPU's speed drifts by
tens of percent between two runs of this script, which the best timing
does not cancel, so compare the calibrated figures of two runs.  The
results go into ``BENCH_<pr>.json`` at the root of the repository under
``--label``; other
labels already in the file are kept, so the two sides of a comparison are
written by two runs of this script on the same machine.

``--src`` selects the carasim sources to time (default: this checkout's
``src/``).  All work is single-threaded (one BLAS thread).

    python bench/gate_bench.py --pr N --label change --interleave OTHER_CHECKOUT/src

times only the F1, two-point and bb engine rows, those of three variants
of the two-point fixture (three and five logistic arms, and two logistic
arms beside a normal arm; batches of 1, 8 and 256), rowwise rows (the
``continuous-logit`` design at the trial lengths and batches of
``ROWWISE_BATCHES``, where every refit runs IRLS on an arm's rows; the
(trial length, batch) pairs in ``ROWWISE_ROUNDS`` take that many rounds
instead; and one replicate of the benchmark's ``theory-continuous`` design
``SMALL_ROWWISE``, 60 patients at d = 5, whose tiny cells reach the
log-likelihood's overflow rule), and
``step()`` rows (``STEP_CALLS`` chained calls that continue a two-point or
bb trial of each of ``STEP_N`` patients, timed per call); the IRLS rows
(``fit_one_cell`` as above, in microseconds per fit, under the row names
``fit_grouped_logistic_mle/d=2`` and ``/d=5`` of earlier BENCH files); and the
theory rows: ``theory_report`` at 64, 4,096 and 262,144 nodes and
``plugin_estimates`` on ``PLUGIN_ROWS`` observed rows (the benchmark's
generated history for its two-coordinate ``theory-continuous`` design) and
on the support points of a two-point trial of ``PLUGIN_SUPPORT_N`` patients
(with the fixture's ``x_list``), in milliseconds per call; of both source
trees in one process: the other tree's ``carasim`` package is loaded under
the name ``carasim_other`` (the package imports its own modules
relatively).  Each of ``INTERLEAVE_ROUNDS``
rounds times every row once on each side, the side that goes first
alternating between rounds, so that both sides see the same host speed; a
row records each side's median microseconds per patient (a step row: per
call, which admits one patient), microseconds per fit or milliseconds per
call, and the median and quartiles of the per-round ratios (this side over
the other).  The peak resident set size of a fresh process that computes
the 262,144-node report is read for each tree.  The rows go into
``BENCH_<pr>.json`` under ``interleaved``, with ``--label``
naming this side and ``parent`` the other.

Either way the file records, as ``src_lines``, the lines of each timed
tree's ``carasim/*.py`` (what ``wc -l src/carasim/*.py`` counts), so the
size of the code stands next to its timings.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

ROOT = Path(__file__).resolve().parent.parent
CRITERIA = {2: "allocation-clt", 3: "estimator-clt", 4: "conditional-clt",
            6: "bb-closed-forms", 9: "consistency-rate"}
BATCHES = (1, 8, 2000)
LOGIT_BATCHES = (1, 10, 256)
VARIANT_BATCHES = (1, 8, 256)
# Interleaved rowwise rows: continuous-logit trial length -> batches.  Each
# refit runs IRLS on all of an arm's rows, so a trial costs about n squared:
# at n = 6,400 one timing of a batch of 32 takes about a minute, so that row
# runs ROWWISE_ROUNDS[(6400, 32)] rounds (plus the first, untimed run of each
# side); every other row runs INTERLEAVE_ROUNDS.
ROWWISE_BATCHES = {400: (1, 10), 1600: (1, 32), 6400: (1, 32)}
ROWWISE_ROUNDS = {(6400, 32): 3}
# Interleaved small rowwise row, B = 1: the theory-continuous design whose
# tiny separated cells send Newton candidates past exp's overflow threshold.
SMALL_ROWWISE = "logit-4u-exp"
ENGINE_N = 500
ENGINE_REPEATS = 5  # batches of at most this many replicates are timed this many times
IRLS_ROWS = {2: 80, 5: 170}
IRLS_CALLS = 200
IRLS_REPEATS = 15
# Nodes -> (theory-continuous design, calls per timing, timings).
THEORY_NODES = {64: (0, 100, 15), 4096: (1, 10, 15), 262144: (2, 1, 5)}
PLUGIN_ROWS = 4096  # observed rows of the interleaved plug-in row
PLUGIN_CALLS = 10
PLUGIN_SUPPORT_N = 20000  # patients of the interleaved two-point plug-in row
CALIBRATION_ITERS = 1500
CALIBRATION_REF_S = 0.010
STEP_N = (500, 2000, 20000, 100000)
STEP_CALLS = 20  # chained step() calls per run of a step row
INTERLEAVE_ROUNDS = 15
INTERLEAVE_TIMING_S = 0.2  # a timing repeats a row's run for at least about this long


def machine() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def gate_seconds() -> dict:
    from carasim import fixtures
    from carasim.harness import verify

    out = {}
    for number, name in CRITERIA.items():
        t0 = time.perf_counter()
        report = verify((name,), seed=fixtures.DEFAULT_SEED, workers=1)
        out[f"{number}-{name}"] = {"seconds": round(time.perf_counter() - t0, 3),
                                   "passed": report.passed}
        print(f"criterion {number} {name}: {out[f'{number}-{name}']}", flush=True)
    return out


def two_point_variants(fixtures) -> dict:
    """The two-point fixture with three and with five logistic arms, and with
    two logistic arms beside a normal arm (exponential rule, T = 1)."""
    logistic, normal = {"family": "logistic"}, {"family": "normal-linear", "dispersion": 1.0}
    arms = {"three-arm": [logistic] * 3, "five-arm": [logistic] * 5,
            "mixed": [normal, logistic, logistic]}
    out = {}
    for name, models in arms.items():
        raw = fixtures.two_point_config(n=ENGINE_N, replicates=1, seed=fixtures.DEFAULT_SEED)
        raw["model"].update(arms=models, box_lo=-3.0, box_hi=3.0, true_theta=[
            [0.5 - 0.2 * k, -0.5 + 0.25 * k] for k in range(len(models))])
        raw["rule"] = {"kind": "exponential", "T": 1.0}
        out[name] = raw
    return out


def engine_rows(package: str = "carasim", interleaved: bool = False) -> dict:
    """Row name -> (run, replicates timed, patients per replicate) of the
    engine rows, on the carasim package imported as ``package``; the
    interleaved rows add the two-point variants and the step rows, and time
    ``continuous-logit`` at the lengths and batches of ``ROWWISE_BATCHES``
    (rows named ``continuous-logit n=N/B=B``) and the ``SMALL_ROWWISE``
    design at its own length, B = 1."""
    engine = importlib.import_module(f"{package}.engine")
    fixtures = importlib.import_module(f"{package}.fixtures")
    parse_config = importlib.import_module(f"{package}.harness").parse_config

    make = {"f1": fixtures.f1_config, "two-point": fixtures.two_point_config,
            "bb": fixtures.bb_config}
    configs = {name: (parse_config(f(n=ENGINE_N, replicates=1, seed=fixtures.DEFAULT_SEED)),
                      BATCHES) for name, f in make.items()}
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import designs

    logit = designs("continuous-logit", fixtures.DEFAULT_SEED)[0].config
    if interleaved:
        for name, raw in two_point_variants(fixtures).items():
            configs[name] = (parse_config(raw), VARIANT_BATCHES)
        for n, batches in ROWWISE_BATCHES.items():
            raw = dict(logit, trial=dict(logit["trial"], n=n))
            configs[f"continuous-logit n={n}"] = (parse_config(raw), batches)
        small = next(d for d in designs("theory-continuous", fixtures.DEFAULT_SEED)
                     if d.name == SMALL_ROWWISE)
        configs[f"theory-continuous {SMALL_ROWWISE} n={small.config['trial']['n']}"] = (
            parse_config(small.config), (1,))
    else:
        configs["continuous-logit"] = (parse_config(logit), LOGIT_BATCHES)
    rows = {}
    for name, (cfg, batches) in configs.items():
        opts = cfg.engine_options()
        for B in batches:
            seeds = [engine.replicate_root(cfg.seed, i) for i in range(B)]

            def run(cfg=cfg, B=B, seeds=seeds, opts=opts):
                engine.run_trials(cfg.model, cfg.rule, cfg.n, cfg.m0, seeds, opts,
                                  histories=B == 1)

            rows[f"{name}/B={B}"] = (run, B, cfg.n)
    if interleaved:
        for name in ("two-point", "bb"):
            for n in STEP_N:
                cfg = parse_config(make[name](n=n, replicates=1, seed=fixtures.DEFAULT_SEED))
                rows[f"{name}/step n={n}"] = (stepper(engine, cfg), 1, STEP_CALLS)
    return rows


def stepper(engine, cfg):
    """A run of ``STEP_CALLS`` chained ``step()`` calls that continue one
    trial of ``cfg.n`` patients, run once here."""
    streams = engine.streams_for_trial(engine.replicate_root(cfg.seed, 0))
    start = engine.run_trial(cfg.model, cfg.rule, cfg.n, cfg.m0, streams, cfg.engine_options())

    def run():
        hist = start
        for _ in range(STEP_CALLS):
            hist = engine.step(hist, cfg.model, cfg.rule, streams)

    return run


def engine_us_per_patient() -> dict:
    out = {}
    for row, (run, timed, n) in engine_rows().items():
        best, calibrated = timings(run, ENGINE_REPEATS if timed <= ENGINE_REPEATS else 1)
        us = 1e6 / (timed * n)
        out[row] = {"us_per_patient": round(best * us, 3),
                    "calibrated_us_per_patient": round(calibrated * us, 3),
                    "replicates_timed": timed}
        print(f"engine {row}: {best * us:.3f} us/patient, {calibrated * us:.3f} "
              f"calibrated ({timed} replicates timed)", flush=True)
    return out


def load_other(src: Path) -> str:
    """Import ``src/carasim`` as the package ``carasim_other``; returns its name."""
    name = "carasim_other"
    spec = importlib.util.spec_from_file_location(
        name, src / "carasim" / "__init__.py", submodule_search_locations=[str(src / "carasim")])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return name


def theory_rows(package: str = "carasim") -> dict:
    """Row name -> (run, calls of the timed function per run) of the
    interleaved theory rows, on the carasim package imported as ``package``:
    ``theory_report`` at 64, 4,096 and 262,144 nodes, and ``plugin_estimates``
    on ``PLUGIN_ROWS`` observed rows of the benchmark's generated history for
    the two-coordinate ``theory-continuous`` design and on a two-point
    ``run_trial`` history of ``PLUGIN_SUPPORT_N`` patients with its
    ``x_list``, summed over the support points."""
    asymptotics = importlib.import_module(f"{package}.asymptotics")
    engine = importlib.import_module(f"{package}.engine")
    parse_config = importlib.import_module(f"{package}.harness").parse_config
    fixtures = importlib.import_module(f"{package}.fixtures")
    seed = fixtures.DEFAULT_SEED
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import designs, history_arrays

    cases = designs("theory-continuous", seed)
    rows = {}
    for nodes, (index, calls, _) in THEORY_NODES.items():
        cfg = parse_config(cases[index].config)

        def run(cfg=cfg, calls=calls):
            for _ in range(calls):
                asymptotics.theory_report(cfg.model, cfg.rule)

        rows[f"theory_report/nodes={nodes}"] = (run, calls)
    cfg = parse_config(cases[1].config)
    X, arms, y, theta = history_arrays(cfg.model, seed, 1, PLUGIN_ROWS)
    hist = engine.TrialHistory.from_arrays(X, arms, y, cfg.model.K, current_theta=theta)

    def plugin(calls=PLUGIN_CALLS):
        for _ in range(calls):
            asymptotics.plugin_estimates(hist, cfg.model, cfg.rule)

    rows[f"plugin_estimates/rows={PLUGIN_ROWS}"] = (plugin, PLUGIN_CALLS)
    point = parse_config(fixtures.two_point_config(n=PLUGIN_SUPPORT_N, replicates=1, seed=seed))
    trial = engine.run_trial(point.model, point.rule, point.n, point.m0,
                             engine.replicate_root(seed, 0))

    def plugin_support(calls=PLUGIN_CALLS):
        for _ in range(calls):
            asymptotics.plugin_estimates(trial, point.model, point.rule, point.x_list)

    rows[f"plugin_estimates/two-point n={PLUGIN_SUPPORT_N}"] = (plugin_support, PLUGIN_CALLS)
    return rows


def interleaved(sides: tuple[dict, dict], label: str, unit: str, scale: float,
                rounds: dict | None = None) -> dict:
    """Rows of this tree (``sides[0]``, named ``label``) and of the other
    (``sides[1]``, named ``parent``), timed in alternating order round by
    round, ``INTERLEAVE_ROUNDS`` rounds or ``rounds[row]``; a row is (run,
    divisor), and its figure is seconds per run times ``scale`` over the
    divisor, in ``unit``."""
    out = {}
    for row, (run, divisor) in sides[0].items():
        other = sides[1][row][0]
        t0 = time.perf_counter()
        run()  # warm caches; also sizes the timings
        other()
        calls = max(1, round(2 * INTERLEAVE_TIMING_S / (time.perf_counter() - t0)))
        seconds = ([], [])
        n_rounds = (rounds or {}).get(row, INTERLEAVE_ROUNDS)
        for r in range(n_rounds):
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                fn = (run, other)[side]
                t0 = time.perf_counter()
                for _ in range(calls):
                    fn()
                seconds[side].append((time.perf_counter() - t0) / calls)
        per = scale / divisor
        q1, ratio, q3 = statistics.quantiles([a / b for a, b in zip(*seconds)], n=4)
        out[row] = {unit: {name: round(statistics.median(s) * per, 4)
                           for name, s in zip((label, "parent"), seconds)},
                    "ratio_median": round(ratio, 4), "ratio_q1": round(q1, 4),
                    "ratio_q3": round(q3, 4), "rounds": n_rounds,
                    "calls_per_timing": calls}
        print(f"{row}: {statistics.median(seconds[0]) * per:.4f} against "
              f"{statistics.median(seconds[1]) * per:.4f} {unit}, ratio {ratio:.3f} "
              f"[{q1:.3f}, {q3:.3f}]", flush=True)
    return out


def interleaved_engine(this: dict, other: dict, label: str) -> dict:
    """The interleaved engine rows (``engine_rows(..., interleaved=True)``)
    of two trees, in microseconds per patient; the rowwise rows of the
    (trial length, batch) pairs in ``ROWWISE_ROUNDS`` run that many rounds."""
    sides = ({row: (run, timed * n) for row, (run, timed, n) in this.items()},
             {row: (run, timed * n) for row, (run, timed, n) in other.items()})
    rounds = {f"continuous-logit n={n}/B={B}": count for (n, B), count in ROWWISE_ROUNDS.items()}
    out = interleaved(sides, label, "us_per_patient", 1e6, rounds)
    for row, entry in out.items():
        entry["replicates_timed"] = this[row][1]
    return out


def calibration_s() -> float:
    """Seconds that a fixed numpy kernel takes at the host's current speed."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 64)
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_ITERS):
        z = x * 1.0001
        float(np.exp(z - z.max()).sum())
    return time.perf_counter() - t0


def timings(run, repeats: int) -> tuple[float, float]:
    """The best of ``repeats`` timings of ``run()`` in seconds, and their
    median scaled to the host speed at which the calibration kernel takes
    ``CALIBRATION_REF_S`` (timed before and after each call)."""
    raw, scaled = [], []
    kernel = calibration_s()
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        raw.append(time.perf_counter() - t0)
        after = calibration_s()
        scaled.append(raw[-1] * CALIBRATION_REF_S / (0.5 * (kernel + after)))
        kernel = after
    return min(raw), statistics.median(scaled)


def irls_cases(package: str = "carasim") -> dict:
    """d -> (run, iterations) on the carasim package imported as ``package``:
    ``run`` makes ``IRLS_CALLS`` fits by ``estimation.fit_one_cell`` on
    ``IRLS_ROWS[d]`` unit-trial rows, started at zero without the
    conditioning guard, as the engine refits one cell, and ``iterations``
    is the iteration count of one fit."""
    import numpy as np

    seed = importlib.import_module(f"{package}.fixtures").DEFAULT_SEED
    estimation = importlib.import_module(f"{package}.estimation")
    fit, errstate = estimation.fit_one_cell, estimation.solve_errstate
    out = {}
    for d, n in IRLS_ROWS.items():
        rng = np.random.default_rng([seed, d])
        X = np.column_stack([np.ones(n), rng.uniform(-1.0, 1.0, (n, d - 1))])
        theta = rng.uniform(-0.5, 0.5, d)
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-X @ theta))).astype(float)
        rows = np.empty((1 + d, n))  # the core's C-order block: successes, covariates
        rows[0], rows[1:] = y, X.T
        init = np.zeros(d)

        def run(rows=rows, init=init):
            with errstate():
                for _ in range(IRLS_CALLS):
                    fit(rows, None, init, False)

        with errstate():
            out[d] = (run, fit(rows, None, init, False)[2])
    return out


def irls_rows(package: str = "carasim") -> dict:
    """The interleaved IRLS rows: row name -> (run, fits per run)."""
    return {f"fit_grouped_logistic_mle/d={d}": (run, IRLS_CALLS)
            for d, (run, _) in irls_cases(package).items()}


def irls_us_per_fit() -> dict:
    out = {}
    for d, (run, iterations) in irls_cases().items():
        n = IRLS_ROWS[d]
        best, calibrated = timings(run, IRLS_REPEATS)
        us = 1e6 / IRLS_CALLS
        out[f"d={d}"] = {"us_per_fit": round(best * us, 3),
                         "calibrated_us_per_fit": round(calibrated * us, 3),
                         "rows": n, "iterations": iterations}
        print(f"irls d={d} n={n}: {best * us:.3f} us per fit, {calibrated * us:.3f} calibrated "
              f"({iterations} iterations)", flush=True)
    return out


def _theory_design(index: int):
    from carasim import fixtures
    from carasim.harness import parse_config

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import designs

    return parse_config(designs("theory-continuous", fixtures.DEFAULT_SEED)[index].config)


def theory_ms_per_call() -> dict:
    from carasim.asymptotics import expectation_nodes, lse_sandwich, theory_report

    out = {}
    for nodes, (index, calls, repeats) in THEORY_NODES.items():
        cfg = _theory_design(index)
        assert expectation_nodes(cfg.model.covariates)[0].shape[0] == nodes
        for name, fn in (("theory_report", theory_report), ("lse_sandwich", lse_sandwich)):
            def run():
                for _ in range(calls):
                    fn(cfg.model, cfg.rule)

            run()  # warm caches
            best, calibrated = timings(run, repeats)
            ms = 1e3 / calls
            out[f"{name}/nodes={nodes}"] = {"ms_per_call": round(best * ms, 4),
                                            "calibrated_ms_per_call": round(calibrated * ms, 4)}
            print(f"{name} {nodes} nodes: {best * ms:.4f} ms per call, {calibrated * ms:.4f} "
                  f"calibrated", flush=True)
    return out


# Peak RSS is read from VmHWM (Linux), which exec resets: getrusage's
# ru_maxrss would carry over the RSS of the process that spawned the probe.
_RSS_PROBE = """
import sys
sys.path[:0] = sys.argv[1:3]
from gate_bench import _theory_design, THEORY_NODES
from carasim.asymptotics import theory_report
def peak_kb():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
cfg = _theory_design(THEORY_NODES[262144][0])
before = peak_kb()
theory_report(cfg.model, cfg.rule)
print(before, peak_kb())
"""


def theory_peak_rss(src: Path) -> dict:
    """Peak RSS of a fresh process before and after one 262,144-node report."""
    text = subprocess.run([sys.executable, "-c", _RSS_PROBE, str(src), str(ROOT / "bench")],
                          check=True, capture_output=True, text=True).stdout
    before, after = (int(v) / 1024.0 for v in text.split())
    print(f"theory_report 262144 nodes: peak RSS {after:.1f} MB ({before:.1f} MB before the "
          f"report)", flush=True)
    return {"peak_rss_mb": round(after, 1), "rss_before_report_mb": round(before, 1)}


def src_lines(src: Path) -> int:
    """Newlines in the package modules of a source tree, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (src / "carasim").glob("*.py"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--label", required=True, help="name of this side, e.g. parent or change")
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    ap.add_argument("--interleave", type=Path, default=None, metavar="OTHER_SRC",
                    help="time only the engine rows, alternating with these sources")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))

    path = ROOT / f"BENCH_{args.pr}.json"
    doc = json.loads(path.read_text()) if path.exists() else {"pr": args.pr, "runs": {}}
    if args.interleave is not None:
        other_src = args.interleave.resolve()
        other = load_other(other_src)
        entry = {"machine": machine(), "engine_n": ENGINE_N,
                 "ratio": f"{args.label} / parent",
                 "engine": interleaved_engine(engine_rows("carasim", interleaved=True),
                                              engine_rows(other, interleaved=True), args.label),
                 "irls": interleaved((irls_rows("carasim"), irls_rows(other)), args.label,
                                     "us_per_fit", 1e6),
                 "theory": interleaved((theory_rows("carasim"), theory_rows(other)),
                                       args.label, "ms_per_call", 1e3),
                 "theory_262144_rss": {args.label: theory_peak_rss(args.src.resolve()),
                                       "parent": theory_peak_rss(other_src)},
                 "src_lines": {args.label: src_lines(args.src.resolve()),
                               "parent": src_lines(other_src)}}
        doc["interleaved"] = entry
        label = "interleaved"
    else:
        entry = {"machine": machine(), "engine_n": ENGINE_N, "irls": irls_us_per_fit(),
                 "theory": theory_ms_per_call(),
                 "theory_262144_rss": theory_peak_rss(args.src.resolve()),
                 "engine": engine_us_per_patient(), "gate_seconds": gate_seconds(),
                 "src_lines": src_lines(args.src.resolve())}
        doc["runs"][args.label] = entry
        label = args.label
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.name} [{label}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
