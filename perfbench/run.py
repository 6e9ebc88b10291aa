"""carasim benchmark: one workload, its correctness checks, and its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Work is single-threaded (one replication worker, one BLAS thread).
A run repeats whole passes of the workload (see ``workloads.py``) for about
``--seconds`` seconds, checks the outputs of the first pass and that every
pass gives the same outputs, and prints one JSON
object as the last line of standard output.  With ``--trace 0`` it reports
the end-to-end metrics (medians over passes); with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics and
the tracing overhead.  The spans of the first traced pass are written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
# On a shared host the CPU's speed can drift by up to 1.8x over tens of
# seconds (seen on a 2-vCPU KVM guest).  A fixed kernel timed between blocks
# of calls tracks that drift to a few percent, so every timed call is scaled
# to the speed at which the kernel takes CALIBRATION_REF_S.
CALIBRATION_ITERS = 6000
CALIBRATION_REF_S = 0.040
CALIBRATION_BLOCK_S = 0.4  # timed work between two calibrations (a call is never split)


@dataclass
class PassResult:
    ops: list = field(default_factory=list)  # (kind, seconds, block) of every timed call
    calibration: list = field(default_factory=list)  # kernel seconds at each block boundary
    block: int = 0  # index of the current block of calls
    block_s: float = 0.0  # timed seconds in the current block
    units: dict = field(default_factory=lambda: defaultdict(int))  # kind -> patients / nodes
    attempted: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)  # (design, item) -> output, for the checks
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def seconds(self, kind: str | None = None, raw: bool = False) -> float:
        """Timed seconds of one kind of call (of all calls if None).

        Unless ``raw``, each block's calls are scaled to the reference
        speed by the mean of the calibration times before and after the block.
        """
        total = 0.0
        for k, dt, b in self.ops:
            if kind is None or k == kind:
                if not raw and self.calibration:
                    dt *= CALIBRATION_REF_S / (0.5 * (self.calibration[b] + self.calibration[b + 1]))
                total += dt
        return total

    def rate(self, kind: str) -> float:
        """Units of one kind per second, at the reference speed."""
        return self.units[kind] / self.seconds(kind)


class Study:
    """Runs passes of one workload; every program call goes through ``call``."""

    def __init__(self, designs: list, seed: int, work: Path):
        import carasim
        from carasim import cli
        from carasim.asymptotics import TheoryOptions
        from workloads import history_arrays

        self.carasim, self.cli = carasim, cli
        self.work = work
        self.calibrate = None
        self.cases = []
        for i, design in enumerate(designs):
            path = work / f"{design.name}.json"
            path.write_text(json.dumps(design.config))
            cfg = carasim.parse_config(design.config)
            arrays = None
            if design.arrays_n:
                X, arms, y, theta_hat = history_arrays(cfg.model, seed, i, design.arrays_n)
                arrays = carasim.TrialHistory.from_arrays(X, arms, y, cfg.model.K, current_theta=theta_hat)
            opts = TheoryOptions(**(design.theory_opts or {}))
            self.cases.append((design, path, cfg, opts, arrays))

    def call(self, res: PassResult, kind: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # an operation that raises is counted failed; the run goes on
            result = None
            res.failed += 1
            print(f"operation failed: {kind} {getattr(fn, '__name__', fn)}: {exc!r}", file=sys.stderr)
        dt = time.perf_counter() - t0
        res.ops.append((kind, dt, res.block))
        res.attempted += 1
        res.block_s += dt
        if self.calibrate is not None and res.block_s >= CALIBRATION_BLOCK_S:
            self.close_block(res)
        return result

    def close_block(self, res: PassResult) -> None:
        res.calibration.append(self.calibrate())
        res.block += 1
        res.block_s = 0.0

    def cli_call(self, res: PassResult, kind: str, argv: list[str]) -> str | None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.call(res, kind, self.cli.main, argv)
        if code != 0:
            if code is not None:
                res.failed += 1
                print(f"carasim {' '.join(argv)} exited with {code}", file=sys.stderr)
            return None
        return buf.getvalue()

    def run_pass(self, calibrate=None) -> PassResult:
        """One pass over the designs.

        ``calibrate`` runs at the start, after every CALIBRATION_BLOCK_S of
        timed calls, and at the end.
        """
        res = PassResult()
        self.calibrate = calibrate
        if calibrate is not None:
            res.calibration.append(calibrate())
        try:
            self._designs(res)
            if calibrate is not None and res.block_s > 0.0:
                self.close_block(res)
        finally:
            self.calibrate = None
        return res

    def _designs(self, res: PassResult) -> None:
        from checks import theory_from_json, theory_from_report

        cs = self.carasim
        for design, path, cfg, opts, arrays in self.cases:
            model, rule, key = cfg.model, cfg.rule, design.name
            if design.replicate:
                out_dir = self.work / f"out-{key}"
                argv = ["replicate", "--config", str(path), "--out", str(out_dir), "--workers", "1"]
                if self.cli_call(res, "simulate", argv) is not None:
                    report = (out_dir / "report.json").read_bytes()
                    csv = (out_dir / "replicates.csv").read_text()
                    failures = json.loads(report)["failures"]
                    res.attempted += cfg.replicates
                    res.failed += len(failures)
                    res.units["simulate"] += (cfg.replicates - len(failures)) * cfg.n
                    res.outputs[key, "report"] = json.loads(report)
                    res.outputs[key, "csv"] = csv
                    res.digest.update(report + csv.encode())
            if design.theory_opts is None:
                text = self.cli_call(res, "theory", ["theory", "--config", str(path)])
                theory = theory_from_json(json.loads(text)) if text is not None else None
            else:
                rep = self.call(res, "theory", cs.theory_report, model, rule, cfg.x_list, opts)
                theory = theory_from_report(rep) if rep is not None else None
            if theory is not None:
                res.units["theory"] += theory["nodes"]
                res.outputs[key, "theory"] = theory
                res.digest.update(theory["sigma"].tobytes())
            lse = self.call(res, "sandwich", cs.lse_sandwich, model, rule, opts=opts)
            if lse is not None:
                res.outputs[key, "sandwich"] = lse
                res.digest.update(lse.V.tobytes())

            streams = cs.streams_for_trial(cs.replicate_root(cfg.seed, 0))
            hist = self.call(res, "simulate", cs.run_trial, model, rule, design.sample_n, cfg.m0,
                             streams, cfg.engine_options())
            looks = 0

            def look(h):
                nonlocal looks
                rep = self.call(res, "plugin", cs.plugin_estimates, h, model, rule, cfg.x_list)
                if rep is not None:
                    res.units["plugin"] += h.n
                    res.outputs[key, "plugin", looks] = (rep, h)
                    res.digest.update(rep.sigma_hat.tobytes())
                looks += 1

            if hist is not None:
                res.units["simulate"] += hist.n
                res.outputs[key, "sample"] = hist
                for i in range(1, design.steps + 1):
                    hist = self.call(res, "simulate", cs.step, hist, model, rule, streams)
                    if hist is None:
                        break
                    res.units["simulate"] += 1
                    if design.look_every and i % design.look_every == 0 and i < design.steps:
                        look(hist)
                else:
                    res.outputs[key, "stepped"] = hist
                    res.digest.update(hist.arms.tobytes() + hist.current_theta.tobytes())
                    look(hist)
            if arrays is not None:
                look(arrays)


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def check_outputs(study: Study, workload: str, res: PassResult) -> list[str]:
    import numpy as np

    import checks
    from carasim import fixtures
    from carasim.asymptotics import bb_closed_forms, expectation_nodes
    from carasim.harness import parse_config, report_json_bytes, run_replications

    cs = study.carasim
    out: list[str] = []
    o = res.outputs
    for design, path, cfg, opts, arrays in study.cases:
        model, rule, key = cfg.model, cfg.rule, design.name
        pts, w, _ = expectation_nodes(model.covariates, opts)
        theory = o.get((key, "theory"))
        if theory is not None:
            out += checks.check_theory(theory, model, rule, pts, w, cfg.x_list, key)
        if (key, "sandwich") in o:
            out += checks.check_sandwich(o[key, "sandwich"], model, rule, pts, w, key)
        if (key, "report") in o:
            report = o[key, "report"]
            out += checks.check_csv_counts(o[key, "csv"], model.K, cfg.n, key)
            if theory is not None:
                got = checks.theory_from_json(report["theory"])
                for name in ("v", "dg", "info", "V", "sigma"):
                    if not np.array_equal(got[name], theory[name]):
                        out.append(f"{key}: report theory {name} differs from carasim theory")
            sample = o.get((key, "sample"))
            if sample is not None and design.sample_n == cfg.n:
                row = o[key, "csv"].splitlines()[1].split(",")
                if (row[0] != "0" or [int(c) for c in row[2:2 + model.K]] != sample.counts().tolist()
                        or [float(v) for v in row[2 + model.K:2 + model.K + model.K * model.d]]
                        != sample.current_theta.ravel().tolist()):
                    out.append(f"{key}: sampled trial differs from replicate 0 of the report")
        if (key, "stepped") in o:
            stepped = o[key, "stepped"]
            again = cs.run_trial(model, rule, stepped.n, cfg.m0, cs.replicate_root(cfg.seed, 0),
                                 cfg.engine_options())
            out += checks.check_same_trial(stepped, again, f"{key} step() vs run_trial")
        for (k, kind, *_), value in o.items():
            if k == key and kind == "plugin":
                out += checks.check_plugin(value[0], value[1], model, rule, f"{key} {kind}")

        if workload == "replicate-gate" and (key, "report") in o:
            report = o[key, "report"]
            if key == "f1" and theory is not None:
                for name in ("v", "dg", "info", "V", "sigma1", "sigma2", "sigma"):
                    out += checks.close(f"f1 {name} vs F1_EXACT", theory[name],
                                         fixtures.F1_EXACT[name].reshape(theory[name].shape))
            if key == "bb":
                # The covariate-free rule can starve arm 2 after an unlucky
                # burn-in (about one replicate in a few hundred at n = 2000),
                # which no normal-theory band at R = 6 survives; the mean and
                # the mu_1 variance are banded instead of the allocation variance.
                bb = bb_closed_forms(model, rule)
                if theory is not None:
                    out += checks.close("bb v vs bb_closed_forms", theory["v"], bb.v)
                out += checks.check_replicate_stats(report, key, bb.alloc_var, bb.mu_cov[0, 0],
                                                    alloc_spread=False)
            else:
                out += checks.check_replicate_stats(report, key, checks.matrix(report["theory"]["sigma"])[0, 0])
            reduced = dict(design.config, trial=dict(design.config["trial"], n=200),
                           replication=dict(design.config["replication"], replicates=4))
            small = parse_config(reduced)
            if report_json_bytes(run_replications(small, workers=1)) != \
                    report_json_bytes(run_replications(small, workers=2)):
                out.append(f"{key}: report.json bytes differ between 1 and 2 workers")
        if workload == "continuous-logit" and (key, "stepped") in o:
            out += checks.check_interior_mle(o[key, "stepped"], model, key)
        if workload == "theory-continuous" and theory is not None and theory["stderr"] is not None:
            out += checks.check_monte_carlo(theory, model, rule, key)
    return out


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------


def setup_probe_seconds(args) -> list[float]:
    """Set-up time of fresh processes, at the reference speed: from just
    before the process is spawned (so interpreter start-up counts) to the
    point where the first timed call would start."""
    times = []
    for _ in range(SETUP_PROBES):
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)  # shared by all processes on Linux
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "1", "--trace", "0", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        ready, calibration_s = map(float, proc.stdout.split())
        times.append((ready - spawned) * CALIBRATION_REF_S / calibration_s)
    return times


def warm_up(work: Path, seed: int) -> None:
    """One small pass of the full study cycle on the F1 fixture."""
    from carasim import fixtures
    from workloads import Design

    tiny = Design("warm-up", fixtures.f1_config(n=24, replicates=2, seed=seed), 24, steps=2, look_every=1)
    Study([tiny], seed, work).run_pass()


def calibrate() -> float:
    """Seconds for a fixed kernel of small-array numpy calls and dict work,
    the same mix as carasim's per-patient and per-node loops."""
    import numpy as np

    x = np.array([0.3, -0.2, 0.5])
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(CALIBRATION_ITERS):
        z = x * 1.0001
        acc += float(np.exp(z - z.max()).sum())
        d = {"i": i, "acc": acc}
        acc += d["i"] * 1e-9
    return time.perf_counter() - t0


def metric_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def median_pass(passes: list[PassResult], kind: str | None = None) -> float:
    """Median over passes of the wall time, or of one kind's units per second."""
    if kind is None:
        return statistics.median(p.seconds() for p in passes)
    return statistics.median(p.rate(kind) for p in passes)


def parse_args(argv):
    from workloads import NAMES

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "carasim" / "__init__.py").is_file():
        print(f"carasim sources not found under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    import carasim  # noqa: F401  (set-up time includes the imports)
    from workloads import designs

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=OUT))
    try:
        warm_up(work, args.seed)
        study = Study(designs(args.workload, args.seed), args.seed, work)
        if args.setup_probe:
            print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)), repr(calibrate()))
            return 0
        return measure(args, study)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, study: Study) -> int:
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    clock: list[float] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        use_trace = tracer is not None and len(traced) < len(plain)
        t0 = time.perf_counter()
        if use_trace:
            tracer.install()
            try:
                traced.append(study.run_pass(calibrate))
            finally:
                tracer.uninstall()
            if len(traced) == 1:
                first_pass_spans = len(tracer.spans)
        else:
            plain.append(study.run_pass(calibrate))
        clock.append(time.perf_counter() - t0)
        if len(plain) + len(traced) > 1:
            # Only the first pass's outputs are checked; later passes are
            # compared by digest.  Dropping their outputs keeps the memory the
            # benchmark holds (and so peak_rss_mb) independent of the pass count.
            (traced if use_trace else plain)[-1].outputs.clear()
        if tracer is not None and not traced:
            continue
        if time.perf_counter() + statistics.median(clock) > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = plain + traced

    problems = check_outputs(study, args.workload, passes[0])
    digests = {p.digest.hexdigest() for p in passes}
    if len(digests) != 1:
        problems.append(f"passes gave {len(digests)} different sets of outputs")
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_probe_seconds(args)),
            "wall_s": median_pass(plain),
            "patients_per_s": median_pass(plain, "simulate"),
            "theory_nodes_per_s": median_pass(plain, "theory"),
            "plugin_patients_per_s": median_pass(plain, "plugin"),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        metrics = tracer.layer_metrics(len(traced))
        metrics["trace.overhead_pct"] = 100.0 * (median_pass(traced) / median_pass(plain) - 1.0)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl", first_pass_spans)

    units = metric_units()
    for name, value in metrics.items():
        print(f"{args.workload:>18} {name:<40} {value:14.6g} {units[name]}")
    for name, group in (("untraced", plain), ("traced", traced)):
        if group:
            print(f"{args.workload:>18} {name} pass seconds (raw): "
                  f"{' '.join(f'{p.seconds(raw=True):.3f}' for p in group)}")
            print(f"{args.workload:>18} {name} calibration seconds: "
                  f"{' '.join(f'{statistics.mean(p.calibration):.4f}' for p in group)}")
    print(f"{args.workload:>18} passes {len(plain)} untraced, {len(traced)} traced; "
          f"{'all checks passed' if not problems else f'{len(problems)} checks failed'}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
