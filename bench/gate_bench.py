"""Gate and engine timings for the BENCH trajectory.

    python bench/gate_bench.py --pr N --label change
    python bench/gate_bench.py --pr N --label parent --src OTHER_CHECKOUT/src

Times criteria 2, 3, 4, 6 and 9 of the verification gate at
``fixtures.DEFAULT_SEED`` (one worker and a fresh cache per criterion, as
``tests/test_acceptance.py`` runs them), and the engine's microseconds per
patient on the F1, two-point and bb fixtures for batches of 1, 8 and 2000
replicates of ``ENGINE_N`` patients.  The results go into
``BENCH_<pr>.json`` at the root of the repository under ``--label``; other
labels already in the file are kept, so the two sides of a comparison are
written by two runs of this script on the same machine.

``--src`` selects the carasim sources to time (default: this checkout's
``src/``).  Sources without ``engine.run_trials`` run replicates one
``run_trial`` at a time, whose cost per patient does not depend on the
batch, so at most ``SEQUENTIAL_CAP`` replicates of a batch are timed there.
All work is single-threaded (one BLAS thread).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

ROOT = Path(__file__).resolve().parent.parent
CRITERIA = {2: "allocation-clt", 3: "estimator-clt", 4: "conditional-clt",
            6: "bb-closed-forms", 9: "consistency-rate"}
BATCHES = (1, 8, 2000)
ENGINE_N = 500
SEQUENTIAL_CAP = 16


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


def engine_us_per_patient() -> dict:
    from carasim import engine, fixtures
    from carasim.harness import parse_config

    configs = {"f1": fixtures.f1_config, "two-point": fixtures.two_point_config,
               "bb": fixtures.bb_config}
    out = {}
    for name, make in configs.items():
        cfg = parse_config(make(n=ENGINE_N, replicates=1, seed=fixtures.DEFAULT_SEED))
        opts = cfg.engine_options()
        for B in BATCHES:
            seeds = [engine.replicate_root(cfg.seed, i) for i in range(B)]
            t0 = time.perf_counter()
            if hasattr(engine, "run_trials"):
                engine.run_trials(cfg.model, cfg.rule, cfg.n, cfg.m0, seeds, opts, histories=B == 1)
                timed = B
            else:
                timed = min(B, SEQUENTIAL_CAP)
                for seed in seeds[:timed]:
                    engine.run_trial(cfg.model, cfg.rule, cfg.n, cfg.m0, seed, opts)
            us = (time.perf_counter() - t0) / (timed * cfg.n) * 1e6
            out[f"{name}/B={B}"] = {"us_per_patient": round(us, 3), "replicates_timed": timed}
            print(f"engine {name} B={B}: {us:.3f} us/patient ({timed} replicates timed)", flush=True)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--label", required=True, help="name of this side, e.g. parent or change")
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))

    entry = {"machine": machine(), "engine_n": ENGINE_N, "engine": engine_us_per_patient(),
             "gate_seconds": gate_seconds()}
    path = ROOT / f"BENCH_{args.pr}.json"
    doc = json.loads(path.read_text()) if path.exists() else {"pr": args.pr, "runs": {}}
    doc["runs"][args.label] = entry
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.name} [{args.label}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
