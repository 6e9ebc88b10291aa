"""Span tracing at the boundaries between carasim's modules.

The tracer replaces each traced function by a wrapper in the namespaces of
the *other* carasim modules (and the package), so a span marks a call that
crosses a layer boundary; calls inside one module are not traced, except
for the two asymptotics counters that count internal passes.  Spans (name,
start, end, parent, attribute) are kept in memory and written out once, at
the end of the run.  A layer's self time is its span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name, patch inside the defining module too)
TRACED = (
    ("cli", "main", "cli.main", True),
    ("harness", "parse_config", "harness.parse_config", False),
    ("harness", "run_replications", "harness.run_replications", False),
    ("harness", "emit_reports", "harness.emit_reports", False),
    ("engine", "run_trial", "engine.run_trial", False),
    ("engine", "step", "engine.step", False),
    ("model", "CovariateSpec.sample_index", "model.covariate_draw", False),
    ("model", "CovariateSpec.sample", "model.covariate_draw", False),
    ("model", "conditional_fisher_info", "model.fisher_info", False),
    ("allocation", "probabilities", "allocation.probabilities", False),
    ("allocation", "jacobian", "allocation.jacobian", False),
    ("estimation", "fit_grouped_logistic_mle", "estimation.irls", False),
    ("asymptotics", "theory_report", "asymptotics.theory_report", False),
    ("asymptotics", "plugin_estimates", "asymptotics.plugin", False),
    ("asymptotics", "lse_sandwich", "asymptotics.lse_sandwich", False),
    ("asymptotics", "expectation_nodes", "asymptotics.expectation_nodes", True),
    ("asymptotics", "info_matrices", "asymptotics.info_matrices", True),
)


def _attribute(name: str, args, result):
    """The work a span did, where a metric needs it."""
    if name == "engine.run_trial":
        return [result.n, result.n - result.K * result.m0]
    if name == "estimation.irls":
        return result.iterations
    if name == "asymptotics.theory_report":
        return result.method.size
    if name == "asymptotics.plugin":
        return args[0].n
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, attribute)
        self._stack: list[int] = []
        self._patches: list = []  # (namespace, attribute, original)

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, None)
            spans[sid] = (name, t0, t1, parent, _attribute(name, args, result))
            return result

        return traced

    def install(self) -> None:
        import carasim
        modules = {m: sys.modules[f"carasim.{m}"]
                   for m in ("cli", "harness", "engine", "model", "allocation",
                             "estimation", "asymptotics")}
        for mod, attr, name, inside in TRACED:
            home = modules[mod]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, meth, self._wrap(cls.__dict__[meth], name))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, name)
            for ns in [carasim, *modules.values()]:
                if ns is home and not inside:
                    continue
                if getattr(ns, attr, None) is original:
                    self._patch(ns, attr, wrapper)

    def _patch(self, ns, attr, value) -> None:
        self._patches.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, value)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def write(self, path, count: int) -> None:
        """Write the first ``count`` spans as JSON lines."""
        with open(path, "w") as f:
            for i, (name, t0, t1, parent, attr) in enumerate(self.spans[:count]):
                f.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                    "parent": parent, "attr": attr}) + "\n")

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics over the spans of ``passes`` traced passes."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        dur = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        attr = defaultdict(list)
        under_theory = defaultdict(int)
        for i, (name, t0, t1, parent, a) in enumerate(spans):
            dur[name] += t1 - t0
            own[name] += t1 - t0 - child[i]
            calls[name] += 1
            if a is not None:
                attr[name].append(a)
            if name in ("asymptotics.expectation_nodes", "asymptotics.info_matrices"):
                p = parent
                while p >= 0 and spans[p][0] != "asymptotics.theory_report":
                    p = spans[p][3]
                under_theory[name] += p >= 0

        def per(total, count, scale=1.0):
            return total / count * scale if count else 0.0

        trials = attr["engine.run_trial"]
        patients = sum(t[0] for t in trials)
        adaptive = sum(t[1] for t in trials) + calls["engine.step"]
        reports = calls["asymptotics.theory_report"]
        return {
            "engine.run_trial_us_per_patient": per(dur["engine.run_trial"], patients, 1e6),
            "engine.self_us_per_patient": per(own["engine.run_trial"], patients, 1e6),
            "engine.step_ms": per(dur["engine.step"], calls["engine.step"], 1e3),
            "engine.step_self_ms": per(own["engine.step"], calls["engine.step"], 1e3),
            "model.covariate_draw_us": per(dur["model.covariate_draw"], calls["model.covariate_draw"], 1e6),
            "model.covariate_draws": per(calls["model.covariate_draw"], passes),
            "model.fisher_info_us": per(dur["model.fisher_info"], calls["model.fisher_info"], 1e6),
            "model.fisher_info_calls": per(calls["model.fisher_info"], passes),
            "allocation.probabilities_us": per(dur["allocation.probabilities"],
                                               calls["allocation.probabilities"], 1e6),
            "allocation.probabilities_calls": per(calls["allocation.probabilities"], passes),
            "allocation.jacobian_us": per(dur["allocation.jacobian"], calls["allocation.jacobian"], 1e6),
            "allocation.jacobian_calls": per(calls["allocation.jacobian"], passes),
            "estimation.irls_us": per(dur["estimation.irls"], calls["estimation.irls"], 1e6),
            "estimation.irls_calls": per(calls["estimation.irls"], passes),
            "estimation.irls_iterations_per_fit": per(sum(attr["estimation.irls"]),
                                                      calls["estimation.irls"]),
            "estimation.irls_fits_per_patient": per(calls["estimation.irls"], adaptive),
            "asymptotics.theory_report_s": per(dur["asymptotics.theory_report"], reports),
            "asymptotics.theory_us_per_node": per(dur["asymptotics.theory_report"],
                                                  sum(attr["asymptotics.theory_report"]), 1e6),
            "asymptotics.node_passes_per_report": per(under_theory["asymptotics.expectation_nodes"],
                                                      reports),
            "asymptotics.info_matrices_per_report": per(under_theory["asymptotics.info_matrices"],
                                                        reports),
            "asymptotics.plugin_us_per_patient": per(dur["asymptotics.plugin"],
                                                     sum(attr["asymptotics.plugin"]), 1e6),
            "asymptotics.lse_sandwich_s": per(dur["asymptotics.lse_sandwich"],
                                              calls["asymptotics.lse_sandwich"]),
            "harness.run_replications_s": per(dur["harness.run_replications"],
                                              calls["harness.run_replications"]),
            "harness.aggregate_s": per(own["harness.run_replications"], calls["harness.run_replications"]),
            "harness.emit_reports_ms": per(dur["harness.emit_reports"], calls["harness.emit_reports"], 1e3),
            "harness.parse_config_ms": per(dur["harness.parse_config"], calls["harness.parse_config"], 1e3),
            "cli.main_s": per(dur["cli.main"], calls["cli.main"]),
            "cli.self_ms": per(own["cli.main"], calls["cli.main"], 1e3),
        }
