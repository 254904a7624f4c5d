"""Span tracing around the package's public functions, from outside the package.

``Tracer.install`` replaces each traced function, in every loaded
``fdrthresh`` module that binds it, by a wrapper that records a span
``(call, name, start, end, parent)`` plus an optional count, and
``uninstall`` puts the originals back.  Spans stay in memory until
``write``; ``layer_metrics`` derives the per-layer figures from them.
A layer's self time is its span's duration minus its child spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np


def _points(args, kwargs, out):
    return int(np.size(args[0] if args else kwargs["p"]))


def _replicates(args, kwargs, out):
    return int(args[2] if len(args) > 2 else kwargs["replicates"])


def _estimate_bytes(args, kwargs, out):
    out_dir = Path(args[1])
    return {
        "json_bytes": (out_dir / "estimate.json").stat().st_size,
        "csv_bytes": (out_dir / "estimate.csv").stat().st_size,
    }


# (module, function, what to count per call).  cli.main,
# simulate.regret_experiment and simulate.mc_risk are not reported; they are
# traced so that their callers' self times exclude them.
TRACED = [
    ("cli", "main", None),
    ("cli", "cmd_estimate", _estimate_bytes),
    ("cli", "cmd_experiment", None),
    ("estimators", "read_vector", None),
    ("estimators", "fdr_threshold_estimate", None),
    ("selector", "select_lambda", None),
    ("selector", "step_up_level", None),
    ("selector", "step_down_level", None),
    ("selector", "candidate_levels", None),
    ("gauss", "norm_quantile", _points),
    ("thresholds", "apply_family", None),
    ("risk", "optimal_levels", None),
    ("simulate", "regret_experiment", None),
    ("simulate", "mc_risk", None),
    ("simulate", "mc_mean", _replicates),
    ("simulate", "oracle_loss_min", None),
]

# name -> unit, in the order the benchmark reports them.
LAYER_METRICS = {
    "gauss.norm_quantile.points": "points/selection",
    "gauss.norm_quantile.self_s": "s/call",
    "selector.candidate_levels.calls": "calls/selection",
    "selector.candidate_levels.self_s": "s/call",
    "selector.step_up_level.self_s": "s/call",
    "selector.step_down_level.self_s": "s/call",
    "selector.select_lambda.self_s": "s/call",
    "thresholds.apply_family.self_s": "s/call",
    "estimators.read_vector.self_s": "s/call",
    "estimators.fdr_threshold_estimate.self_s": "s/call",
    "cli.cmd_estimate.self_s": "s/call",
    "cli.estimate_json.bytes": "B/call",
    "cli.estimate_csv.bytes": "B/call",
    "cli.cmd_experiment.self_s": "s/call",
    "risk.optimal_levels.self_s": "s/call",
    "simulate.mc_mean.self_s": "s/replicate",
    "simulate.mc_mean.replicates": "count/call",
    "simulate.oracle_loss_min.self_s": "s/call",
}


class Tracer:
    def __init__(self) -> None:
        # span: [call, name, start, end, parent index or -1, count]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.call = 0

    def _wrap(self, name: str, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [self.call, name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "fdrthresh" or k.startswith("fdrthresh.")]
        for module_name, fn_name, count in TRACED:
            original = getattr(sys.modules[f"fdrthresh.{module_name}"], fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        own = [end - start for _, _, start, end, _, _ in self.spans]
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self) -> dict[str, float]:
        own = self.self_times()
        by_name: dict[str, list[int]] = {}
        for i, span in enumerate(self.spans):
            by_name.setdefault(span[1], []).append(i)

        def calls(name: str) -> int:
            return len(by_name.get(name, []))

        def median_self(name: str, per=lambda i: 1) -> float:
            idx = by_name.get(name, [])
            return statistics.median(own[i] / per(i) for i in idx) if idx else 0.0

        def mean_count(name: str, per_name: str, key=None) -> float:
            counts = [self.spans[i][5] for i in by_name.get(name, [])]
            total = sum(c[key] if key else c for c in counts)
            return total / calls(per_name) if calls(per_name) else 0.0

        out = {
            "gauss.norm_quantile.points": mean_count("gauss.norm_quantile", "selector.select_lambda"),
            "selector.candidate_levels.calls": calls("selector.candidate_levels")
            / max(calls("selector.select_lambda"), 1),
            "cli.estimate_json.bytes": mean_count("cli.cmd_estimate", "cli.cmd_estimate", "json_bytes"),
            "cli.estimate_csv.bytes": mean_count("cli.cmd_estimate", "cli.cmd_estimate", "csv_bytes"),
            "simulate.mc_mean.self_s": median_self("simulate.mc_mean", lambda i: self.spans[i][5]),
            "simulate.mc_mean.replicates": mean_count("simulate.mc_mean", "simulate.mc_mean"),
        }
        for name in LAYER_METRICS:
            if name not in out:
                out[name] = median_self(name.rsplit(".", 1)[0])
        return {name: out[name] for name in LAYER_METRICS}

    def write(self, path: Path) -> None:
        fields = ["call", "name", "start", "end", "parent", "count"]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)
