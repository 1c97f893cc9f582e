"""The qpe_lab layers the traced run measures, and the metrics it derives.

The layers are the package modules ``model``, ``posterior``, ``adaptive``,
``baselines`` and ``harness``; ``angles``, ``svg`` and ``cli`` are thin and
stay unmeasured.  The package imports names with ``from ... import``, so
each function is patched in every module whose code calls it, not only in
the module that defines it.  Calls that ``posterior`` makes to itself (the
hypothetical update inside ``predict_loss``) are not patched, so
``predict_loss`` is reported with its inclusive time.
"""

from __future__ import annotations

import os
import statistics

from qpe_lab import adaptive, baselines, harness, posterior

from tracing import Stat, Tracer

# (reported name, modules whose code calls it, attribute name)
SITES = (
    ("model.sample_outcome", (adaptive, baselines), "sample_outcome"),
    ("posterior.update", (adaptive, baselines), "update"),
    ("posterior.mass_outside", (adaptive,), "mass_outside"),
    ("posterior.confidence", (adaptive,), "confidence"),
    ("posterior.map_estimate", (adaptive, baselines), "map_estimate"),
    ("posterior.predict_loss", (adaptive,), "predict_loss"),
    ("posterior.expected_loss", (adaptive, baselines), "expected_loss"),
    ("posterior.uniform_prior", (adaptive, baselines), "uniform_prior"),
    ("adaptive.run", (adaptive, harness), "run"),
    ("adaptive.validate_trace", (adaptive, harness), "validate_trace"),
    ("baselines.run_classical", (harness,), "run_classical"),
    ("baselines.run_nonadaptive_doubling", (harness,), "run_nonadaptive_doubling"),
    ("baselines.run_qpea", (harness,), "run_qpea"),
    ("baselines.qpea_outcome_distribution", (baselines,), "qpea_outcome_distribution"),
    ("harness.run_cell", (harness,), "run_cell"),
    ("harness.aggregate", (harness,), "aggregate"),
    ("harness.write_results_csv", (harness,), "write_results_csv"),
    ("harness.write_aggregate_csv", (harness,), "write_aggregate_csv"),
)
FUNCTIONS = tuple(name for name, _, _ in SITES) + ("posterior.map_estimate_within",)
# Root calls that start a new cell: a sweep cell, or one deep run.
CELL_NAMES = ("harness.run_cell", "adaptive.run")
# Full spans are kept for the first SPAN_CELLS cells of the traced pass.
SPAN_CELLS = 2


def _map_estimate_name(args, kwargs) -> str:
    within = kwargs.get("within", args[1] if len(args) > 1 else None)
    return "posterior.map_estimate" if within is None else "posterior.map_estimate_within"


class Counters:
    """Counts read from the arguments and results of traced calls."""

    def __init__(self):
        self.update_shots = 0
        self.update_grid_sum = 0
        self.grid_max = 0
        self.runs = 0
        self.run_shots = 0
        self.rungs = 0
        self.gates_passed = 0
        self.cap_hits = 0
        self.stay_shots = 0
        self.max_depths: list[int] = []
        self.results_csv_bytes = 0

    def on_update(self, args, kwargs, result) -> None:
        # update() refines the posterior in place, so its grid is read after the call.
        grid = (args[0] if args else kwargs["posterior"]).grid_size
        record = args[1] if len(args) > 1 else kwargs["record"]
        self.update_shots += record.shots
        self.update_grid_sum += grid
        self.grid_max = max(self.grid_max, grid)

    def on_run(self, args, kwargs, trace) -> None:
        self.runs += 1
        self.max_depths.append(trace.max_depth_used)
        for step in trace.steps:
            self.run_shots += step.shots_used
            if step.decision == "stay":
                self.stay_shots += step.shots_used
            # A rung from step 2 on reached its stay/deepen choice when it
            # carries predictions; it got there by its gate or by the cap.
            if step.step_index >= 2 and step.predicted_loss_stay is not None:
                self.rungs += 1
                self.cap_hits += step.cap_hit
                self.gates_passed += not step.cap_hit
        # Step 1 logs one record per probe; its gate passed unless it exhausted.
        if trace.steps and trace.steps[0].decision != "exhaust":
            self.gates_passed += 1

    def on_write_results(self, args, kwargs, result) -> None:
        self.results_csv_bytes = os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def make_tracer(counters: Counters) -> Tracer:
    tracer = Tracer(CELL_NAMES, SPAN_CELLS)
    observers = {
        "posterior.update": counters.on_update,
        "adaptive.run": counters.on_run,
        "harness.write_results_csv": counters.on_write_results,
    }
    for name, owners, attr in SITES:
        name_of = _map_estimate_name if name == "posterior.map_estimate" else None
        # A module that no longer calls a function has no name to patch; the
        # function then reports the calls made from the other modules.  A
        # function no module has under its name was renamed or moved: its
        # counts would read 0, which looks like a speed-up, so fail instead.
        patched = [o for o in owners if hasattr(o, attr)]
        if not patched:
            raise LookupError(f"{name}: no module of {[o.__name__ for o in owners]} has {attr!r}")
        for owner in patched:
            tracer.patch(owner, attr, name, name_of, observers.get(name))
    return tracer


def logprob_cache_info():
    """(hits, misses) of the per-circuit log-probability cache, or None once it is gone."""
    cache_info = getattr(getattr(posterior, "_log_prob_components", None), "cache_info", None)
    if cache_info is None:
        return None
    info = cache_info()
    return info.hits, info.misses


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, counters: Counters, traced_seconds: float,
                      untraced_seconds: float, cache_before, cache_after) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit)."""
    metrics = {}
    for name in FUNCTIONS:
        stat = tracer.stats.get(name, Stat())
        metrics[f"{name}.calls"] = (stat.calls, "count")
        metrics[f"{name}.self_us"] = (_ratio(stat.self_s * 1e6, stat.calls), "us")
        metrics[f"{name}.share"] = (_ratio(stat.self_s, traced_seconds), "ratio")
    update_calls = tracer.stats.get("posterior.update", Stat()).calls
    gate_checks = tracer.stats.get("posterior.mass_outside", Stat()).calls
    hit_ratio = 0.0
    if cache_before is not None and cache_after is not None:
        hits = cache_after[0] - cache_before[0]
        hit_ratio = _ratio(hits, hits + cache_after[1] - cache_before[1])
    metrics.update({
        "posterior.update.shots_per_call": (_ratio(counters.update_shots, update_calls), "shots"),
        "posterior.update.grid_mean": (_ratio(counters.update_grid_sum, update_calls), "cells"),
        "posterior.grid_max": (counters.grid_max, "cells"),
        "posterior.logprob_cache.hit_ratio": (hit_ratio, "ratio"),
        "adaptive.shots_per_run": (_ratio(counters.run_shots, counters.runs), "shots"),
        "adaptive.rungs_per_run": (_ratio(counters.rungs, counters.runs), "rungs"),
        "adaptive.max_depth_p50": (statistics.median(counters.max_depths) if counters.max_depths else 0, "depth"),
        "adaptive.gate_checks_per_rung": (_ratio(gate_checks, counters.gates_passed), "checks/rung"),
        "adaptive.cap_hit_frac": (_ratio(counters.cap_hits, counters.rungs), "ratio"),
        "adaptive.stay_frac": (_ratio(counters.stay_shots, counters.run_shots), "ratio"),
        "harness.results_csv.bytes": (counters.results_csv_bytes, "bytes"),
        "trace_overhead_frac": (traced_seconds / untraced_seconds - 1.0, "ratio"),
    })
    return metrics
