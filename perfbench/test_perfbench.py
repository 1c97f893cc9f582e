"""Self-tests of the benchmark: smoke runs, tracer arithmetic, tail percentile.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from qpe_lab import adaptive, harness  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
TINY = {
    "adaptive-noisy-sweep": dict(ladder=(32, 64), theta_count=2, min_top_cells=1),
    "adaptive-deep-runs": dict(n_tot=512, runs_per_pass=2, min_top_cells=1),
    "baseline-sweep": dict(ladder=(64, 256), theta_count=2, min_top_cells=1),
}


@pytest.fixture
def tiny_workloads(monkeypatch, tmp_path):
    for name, sizes in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, replace(workloads.WORKLOADS[name], **sizes))
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_smoke_run(tiny_workloads, capsys, name, trace, section):
    assert run.main(["--workload", name, "--seed", "5", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    elif name == "baseline-sweep":
        assert result["metrics"]["adaptive.run.calls"]["value"] == 0
        assert result["metrics"]["baselines.qpea_outcome_distribution.calls"]["value"] > 0


def test_one_wrong_strategy_makes_the_sweep_incorrect(tiny_workloads, capsys, monkeypatch):
    run_qpea = harness.run_qpea

    def off_by_two(*args, **kwargs):
        result = run_qpea(*args, **kwargs)
        return replace(result, estimate=result.estimate + 2.0)

    monkeypatch.setattr(harness, "run_qpea", off_by_two)
    assert run.main(["--workload", "baseline-sweep", "--seed", "5", "--seconds", "0", "--trace", "0"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 0
    # qpea holds a third of the cells, so the pooled median alone would pass.
    workload = workloads.WORKLOADS["baseline-sweep"]
    sql = workloads.baselines.limit_curves(workload.top_budget, workloads.NoiseModel())["sql"]
    mae = float(next(line.split()[1] for line in out.splitlines() if line.split()[:1] == ["mae_median"]))
    assert mae <= workloads.SQL_MARGIN * sql


def test_a_deep_run_that_raises_counts_as_failed(tmp_path, monkeypatch):
    run_adaptive = adaptive.run
    calls = []

    def fails_first(config, theta):
        calls.append(theta)
        if len(calls) == 1:
            raise RuntimeError("no estimate")
        return run_adaptive(config, theta)

    monkeypatch.setattr(adaptive, "run", fails_first)
    workload = replace(workloads.WORKLOADS["adaptive-deep-runs"], **TINY["adaptive-deep-runs"])
    result = workload.run_pass(5, 0, str(tmp_path))
    assert (result.cells, result.failed, len(result.top_errors["adaptive"])) == (2, 1, 1)


def test_tracer_refuses_a_function_no_module_has(monkeypatch):
    monkeypatch.setattr(layers, "SITES", layers.SITES + (("posterior.gone", (adaptive,), "gone"),))
    with pytest.raises(LookupError, match="posterior.gone"):
        layers.make_tracer(layers.Counters())


def test_pass_zero_repeats_exactly(tmp_path):
    workload = replace(workloads.WORKLOADS["adaptive-noisy-sweep"], **TINY["adaptive-noisy-sweep"])
    first = workload.run_pass(7, 0, str(tmp_path))
    second = workload.run_pass(7, 0, str(tmp_path))
    assert first.digest == second.digest
    assert first.top_errors == second.top_errors
    assert workload.run_pass(7, 1, str(tmp_path)).digest != first.digest


def test_tracer_self_time_parent_links_and_restore():
    ticks = iter(range(1000))
    fake = types.ModuleType("fake")

    def leaf():
        return "leaf"

    def inner():
        return fake.leaf()

    def outer():
        fake.inner()
        return fake.leaf()

    fake.leaf, fake.inner, fake.outer = leaf, inner, outer
    tracer = Tracer(cell_names={"outer"}, span_cells=1, clock=lambda: next(ticks))
    for name in ("leaf", "inner", "outer"):
        tracer.patch(fake, name, name)
    with tracer:
        assert fake.outer() == "leaf"
        fake.outer()
    assert (fake.leaf, fake.inner, fake.outer) == (leaf, inner, outer)

    # Each call reads the clock at entry and exit: outer 0..7, inner 1..4,
    # leaf 2..3 inside inner and 5..6 inside outer.
    assert {k: (s.calls, s.self_s, s.total_s) for k, s in tracer.stats.items()} == {
        "outer": (2, 6, 14),
        "inner": (2, 4, 6),
        "leaf": (4, 4, 4),
    }
    assert tracer.cells == 2
    spans = {s.span_id: s for s in tracer.spans}
    assert len(spans) == 4 and {s.cell for s in spans.values()} == {0}
    for span in spans.values():
        children = [c for c in spans.values() if c.parent_id == span.span_id]
        self_time = (span.end - span.start) - sum(c.end - c.start for c in children)
        assert self_time == {"outer": 3, "inner": 2, "leaf": 1}[span.name]
    by_name = {s.name: s for s in spans.values() if s.name != "leaf"}
    assert by_name["outer"].parent_id is None
    assert by_name["inner"].parent_id == by_name["outer"].span_id


def test_tracer_restores_names_after_an_exception():
    fake = types.ModuleType("fake")

    def boom():
        raise KeyError("boom")

    fake.boom = boom
    tracer = Tracer(cell_names=(), span_cells=0)
    tracer.patch(fake, "boom", "boom")
    with pytest.raises(KeyError):
        with tracer:
            fake.boom()
    assert fake.boom is boom
    assert tracer.stats["boom"].calls == 1


@pytest.mark.parametrize("n, expected", [
    (5, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    p = workloads.tail_percentile(n)
    assert p == expected
    values = list(range(n))
    if n >= 2 * workloads.MIN_BEYOND:
        cut = workloads.nearest_rank(values, p)
        assert sum(v > cut for v in values) >= workloads.MIN_BEYOND
    for higher in (q for q in workloads.TAIL_PERCENTILES if q > p):
        cut = workloads.nearest_rank(values, higher)
        assert sum(v > cut for v in values) < workloads.MIN_BEYOND
