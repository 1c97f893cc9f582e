"""Smoke tests of the scripts that no other test runs, on tiny inputs."""

import contextlib
import importlib.util
import io
import json
import shutil
from functools import partial
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_layers_times_every_operation(monkeypatch):
    # bench_grid and bench_qpea, not main, so that no BENCH_*.json is written.
    bench = load_script("bench_layers")
    monkeypatch.setattr(bench, "CALLS", {256: (20, 3)})
    report = bench.bench_grid(256)
    assert report["depth"] == 8
    assert report["gate_half_width"] == pytest.approx(3.141592653589793 / 32)
    timings = {op: stats for op, stats in report.items() if isinstance(stats, dict)}
    assert set(timings) == {
        "update_cached", "update_fresh", "update_fresh_noisy", "mass_outside_after_update", "map_estimate_within",
        "predict_loss",
    }
    for op, stats in timings.items():
        assert stats["median_us"] > 0.0, op
        assert stats["calls"] == (3 if op == "predict_loss" else 20)
    monkeypatch.setattr(bench, "QPEA_CALLS", {12: 2, 16: 2, 20: 2})
    for m in (12, 16, 20):
        stats = bench.bench_qpea(m)
        assert stats["median_us"] > 0.0, m
        assert stats["calls"] == 2
    monkeypatch.setattr(bench, "DOUBLING_CALLS", {16: 2})
    stats = bench.bench_doubling(16)
    assert stats["median_us"] > 0.0
    assert stats["calls"] == 2
    monkeypatch.setattr(bench, "REFINED_CALLS", 5)
    refined = bench.bench_refined_update()
    assert (refined["grid_size"], refined["depth"]) == (262144, 8192)
    assert refined["update_cached"]["median_us"] > 0.0
    assert refined["update_cached"]["calls"] == 5
    monkeypatch.setattr(bench, "CLASSICAL_CALLS", 2)
    stats = bench.bench_classical_cell()
    assert stats["median_us"] > 0.0
    assert stats["calls"] == 2
    monkeypatch.setattr(bench, "RUN_CALLS", 2)
    stats = bench.bench_runs(0.9, 256)
    assert stats["median_us"] > 0.0
    assert stats["calls"] == 2
    monkeypatch.setattr(bench, "MEMORY_BUDGET", 1 << 12)
    monkeypatch.setattr(bench, "MEMORY_REGISTER", 12)
    memory = bench.bench_memory()
    assert set(memory) == {"doubling_peak_bytes", "doubling_cache_bytes_after", "qpea_past_window_peak_bytes"}
    assert 0 < memory["doubling_cache_bytes_after"] < memory["doubling_peak_bytes"]
    assert memory["qpea_past_window_peak_bytes"] > 0


def test_ab_runs_against_its_own_tree(monkeypatch, tmp_path):
    script = load_script("ab_runs")
    monkeypatch.setattr(script, "ROUNDS", 2)
    monkeypatch.setattr(script, "SEEDS", 2)
    monkeypatch.setattr(script, "ROOT", str(tmp_path))
    labels = ("beta=0.9 N=64", "noiseless N=256", "baselines 2^6..2^8")
    monkeypatch.setattr(script, "ROWS", (
        (labels[0], partial(script.time_runs, 0.9, 64)),
        (labels[1], partial(script.time_runs, 1.0, 256)),
        (labels[2], partial(script.time_sweeps, (64, 256))),
    ))
    # The change side loads from ROOT, here a copy of this tree's package.
    shutil.copytree(SCRIPTS.parent / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert script.main([str(SCRIPTS.parent), "t"]) == 0
    lines = stdout.getvalue().splitlines()
    assert lines[0] == "2 rounds, 2 seeds per row, process CPU time in ms"
    assert len(lines) == 1 + 3 * len(labels) + 2
    for i, label in enumerate(labels):
        parent, change, wins = lines[1 + 3 * i:4 + 3 * i]
        assert parent.startswith(f"{label:<20} parent min-sum ")
        assert change.startswith(f"{label:<20} change min-sum ")
        assert wins.startswith(f"{label:<20} change faster in ") and wins.endswith(" of 2 rounds")
    reports = {side: json.loads((tmp_path / name).read_text())
               for side, name in (("parent", "BENCH_t_parent.json"), ("change", "BENCH_t.json"))}
    assert (reports["parent"]["label"], reports["change"]["label"]) == ("t_parent", "t")
    for side, report in reports.items():
        assert report["side"] == side
        assert list(report["rows"]) == list(labels)
        for row in report["rows"].values():
            assert len(row["round_totals_ms"]) == 2
            assert 0.0 < row["min_sum_ms"] <= min(row["round_totals_ms"])
    assert set(reports["change"]["change_faster_rounds"]) == set(labels)


def test_reproduce_error_scaling_quick_run(tmp_path):
    script = load_script("reproduce_error_scaling")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = script.main(
            ["--quick", "--thetas", "2", "--reps", "1", "--workers", "1", "--out-dir", str(tmp_path)]
        )
    assert code == 0
    assert "(0 failed)" in stdout.getvalue()
    for name in ("results.csv", "aggregate.csv", "manifest.json", "error_scaling.svg"):
        assert (tmp_path / name).stat().st_size > 0


def test_trace_digest_quick_run():
    script = load_script("trace_digest")
    outputs = []
    for _ in range(2):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert script.main(["--quick"]) == 0
        outputs.append(stdout.getvalue().splitlines())
    counts, path, bits = outputs[0]
    assert counts.startswith("32 run() traces, 2 doubling runs, ")
    # The quick grid's decisions, shots and tallies, as the loop makes them today.
    assert path == "path b3fc555c47ed3b36a10e849143f3d424c133b8d834649208bb3324008e0b7808"
    # The same grid's phases, intervals, confidences, losses and estimates, to the bit.
    assert bits == "bits 9021cb1ad31470125da2e28c2b873f36458001c7e52480cf960b24861e038d65"
    assert outputs[1][1:] == [path, bits]

