"""Smoke tests of the scripts that no other test runs, on tiny inputs."""

import contextlib
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qpe_lab

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_ab_runs(monkeypatch):
    # Loading the script pins the BLAS variables; monkeypatch restores them after the test.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    return load_script("ab_runs")


# Every size that sets a row of ab_runs, shrunk so that each shipped row runs in about a second.
TINY_AB_SIZES = {
    "ROUNDS": 2,
    "SEEDS": 2,
    "NOISY_BUDGETS": (64, 128),
    "NOISELESS_BUDGETS": (256, 512),
    "BASELINE_LADDER": (64, 256),
    "NOISY_LADDER": (32, 64),
    "GRID_CALLS": {256: (6, 2), 512: (4, 2)},
    "QPEA_CALLS": {8: 3, 10: 2, 12: 2},
    "DOUBLING_CALLS": {8: 3, 10: 2},
    "REFINED_GRID": 256,
    "REFINED_DEPTH": 64,
    "REFINED_CALLS": 3,
    "CLASSICAL_BUDGET": 256,
    "CLASSICAL_CALLS": 2,
    "MEMORY_BUDGET": 1 << 12,
    "MEMORY_REGISTER": 12,
}


def test_ab_runs_against_its_own_tree(monkeypatch, tmp_path):
    script = load_ab_runs(monkeypatch)
    shipped = script.build_rows()
    for name, value in TINY_AB_SIZES.items():
        monkeypatch.setattr(script, name, value)
    monkeypatch.setattr(script, "ROOT", str(tmp_path))
    rows = script.build_rows()
    assert len(rows) == len(shipped) == 25
    assert [row.per_call for row in rows] == [row.per_call for row in shipped]
    labels = [row.label for row in rows]
    assert labels[:6] == [
        "beta=0.9 N=64", "beta=0.9 N=128", "noiseless N=2^8", "noiseless N=2^9", "baselines 2^6..2^8",
        "noisy sweep 32..64",
    ]
    # The change side loads from ROOT, here a copy of this tree's package.
    shutil.copytree(SCRIPTS.parent / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert script.main([str(SCRIPTS.parent), "t"]) == 0
    lines = stdout.getvalue().splitlines()
    assert lines[0] == "2 rounds; ms: process CPU time summed over 2 seeds; us: wall time, median per call"
    assert len(lines) == 1 + 3 * len(rows) + 2 * 4 + 2
    for i, row in enumerate(rows):
        parent, change, wins = lines[1 + 3 * i:4 + 3 * i]
        assert parent.startswith(f"{row.label:<30} parent best ") and parent.endswith(f" {row.unit}")
        assert change.startswith(f"{row.label:<30} change best ")
        assert wins.startswith(f"{row.label:<30} change faster in ") and wins.endswith(" of 2 rounds")
    reports = {side: json.loads((tmp_path / name).read_text())
               for side, name in (("parent", "BENCH_t_parent.json"), ("change", "BENCH_t.json"))}
    assert (reports["parent"]["label"], reports["change"]["label"]) == ("t_parent", "t")
    for side, report in reports.items():
        assert report["side"] == side
        assert report["openblas_num_threads"] == "1"
        assert list(report["rows"]) == labels
        for row in rows:
            figures = report["rows"][row.label]
            assert figures["unit"] == ("us" if row.per_call else "ms")
            assert len(figures["rounds"]) == 2
            assert 0.0 < figures["best"] <= min(figures["rounds"])
        memory = report["memory"]
        assert set(memory) == {
            "doubling_peak_bytes", "doubling_cache_bytes_after", "doubling_32_shots_peak_bytes",
            "qpea_past_window_peak_bytes",
        }
        assert 0 < memory["doubling_cache_bytes_after"] < memory["doubling_peak_bytes"]
        assert memory["doubling_32_shots_peak_bytes"] > 0
        assert memory["qpea_past_window_peak_bytes"] > 0
    assert list(reports["change"]["change_faster_rounds"]) == labels


def test_ab_runs_per_call_rows_time_what_they_name(monkeypatch):
    script = load_ab_runs(monkeypatch)
    for name, value in TINY_AB_SIZES.items():
        monkeypatch.setattr(script, name, value)
    post, circuit, interval = script.grid_case(256, qpe_lab)
    assert circuit.depth == 8
    assert interval.half_width == pytest.approx(3.141592653589793 / 32)
    times, masses = script.time_gate_checks(256, qpe_lab)
    assert len(times) == len(masses) == 6
    times, losses = script.time_predictions(256, qpe_lab)
    assert len(times) == len(losses) == 2
    times, results = script.time_baseline("qpea", 8, 3, qpe_lab)
    assert [result[1] for result in results] == [255] * 3
    times, (grid_size, _, _) = script.time_refined_update(qpe_lab)
    assert (len(times), grid_size) == (3, 32 * 64)


def test_ab_runs_rejects_a_tree_without_the_package(monkeypatch, tmp_path):
    script = load_ab_runs(monkeypatch)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        assert script.main([str(tmp_path)]) == 2
    assert "Usage, from the repository root:" in stderr.getvalue()


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc")
def test_ab_runs_pins_the_blas_before_numpy_loads():
    env = {name: value for name, value in os.environ.items()
           if name not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    code = (
        "import importlib.util, os\n"
        f"spec = importlib.util.spec_from_file_location('ab_runs', {str(SCRIPTS / 'ab_runs.py')!r})\n"
        "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["1", "1"]


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
    counts, path, run_bits, doubling_bits = outputs[0]
    assert counts.startswith("16 run() traces, 2 doubling runs, ")
    # The quick grid's decisions, shots and tallies, as the loop makes them today.
    assert path == "path a24046ef59737d14e10e7016aa179076090f91571f3c9e1c6236df4cefab49e2"
    # The same grid's phases, intervals, confidences, losses and estimates, to the bit: the run() traces'
    # and the doubling runs'.
    assert run_bits == "bits run() 46a04e6874598bdae1fa90d5ff076f8a3cfbf06a92a42011f345819f8a73deb4"
    assert doubling_bits == "bits doubling c1da2838bc6fd6cfbee18a218bce3e803c8ef9c06a5e731d5cf10fb7b7b1f9c8"
    assert outputs[1][1:] == [path, run_bits, doubling_bits]

