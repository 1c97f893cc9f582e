#!/usr/bin/env python3
"""Whole adaptive runs and baseline sweeps of two source trees, interleaved in one process: is the change faster?

Loads ``PARENT_TREE/src/qpe_lab`` under the package name ``qpe_lab_parent``
beside this checkout's ``qpe_lab``, so both sides share one interpreter,
one numpy and one machine state.  Each round times five rows on both
sides, and the side that goes first flips every round:

- 8 seeded runs at decay beta = 0.9 and N = 4096;
- the same at N = 512;
- 8 noiseless runs at N = 2^16;
- 8 whole noiseless baseline sweep passes, master seeds 0 to 7: the
  classical, nonadaptive-doubling and qpea strategies over the budgets
  2^12, 2^14, ..., 2^20, 6 phases and 32 shots per depth, one process
  (``workers=1``), as the ``baseline-sweep`` benchmark workload runs them;
- 8 whole adaptive sweep passes at beta = 0.9, master seeds 0 to 7: the
  adaptive strategy alone over the budgets 32, 64, ..., 4096 and 5 phases,
  one process, shaped as the ``adaptive-noisy-sweep`` workload's passes.

Seed s runs at theta = 2*pi*frac(0.618034*s), and each run or pass is
timed in process CPU time.  Both sides must give bitwise equal final
estimates on every run, and equal cells on every pass, or the script
stops.  Per row and side it prints the sum over seeds of each seed's
minimum over the rounds, then the median and the quartiles of the rounds'
row totals, and the number of rounds in which the change's row total was
lower.

Usage, from the repository root:

    OPENBLAS_NUM_THREADS=1 python3 scripts/ab_runs.py PARENT_TREE [LABEL]

where PARENT_TREE is a checkout of the parent commit, for example one made
with ``git archive``.  With a LABEL the script also writes
``BENCH_LABEL_parent.json`` and ``BENCH_LABEL.json`` at the repository
root, each side's figures from this one session, with the machine, Python
and numpy versions.
"""

import dataclasses
import gc
import importlib.util
import json
import math
import os
import platform
import statistics
import sys
import time
from functools import partial

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
ROUNDS = 15
SEEDS = 8
LABEL_WIDTH = 20


def load_package(src: str, name: str):
    """Import the ``qpe_lab`` package found in ``src`` under the module name ``name``."""
    package = os.path.join(src, "qpe_lab")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def theta_of(seed: int) -> float:
    return 2.0 * math.pi * ((0.618034 * seed) % 1.0)


def time_runs(beta: float, n_tot: int, package) -> tuple[list[int], list]:
    """CPU nanoseconds and final estimate of each seeded run."""
    noise = package.NoiseModel(1.0, beta)
    times, estimates = [], []
    gc.collect()
    for seed in range(SEEDS):
        config = package.AlgorithmConfig(total_resources=n_tot, seed=seed, noise=noise)
        t0 = time.process_time_ns()
        trace = package.run(config, theta_of(seed))
        times.append(time.process_time_ns() - t0)
        estimates.append(trace.final_estimate)
    return times, estimates


def time_sweeps(
    ladder: tuple[int, ...],
    package,
    strategies: tuple[str, ...] = ("classical", "nonadaptive-doubling", "qpea"),
    theta_count: int = 6,
    beta: float = 1.0,
) -> tuple[list[int], list]:
    """CPU nanoseconds and cells, as tuples of their fields, of each seeded sweep pass, baselines by default."""
    times, passes = [], []
    gc.collect()
    for seed in range(SEEDS):
        config = package.SweepConfig(
            strategies=strategies,
            resource_ladder=ladder,
            theta_count=theta_count,
            repetitions=1,
            shots_per_depth=32,
            noise=package.NoiseModel(1.0, beta),
            master_seed=seed,
        )
        t0 = time.process_time_ns()
        cells = package.run_sweep(config, workers=1)
        times.append(time.process_time_ns() - t0)
        passes.append([dataclasses.astuple(cell) for cell in cells])
    return times, passes


# (label, timer) of each row: the timer takes a package and returns each seed's CPU time and outputs.
ROWS = (
    ("beta=0.9 N=4096", partial(time_runs, 0.9, 1 << 12)),
    ("beta=0.9 N=512", partial(time_runs, 0.9, 1 << 9)),
    ("noiseless N=2^16", partial(time_runs, 1.0, 1 << 16)),
    ("baselines 2^12..2^20", partial(time_sweeps, tuple(1 << m for m in range(12, 21, 2)))),
    ("noisy sweep 32..4096", partial(
        time_sweeps, tuple(1 << m for m in range(5, 13)), strategies=("adaptive",), theta_count=5, beta=0.9
    )),
)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def write_reports(label: str, rows: dict, wins: dict) -> None:
    """``BENCH_<label>_parent.json`` and ``BENCH_<label>.json``: each side's rows, from one session."""
    common = {
        "command": f"OPENBLAS_NUM_THREADS=1 python3 scripts/ab_runs.py PARENT_TREE {label}",
        "machine": {
            "platform": platform.platform(),
            "arch": platform.machine(),
            "cpu_model": cpu_model(),
            "cpu_count": os.cpu_count(),
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "timer": "time.process_time_ns around each run or sweep pass; the two sides interleaved in one "
                 "process, the side that goes first flipping every round",
        "rounds": ROUNDS,
        "seeds": SEEDS,
    }
    for side, name in (("parent", f"BENCH_{label}_parent.json"), ("change", f"BENCH_{label}.json")):
        report = {"label": name[len("BENCH_"):-len(".json")], "side": side, **common, "rows": rows[side]}
        if side == "change":
            report["change_faster_rounds"] = wins
        path = os.path.join(ROOT, name)
        with open(path, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {os.path.normpath(path)}")


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sides = {
        "parent": load_package(os.path.join(argv[0], "src"), "qpe_lab_parent"),
        "change": load_package(os.path.join(ROOT, "src"), "qpe_lab_change"),
    }
    # times[row][side] is a list of rounds, each a list of per-seed CPU nanoseconds.
    times = {label: {side: [] for side in sides} for label, _ in ROWS}
    for round_index in range(ROUNDS):
        order = list(sides) if round_index % 2 == 0 else list(reversed(sides))
        for label, timer in ROWS:
            outputs = {}
            for side in order:
                row_times, outputs[side] = timer(sides[side])
                times[label][side].append(row_times)
            if outputs["parent"] != outputs["change"]:
                raise AssertionError(f"{label}: outputs differ in round {round_index}")
    print(f"{ROUNDS} rounds, {SEEDS} seeds per row, process CPU time in ms")
    rows = {side: {} for side in sides}
    wins = {}
    for label, _ in ROWS:
        totals = {}
        for side in sides:
            rounds = times[label][side]
            per_seed_min = sum(min(column) for column in zip(*rounds)) / 1e6
            totals[side] = [sum(row) / 1e6 for row in rounds]
            q1, median, q3 = quartiles(totals[side])
            rows[side][label] = {
                "min_sum_ms": per_seed_min, "median_ms": median, "q1_ms": q1, "q3_ms": q3,
                "round_totals_ms": totals[side],
            }
            print(f"{label:<{LABEL_WIDTH}} {side:<6} min-sum {per_seed_min:8.1f}  median {median:8.1f}  "
                  f"quartiles {q1:.1f}-{q3:.1f}")
        wins[label] = sum(c < p for p, c in zip(totals["parent"], totals["change"]))
        print(f"{label:<{LABEL_WIDTH}} change faster in {wins[label]} of {ROUNDS} rounds")
    if len(argv) == 2:
        write_reports(argv[1], rows, wins)
    return 0


if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main(sys.argv[1:]))
