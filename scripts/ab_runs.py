#!/usr/bin/env python3
"""Whole adaptive runs of two source trees, interleaved in one process: is the change faster?

Loads ``PARENT_TREE/src/qpe_lab`` under the package name ``qpe_lab_parent``
beside this checkout's ``qpe_lab``, so both sides share one interpreter,
one numpy and one machine state.  Each round times three rows on both
sides, and the side that goes first flips every round:

- 8 seeded runs at decay beta = 0.9 and N = 4096;
- the same at N = 512;
- 8 noiseless runs at N = 2^16.

Seed s runs at theta = 2*pi*frac(0.618034*s), and each run is timed in
process CPU time.  Both sides must give bitwise equal final estimates on
every run, or the script stops.  Per row and side it prints the sum over
seeds of each seed's minimum over the rounds, then the median and the
quartiles of the rounds' row totals, and the number of rounds in which
the change's row total was lower.

Usage, from the repository root:

    OPENBLAS_NUM_THREADS=1 python3 scripts/ab_runs.py PARENT_TREE

where PARENT_TREE is a checkout of the parent commit, for example one made
with ``git archive``.
"""

import gc
import importlib.util
import math
import os
import statistics
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
ROUNDS = 15
SEEDS = 8
# (label, decay beta, budget) of each row.
ROWS = (("beta=0.9 N=4096", 0.9, 1 << 12), ("beta=0.9 N=512", 0.9, 1 << 9), ("noiseless N=2^16", 1.0, 1 << 16))


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


def time_row(package, beta: float, n_tot: int) -> tuple[list[int], list[float]]:
    """CPU nanoseconds and final estimate of each seeded run of one row."""
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


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    sides = {
        "parent": load_package(os.path.join(argv[0], "src"), "qpe_lab_parent"),
        "change": load_package(os.path.join(ROOT, "src"), "qpe_lab_change"),
    }
    # times[row][side] is a list of rounds, each a list of per-seed CPU nanoseconds.
    times = {label: {side: [] for side in sides} for label, _, _ in ROWS}
    for round_index in range(ROUNDS):
        order = list(sides) if round_index % 2 == 0 else list(reversed(sides))
        for label, beta, n_tot in ROWS:
            estimates = {}
            for side in order:
                row_times, estimates[side] = time_row(sides[side], beta, n_tot)
                times[label][side].append(row_times)
            if estimates["parent"] != estimates["change"]:
                raise AssertionError(f"{label}: final estimates differ in round {round_index}")
    print(f"{ROUNDS} rounds, {SEEDS} seeds per row, process CPU time in ms")
    for label, _, _ in ROWS:
        totals = {}
        for side in sides:
            rounds = times[label][side]
            per_seed_min = sum(min(column) for column in zip(*rounds)) / 1e6
            totals[side] = [sum(row) / 1e6 for row in rounds]
            q1, median, q3 = quartiles(totals[side])
            print(f"{label:<17} {side:<6} min-sum {per_seed_min:8.1f}  median {median:8.1f}  "
                  f"quartiles {q1:.1f}-{q3:.1f}")
        wins = sum(c < p for p, c in zip(totals["parent"], totals["change"]))
        print(f"{label:<17} change faster in {wins} of {ROUNDS} rounds")
    return 0


if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main(sys.argv[1:]))
