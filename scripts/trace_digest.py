#!/usr/bin/env python3
"""Three sha256 digests over a fixed grid of seeded traces, to show that a change leaves every run as it was.

The path digest covers what the adaptive loop did: for each ``run()`` trace,
every step's index, decision, shots, successes, cap hit and circuit depth,
the shots and successes of every circuit fired, in firing order, and the
resources spent; for each doubling-baseline run, its deepest depth and the
resources spent.  Two bits digests cover the same data and, as
``float.hex``, the floats: the run bits digest, over the ``run()`` traces,
adds the phase of every circuit fired, each step's interval, confidence
and predicted losses, and each run's final estimate and expected loss; the
doubling bits digest, over the doubling runs, adds each run's estimate and
expected loss.  A refactor keeps every digest; a change that only rounds
differently keeps the path digest, and one that rounds only the baselines'
posterior also keeps the run bits digest.

The default grid holds 3040 ``run()`` traces: budgets 2^6 .. 2^16 (32
seeds per budget up to 2^10, 8 up to 2^13, 2 above), decay beta in
{1, 0.99, 0.9, 0.6}, both estimators and initial grids of 64 and 4096
cells.  It adds 220 noiseless doubling runs: 20 seeds at each budget 2^12,
2^14, 2^16, 2^18 and 2^20 with 8 and 32 shots per depth, and at 2^12 with
one shot per depth.  Seed s runs at theta_s = 2*pi*frac(0.618034*s).  The
grid takes a few minutes on one core; ``--quick`` runs a small grid in
about a second.

Usage, from the repository root:

    python3 scripts/trace_digest.py [--quick]
"""

import argparse
import hashlib
import math
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from qpe_lab import AlgorithmConfig, NoiseModel, RunSettings, run, run_nonadaptive_doubling  # noqa: E402

# (budget exponents, seeds per budget) for the run() grid.
RUN_BUDGETS = (((6, 7, 8, 9, 10), 32), ((11, 12, 13), 8), ((14, 15, 16), 2))
BETAS = (1.0, 0.99, 0.9, 0.6)
ESTIMATORS = ("map", "circular-mean")
GRID_SIZES = (64, 4096)
# (budget exponents, shots per depth) for the doubling grid, DOUBLING_SEEDS seeds each.
DOUBLING = (((12, 14, 16, 18, 20), 8), ((12, 14, 16, 18, 20), 32), ((12,), 1))
DOUBLING_SEEDS = 20

QUICK_RUN_BUDGETS = (((6, 8), 2),)
QUICK_BETAS = (1.0, 0.9)
QUICK_DOUBLING = (((12,), 8),)
QUICK_DOUBLING_SEEDS = 2


def theta_of(seed: int) -> float:
    return 2.0 * math.pi * ((0.618034 * seed) % 1.0)


def hexes(*values) -> str:
    return " ".join("None" if v is None else float(v).hex() for v in values)


def run_lines(config: AlgorithmConfig):
    """The (path, bits) lines of one run() trace."""
    trace = run(config, theta_of(config.seed))
    head = (f"run {config.total_resources} {config.noise.beta!r} {config.estimator} "
            f"{config.grid_size} {config.seed} spent {trace.resources_spent}")
    path, bits = [head], [head]
    for s in trace.steps:
        step = f"step {s.step_index} {s.decision} {s.shots_used} {s.successes} {s.cap_hit} {s.circuit.depth}"
        path.append(step)
        bits.append(step + " " + hexes(
            s.circuit.phase, s.interval.center, s.interval.half_width, s.confidence_reached,
            s.predicted_loss_stay, s.predicted_loss_deepen,
        ))
    for circuit, (shots, successes) in trace.wall_outcome_counts.items():
        tally = f"tally {circuit.depth} {shots} {successes}"
        path.append(tally)
        bits.append(tally + " " + hexes(circuit.phase))
    bits.append("final " + hexes(trace.final_estimate, trace.final_expected_loss))
    return path, bits


def doubling_lines(n_tot: int, shots_per_depth: int, seed: int):
    """The (path, bits) lines of one doubling-baseline run."""
    result = run_nonadaptive_doubling(
        n_tot, theta_of(seed), RunSettings(), shots_per_depth, np.random.default_rng(seed)
    )
    head = f"doubling {n_tot} {shots_per_depth} {seed} depth {result.max_depth} spent {result.resources_spent}"
    return [head], [head + " " + hexes(result.estimate, result.posterior_expected_loss)]


def digests(run_budgets, betas, doubling, doubling_seeds):
    """(path digest, run bits digest, doubling bits digest, run count, doubling count) over the given grid."""
    path, run_bits, doubling_bits = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    runs = doublings = 0

    def feed(lines, bits):
        path_lines, bits_lines = lines
        path.update("\n".join(path_lines + [""]).encode())
        bits.update("\n".join(bits_lines + [""]).encode())

    for exponents, seeds in run_budgets:
        for m in exponents:
            for beta in betas:
                for estimator in ESTIMATORS:
                    for grid_size in GRID_SIZES:
                        for seed in range(seeds):
                            feed(run_lines(AlgorithmConfig(
                                total_resources=1 << m, seed=seed, noise=NoiseModel(1.0, beta),
                                estimator=estimator, grid_size=grid_size,
                            )), run_bits)
                            runs += 1
    for exponents, shots_per_depth in doubling:
        for m in exponents:
            for seed in range(doubling_seeds):
                feed(doubling_lines(1 << m, shots_per_depth, seed), doubling_bits)
                doublings += 1
    return path.hexdigest(), run_bits.hexdigest(), doubling_bits.hexdigest(), runs, doublings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="a small grid, for a smoke test")
    args = parser.parse_args(argv)
    if args.quick:
        grid = (QUICK_RUN_BUDGETS, QUICK_BETAS, QUICK_DOUBLING, QUICK_DOUBLING_SEEDS)
    else:
        grid = (RUN_BUDGETS, BETAS, DOUBLING, DOUBLING_SEEDS)
    start = time.perf_counter()
    path, run_bits, doubling_bits, runs, doublings = digests(*grid)
    print(f"{runs} run() traces, {doublings} doubling runs, {time.perf_counter() - start:.1f}s")
    print(f"path {path}")
    print(f"bits run() {run_bits}")
    print(f"bits doubling {doubling_bits}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
