#!/usr/bin/env python3
"""Per-call cost of the posterior operations the adaptive loop runs per shot,
of one textbook-register (qpea) draw and of one whole doubling-baseline run.

Times, at grid sizes 4096 and 65536, one call each of:

- ``update`` with a cached circuit (the same circuit every call) and with a
  fresh circuit (a new phase every call, so its likelihood is computed anew),
  noiseless and at decay beta = 0.9 (``update_fresh_noisy``), where p0
  needs no clamp;
- ``mass_outside`` (the gate check) right after a cached update, as the
  gated rung runs it;
- ``map_estimate(within=...)`` on the gate's interval;
- ``predict_loss`` of spending 64 shots' worth of budget at the grid's depth.

The grid size sets the depth: G // 32, the deepest circuit the grid
resolves.  Every operation starts from the same posterior, a von Mises
bump of width 1 / (2 * depth) around a fixed phase, and the gate interval
is the one the loop uses at that depth, of half-width pi / (4 * depth).
``run_qpea`` is timed at registers of 2^12, 2^16 and 2^20 outcomes, one
readout per call from one seeded generator, at the same fixed phase.

Two rows time the deep grids.  ``run_nonadaptive_doubling`` runs whole at
budgets of 2^16 and 2^20 with 32 shots per depth, its grid refining from
4096 up to 2^18 and 2^20 cells.  ``update`` with a cached single-shot
circuit of depth 8192 runs on a posterior that a depth-8192 record has
just refined from 4096 to 262144 cells; it starts from the depth-128 bump.

One row times ``harness.run_cell`` of a classical cell at N = 2^20, the
cell that sets ``baseline-sweep``'s ``run_s_p50``: two batch updates on the
4096-cell grid, the mode, and its expected loss, which rebuilds the
window's angles once.  Each call is a new true phase and seed.

Two more rows time whole adaptive runs, each the CPU time of 8 seeded
``run()`` calls (seed s at theta = 2*pi*frac(0.618034*s)): at beta = 0.9
and N = 4096, where every shot is a single-shot update on the fixed
4096-cell grid, and noiseless at N = 2^16.

Each call is timed with ``time.perf_counter_ns`` (the whole runs with
``time.process_time_ns``); the report gives the median (robust to the odd
preempted call) and the mean.

Three memory rows, in bytes that ``tracemalloc`` traces (numpy's arrays
included), start from empty posterior caches: the peak during one
``run_nonadaptive_doubling`` at N = 2^20 with one shot per depth, whose
posterior is too broad to trim and refines whole to 2^22 cells; the
bytes still held once it returns, which the posterior's caches hold; and
the peak of one ``run_qpea`` draw of 2^20 outcomes forced past the window,
to the cell HALF_WINDOW + 2 above the peak.

Usage, from the repository root:

    OPENBLAS_NUM_THREADS=1 python3 scripts/bench_layers.py LABEL

writes ``BENCH_LABEL.json`` at the repository root, with the machine,
Python and numpy versions.  Pin the BLAS to one thread as above, so that
no timing depends on how many threads numpy's BLAS starts.
"""

import json
import math
import os
import platform
import statistics
import sys
import time
import tracemalloc

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from qpe_lab import posterior  # noqa: E402
from qpe_lab.adaptive import AlgorithmConfig, RunSettings, run  # noqa: E402
from qpe_lab.baselines import HALF_WINDOW, qpea_outcome_distribution, run_nonadaptive_doubling, run_qpea  # noqa: E402
from qpe_lab.harness import SweepConfig, run_cell  # noqa: E402
from qpe_lab.model import Circuit, MeasurementRecord, NoiseModel, tuned_circuit  # noqa: E402
from qpe_lab.posterior import (  # noqa: E402
    CircularInterval,
    LossKind,
    map_estimate,
    mass_outside,
    normalize,
    predict_loss,
    uniform_prior,
    update,
)

GRID_SIZES = (4096, 65536)
# Calls per operation at each grid size: (cheap operations, predict_loss).
CALLS = {4096: (2000, 200), 65536: (500, 30)}
# Calls of run_qpea at each register size m (2**m outcomes).
QPEA_CALLS = {12: 200, 16: 100, 20: 20}
# Calls of run_nonadaptive_doubling at each budget 2**m.
DOUBLING_CALLS = {16: 100, 20: 20}
# The refined-grid row: initial grid, record depth and update calls.
REFINED_GRID, REFINED_DEPTH, REFINED_CALLS = 4096, 8192, 500
# The classical-cell row: its budget and the cells timed.
CLASSICAL_BUDGET, CLASSICAL_CALLS = 1 << 20, 200
# The whole-run rows: (decay beta, budget) and seeded runs per row.
RUNS = ((0.9, 1 << 12), (1.0, 1 << 16))
RUN_CALLS = 8
# The memory rows: the doubling run's budget and its theta, and the qpea register size.
MEMORY_BUDGET, MEMORY_THETA, MEMORY_REGISTER = 1 << 20, 1.3, 20
ARRAY_CACHES = ("_grid_trig", "_log_prob_components", "_log_likelihood")
THETA = 2.2
NOISE = NoiseModel()
NOISY = NoiseModel(1.0, 0.9)


def base_posterior(grid_size: int, depth: int):
    post = uniform_prior(grid_size)
    kappa = (2.0 * depth) ** 2
    post.weights[:] = np.exp(kappa * (np.cos(post.angles - THETA) - 1.0))
    return normalize(post)


def summary(samples_ns: list[int]) -> dict:
    return {
        "median_us": statistics.median(samples_ns) / 1e3,
        "mean_us": statistics.fmean(samples_ns) / 1e3,
        "calls": len(samples_ns),
    }


def timed(fn, *args, **kwargs) -> int:
    t0 = time.perf_counter_ns()
    fn(*args, **kwargs)
    return time.perf_counter_ns() - t0


def bench_grid(grid_size: int) -> dict:
    depth = grid_size // 32
    calls, predict_calls = CALLS[grid_size]
    rng = np.random.default_rng(grid_size)
    outcomes = rng.integers(0, 2, size=calls).tolist()
    # Tuned so that p0 = 1/2 at the true phase, as the loop's circuits are.
    circuit = tuned_circuit(depth, THETA)
    interval = CircularInterval(THETA, math.pi / (4.0 * depth))

    post = base_posterior(grid_size, depth)
    update(post.clone(), MeasurementRecord(circuit, 1, 1.0), NOISE)
    update(post.clone(), MeasurementRecord(circuit, 1, 0.0), NOISE)

    work = post.clone()
    cached = [timed(update, work, MeasurementRecord(circuit, 1, x), NOISE) for x in outcomes]

    work = post.clone()
    fresh = [
        timed(update, work, MeasurementRecord(Circuit(depth, circuit.phase + 1e-3 * (i + 1)), 1, x), NOISE)
        for i, x in enumerate(outcomes)
    ]

    work = post.clone()
    fresh_noisy = [
        timed(update, work, MeasurementRecord(Circuit(depth, circuit.phase + 1e-3 * (i + 1)), 1, x), NOISY)
        for i, x in enumerate(outcomes)
    ]

    work = post.clone()
    gate = []
    for x in outcomes:
        update(work, MeasurementRecord(circuit, 1, x), NOISE)
        gate.append(timed(mass_outside, work, interval))

    work = post.clone()
    update(work, MeasurementRecord(circuit, 1, 1.0), NOISE)
    within = [timed(map_estimate, work, within=interval) for _ in range(calls)]

    predict = [
        timed(predict_loss, work, circuit, 64 * depth, NOISE, LossKind.ABSOLUTE)
        for _ in range(predict_calls)
    ]
    return {
        "depth": depth,
        "gate_half_width": interval.half_width,
        "update_cached": summary(cached),
        "update_fresh": summary(fresh),
        "update_fresh_noisy": summary(fresh_noisy),
        "mass_outside_after_update": summary(gate),
        "map_estimate_within": summary(within),
        "predict_loss": summary(predict),
    }


def bench_qpea(register_size: int) -> dict:
    rng = np.random.default_rng(register_size)
    budget = (1 << register_size) - 1
    settings = RunSettings()
    return summary([timed(run_qpea, budget, THETA, settings, rng) for _ in range(QPEA_CALLS[register_size])])


def bench_doubling(budget_log2: int) -> dict:
    rng = np.random.default_rng(budget_log2)
    settings = RunSettings()
    return summary([
        timed(run_nonadaptive_doubling, 1 << budget_log2, THETA, settings, 32, rng)
        for _ in range(DOUBLING_CALLS[budget_log2])
    ])


def bench_refined_update() -> dict:
    post = base_posterior(REFINED_GRID, REFINED_GRID // 32)
    circuit = tuned_circuit(REFINED_DEPTH, THETA)
    update(post, MeasurementRecord(circuit, 1, 1.0), NOISE)
    outcomes = np.random.default_rng(REFINED_DEPTH).integers(0, 2, size=REFINED_CALLS).tolist()
    report = summary([timed(update, post, MeasurementRecord(circuit, 1, x), NOISE) for x in outcomes])
    return {"grid_size": post.grid_size, "depth": REFINED_DEPTH, "update_cached": report}


def bench_classical_cell() -> dict:
    config = SweepConfig(
        strategies=("classical",), resource_ladder=(CLASSICAL_BUDGET,), theta_count=CLASSICAL_CALLS, repetitions=1
    )
    samples = []
    for theta_index in range(CLASSICAL_CALLS):
        t0 = time.perf_counter_ns()
        cell = run_cell(config, "classical", CLASSICAL_BUDGET, theta_index, 0)
        samples.append(time.perf_counter_ns() - t0)
        if cell.error is not None:
            raise RuntimeError(f"classical cell {theta_index} failed: {cell.error}")
    return summary(samples)


def bench_runs(beta: float, n_tot: int) -> dict:
    samples = []
    for seed in range(RUN_CALLS):
        config = AlgorithmConfig(total_resources=n_tot, seed=seed, noise=NoiseModel(1.0, beta))
        theta = 2.0 * math.pi * ((0.618034 * seed) % 1.0)
        t0 = time.process_time_ns()
        run(config, theta)
        samples.append(time.process_time_ns() - t0)
    return summary(samples)


class FixedUniform:
    """A generator stand-in whose ``random()`` returns one chosen double."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


def traced_bytes(fn, *args) -> tuple[int, int]:
    """(peak, still held) bytes that tracemalloc traces while and after ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, held


def bench_memory() -> dict:
    for name in ARRAY_CACHES:
        getattr(posterior, name).cache_clear()
    rng = np.random.default_rng(1)
    doubling_peak, cache_bytes = traced_bytes(
        run_nonadaptive_doubling, MEMORY_BUDGET, MEMORY_THETA, RunSettings(), 1, rng
    )
    for name in ARRAY_CACHES:
        getattr(posterior, name).cache_clear()

    m_size = 1 << MEMORY_REGISTER
    probs = qpea_outcome_distribution(THETA, MEMORY_REGISTER)
    cdf = np.cumsum(probs / probs.sum())
    past = (int(np.argmax(probs)) + HALF_WINDOW + 2) % m_size
    draw = FixedUniform(float(cdf[past] - 0.5 * probs[past]))
    del probs, cdf
    qpea_peak, _ = traced_bytes(run_qpea, m_size - 1, THETA, RunSettings(), draw)
    return {
        "doubling_peak_bytes": doubling_peak,
        "doubling_cache_bytes_after": cache_bytes,
        "qpea_past_window_peak_bytes": qpea_peak,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    label = argv[0]
    report = {
        "label": label,
        "command": f"OPENBLAS_NUM_THREADS=1 python3 scripts/bench_layers.py {label}",
        "machine": {
            "platform": platform.platform(),
            "arch": platform.machine(),
            "cpu_model": cpu_model(),
            "cpu_count": os.cpu_count(),
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "timer": "time.perf_counter_ns around each call",
        "per_call": {str(g): bench_grid(g) for g in GRID_SIZES},
        "run_qpea": {str(m): bench_qpea(m) for m in QPEA_CALLS},
        "run_nonadaptive_doubling": {str(m): bench_doubling(m) for m in DOUBLING_CALLS},
        "refined_update": bench_refined_update(),
        "classical_cell": bench_classical_cell(),
        "run": {f"beta={beta} N={n_tot}": bench_runs(beta, n_tot) for beta, n_tot in RUNS},
        "memory": bench_memory(),
    }
    path = os.path.join(ROOT, f"BENCH_{label}.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    for g, ops in report["per_call"].items():
        for op, stats in ops.items():
            if isinstance(stats, dict):
                print(f"G={g:>6} {op:<26} {stats['median_us']:9.1f} us median  {stats['mean_us']:9.1f} us mean")
    for m, stats in report["run_qpea"].items():
        print(f"m={m:>6} {'run_qpea':<26} {stats['median_us']:9.1f} us median  {stats['mean_us']:9.1f} us mean")
    for m, stats in report["run_nonadaptive_doubling"].items():
        print(f"N=2^{m:<4} {'run_nonadaptive_doubling':<26} {stats['median_us']:9.1f} us median  "
              f"{stats['mean_us']:9.1f} us mean")
    refined = report["refined_update"]
    stats = refined["update_cached"]
    print(f"G={refined['grid_size']:>6} {'update_cached (refined)':<26} {stats['median_us']:9.1f} us median  "
          f"{stats['mean_us']:9.1f} us mean")
    stats = report["classical_cell"]
    print(f"N=2^{CLASSICAL_BUDGET.bit_length() - 1:<4} {'run_cell classical':<26} {stats['median_us']:9.1f} us median  "
          f"{stats['mean_us']:9.1f} us mean")
    for name, stats in report["run"].items():
        print(f"{name:<15} {'run (CPU time)':<26} {stats['median_us']:9.1f} us median  "
              f"{stats['mean_us']:9.1f} us mean")
    for name, value in report["memory"].items():
        print(f"{'memory':<15} {name:<26} {value / 2**20:9.1f} MiB")
    print(f"wrote {os.path.normpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
