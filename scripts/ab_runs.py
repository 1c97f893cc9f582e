#!/usr/bin/env python3
"""Time two source trees interleaved in one process: is the change faster?

Loads ``PARENT_TREE/src/qpe_lab`` under the package name ``qpe_lab_parent``
beside this checkout's package, loaded as ``qpe_lab_change``, so both sides
share one interpreter, one numpy and one machine state.  Each of 15 rounds
times every row on both sides back to back, and the side that goes first
flips every round.  Both sides must give equal outputs on every row, or the
script stops.

Whole-run rows time each seeded run or sweep pass in process CPU time, and
a round's figure is their sum in ms.  Run s has seed s and true phase
theta = 2*pi*frac(0.618034*s); sweep pass s has master seed s.

- 8 runs at decay beta = 0.9 and N = 4096, and the same at N = 512;
- 8 noiseless runs at N = 2^16, and the same at N = 2^18;
- 8 baseline sweep passes: the classical, nonadaptive-doubling and qpea
  strategies over the budgets 2^12, 2^14, ..., 2^20, 6 phases and 32 shots
  per depth, one process (``workers=1``), as the ``baseline-sweep``
  benchmark workload runs them;
- 8 adaptive sweep passes at beta = 0.9 over the budgets 32, 64, ..., 4096
  and 5 phases, one process, shaped as the ``adaptive-noisy-sweep``
  workload's passes.

Per-call rows time each call in wall time, and a round's figure is the
median over its calls in us:

- at grid sizes G = 4096 and 65536, with depth G // 32, the deepest circuit
  the grid resolves, each starting from a von Mises bump of width
  1 / (2 * depth) around a fixed phase: ``update`` with a cached circuit
  (the same tuned circuit every call) and with a fresh one (its phase moved
  every call, so its likelihood is computed anew), noiseless and at
  beta = 0.9; ``mass_outside`` (the gate check) right after each cached
  update, on the gate's interval of half-width pi / (4 * depth);
  ``map_estimate(within=...)`` on that interval; and ``predict_loss`` of
  64 shots' worth of budget at that depth;
- ``run_qpea`` at registers of 2^12, 2^16 and 2^20 outcomes, one readout
  per call from one seeded generator;
- ``run_nonadaptive_doubling`` at budgets 2^16 and 2^20 with 32 shots per
  depth, its grid refining from 4096 up to 2^18 and 2^20 cells;
- ``update`` with a cached circuit of depth 8192 on a posterior that one
  depth-8192 record has refined from the 4096-cell bump to 262144 cells;
- ``harness.run_cell`` of a classical cell at N = 2^20, the cell that sets
  ``baseline-sweep``'s ``run_s_p50``, a new true phase and seed per call.

Per row and side the script prints the best figure (the same sum or median
over each seed's or call's minimum over the rounds), the median and the
quartiles of the rounds' figures, and the number of rounds in which the
change's figure was lower.

After the rounds, once per side, three memory rows give the bytes that
``tracemalloc`` traces, numpy's arrays included, with that side's posterior
caches cleared before and after: the peak during one
``run_nonadaptive_doubling`` at N = 2^20 with one shot per depth, whose
posterior is too broad to trim and refines whole to 2^22 cells; the bytes
its caches still hold once it returns; and the peak of one ``run_qpea``
draw of 2^20 outcomes forced past its window, to the cell HALF_WINDOW + 2
above the peak.

Usage, from the repository root:

    python3 scripts/ab_runs.py PARENT_TREE [LABEL]

where PARENT_TREE is a checkout of the parent commit, for example one made
with ``git archive``.  The script pins numpy's BLAS to one thread.  With a
LABEL it also writes ``BENCH_LABEL_parent.json`` and ``BENCH_LABEL.json``
at the repository root, each side's figures from this one session, with
the machine, Python and numpy versions.
"""

import os

# numpy links a threaded BLAS; pin it before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses
import gc
import importlib.util
import json
import math
import platform
import statistics
import sys
import time
import tracemalloc
from functools import partial
from typing import Callable

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
ROUNDS = 15
SEEDS = 8
# Whole-run rows: the budgets of the runs at beta = 0.9, and of the noiseless runs.
NOISY_BUDGETS = (1 << 12, 1 << 9)
NOISELESS_BUDGETS = (1 << 16, 1 << 18)
# Sweep rows: the baselines' budget ladder, and the noisy adaptive sweep's.
BASELINE_LADDER = tuple(1 << m for m in range(12, 21, 2))
NOISY_LADDER = tuple(1 << m for m in range(5, 13))
# Per-call rows at each grid size: the calls of each operation but predict_loss, and of predict_loss.
GRID_CALLS = {4096: (2000, 200), 65536: (500, 30)}
# Calls of run_qpea at each register size m (2**m outcomes), and of run_nonadaptive_doubling at each budget 2**m.
QPEA_CALLS = {12: 200, 16: 100, 20: 20}
DOUBLING_CALLS = {16: 100, 20: 20}
# The refined-grid row: initial grid, record depth and update calls.
REFINED_GRID, REFINED_DEPTH, REFINED_CALLS = 4096, 8192, 500
# The classical-cell row: its budget and the cells timed.
CLASSICAL_BUDGET, CLASSICAL_CALLS = 1 << 20, 200
# The memory rows: the doubling run's budget and its theta, and the qpea register size.
MEMORY_BUDGET, MEMORY_THETA, MEMORY_REGISTER = 1 << 20, 1.3, 20
THETA = 2.2
LABEL_WIDTH = 30


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


def time_calls(fn, argument_lists) -> tuple[list[int], list]:
    """Wall nanoseconds and result of ``fn(*args)`` for each ``args`` in turn; the iteration itself is not timed."""
    times, results = [], []
    for args in argument_lists:
        t0 = time.perf_counter_ns()
        result = fn(*args)
        times.append(time.perf_counter_ns() - t0)
        results.append(result)
    return times, results


def outcomes_of(seed: int, calls: int) -> list[int]:
    return np.random.default_rng(seed).integers(0, 2, size=calls).tolist()


def grid_case(grid_size: int, package):
    """The bump posterior at ``grid_size``, the tuned circuit of its depth, and the gate interval."""
    depth = grid_size // 32
    post = package.posterior.uniform_prior(grid_size)
    post.weights[:] = np.exp((2.0 * depth) ** 2 * (np.cos(post.angles - THETA) - 1.0))
    # Tuned so that p0 = 1/2 at the true phase, as the loop's circuits are.
    circuit = package.model.tuned_circuit(depth, THETA)
    interval = package.CircularInterval(THETA, math.pi / (4.0 * depth))
    return package.posterior.normalize(post), circuit, interval


def observables(post, interval, package) -> tuple:
    """What the loop reads of a posterior: its grid size, its mode and its mass outside ``interval``."""
    return post.grid_size, package.map_estimate(post), package.mass_outside(post, interval)


def time_updates(grid_size: int, fresh: bool, beta: float, package) -> tuple[list[int], tuple]:
    """``update`` with the tuned circuit every call, or with its phase moved by 1e-3 more each call."""
    post, circuit, interval = grid_case(grid_size, package)
    outcomes = outcomes_of(grid_size, GRID_CALLS[grid_size][0])
    noise = package.NoiseModel(1.0, beta)
    # An untimed update of each outcome on a copy puts the tuned circuit's likelihood in the cache.
    for x in (1, 0):
        package.posterior.update(post.clone(), package.MeasurementRecord(circuit, 1, x), noise)
    circuits = (
        package.Circuit(circuit.depth, circuit.phase + 1e-3 * (i + 1)) if fresh else circuit
        for i in range(len(outcomes))
    )
    times, _ = time_calls(package.posterior.update, (
        (post, package.MeasurementRecord(c, 1, x), noise) for c, x in zip(circuits, outcomes)
    ))
    return times, observables(post, interval, package)


def time_gate_checks(grid_size: int, package) -> tuple[list[int], list]:
    """``mass_outside`` on the gate's interval, each call right after an untimed cached update."""
    post, circuit, interval = grid_case(grid_size, package)

    def after_each_update():
        for x in outcomes_of(grid_size, GRID_CALLS[grid_size][0]):
            package.posterior.update(post, package.MeasurementRecord(circuit, 1, x), package.NoiseModel())
            yield post, interval

    return time_calls(package.mass_outside, after_each_update())


def time_windowed_modes(grid_size: int, package) -> tuple[list[int], list]:
    """``map_estimate(within=...)`` on the gate's interval, after one update."""
    post, circuit, interval = grid_case(grid_size, package)
    package.posterior.update(post, package.MeasurementRecord(circuit, 1, 1), package.NoiseModel())
    return time_calls(partial(package.map_estimate, within=interval), [(post,)] * GRID_CALLS[grid_size][0])


def time_predictions(grid_size: int, package) -> tuple[list[int], list]:
    """``predict_loss`` of 64 shots' worth of budget at the grid's depth, after one update."""
    post, circuit, _ = grid_case(grid_size, package)
    noise = package.NoiseModel()
    package.posterior.update(post, package.MeasurementRecord(circuit, 1, 1), noise)
    args = (post, circuit, 64 * circuit.depth, noise, package.LossKind.ABSOLUTE)
    return time_calls(package.predict_loss, [args] * GRID_CALLS[grid_size][1])


def time_baseline(runner: str, m: int, calls: int, package) -> tuple[list[int], list]:
    """``run_qpea`` of 2**m - 1 (a register of 2**m outcomes), or ``run_nonadaptive_doubling`` of 2**m, per call."""
    rng = np.random.default_rng(m)
    settings = package.RunSettings()
    if runner == "qpea":
        times, results = time_calls(package.run_qpea, [((1 << m) - 1, THETA, settings, rng)] * calls)
    else:
        times, results = time_calls(package.run_nonadaptive_doubling, [(1 << m, THETA, settings, 32, rng)] * calls)
    return times, [dataclasses.astuple(result) for result in results]


def time_refined_update(package) -> tuple[list[int], tuple]:
    """Cached ``update`` of depth REFINED_DEPTH on the bump that one record of that depth has refined."""
    post, _, interval = grid_case(REFINED_GRID, package)
    circuit = package.model.tuned_circuit(REFINED_DEPTH, THETA)
    noise = package.NoiseModel()
    package.posterior.update(post, package.MeasurementRecord(circuit, 1, 1), noise)
    times, _ = time_calls(package.posterior.update, (
        (post, package.MeasurementRecord(circuit, 1, x), noise) for x in outcomes_of(REFINED_DEPTH, REFINED_CALLS)
    ))
    return times, observables(post, interval, package)


def time_classical_cells(package) -> tuple[list[int], list]:
    """``run_cell`` of the classical strategy at CLASSICAL_BUDGET, one true phase and seed per call."""
    config = package.SweepConfig(
        strategies=("classical",), resource_ladder=(CLASSICAL_BUDGET,), theta_count=CLASSICAL_CALLS, repetitions=1
    )
    times, cells = time_calls(package.run_cell, [
        (config, "classical", CLASSICAL_BUDGET, theta_index, 0) for theta_index in range(CLASSICAL_CALLS)
    ])
    for cell in cells:
        if cell.error is not None:
            raise RuntimeError(f"classical cell {cell.theta_index} failed: {cell.error}")
    return times, [dataclasses.astuple(cell) for cell in cells]


@dataclasses.dataclass(frozen=True)
class Row:
    """A timed row: ``timer(package)`` returns the nanoseconds of each seed or call, and outputs both sides share."""

    label: str
    timer: Callable
    per_call: bool = False

    @property
    def unit(self) -> str:
        return "us" if self.per_call else "ms"

    def figure(self, samples_ns) -> float:
        """A round's figure: the median per call in us, or the sum over seeds in ms."""
        return statistics.median(samples_ns) / 1e3 if self.per_call else sum(samples_ns) / 1e6


def build_rows() -> tuple[Row, ...]:
    """Every timed row, from the size constants above."""
    rows = [Row(f"beta=0.9 N={n_tot}", partial(time_runs, 0.9, n_tot)) for n_tot in NOISY_BUDGETS]
    rows += [Row(f"noiseless N=2^{n_tot.bit_length() - 1}", partial(time_runs, 1.0, n_tot))
             for n_tot in NOISELESS_BUDGETS]
    rows += [
        Row(
            f"baselines 2^{BASELINE_LADDER[0].bit_length() - 1}..2^{BASELINE_LADDER[-1].bit_length() - 1}",
            partial(time_sweeps, BASELINE_LADDER),
        ),
        Row(f"noisy sweep {NOISY_LADDER[0]}..{NOISY_LADDER[-1]}", partial(
            time_sweeps, NOISY_LADDER, strategies=("adaptive",), theta_count=5, beta=0.9
        )),
    ]
    for g in GRID_CALLS:
        rows += [
            Row(f"update cached G={g}", partial(time_updates, g, False, 1.0), True),
            Row(f"update fresh G={g}", partial(time_updates, g, True, 1.0), True),
            Row(f"update fresh beta=0.9 G={g}", partial(time_updates, g, True, 0.9), True),
            Row(f"mass_outside G={g}", partial(time_gate_checks, g), True),
            Row(f"map_estimate within G={g}", partial(time_windowed_modes, g), True),
            Row(f"predict_loss G={g}", partial(time_predictions, g), True),
        ]
    rows += [Row(f"run_qpea 2^{m} outcomes", partial(time_baseline, "qpea", m, calls), True)
             for m, calls in QPEA_CALLS.items()]
    rows += [Row(f"doubling run N=2^{m}", partial(time_baseline, "doubling", m, calls), True)
             for m, calls in DOUBLING_CALLS.items()]
    rows += [
        Row(f"update refined depth={REFINED_DEPTH}", time_refined_update, True),
        Row(f"classical cell N=2^{CLASSICAL_BUDGET.bit_length() - 1}", time_classical_cells, True),
    ]
    return tuple(rows)


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


def clear_caches(package) -> None:
    """Empty every cache of the side's posterior module."""
    for value in vars(package.posterior).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def memory_bytes(package) -> dict:
    """The three memory rows of one side, each started from empty posterior caches."""
    clear_caches(package)
    doubling_peak, cache_bytes = traced_bytes(
        package.run_nonadaptive_doubling, MEMORY_BUDGET, MEMORY_THETA, package.RunSettings(), 1,
        np.random.default_rng(1),
    )
    clear_caches(package)
    m_size = 1 << MEMORY_REGISTER
    probs = package.qpea_outcome_distribution(THETA, MEMORY_REGISTER)
    cdf = np.cumsum(probs / probs.sum())
    past = (int(np.argmax(probs)) + package.baselines.HALF_WINDOW + 2) % m_size
    draw = FixedUniform(float(cdf[past] - 0.5 * probs[past]))
    del probs, cdf
    qpea_peak, _ = traced_bytes(package.run_qpea, m_size - 1, THETA, package.RunSettings(), draw)
    clear_caches(package)
    return {
        "doubling_peak_bytes": doubling_peak,
        "doubling_cache_bytes_after": cache_bytes,
        "qpea_past_window_peak_bytes": qpea_peak,
    }


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


def write_reports(label: str, rows: dict, wins: dict, memory: dict) -> None:
    """``BENCH_<label>_parent.json`` and ``BENCH_<label>.json``: each side's rows, from one session."""
    common = {
        "command": f"python3 scripts/ab_runs.py PARENT_TREE {label}",
        "machine": {
            "platform": platform.platform(),
            "arch": platform.machine(),
            "cpu_model": cpu_model(),
            "cpu_count": os.cpu_count(),
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "timer": "time.process_time_ns around each whole run or sweep pass (rows in ms, summed over the seeds), "
                 "time.perf_counter_ns around each call (rows in us, the median over the calls); the two sides "
                 "interleaved in one process, the side that goes first flipping every round",
        "rounds": ROUNDS,
        "seeds": SEEDS,
    }
    for side, name in (("parent", f"BENCH_{label}_parent.json"), ("change", f"BENCH_{label}.json")):
        report = {
            "label": name[len("BENCH_"):-len(".json")], "side": side, **common,
            "rows": rows[side], "memory": memory[side],
        }
        if side == "change":
            report["change_faster_rounds"] = wins
        path = os.path.join(ROOT, name)
        with open(path, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {os.path.normpath(path)}")


def main(argv) -> int:
    if len(argv) not in (1, 2) or not os.path.isfile(os.path.join(argv[0], "src", "qpe_lab", "__init__.py")):
        print(__doc__, file=sys.stderr)
        return 2
    sides = {
        "parent": load_package(os.path.join(argv[0], "src"), "qpe_lab_parent"),
        "change": load_package(os.path.join(ROOT, "src"), "qpe_lab_change"),
    }
    rows = build_rows()
    # times[label][side] is a list of rounds, each a list of the row's nanoseconds per seed or call.
    times = {row.label: {side: [] for side in sides} for row in rows}
    for round_index in range(ROUNDS):
        order = list(sides) if round_index % 2 == 0 else list(reversed(sides))
        for row in rows:
            outputs = {}
            for side in order:
                gc.collect()
                samples, outputs[side] = row.timer(sides[side])
                times[row.label][side].append(samples)
            if outputs["parent"] != outputs["change"]:
                raise AssertionError(f"{row.label}: outputs differ in round {round_index}")
    memory = {side: memory_bytes(package) for side, package in sides.items()}
    print(f"{ROUNDS} rounds; ms: process CPU time summed over {SEEDS} seeds; us: wall time, median per call")
    report = {side: {} for side in sides}
    wins = {}
    for row in rows:
        figures = {}
        for side in sides:
            rounds = times[row.label][side]
            best = row.figure([min(column) for column in zip(*rounds)])
            figures[side] = [row.figure(samples) for samples in rounds]
            q1, median, q3 = quartiles(figures[side])
            report[side][row.label] = {
                "unit": row.unit, "best": best, "median": median, "q1": q1, "q3": q3, "rounds": figures[side],
            }
            print(f"{row.label:<{LABEL_WIDTH}} {side:<6} best {best:10.2f}  median {median:10.2f}  "
                  f"quartiles {q1:.2f}-{q3:.2f} {row.unit}")
        wins[row.label] = sum(c < p for p, c in zip(figures["parent"], figures["change"]))
        print(f"{row.label:<{LABEL_WIDTH}} change faster in {wins[row.label]} of {ROUNDS} rounds")
    for side, values in memory.items():
        for name, value in values.items():
            print(f"{name:<{LABEL_WIDTH}} {side:<6} {value / 2**20:10.2f} MiB")
    if len(argv) == 2:
        write_reports(argv[1], report, wins, memory)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
