"""The benchmark workloads and the passes that time them.

Every workload runs in passes.  Pass ``k`` of seed ``s`` is a fixed set of
inputs derived from ``(s, k)`` alone, so pass 0 repeats exactly: its
digest, accuracy and trace counts are the same on every run of the same
code.  The timed loop runs passes until the requested seconds are spent
and at least ``min_top_cells`` cells at the largest budget have been
timed, so later passes add timing samples on fresh inputs.  Everything
runs in this process with ``workers=1``.

Times are CPU time of this single-threaded process (``time.process_time``),
not wall time.  On a shared virtual machine the host steals a varying share
of each virtual CPU; that stolen time lands in wall time at random and
spreads the figures between runs far more than the program does.

Per-cell times are taken at the largest budget only.  A sweep's cells at
different budgets form separate clusters of times, and a percentile of
the pooled cells lands on the gap between two clusters, where it jumps
between seeds.

The tail percentile of a workload is fixed by its ``min_top_cells``: the
highest percentile that leaves MIN_BEYOND samples beyond it at that count.
A faster commit times more cells in the same seconds, and a percentile
chosen from the actual count would then climb and read as a slowdown.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from qpe_lab import adaptive, baselines, harness
from qpe_lab.angles import TWO_PI, wrapped_distance
from qpe_lab.model import NoiseModel

# Pass k of seed s uses master seed s * PASS_STRIDE + k.
PASS_STRIDE = 1_000_000
# A workload's outputs are wrong if, for any one strategy, the median error
# at its largest budget exceeds this multiple of the standard-quantum-limit
# MAE at that budget.
SQL_MARGIN = 10.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


@dataclass
class PassResult:
    """What one pass produced: timings, failures, accuracy and a digest."""

    cells: int
    cpu: float
    top_seconds: list[float]
    # Errors of the cells at the largest budget, by strategy.
    top_errors: dict[str, list[float]]
    failed: int
    digest: str


def _sha256_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


@dataclass(frozen=True)
class SweepWorkload:
    """One ``harness`` sweep per pass: every cell is timed as it is yielded."""

    name: str
    why: str
    strategies: tuple[str, ...]
    ladder: tuple[int, ...]
    noise: NoiseModel
    theta_count: int
    min_top_cells: int

    @property
    def top_budget(self) -> int:
        return self.ladder[-1]

    def config(self, seed: int, k: int) -> harness.SweepConfig:
        return harness.SweepConfig(
            strategies=self.strategies,
            resource_ladder=self.ladder,
            theta_count=self.theta_count,
            repetitions=1,
            noise=self.noise,
            master_seed=seed * PASS_STRIDE + k,
        )

    def run_pass(self, seed: int, k: int, out_dir: str) -> PassResult:
        config = self.config(seed, k)
        results_csv = os.path.join(out_dir, "results.csv")
        cells = []
        top_seconds = []
        start = last = time.process_time()
        # iter_sweep is the loop run_sweep drains; walking it times each cell.
        for cell in harness.iter_sweep(config, workers=1):
            now = time.process_time()
            if cell.n_tot == self.top_budget:
                top_seconds.append(now - last)
            last = now
            cells.append(cell)
        rows = harness.aggregate(cells)
        harness.write_results_csv(cells, results_csv)
        harness.write_aggregate_csv(rows, os.path.join(out_dir, "aggregate.csv"))
        cpu = time.process_time() - start
        failed = sum(
            cell.error is not None
            or not math.isfinite(cell.abs_error)
            or cell.resources_spent > cell.n_tot
            for cell in cells
        )
        top_errors = {
            strategy: [c.abs_error for c in cells if c.n_tot == self.top_budget and c.strategy == strategy]
            for strategy in self.strategies
        }
        return PassResult(len(cells), cpu, top_seconds, top_errors, failed, _sha256_file(results_csv))


@dataclass(frozen=True)
class DeepRunsWorkload:
    """A closed loop of single noiseless ``run()`` calls at one large budget."""

    name: str
    why: str
    n_tot: int
    runs_per_pass: int
    min_top_cells: int

    @property
    def top_budget(self) -> int:
        return self.n_tot

    def inputs(self, seed: int, k: int) -> list[tuple[float, int]]:
        rng = np.random.default_rng([seed, k])
        return [
            (float(rng.uniform(0.0, TWO_PI)), int(rng.integers(1 << 62)))
            for _ in range(self.runs_per_pass)
        ]

    def run_pass(self, seed: int, k: int, out_dir: str) -> PassResult:
        run_seconds = []
        rows = []
        failed = 0
        start = time.process_time()
        for theta, run_seed in self.inputs(seed, k):
            config = adaptive.AlgorithmConfig(total_resources=self.n_tot, seed=run_seed)
            t0 = time.process_time()
            try:
                trace = adaptive.run(config, theta)
            except Exception:
                # Counted as a failed run, as run_cell does for a sweep cell.
                trace = None
            run_seconds.append(time.process_time() - t0)
            if trace is None:
                failed += 1
                continue
            try:
                adaptive.validate_trace(trace)
            except ValueError:
                failed += 1
                continue
            if trace.resources_spent > self.n_tot or not math.isfinite(trace.final_estimate):
                failed += 1
                continue
            rows.append((theta, run_seed, trace.final_estimate, trace.resources_spent, trace.max_depth_used))
        cpu = time.process_time() - start
        text = "".join(f"{t!r},{s},{e!r},{r},{d}\n" for t, s, e, r, d in sorted(rows))
        errors = [float(wrapped_distance(e, t)) for t, _, e, _, _ in rows]
        return PassResult(len(run_seconds), cpu, run_seconds, {"adaptive": errors}, failed,
                          hashlib.sha256(text.encode()).hexdigest())


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            name="adaptive-noisy-sweep",
            why="adaptive-only sweep, beta=0.9, ladder 32..4096: depth stays <= 5, so almost every "
                "shot is an uncached update plus map_estimate(within) on a fixed 4096-cell grid",
            strategies=("adaptive",),
            ladder=tuple(1 << m for m in range(5, 13)),
            noise=NoiseModel(1.0, 0.9),
            theta_count=5,
            min_top_cells=40,
        ),
        DeepRunsWorkload(
            name="adaptive-deep-runs",
            why="closed loop of noiseless run() at N=2^16: gated rungs with cached circuits, grids "
                "refined up to 32768 cells and predict_loss on large grids; shows the large-N stall",
            n_tot=1 << 16,
            runs_per_pass=8,
            # Run times are bimodal (shallow stays vs deep climbs, with rare
            # multi-second stalls); p75 sits on the gap between the modes and
            # jumps between seeds, so time enough runs for a p90 tail.
            min_top_cells=100,
        ),
        SweepWorkload(
            name="baseline-sweep",
            why="noiseless classical, nonadaptive-doubling and qpea up to N=2^20: bypasses the "
                "adaptive loop; batch posterior updates, qpea over 2^20 outcomes, CSV output",
            strategies=("classical", "nonadaptive-doubling", "qpea"),
            ladder=tuple(1 << m for m in range(12, 21, 2)),
            noise=NoiseModel(),
            theta_count=6,
            min_top_cells=200,
        ),
    )
}


def tail_percentile(n: int) -> float:
    """Highest percentile in TAIL_PERCENTILES with MIN_BEYOND of n samples above it.

    Percentiles use the nearest-rank rule, so the samples beyond percentile p
    number n - ceil(p * n / 100).  Below 2 * MIN_BEYOND samples no percentile
    qualifies and the median is used.
    """
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= MIN_BEYOND:
            return p
    return 50.0


def _rank(p: float, n: int) -> int:
    # Exact arithmetic: 99.9 * n / 100 in floats can land just above an integer.
    return math.ceil(Fraction(str(p)) * n / 100)


def nearest_rank(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, _rank(p, len(ordered)) - 1)]


@dataclass
class Measurement:
    """The timed passes of one run, summarised."""

    passes: list[PassResult]

    @property
    def first(self) -> PassResult:
        return self.passes[0]

    @property
    def cells(self) -> int:
        return sum(p.cells for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.passes)

    @property
    def cells_per_s(self) -> float:
        """Median over passes of cells per CPU second of the pass."""
        return statistics.median(p.cells / p.cpu for p in self.passes)

    @property
    def top_seconds(self) -> list[float]:
        return [s for p in self.passes for s in p.top_seconds]


def measure(workload, seed: int, seconds: float, out_dir: str) -> Measurement:
    """Run passes 0, 1, ... until ``seconds`` of wall time and ``min_top_cells`` are both reached."""
    passes = []
    top_cells = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds or top_cells < workload.min_top_cells:
        passes.append(workload.run_pass(seed, len(passes), out_dir))
        top_cells += len(passes[-1].top_seconds)
    return Measurement(passes)


def _median_or_inf(errors: list[float]) -> float:
    return statistics.median(errors) if errors else math.inf


def top_cell_count(result: PassResult) -> int:
    return sum(len(errors) for errors in result.top_errors.values())


def mae_median(result: PassResult) -> float:
    """Median error over every cell at the largest budget, all strategies pooled."""
    return _median_or_inf([e for errors in result.top_errors.values() for e in errors])


def accurate(workload, result: PassResult) -> bool:
    """Each strategy's median error at the largest budget is within SQL_MARGIN of the SQL curve.

    Checked per strategy: pooled, one strategy gone wrong would hide among
    the accurate cells of the others.
    """
    sql = baselines.limit_curves(workload.top_budget, NoiseModel())["sql"]
    return all(_median_or_inf(errors) <= SQL_MARGIN * sql for errors in result.top_errors.values())
