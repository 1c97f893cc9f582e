"""Monte Carlo benchmark harness: strategy x budget x phase x repetition.

Every cell of the sweep derives its own seed by hashing (master seed,
strategy, budget, phase index, repetition), so any cell can be reproduced
in isolation and removing cells never perturbs the others.  Failures are
captured per cell rather than aborting the sweep.  Every cell's posterior
starts on the one prior grid of ``posterior.PRIOR_GRID_SIZE`` cells.

Persisted CSVs take their columns from the fields of ``SweepCellResult``
and ``AggregateRow``, render floats with 17 significant digits, and are fully
determined by the sweep configuration: rerunning the same config yields
byte-identical files.  For that reason the runtime_ms column is always
written as 0: a measured wall time would differ between two runs of one
config, and so would the files.
"""

from __future__ import annotations

import csv
import enum
import hashlib
import json
import math
import os
from dataclasses import dataclass, fields, is_dataclass
from typing import Iterable, Iterator, Sequence, get_type_hints

import numpy as np

from .adaptive import AlgorithmConfig, RunSettings, run, validate_trace
from .angles import TWO_PI, wrapped_distance
from .baselines import BaselineResult, run_classical, run_nonadaptive_doubling, run_qpea
from .model import check_integer


class EmptyGroupError(ValueError):
    """Raised when asked to aggregate nothing."""


class DegenerateInputError(ValueError):
    """Raised when a log-log fit lacks usable points."""


@dataclass(frozen=True)
class SweepConfig(RunSettings):
    """Full description of one benchmark sweep; every adaptive cell runs with its run settings."""

    strategies: tuple[str, ...]
    resource_ladder: tuple[int, ...]
    theta_count: int = 20
    repetitions: int = 10
    shots_per_depth: int = 32
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "strategies", tuple(self.strategies))
        ladder = tuple(check_integer(f"resource_ladder[{i}]", n, 2) for i, n in enumerate(self.resource_ladder))
        object.__setattr__(self, "resource_ladder", ladder)
        if not self.strategies:
            raise ValueError("at least one strategy is required")
        unknown = set(self.strategies) - set(STRATEGIES)
        if unknown:
            raise ValueError(f"unknown strategies {sorted(unknown)}; pick from {STRATEGIES}")
        if len(set(self.strategies)) != len(self.strategies):
            raise ValueError(f"duplicate strategies in {self.strategies}")
        if not self.resource_ladder:
            raise ValueError("resource ladder must not be empty")
        if any(b <= a for a, b in zip(self.resource_ladder, self.resource_ladder[1:])):
            raise ValueError(f"resource ladder must increase strictly: {self.resource_ladder}")
        object.__setattr__(self, "theta_count", check_integer("theta_count", self.theta_count, 1))
        object.__setattr__(self, "repetitions", check_integer("repetitions", self.repetitions, 1))
        super().__post_init__()
        object.__setattr__(self, "shots_per_depth", check_integer("shots_per_depth", self.shots_per_depth, 1))
        object.__setattr__(self, "master_seed", check_integer("master_seed", self.master_seed))

    def theta_of(self, theta_index: int) -> float:
        return TWO_PI * theta_index / self.theta_count


@dataclass(frozen=True)
class SweepCellResult:
    """One estimation run inside a sweep, or its recorded failure."""

    strategy: str
    n_tot: int
    theta_index: int
    theta_true: float
    rep: int
    abs_error: float
    sq_error: float
    expected_loss: float
    resources_spent: int
    max_depth: int
    runtime_ms: float = 0.0
    error: str | None = None


@dataclass(frozen=True)
class AggregateRow:
    """Error statistics for one (strategy, budget) group.

    Statistics follow the per-phase protocol: errors are first averaged
    over repetitions at each phase, and the mean/median/min/max are taken
    across phases.  ``count`` is the number of finite cells behind the row.
    """

    strategy: str
    n_tot: int
    mae_mean: float
    mae_median: float
    mae_min: float
    mae_max: float
    mse_mean: float
    count: int


def derive_cell_seed(master_seed: int, strategy: str, n_tot: int, theta_index: int, rep: int) -> int:
    """Stable 64-bit seed for one cell, independent of all other cells."""
    key = f"{master_seed}|{strategy}|{n_tot}|{theta_index}|{rep}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


# The runs are called by their module-level names so that patching this
# module (as a call tracer does) reaches every cell.
def _run_adaptive(config: SweepConfig, n_tot: int, theta: float, seed: int) -> BaselineResult:
    shared = {f.name: getattr(config, f.name) for f in fields(RunSettings)}
    trace = run(AlgorithmConfig(total_resources=n_tot, seed=seed, **shared), theta)
    validate_trace(trace)
    return BaselineResult(
        trace.final_estimate, trace.resources_spent, trace.max_depth_used, trace.final_expected_loss
    )


def _run_classical(config: SweepConfig, n_tot: int, theta: float, seed: int) -> BaselineResult:
    return run_classical(n_tot, theta, config, np.random.default_rng(seed))


def _run_nonadaptive_doubling(config: SweepConfig, n_tot: int, theta: float, seed: int) -> BaselineResult:
    return run_nonadaptive_doubling(n_tot, theta, config, config.shots_per_depth, np.random.default_rng(seed))


def _run_qpea(config: SweepConfig, n_tot: int, theta: float, seed: int) -> BaselineResult:
    return run_qpea(n_tot, theta, config, np.random.default_rng(seed))


_RUNNERS = {
    "adaptive": _run_adaptive,
    "classical": _run_classical,
    "nonadaptive-doubling": _run_nonadaptive_doubling,
    "qpea": _run_qpea,
}
STRATEGIES = tuple(_RUNNERS)


def run_cell(config: SweepConfig, strategy: str, n_tot: int, theta_index: int, rep: int) -> SweepCellResult:
    """Execute one cell, trapping any failure into the result record."""
    theta = config.theta_of(theta_index)
    seed = derive_cell_seed(config.master_seed, strategy, n_tot, theta_index, rep)
    try:
        if strategy not in _RUNNERS:
            raise ValueError(f"unknown strategy {strategy!r}")
        result = _RUNNERS[strategy](config, n_tot, theta, seed)
    except Exception as exc:
        return SweepCellResult(
            strategy, n_tot, theta_index, theta, rep,
            math.nan, math.nan, math.nan, 0, 0,
            error=f"{type(exc).__name__}: {exc}",
        )
    abs_error = float(wrapped_distance(result.estimate, theta))
    loss = result.posterior_expected_loss
    return SweepCellResult(
        strategy=strategy,
        n_tot=n_tot,
        theta_index=theta_index,
        theta_true=theta,
        rep=rep,
        abs_error=abs_error,
        sq_error=abs_error * abs_error,
        expected_loss=math.nan if loss is None else float(loss),
        resources_spent=int(result.resources_spent),
        max_depth=int(result.max_depth),
    )


def _cell_args(config: SweepConfig):
    for strategy in sorted(config.strategies):
        for n_tot in config.resource_ladder:
            for theta_index in range(config.theta_count):
                for rep in range(config.repetitions):
                    yield strategy, n_tot, theta_index, rep


def resolve_workers(explicit: int | None = None) -> int:
    """Worker count: the explicit value, an integer >= 0, where 0 or None means all cores."""
    if explicit is not None:
        explicit = check_integer("workers", explicit, 0)
    return explicit or os.cpu_count() or 1


def _run_cell_star(packed):
    return run_cell(*packed)


def iter_sweep(config: SweepConfig, workers: int | None = None) -> Iterator[SweepCellResult]:
    """Yield cell results in canonical order (strategy, budget, phase, rep)."""
    workers = resolve_workers(workers)
    cells = list(_cell_args(config))
    if workers <= 1 or len(cells) <= 1:
        for cell in cells:
            yield run_cell(config, *cell)
        return
    # Imported here: the process pool's modules cost a serial sweep ~17 ms of start-up.
    from concurrent.futures import ProcessPoolExecutor

    packed = [(config, *cell) for cell in cells]
    chunk = max(1, len(packed) // (8 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_run_cell_star, packed, chunksize=chunk)


def run_sweep(config: SweepConfig, workers: int | None = None) -> list[SweepCellResult]:
    """Run every cell of the sweep; failed cells are recorded, not raised."""
    return list(iter_sweep(config, workers))


def aggregate(results: Iterable[SweepCellResult]) -> list[AggregateRow]:
    """Group results by (strategy, budget) and summarise their errors."""
    results = list(results)
    if not results:
        raise EmptyGroupError("no cells to aggregate")
    groups: dict[tuple[str, int], dict[int, list[SweepCellResult]]] = {}
    for cell in results:
        by_theta = groups.setdefault((cell.strategy, cell.n_tot), {})
        by_theta.setdefault(cell.theta_index, []).append(cell)

    rows = []
    for (strategy, n_tot), by_theta in sorted(groups.items()):
        mae_by_theta = []
        mse_by_theta = []
        count = 0
        for cells in by_theta.values():
            abs_errors = [c.abs_error for c in cells if math.isfinite(c.abs_error)]
            if not abs_errors:
                continue
            count += len(abs_errors)
            if len(abs_errors) == 1:
                # The mean of one value is the value itself; np.mean would only add its call overhead.
                error = float(abs_errors[0])
                mae_by_theta.append(error)
                mse_by_theta.append(error * error)
            else:
                mae_by_theta.append(float(np.mean(abs_errors)))
                mse_by_theta.append(float(np.mean([e * e for e in abs_errors])))
        if count == 0:
            rows.append(AggregateRow(strategy, n_tot, *([math.nan] * 5), 0))
            continue
        rows.append(
            AggregateRow(
                strategy=strategy,
                n_tot=n_tot,
                mae_mean=float(np.mean(mae_by_theta)),
                mae_median=float(np.median(mae_by_theta)),
                mae_min=float(np.min(mae_by_theta)),
                mae_max=float(np.max(mae_by_theta)),
                mse_mean=float(np.mean(mse_by_theta)),
                count=count,
            )
        )
    return rows


def fit_loglog_slope(points: Sequence[tuple[float, float]]) -> tuple[float, float, float]:
    """Least-squares slope, intercept, and residual RMS in log-log space."""
    if any((not math.isfinite(n)) or (not math.isfinite(e)) or n <= 0 or e <= 0 for n, e in points):
        raise DegenerateInputError(f"log-log fit needs positive finite points, got {points}")
    xs = np.log([n for n, _ in points])
    ys = np.log([e for _, e in points])
    if len(set(xs.tolist())) < 3:
        raise DegenerateInputError("log-log fit needs at least 3 distinct budgets")
    slope, intercept = np.polyfit(xs, ys, 1)
    residuals = ys - (slope * xs + intercept)
    return float(slope), float(intercept), float(np.sqrt(np.mean(residuals**2)))


def _csv_columns(row_type) -> tuple[tuple[str, type], ...]:
    """(name, type) of every field of a row dataclass but ``error``."""
    hints = get_type_hints(row_type)
    return tuple((f.name, hints[f.name]) for f in fields(row_type) if f.name != "error")


_RESULTS_COLUMNS = _csv_columns(SweepCellResult)
_AGGREGATE_COLUMNS = _csv_columns(AggregateRow)
RESULTS_HEADER = ",".join(name for name, _ in _RESULTS_COLUMNS)
AGGREGATE_HEADER = ",".join(name for name, _ in _AGGREGATE_COLUMNS)


def _fmt(value, kind: type):
    return format(float(value), ".17g") if kind is float else value


def _write_csv(rows, columns, path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([name for name, _ in columns])
        for row in rows:
            writer.writerow([_fmt(getattr(row, name), kind) for name, kind in columns])


def _read_csv(row_type, columns, path: str) -> list:
    with open(path, newline="") as handle:
        return [
            row_type(**{name: kind(raw[name]) for name, kind in columns})
            for raw in csv.DictReader(handle)
        ]


def write_results_csv(results: Iterable[SweepCellResult], path: str) -> None:
    ordered = sorted(results, key=lambda c: (c.strategy, c.n_tot, c.theta_index, c.rep))
    _write_csv(ordered, _RESULTS_COLUMNS, path)


def read_results_csv(path: str) -> list[SweepCellResult]:
    return _read_csv(SweepCellResult, _RESULTS_COLUMNS, path)


def write_aggregate_csv(rows: Iterable[AggregateRow], path: str) -> None:
    _write_csv(sorted(rows, key=lambda r: (r.strategy, r.n_tot)), _AGGREGATE_COLUMNS, path)


def read_aggregate_csv(path: str) -> list[AggregateRow]:
    return _read_csv(AggregateRow, _AGGREGATE_COLUMNS, path)


def config_payload(value):
    """JSON-ready form of a config dataclass.

    Nested dataclasses become dicts, enums their values, and tuples lists.
    """
    if is_dataclass(value):
        return {f.name: config_payload(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [config_payload(item) for item in value]
    return value


def manifest_payload(config: SweepConfig, version: str) -> dict:
    return {"artifact": "qpe-lab", "version": version, "sweep": config_payload(config)}


def write_manifest(config: SweepConfig, path: str, version: str) -> None:
    with open(path, "w") as handle:
        json.dump(manifest_payload(config, version), handle, indent=2, sort_keys=True)
        handle.write("\n")
