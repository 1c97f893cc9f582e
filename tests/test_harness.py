import json
import math
import os

import numpy as np
import pytest

import qpe_lab.harness as harness
from qpe_lab.adaptive import AlgorithmConfig
from qpe_lab.harness import (
    AGGREGATE_HEADER,
    RESULTS_HEADER,
    STRATEGIES,
    AggregateRow,
    DegenerateInputError,
    EmptyGroupError,
    SweepCellResult,
    SweepConfig,
    aggregate,
    derive_cell_seed,
    fit_loglog_slope,
    iter_sweep,
    manifest_payload,
    read_aggregate_csv,
    read_results_csv,
    resolve_workers,
    run_cell,
    run_sweep,
    write_aggregate_csv,
    write_manifest,
    write_results_csv,
)
from qpe_lab.model import NoiseModel


def small_config(**overrides):
    params = dict(
        strategies=("adaptive", "classical"),
        resource_ladder=(8, 16),
        theta_count=2,
        repetitions=2,
        master_seed=5,
    )
    params.update(overrides)
    return SweepConfig(**params)


class TestSweepConfig:
    def test_theta_grid_is_uniform(self):
        config = small_config(theta_count=8)
        assert config.theta_of(0) == 0.0
        assert config.theta_of(3) == pytest.approx(2 * math.pi * 3 / 8)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"strategies": ()},
            {"strategies": ("adaptive", "adaptive")},
            {"strategies": ("adaptive", "simulated-annealing")},
            {"resource_ladder": ()},
            {"resource_ladder": (1, 16)},
            {"resource_ladder": (16, 16)},
            {"resource_ladder": (32, 16)},
            {"theta_count": 0},
            {"repetitions": 0},
            {"theta_count": 2.5},
            {"repetitions": 1.5},
            {"resource_ladder": (64.7,)},
            {"resource_ladder": (16, 64.0)},
            {"shots_per_depth": 2.5},
        ],
    )
    def test_rejects_malformed_plans(self, overrides):
        with pytest.raises(ValueError):
            small_config(**overrides)

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"theta_count": 2.5}, "theta_count must be an integer, got 2.5"),
            ({"repetitions": True}, "repetitions must be an integer, got True"),
            ({"resource_ladder": (16, 64.7)}, "resource_ladder[1] must be an integer, got 64.7"),
            ({"resource_ladder": (1, 16)}, "resource_ladder[0] must be >= 2, got 1"),
            ({"shots_per_depth": 2.5}, "shots_per_depth must be an integer, got 2.5"),
            ({"master_seed": 1.5}, "master_seed must be an integer, got 1.5"),
        ],
    )
    def test_a_malformed_count_is_named(self, overrides, message):
        with pytest.raises(ValueError) as raised:
            small_config(**overrides)
        assert str(raised.value) == message

    def test_numpy_integers_are_counts(self):
        config = small_config(resource_ladder=(np.int64(16), 64), theta_count=np.int32(3))
        assert config.resource_ladder == (16, 64)
        assert all(type(n_tot) is int for n_tot in config.resource_ladder)

    def test_numpy_integer_counts_are_stored_as_ints(self, tmp_path):
        counts = {"theta_count": 2, "repetitions": 2, "shots_per_depth": 8, "master_seed": 5}
        config = small_config(**{name: np.int64(value) for name, value in counts.items()})
        assert {name: type(getattr(config, name)) for name in counts} == dict.fromkeys(counts, int)
        path = tmp_path / "manifest.json"
        write_manifest(config, path, "0.1.0")
        assert json.loads(path.read_text()) == manifest_payload(small_config(**counts), "0.1.0")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"epsilon_scale": 2.0},
            {"epsilon_scale": 0.0},
            {"epsilon_exponent": -1.0},
            {"depth_limit": 0},
            {"estimator": "median"},
            {"depth_limit": 8.5},
        ],
    )
    def test_rejects_a_run_setting_as_the_run_config_does(self, overrides):
        with pytest.raises(ValueError) as from_run:
            AlgorithmConfig(total_resources=16, **overrides)
        with pytest.raises(ValueError) as from_sweep:
            small_config(**overrides)
        assert str(from_sweep.value) == str(from_run.value)

    def test_rejects_zero_shots_per_depth(self):
        with pytest.raises(ValueError, match="shots_per_depth must be >= 1, got 0"):
            small_config(shots_per_depth=0)

    def test_all_known_strategies_accepted(self):
        config = small_config(strategies=STRATEGIES)
        assert set(config.strategies) == {"adaptive", "classical", "nonadaptive-doubling", "qpea"}


class TestDeriveCellSeed:
    def test_deterministic(self):
        assert derive_cell_seed(0, "adaptive", 64, 3, 1) == derive_cell_seed(0, "adaptive", 64, 3, 1)

    def test_sensitive_to_every_coordinate(self):
        base = derive_cell_seed(0, "adaptive", 64, 3, 1)
        assert derive_cell_seed(1, "adaptive", 64, 3, 1) != base
        assert derive_cell_seed(0, "classical", 64, 3, 1) != base
        assert derive_cell_seed(0, "adaptive", 65, 3, 1) != base
        assert derive_cell_seed(0, "adaptive", 64, 2, 1) != base
        assert derive_cell_seed(0, "adaptive", 64, 3, 0) != base

    def test_fits_in_64_bits(self):
        seeds = {derive_cell_seed(7, s, n, k, r) for s in STRATEGIES for n in (8, 2048) for k in range(4) for r in range(4)}
        assert len(seeds) == 4 * 2 * 4 * 4
        assert all(0 <= s < 1 << 64 for s in seeds)


class TestRunCell:
    def test_reproducible(self):
        config = small_config()
        a = run_cell(config, "adaptive", 16, 1, 0)
        b = run_cell(config, "adaptive", 16, 1, 0)
        assert a == b

    def test_populates_errors(self):
        config = small_config()
        cell = run_cell(config, "classical", 16, 1, 0)
        assert cell.strategy == "classical"
        assert cell.sq_error == pytest.approx(cell.abs_error**2)
        assert 0 <= cell.abs_error <= math.pi
        assert cell.resources_spent == 16
        assert cell.error is None

    def test_failure_becomes_a_record_not_a_crash(self):
        config = small_config(strategies=("qpea",), noise=NoiseModel(1.0, 0.9))
        cell = run_cell(config, "qpea", 16, 0, 0)
        assert cell.error is not None
        assert math.isnan(cell.abs_error)
        assert math.isnan(cell.sq_error)
        assert cell.resources_spent == 0

    def test_strategy_budgets_are_respected(self):
        config = small_config(strategies=STRATEGIES, resource_ladder=(16, 32))
        for strategy in STRATEGIES:
            cell = run_cell(config, strategy, 32, 0, 1)
            assert cell.resources_spent <= 32


RUNNER_NAMES = {
    "adaptive": "run",
    "classical": "run_classical",
    "nonadaptive-doubling": "run_nonadaptive_doubling",
    "qpea": "run_qpea",
}


class TestDispatch:
    def test_every_strategy_has_a_runner(self):
        assert set(RUNNER_NAMES) == set(STRATEGIES)

    @pytest.mark.parametrize("strategy", sorted(RUNNER_NAMES))
    def test_calls_the_harness_level_name(self, strategy, monkeypatch):
        # Callers that patch the harness module (such as a call tracer)
        # must see every run, so the name is looked up at call time.
        name = RUNNER_NAMES[strategy]
        real = getattr(harness, name)
        calls = []

        def recording(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, name, recording)
        cell = run_cell(small_config(strategies=STRATEGIES), strategy, 16, 1, 0)
        assert cell.error is None
        assert len(calls) == 1

    def test_unknown_strategy_becomes_an_error_record(self):
        cell = run_cell(small_config(), "simulated-annealing", 16, 0, 0)
        assert cell.error.startswith("ValueError: unknown strategy")
        assert math.isnan(cell.abs_error)
        assert cell.resources_spent == 0


class TestIterSweep:
    def test_cell_ordering_is_canonical(self):
        config = small_config()
        cells = list(iter_sweep(config, workers=1))
        keys = [(c.strategy, c.n_tot, c.theta_index, c.rep) for c in cells]
        assert keys == sorted(keys)
        assert len(cells) == 2 * 2 * 2 * 2

    def test_parallel_matches_serial(self):
        config = small_config()
        serial = list(iter_sweep(config, workers=1))
        parallel = list(iter_sweep(config, workers=2))
        assert serial == parallel


class TestResolveWorkers:
    def test_explicit_wins(self):
        assert resolve_workers(3) == 3
        assert type(resolve_workers(np.int64(3))) is int

    def test_default_uses_all_cores(self):
        assert resolve_workers(None) == os.cpu_count()
        assert resolve_workers(0) == os.cpu_count()

    def test_negative_explicit_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_a_fractional_count_is_named_before_any_cell(self):
        with pytest.raises(ValueError, match=r"^workers must be an integer, got 2\.5$"):
            run_sweep(small_config(), workers=2.5)


def make_cell(strategy, n_tot, theta_index, rep, abs_error, **overrides):
    params = dict(
        strategy=strategy,
        n_tot=n_tot,
        theta_index=theta_index,
        theta_true=theta_index * 0.5,
        rep=rep,
        abs_error=abs_error,
        sq_error=abs_error**2 if not math.isnan(abs_error) else math.nan,
        expected_loss=abs_error,
        resources_spent=n_tot,
        max_depth=4,
    )
    params.update(overrides)
    return SweepCellResult(**params)


class TestAggregate:
    def test_hand_computed_group(self):
        # two theta cells, two reps each: per-theta means 0.2 and 0.4
        cells = [
            make_cell("adaptive", 16, 0, 0, 0.1),
            make_cell("adaptive", 16, 0, 1, 0.3),
            make_cell("adaptive", 16, 1, 0, 0.5),
            make_cell("adaptive", 16, 1, 1, 0.3),
        ]
        rows = aggregate(cells)
        assert len(rows) == 1
        row = rows[0]
        assert row.mae_mean == pytest.approx(0.3)
        assert row.mae_median == pytest.approx(0.3)
        assert row.mae_min == pytest.approx(0.2)
        assert row.mae_max == pytest.approx(0.4)
        assert row.mse_mean == pytest.approx((0.01 + 0.09 + 0.25 + 0.09) / 4)
        assert row.count == 4

    def test_failed_cells_are_excluded_from_stats(self):
        cells = [
            make_cell("adaptive", 16, 0, 0, 0.2),
            make_cell("adaptive", 16, 0, 1, math.nan, error="boom", resources_spent=0),
        ]
        row = aggregate(cells)[0]
        assert row.mae_mean == pytest.approx(0.2)
        assert row.count == 1

    def test_fully_failed_group_yields_nan_row(self):
        cells = [make_cell("qpea", 16, 0, 0, math.nan, error="bad")]
        row = aggregate(cells)[0]
        assert math.isnan(row.mae_mean)
        assert row.count == 0

    def test_groups_are_sorted(self):
        cells = [
            make_cell("classical", 32, 0, 0, 0.1),
            make_cell("adaptive", 32, 0, 0, 0.1),
            make_cell("adaptive", 16, 0, 0, 0.1),
        ]
        rows = aggregate(cells)
        assert [(r.strategy, r.n_tot) for r in rows] == [
            ("adaptive", 16),
            ("adaptive", 32),
            ("classical", 32),
        ]

    def test_empty_input_is_an_error(self):
        with pytest.raises(EmptyGroupError):
            aggregate([])

    @staticmethod
    def numpy_aggregate(cells):
        """The per-phase means as numpy forms them, for groups of any size."""
        groups = {}
        for cell in cells:
            groups.setdefault((cell.strategy, cell.n_tot), {}).setdefault(cell.theta_index, []).append(cell)
        rows = []
        for (strategy, n_tot), by_theta in sorted(groups.items()):
            maes, mses, count = [], [], 0
            for group in by_theta.values():
                errors = [c.abs_error for c in group if math.isfinite(c.abs_error)]
                if errors:
                    count += len(errors)
                    maes.append(float(np.mean(errors)))
                    mses.append(float(np.mean([e * e for e in errors])))
            if count == 0:
                rows.append(AggregateRow(strategy, n_tot, *([math.nan] * 5), 0))
                continue
            rows.append(AggregateRow(
                strategy, n_tot, float(np.mean(maes)), float(np.median(maes)), float(np.min(maes)),
                float(np.max(maes)), float(np.mean(mses)), count,
            ))
        return rows

    @pytest.mark.parametrize("repetitions", [1, 3])
    def test_csv_bytes_match_the_numpy_form(self, tmp_path, repetitions):
        rng = np.random.default_rng(repetitions)
        cells = [
            make_cell(strategy, n_tot, theta_index, rep, float(rng.uniform(0.0, 1.0) ** 3))
            for strategy in ("adaptive", "classical")
            for n_tot in (64, 512, 4096)
            for theta_index in range(10)
            for rep in range(repetitions)
        ]
        failed = cells[7]
        cells[7] = make_cell(
            failed.strategy, failed.n_tot, failed.theta_index, failed.rep, math.nan, error="boom", resources_spent=0
        )
        ours, numpy_form = tmp_path / "ours.csv", tmp_path / "numpy.csv"
        write_aggregate_csv(aggregate(cells), ours)
        write_aggregate_csv(self.numpy_aggregate(cells), numpy_form)
        assert ours.read_bytes() == numpy_form.read_bytes()


class TestFitLoglogSlope:
    def test_recovers_exact_power_law(self):
        budgets = np.array([16, 32, 64, 128, 256], dtype=float)
        points = [(n, 3.0 * n**-0.5) for n in budgets]
        slope, intercept, residual_rms = fit_loglog_slope(points)
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert intercept == pytest.approx(math.log(3.0), abs=1e-12)
        assert residual_rms == pytest.approx(0.0, abs=1e-12)

    def test_needs_three_distinct_budgets(self):
        with pytest.raises(DegenerateInputError):
            fit_loglog_slope([(16, 1.0), (32, 0.5)])
        with pytest.raises(DegenerateInputError):
            fit_loglog_slope([(16, 1.0), (16, 0.5), (16, 0.25)])

    def test_rejects_nonpositive_values(self):
        with pytest.raises(DegenerateInputError):
            fit_loglog_slope([(16, 1.0), (32, 0.0), (64, 0.25)])
        with pytest.raises(DegenerateInputError):
            fit_loglog_slope([(16, 1.0), (32, math.nan), (64, 0.25)])


class TestCsvRoundTrips:
    def test_results_header_is_stable(self):
        assert RESULTS_HEADER == (
            "strategy,n_tot,theta_index,theta_true,rep,abs_error,sq_error,"
            "expected_loss,resources_spent,max_depth,runtime_ms"
        )

    def test_aggregate_header_is_stable(self):
        assert AGGREGATE_HEADER == "strategy,n_tot,mae_mean,mae_median,mae_min,mae_max,mse_mean,count"

    def test_results_roundtrip_exact(self, tmp_path):
        config = small_config()
        cells = list(iter_sweep(config, workers=1))
        path = tmp_path / "results.csv"
        write_results_csv(cells, path)
        assert read_results_csv(path) == cells

    def test_results_rewrite_is_byte_identical(self, tmp_path):
        config = small_config()
        cells = list(iter_sweep(config, workers=1))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(cells, p1)
        write_results_csv(read_results_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_aggregate_roundtrip_exact(self, tmp_path):
        config = small_config()
        rows = aggregate(list(iter_sweep(config, workers=1)))
        path = tmp_path / "aggregate.csv"
        write_aggregate_csv(rows, path)
        assert read_aggregate_csv(path) == rows

    def test_float_formatting_preserves_value(self, tmp_path):
        cell = make_cell("adaptive", 16, 0, 0, 0.1 + 1e-17)
        path = tmp_path / "one.csv"
        write_results_csv([cell], path)
        assert read_results_csv(path)[0].abs_error == cell.abs_error

    def test_unix_line_endings(self, tmp_path):
        path = tmp_path / "r.csv"
        write_results_csv([make_cell("adaptive", 16, 0, 0, 0.1)], path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestManifest:
    def test_payload_captures_the_plan(self):
        config = small_config()
        payload = manifest_payload(config, "0.1.0")
        assert payload["version"] == "0.1.0"
        assert payload["sweep"]["strategies"] == ["adaptive", "classical"]
        assert payload["sweep"]["resource_ladder"] == [8, 16]
        assert payload["sweep"]["master_seed"] == 5

    def test_no_wall_clock_contamination(self):
        payload = manifest_payload(small_config(), "0.1.0")
        text = json.dumps(payload).lower()
        assert "time" not in text
        assert "date" not in text

    def test_write_is_byte_identical(self, tmp_path):
        config = small_config()
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        write_manifest(config, p1, "0.1.0")
        write_manifest(config, p2, "0.1.0")
        assert p1.read_bytes() == p2.read_bytes()

    def test_on_disk_form_is_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(small_config(), path, "0.1.0")
        parsed = json.loads(path.read_text())
        assert parsed == manifest_payload(small_config(), "0.1.0")


class TestAggregateRowShape:
    def test_row_fields_match_header(self):
        fields = [f for f in AggregateRow.__dataclass_fields__]
        assert fields == AGGREGATE_HEADER.split(",")

    def test_cell_fields_match_header_plus_error(self):
        fields = [f for f in SweepCellResult.__dataclass_fields__]
        assert fields == RESULTS_HEADER.split(",") + ["error"]
