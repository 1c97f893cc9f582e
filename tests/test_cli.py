import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import qpe_lab.cli as cli
from qpe_lab import __version__
from qpe_lab.baselines import appendix_loss_bound, default_step_count
from qpe_lab.adaptive import AlgorithmConfig, RunSettings, run
from qpe_lab.harness import AGGREGATE_HEADER, RESULTS_HEADER, STRATEGIES, SweepConfig
from qpe_lab.posterior import LossKind


# Invalid values of the depth cap and confidence schedule flags that
# ``run``, ``sweep`` and ``bounds`` share.
SCHEDULE_FLAGS = [
    ("--epsilon-scale", "2"), ("--epsilon-exponent", "-1"), ("--epsilon-exponent", "nan"), ("--depth-limit", "0"),
]


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    code = run_cli(
        "sweep",
        "--strategies", "adaptive,classical",
        "--ladder", "8,16",
        "--thetas", "2",
        "--reps", "2",
        "--seed", "5",
        "--workers", "1",
        "--out-dir", str(out),
    )
    assert code == 0
    return out


def svg_elements_by_class(document: str):
    grouped = {}
    for element in ET.fromstring(document).iter():
        cls = element.get("class")
        if cls:
            grouped.setdefault(cls, []).append(element)
    return grouped


class TestRunCommand:
    def test_writes_trace_and_summary(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = run_cli("run", "--n-tot", "128", "--theta", "2.0", "--seed", "3", "--out", str(out))
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("final_estimate=")
        assert lines[1].startswith("final_expected_loss=")
        assert lines[2] == f"resources_spent={json.loads(out.read_text())['resources_spent']}"

        payload = json.loads(out.read_text())
        assert payload["theta_true"] == 2.0
        assert payload["config"]["total_resources"] == 128
        assert payload["resources_spent"] <= 128
        assert 0 <= payload["final_estimate"] < 2 * math.pi
        assert payload["steps"], "trace should carry per-step records"
        first = payload["steps"][0]
        for key in ("depth", "phase", "shots_used", "successes", "interval_center"):
            assert key in first

    def test_deterministic_given_seed(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("run", "--n-tot", "64", "--theta", "1.0", "--seed", "7", "--out", str(a))
        out_a = capsys.readouterr().out
        run_cli("run", "--n-tot", "64", "--theta", "1.0", "--seed", "7", "--out", str(b))
        out_b = capsys.readouterr().out
        assert out_a == out_b
        assert a.read_bytes() == b.read_bytes()

    def test_missing_required_argument_is_usage_error(self, capsys):
        assert run_cli("run", "--theta", "1.0") == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_bad_noise_is_a_runtime_error(self, tmp_path, capsys):
        code = run_cli(
            "run", "--n-tot", "64", "--theta", "1.0",
            "--alpha", "1.5", "--out", str(tmp_path / "t.json"),
        )
        assert code == 1
        assert "qpe-lab: error:" in capsys.readouterr().err

    def test_a_negative_seed_names_the_seed(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert run_cli("run", "--n-tot", "4096", "--theta", "1", "--seed", "-1", "--out", str(out)) == 1
        assert capsys.readouterr().err == "qpe-lab: error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_a_config_of_numpy_integers_dumps_as_its_ints(self):
        config = AlgorithmConfig(total_resources=np.int64(64), seed=np.int64(3), depth_limit=np.int32(16))
        payload = json.dumps(cli.trace_to_payload(run(config, 1.0), 1.0))
        plain = AlgorithmConfig(total_resources=64, seed=3, depth_limit=16)
        assert payload == json.dumps(cli.trace_to_payload(run(plain, 1.0), 1.0))

    def test_a_non_finite_true_phase_is_a_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert run_cli("run", "--n-tot", "64", "--theta", "nan", "--out", str(out)) == 1
        assert capsys.readouterr().err == "qpe-lab: error: theta_true must be finite, got nan\n"
        assert not out.exists()


class TestSweepCommand:
    def test_produces_the_three_artifacts(self, sweep_dir, capsys):
        results = sweep_dir / "results.csv"
        agg = sweep_dir / "aggregate.csv"
        manifest = sweep_dir / "manifest.json"
        assert results.exists() and agg.exists() and manifest.exists()
        assert results.read_text().splitlines()[0] == RESULTS_HEADER
        assert agg.read_text().splitlines()[0] == AGGREGATE_HEADER
        # 2 strategies x 2 budgets x 2 thetas x 2 reps data rows
        assert len(results.read_text().splitlines()) == 1 + 16
        parsed = json.loads(manifest.read_text())
        assert parsed["version"] == __version__
        assert parsed["sweep"]["master_seed"] == 5

    def test_repeat_run_is_byte_identical(self, sweep_dir, tmp_path, capsys):
        again = tmp_path / "again"
        code = run_cli(
            "sweep",
            "--strategies", "adaptive,classical",
            "--ladder", "8,16",
            "--thetas", "2",
            "--reps", "2",
            "--seed", "5",
            "--workers", "1",
            "--out-dir", str(again),
        )
        assert code == 0
        for name in ("results.csv", "aggregate.csv", "manifest.json"):
            assert (again / name).read_bytes() == (sweep_dir / name).read_bytes()

    def test_unknown_strategy_fails_cleanly(self, tmp_path, capsys):
        code = run_cli(
            "sweep", "--strategies", "adaptive,quantum-annealing",
            "--ladder", "8,16", "--out-dir", str(tmp_path / "x"),
        )
        assert code == 1
        assert "qpe-lab: error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, value",
        [pytest.param("sweep", f, v, id=f"{f}-{v}") for f, v in SCHEDULE_FLAGS]
        + [pytest.param("bounds", f, v, id=f"bounds{f}-{v}") for f, v in SCHEDULE_FLAGS],
    )
    def test_invalid_run_setting_fails_as_run_does(self, tmp_path, capsys, command, flag, value):
        run_code = run_cli("run", "--n-tot", "64", "--theta", "1.0", flag, value, "--out", str(tmp_path / "t.json"))
        run_err = capsys.readouterr().err
        out = tmp_path / "x"
        argv = {
            "sweep": ["sweep", "--ladder", "8,16", "--thetas", "1", "--reps", "1", "--workers", "1", "--out-dir"],
            # A fixed step count skips default_step_count, the only reader of the depth limit.
            "bounds": ["bounds", "--ladder", "64", "--steps", "3", "--out"],
        }[command]
        code = run_cli(*argv, str(out), flag, value)
        assert (run_code, code) == (1, 1)
        assert capsys.readouterr().err == run_err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_the_prior_grid_is_not_a_flag(self, tmp_path, capsys, command):
        out = tmp_path / "x"
        argv = {
            "run": ["run", "--n-tot", "64", "--theta", "1.0", "--out"],
            "sweep": ["sweep", "--ladder", "8,16", "--workers", "1", "--out-dir"],
        }[command]
        assert run_cli(*argv, str(out), "--grid-size", "64") == 2
        assert "unrecognized arguments: --grid-size 64" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_shots_per_depth_fails_before_any_cell(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = run_cli(
            "sweep", "--strategies", "nonadaptive-doubling", "--ladder", "8,16",
            "--shots-per-depth", "0", "--workers", "1", "--out-dir", str(out),
        )
        assert code == 1
        assert capsys.readouterr().err == "qpe-lab: error: shots_per_depth must be >= 1, got 0\n"
        assert not out.exists()

    def test_interrupt_flushes_partial_rows(self, tmp_path, capsys, monkeypatch):
        real_iter = cli.iter_sweep

        def interrupted(config, workers=None):
            for i, cell in enumerate(real_iter(config, workers)):
                if i == 3:
                    raise KeyboardInterrupt
                yield cell

        monkeypatch.setattr(cli, "iter_sweep", interrupted)
        out = tmp_path / "partial"
        code = run_cli(
            "sweep", "--strategies", "classical", "--ladder", "8,16",
            "--thetas", "2", "--reps", "2", "--workers", "1", "--out-dir", str(out),
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "interrupted" in captured.err
        rows = (out / "results.csv").read_text().splitlines()
        assert rows[0] == RESULTS_HEADER
        assert len(rows) == 1 + 3


class TestPlotCommand:
    def test_plot_from_aggregate(self, sweep_dir, tmp_path, capsys):
        out = tmp_path / "agg.svg"
        code = run_cli("plot", "--results", str(sweep_dir / "aggregate.csv"), "--out", str(out))
        assert code == 0
        grouped = svg_elements_by_class(out.read_text())
        assert len(grouped["series"]) == 2
        assert len(grouped["errbar"]) == 2 * 2
        assert "refline" not in grouped

    def test_plot_from_raw_results_with_references(self, sweep_dir, tmp_path):
        out = tmp_path / "raw.svg"
        code = run_cli(
            "plot", "--results", str(sweep_dir / "results.csv"),
            "--refs", "sql,hl", "--out", str(out),
        )
        assert code == 0
        grouped = svg_elements_by_class(out.read_text())
        assert len(grouped["series"]) == 2
        assert len(grouped["refline"]) == 2
        assert all(el.get("stroke-dasharray") for el in grouped["refline"])

    def test_unknown_reference_fails(self, sweep_dir, tmp_path, capsys):
        code = run_cli(
            "plot", "--results", str(sweep_dir / "aggregate.csv"),
            "--refs", "heisenberg", "--out", str(tmp_path / "x.svg"),
        )
        assert code == 1
        assert "unknown reference" in capsys.readouterr().err

    def test_noisy_floor_requires_decay(self, sweep_dir, tmp_path, capsys):
        code = run_cli(
            "plot", "--results", str(sweep_dir / "aggregate.csv"),
            "--refs", "noisy_floor", "--out", str(tmp_path / "x.svg"),
        )
        assert code == 1
        assert "undefined" in capsys.readouterr().err

    def test_garbage_csv_is_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("who,what\n1,2\n")
        code = run_cli("plot", "--results", str(bad), "--out", str(tmp_path / "x.svg"))
        assert code == 1
        assert "neither a results nor an aggregate" in capsys.readouterr().err


class TestBoundsCommand:
    def test_table_matches_the_library(self, capsys):
        code = run_cli("bounds", "--ladder", "1024,4096")
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n_tot,step_count,mae_bound,mse_bound"
        assert len(lines) == 3
        for line, n_tot in zip(lines[1:], (1024, 4096)):
            fields = line.split(",")
            assert int(fields[0]) == n_tot
            assert int(fields[1]) == default_step_count(n_tot, RunSettings())
            assert float(fields[2]) == pytest.approx(
                appendix_loss_bound(n_tot, RunSettings(), LossKind.ABSOLUTE), rel=1e-15
            )
            assert float(fields[3]) == pytest.approx(
                appendix_loss_bound(n_tot, RunSettings(), LossKind.SQUARED), rel=1e-15
            )

    def test_writes_to_file_on_request(self, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        code = run_cli("bounds", "--ladder", "512,2048", "--out", str(out))
        assert code == 0
        assert out.read_text().splitlines()[0] == "n_tot,step_count,mae_bound,mse_bound"
        assert f"wrote {out}" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_a_non_finite_epsilon_exponent_is_rejected(self, capsys, value):
        assert run_cli("bounds", "--ladder", "4096", "--epsilon-exponent", value) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qpe-lab: error: epsilon_exponent must be finite and >= 0, got {value}\n"

    def test_an_epsilon_exponent_that_underflows_the_allowance_is_named(self, capsys):
        # (1/2**11)**1e6 rounds to 0; the Chernoff budget names that, not a division by zero.
        assert run_cli("bounds", "--ladder", "4096", "--epsilon-exponent", "1e6") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("qpe-lab: error: the confidence allowance underflowed to 0")

    def test_fixed_step_count_is_honoured(self, capsys):
        code = run_cli("bounds", "--ladder", "4096", "--steps", "4")
        assert code == 0
        line = capsys.readouterr().out.strip().splitlines()[1]
        assert line.split(",")[1] == "4"

    def test_infeasible_chain_fails_cleanly(self, capsys):
        code = run_cli("bounds", "--ladder", "10", "--steps", "8")
        assert code == 1
        assert "qpe-lab: error:" in capsys.readouterr().err


class TestParserDefaults:
    """Flags left unset build the same config as the dataclass defaults."""

    def test_run_defaults_match_algorithm_config(self, tmp_path, monkeypatch, capsys):
        seen = []
        real_run = cli.run

        def capture(config, theta):
            seen.append(config)
            return real_run(config, theta)

        monkeypatch.setattr(cli, "run", capture)
        assert run_cli("run", "--n-tot", "16", "--theta", "1.0", "--out", str(tmp_path / "t.json")) == 0
        assert seen == [AlgorithmConfig(total_resources=16)]

    def test_sweep_defaults_match_sweep_config(self, tmp_path, monkeypatch, capsys):
        seen = []

        def capture(config, workers=None):
            seen.append(config)
            return iter(())

        monkeypatch.setattr(cli, "iter_sweep", capture)
        assert run_cli("sweep", "--ladder", "8,16", "--out-dir", str(tmp_path)) == 0
        assert seen == [SweepConfig(strategies=STRATEGIES, resource_ladder=(8, 16))]


class TestTopLevel:
    def test_version_flag(self, capsys):
        assert run_cli("--version") == 0
        assert capsys.readouterr().out.strip() == f"qpe-lab {__version__}"

    def test_no_arguments_is_usage_error(self, capsys):
        assert run_cli() == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli("frobnicate") == 2
