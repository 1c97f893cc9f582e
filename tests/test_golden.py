"""Behaviour digests: sha256 of seeded CLI outputs.

Two kinds are pinned.  Byte digests cover whole outputs: the sweep and
run files, the ``bounds`` tables, the plots with reference curves and the
bound-regimes script's table and figure.  Besides the two noise models, a
run under squared loss with the circular-mean estimate, a ``bounds`` table
whose depth limit sits below the noise optimum, a sweep whose capped
doubling blocks leave budget over, and a qpea-only sweep over registers
of 2^12, 2^16 and 2^20 outcomes (theta = 0 among its phases) are pinned.
So is the JSON trace payload of 108 seeded ``run()`` calls over a grid of
budgets, noise, confidence schedules and depth limits, which reaches the
loop's edge paths: tiny budgets, gates that pass before any rung shot, and
ladders capped at depth 1 or 2.
Path digests cover only the integer decisions of the sweep and run
outputs: each sweep cell's shots and deepest depth, and each run step's
depth, shots, outcomes and decision.  A refactor or speed-up that keeps the algorithm
must leave every digest unchanged.  A change that moves floats by
rounding alone may re-pin the byte digests, but not the path digests,
and says why in CHANGES.md; a change that alters behaviour on purpose
re-pins what moved and says why.
"""

import contextlib
import csv
import hashlib
import importlib.util
import io
import itertools
import json
import math
from pathlib import Path

import pytest

import qpe_lab.cli as cli
from qpe_lab.adaptive import AlgorithmConfig, run
from qpe_lab.model import NoiseModel

SWEEP_DIGESTS = {
    "noiseless": {
        "results.csv": "82d019828f0f1767d2b048bed7e2dd88ef54a1ce15244728ad4e78309d8f3845",
        "aggregate.csv": "5e602af61e42a06070ecc079e4b37c275535a18ec2b320454e4bb180a7b6fe75",
        "manifest.json": "375faf8cd5b66dbfaf38080a17f5286c0d7692d5d321e84b3b42ee6f1a7ce53c",
    },
    "beta-0.9": {
        "results.csv": "bd3cb9bf9fcd03263f9ad87bc60261b1cdc891603d4fa224d1feb78fb934f51c",
        "aggregate.csv": "2609145e5e998c59143093ff1cd9c2843deef6e419918cd22e812047ae63e4af",
        "manifest.json": "82ffe83b9043a216373fa12e0e7c6f74736f55ff52469dd11d799817ff415ed6",
    },
    "capped": {
        "results.csv": "7ee6b52f34a168c5661cc2d01123c55ec1c9af3fe48c47eeedc93ab4e54e424b",
        "aggregate.csv": "c57c6a44851904de0bcdb9aa67013a7a45f50cb63018ed83a2f81dc0bddbd873",
        "manifest.json": "840e5414f4e1eb370822627ae1f90a037144d1d5cda467bfd9cf4db40a3d5188",
    },
    "qpea-large": {
        "results.csv": "b561f2b62f0c8b81da55d0a8c6f2e173438be3900fcd17c1e90a99c15a4eeb55",
        "aggregate.csv": "1c013cb13421c4a0f4471d801e4737ba88f2b0649b505411df11e625ee2bf9ea",
        "manifest.json": "af1fcd28feae60e3665315f4c6cd192f4c2391700a77fff7f8582bd28ada9f17",
    },
}

RUN_DIGESTS = {
    "noiseless": "d132006166173d83f4c7e89acfac062eea1faef5e430f156507ff1652e18e08c",
    "beta-0.9": "9673c189103856b699c9a4ccf2de4495bdb71f7e18517695b662a9b826dbed68",
    "squared-circular-mean": "8b1865260e9bac14a9d2dcc6f2bf78c2bc0110880937732bb1edaf28bf194aa5",
}

# sha256 of the decision columns of results.csv, one line per row.
PATH_COLUMNS = ("strategy", "n_tot", "theta_index", "rep", "resources_spent", "max_depth")
# sha256 of the JSON list of these fields of every step of a run trace.
STEP_FIELDS = ("step_index", "depth", "shots_used", "successes", "decision", "cap_hit")

PATH_DIGESTS = {
    "sweep": {
        "noiseless": "c779e93fea8f55480790a025f7bf75fef2a6492edfabfb06d7becc1ae132409c",
        "beta-0.9": "e289ef26028f41b7b79082b0405d724996b94b3c1ba46712d38773c6cf05e74c",
        "capped": "ab21bfe6cd759cca37064ba3282494f669660c75302356055393ccbaa7baa233",
        "qpea-large": "bb5a45fd2f641525727df4e6f029be4897e6fb777bd62e3855a3e22f7154011e",
    },
    "run": {
        "noiseless": "871147f5dcbe73668d511108b8c6da3c39a5834ccec144ac7868f2b1c672a688",
        "beta-0.9": "2464cd76342381ce39e75a76f6c6bdfac243cc141f2a31fb5f753bafce366185",
        "squared-circular-mean": "871147f5dcbe73668d511108b8c6da3c39a5834ccec144ac7868f2b1c672a688",
    },
}

# sha256 of the JSON list of `cli.trace_to_payload` of every run on this grid:
# budget, beta, (epsilon_scale, epsilon_exponent) and depth limit.  The flat
# schedules pass every gate at once (exponent 0, scale 1) or hold one fixed
# allowance on every rung (scale 0.01).
RUN_GRID = (
    (2, 3, 5, 64, 257, 1024),
    (1.0, 0.6),
    ((1.0, 3.0), (1.0, 0.0), (0.01, 0.0)),
    (1, 2, 1 << 20),
)
RUN_GRID_DIGEST = "ad481820b3fcb19a00ecfffc6a4af889acef1444ddc4aa7f76b71ea0fa621659"

NOISE_ARGS = {
    "noiseless": (),
    "beta-0.9": ("--beta", "0.9"),
}
# The flags of each pinned run, and the noise and other flags of each pinned sweep.
RUN_ARGS = {
    **NOISE_ARGS,
    "squared-circular-mean": ("--loss", "squared-error", "--estimator", "circular-mean"),
}
SMALL_LADDER = ("--ladder", "64,512,4096", "--thetas", "3", "--reps", "1")
SWEEP_ARGS = {
    "noiseless": ("noiseless", SMALL_LADDER),
    "beta-0.9": ("beta-0.9", SMALL_LADDER),
    "capped": ("noiseless", (*SMALL_LADDER, "--shots-per-depth", "4", "--depth-limit", "16")),
    "qpea-large": ("noiseless", ("--ladder", "4095,65535,1048575", "--thetas", "5", "--reps", "2")),
}

# sha256 of the stdout of `bounds --ladder 1024,4096,65536` in the three
# schedule regimes of acceptance criterion 9, and with the ladder capped at 8.
BOUNDS_ARGS = {
    "steep": (),
    "flat": ("--epsilon-scale", "0.01", "--epsilon-exponent", "0"),
    "beta-0.9": ("--beta", "0.9", "--epsilon-scale", "1e-8"),
    "depth-limit-8": ("--depth-limit", "8"),
}
BOUNDS_DIGESTS = {
    "steep": "3788ef0afaf91cc6d4951fbcf042ffeec10fd00f60fc1e591db1c9a9a233fe3b",
    "flat": "9b81276218f7369e612559ffb28c84c249a1d18cd8fbc920d5cb46f5320ad852",
    "beta-0.9": "464d34f9e67126ebfa57c4de9edeeba7db762f65f3753aaaa7e6f00ebe18607c",
    "depth-limit-8": "9442ffa894dfd67079fad8ad61097719413ad44d7737bd4ebfac8692854e251e",
}

# sha256 of the SVG `plot --refs sql,hl,appendix_bound` draws from each
# golden sweep's aggregate.csv, under that sweep's noise.
PLOT_DIGESTS = {
    "noiseless": "887ff2a73f355a0361e6dee03c3d1d82429b4bf2e5940baf99b9931ee2128e80",
    "beta-0.9": "7ec3011d875a1586915df0a42f46b9d83a90f5e904efcf109450fb5c12cfa069",
    "capped": "eb9b2147e1028e739ae85bb281a5fb1a44bc7954cb19ee4d3bcf9cad36123c97",
    "qpea-large": "8d6ac4997582b683b38847ea1b558bc8d5ca8152d21e93f1cd1c91775808dab5",
}

# sha256 of the table scripts/plot_bound_regimes.py prints for budgets
# 2**8..2**12, and of the SVG it writes.
SCRIPT_DIGESTS = {
    "table": "34f68dca88983fc1b2666d2a464d9312283a04ee846b8c78d05df37881b03963",
    "svg": "f06480dfb302b25a8e4286965675738c04284174652dfb718009c126b90cc8fe",
}
SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "plot_bound_regimes.py"

# The textbook qpea outcome law holds only without noise.
SWEEP_STRATEGIES = {
    "noiseless": "adaptive,classical,nonadaptive-doubling,qpea",
    "beta-0.9": "adaptive,classical,nonadaptive-doubling",
    "capped": "adaptive,classical,nonadaptive-doubling",
    "qpea-large": "qpea",
}


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module", params=sorted(SWEEP_ARGS))
def sweep(request, tmp_path_factory):
    name = request.param
    noise, extra = SWEEP_ARGS[name]
    out_dir = tmp_path_factory.mktemp(f"sweep-{name}")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([
            "sweep",
            "--strategies", SWEEP_STRATEGIES[name],
            *NOISE_ARGS[noise],
            *extra,
            "--seed", "11",
            "--workers", "1",
            "--out-dir", str(out_dir),
        ])
    assert code == 0
    assert "failed=0" in stdout.getvalue()
    return name, out_dir


@pytest.fixture(scope="module", params=sorted(RUN_ARGS))
def run_trace(request, tmp_path_factory):
    name = request.param
    out = tmp_path_factory.mktemp(f"run-{name}") / "trace.json"
    code = cli.main([
        "run",
        "--n-tot", "4096",
        "--theta", "2.2",
        *RUN_ARGS[name],
        "--seed", "7",
        "--out", str(out),
    ])
    assert code == 0
    return name, out


def test_sweep_results_csv_digest(sweep):
    variant, out_dir = sweep
    digests = {name: sha256_of(out_dir / name) for name in SWEEP_DIGESTS[variant]}
    assert digests == SWEEP_DIGESTS[variant]


def test_sweep_decision_path_digest(sweep):
    variant, out_dir = sweep
    with open(out_dir / "results.csv", newline="") as handle:
        rows = [",".join(row[c] for c in PATH_COLUMNS) for row in csv.DictReader(handle)]
    assert sha256_text("\n".join(rows)) == PATH_DIGESTS["sweep"][variant]


def test_run_trace_digest(run_trace):
    variant, out = run_trace
    assert sha256_of(out) == RUN_DIGESTS[variant]


def test_run_decision_path_digest(run_trace):
    variant, out = run_trace
    steps = json.loads(out.read_text())["steps"]
    path = [[step[f] for f in STEP_FIELDS] for step in steps]
    assert sha256_text(json.dumps(path)) == PATH_DIGESTS["run"][variant]


def test_run_grid_trace_digest():
    payloads = []
    for seed, (n_tot, beta, (scale, exponent), depth_limit) in enumerate(itertools.product(*RUN_GRID)):
        theta = 2.0 * math.pi * ((0.618034 * (seed + 1)) % 1.0)
        config = AlgorithmConfig(
            total_resources=n_tot,
            seed=seed,
            noise=NoiseModel(beta=beta),
            epsilon_scale=scale,
            epsilon_exponent=exponent,
            depth_limit=depth_limit,
        )
        payloads.append(cli.trace_to_payload(run(config, theta), theta))
    assert len(payloads) == 108
    assert sha256_text(json.dumps(payloads)) == RUN_GRID_DIGEST


def test_plot_with_references_digest(sweep, tmp_path):
    variant, out_dir = sweep
    out = tmp_path / "plot.svg"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([
            "plot",
            "--results", str(out_dir / "aggregate.csv"),
            "--refs", "sql,hl,appendix_bound",
            *NOISE_ARGS[SWEEP_ARGS[variant][0]],
            "--out", str(out),
        ])
    assert code == 0
    assert sha256_of(out) == PLOT_DIGESTS[variant]


@pytest.mark.parametrize("regime", sorted(BOUNDS_ARGS))
def test_bounds_table_digest(regime):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["bounds", "--ladder", "1024,4096,65536", *BOUNDS_ARGS[regime]])
    assert code == 0
    assert sha256_text(stdout.getvalue()) == BOUNDS_DIGESTS[regime]


def test_bound_regimes_script_digest(tmp_path):
    spec = importlib.util.spec_from_file_location("plot_bound_regimes", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "regimes.svg"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = script.main(["--min-exp", "8", "--max-exp", "12", "--out", str(out)])
    assert code == 0
    *table, last = stdout.getvalue().splitlines(keepends=True)
    assert last == f"wrote {out}\n"
    assert sha256_text("".join(table)) == SCRIPT_DIGESTS["table"]
    assert sha256_of(out) == SCRIPT_DIGESTS["svg"]
