"""Behaviour digests: sha256 of seeded CLI outputs.

Two kinds are pinned.  Byte digests cover whole outputs: the sweep and
run files, the ``bounds`` tables, the plots with reference curves and the
bound-regimes script's table and figure.  Besides the two noise models, a
run under squared loss with the circular-mean estimate, a ``bounds`` table
whose depth limit sits below the noise optimum, a sweep whose capped
doubling blocks leave budget over, a qpea-only sweep over registers
of 2^12, 2^16 and 2^20 outcomes (theta = 0 among its phases), and a
qpea-only sweep whose depth limit of 16 caps every register at 2^5
outcomes are pinned.
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
Golden values pin seeded runs whose posterior grid refines far past its
initial size: the doubling baseline up to N = 2^20 and two adaptive runs.
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

import numpy as np
import pytest

import qpe_lab.cli as cli
from qpe_lab.adaptive import AlgorithmConfig, RunSettings, run
from qpe_lab.baselines import run_nonadaptive_doubling
from qpe_lab.model import NoiseModel

SWEEP_DIGESTS = {
    "noiseless": {
        "results.csv": "e172e35176d91c99a3b7a00caf7658d521dc2ab7ce6e241d6b8fd7dbb5afa2f2",
        "aggregate.csv": "15212116f4b7b43b39201b6a34c86646d3da5d54a568d6f92b2f3daf44e65f11",
        "manifest.json": "e22c9a925b89ba18d5157219f6f547e8fbe22a76653d49f2f91b3d980df42459",
    },
    "beta-0.9": {
        "results.csv": "8a7264dff54d473bd482be650f3ca18e0f75b829f3daa0676f0a9ffeb91c0a9a",
        "aggregate.csv": "97d6c1ec88cd934bd9497d83d6aef630418b839dd8ae3bdde3615eb80f8f6609",
        "manifest.json": "9db33756d2cebcb3589160b92399ff376f5dfb035bf0592efce2157ffcde410f",
    },
    "capped": {
        "results.csv": "c6d4a4572eaa2fccc0361ad8249960646bc3a7c627601b6b5192dead7496e59a",
        "aggregate.csv": "65ce2158f2f613529cc069b49de684320697e45050b45f5add7c100b8698b77c",
        "manifest.json": "c877303c8e733a2bbd479aa5d25dd953510bb643d3f8067091413469572ad274",
    },
    "qpea-large": {
        "results.csv": "b561f2b62f0c8b81da55d0a8c6f2e173438be3900fcd17c1e90a99c15a4eeb55",
        "aggregate.csv": "1c013cb13421c4a0f4471d801e4737ba88f2b0649b505411df11e625ee2bf9ea",
        "manifest.json": "a90b702d069ce9461ea96309332603401fd33d0a225e2a58c1c554aeca5c4e0c",
    },
    "qpea-capped": {
        "results.csv": "f0309f1edafb98ada11d495fe5e705dcf79c284ca43cc915924112c71af38e78",
        "aggregate.csv": "bfaef7129e3cd59eb564aca7e79a06b38407c029ae3ff76c12a0d78a215c441a",
        "manifest.json": "103dc555b2862f0ab4a57902babe0ab185e97b2331f6f514ff42e6f60cd39ffe",
    },
}

RUN_DIGESTS = {
    "noiseless": "af2b97bd47589e06b16dc265738dd484bb91fe2967468e0cf7f2fe8d2f51cca7",
    "beta-0.9": "a137142d239e07113cb98e9fc1dba563a34f3d0ddf64fb55f152aece1890efc0",
    "squared-circular-mean": "a7e1a4cf803ddee23fb1492ba0eb57ad0b60c0894711175e34402f7ca6a4a8dc",
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
        "qpea-capped": "a0cdcf7d714e4f17ae59b781c24da0a00f4c306234beb580597af897e5adbe71",
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
RUN_GRID_DIGEST = "0fa0523656324c8fcc5b44b3d1c34729e03b9bf8d6f30166ec64072fb0937831"

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
    "qpea-capped": ("noiseless", (*SMALL_LADDER, "--depth-limit", "16")),
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
    "qpea-capped": "597260708b4cdc8b676dd0b01c65f9484aa15d79897d734a7a47661f03ea5a5b",
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
    "qpea-capped": "qpea",
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


# Golden values of seeded runs whose posterior grid refines far past its
# initial 4096 cells: (budget, seed, theta) -> (estimate, posterior expected
# loss, deepest depth, resources spent) of `run_nonadaptive_doubling` with 32
# shots per depth, and (budget, seed, theta) -> (final estimate, final expected
# loss, deepest depth, resources spent, decisions) of a noiseless `run()`.
# The theta = 0 run keeps its posterior across the 0/2*pi seam.
DOUBLING_VALUES = {
    (1 << 16, 0, 1.3): (1.3000487177330808, 8.350732287584448e-05, 512, 1 << 16),
    (1 << 16, 1, 5.02): (5.019839548950266, 0.0002069503569944277, 512, 1 << 16),
    (1 << 18, 0, 1.3): (1.3000487177330808, 1.4837460051754415e-05, 2048, 1 << 18),
    (1 << 18, 1, 5.02): (5.020048002155003, 3.651879493392335e-05, 2048, 1 << 18),
    (1 << 20, 0, 1.3): (1.2999942478820337, 9.076945338017289e-06, 8192, 1 << 20),
    (1 << 20, 1, 5.02): (5.020048002155003, 1.7958789465634086e-08, 8192, 1 << 20),
}
ADAPTIVE_VALUES = {
    (1 << 16, 0, 0.0): (
        6.283170544686457, 0.0001046420000874418, 1024, 1 << 16, ("deepen",) * 11 + ("exhaust",) * 2
    ),
    (1 << 16, 1, 3.883222148137428): (
        3.8833427163336727, 0.00017126500819583863, 512, 1 << 16, ("deepen",) * 10 + ("stay", "exhaust")
    ),
}


@pytest.mark.parametrize("key", sorted(DOUBLING_VALUES))
def test_deep_doubling_run_values(key):
    n_tot, seed, theta = key
    estimate, loss, max_depth, spent = DOUBLING_VALUES[key]
    res = run_nonadaptive_doubling(n_tot, theta, RunSettings(), 32, np.random.default_rng(seed))
    assert res.estimate == pytest.approx(estimate, rel=0, abs=1e-12)
    assert res.posterior_expected_loss == pytest.approx(loss, rel=1e-12, abs=0)
    assert (res.max_depth, res.resources_spent) == (max_depth, spent)


@pytest.mark.parametrize("key", sorted(ADAPTIVE_VALUES))
def test_deep_adaptive_run_values(key):
    n_tot, seed, theta = key
    estimate, loss, max_depth, spent, decisions = ADAPTIVE_VALUES[key]
    trace = run(AlgorithmConfig(total_resources=n_tot, seed=seed), theta)
    assert trace.final_estimate == pytest.approx(estimate, rel=0, abs=1e-12)
    assert trace.final_expected_loss == pytest.approx(loss, rel=1e-12, abs=0)
    assert (trace.max_depth_used, trace.resources_spent) == (max_depth, spent)
    assert tuple(step.decision for step in trace.steps) == decisions
