"""Behaviour digests: sha256 of seeded CLI outputs, pinned byte for byte.

A refactor or speed-up that keeps the algorithm must leave every digest
unchanged.  A change that alters behaviour on purpose re-pins the moved
digests and says why in CHANGES.md.
"""

import hashlib

import pytest

import qpe_lab.cli as cli

SWEEP_DIGESTS = {
    "noiseless": "f6b913f1f7f65d6145aa564b539294afabe69ccf0ff681c8d552fd071e533fd5",
    "beta-0.9": "893a7ac44dd56614a5474dce1c00b9e45f2448148252e02495a3d3b31a61627c",
}

RUN_DIGESTS = {
    "noiseless": "66717be286cefc78708947c0629f92d9acf4a14a5a08c2a6dc14b39d69894b63",
    "beta-0.9": "2850491d524b7470e105ad4946b468fc96c076ad0ed13091c8c17ce480c62ec3",
}

NOISE_ARGS = {
    "noiseless": (),
    "beta-0.9": ("--beta", "0.9"),
}

# The textbook qpea outcome law holds only without noise.
SWEEP_STRATEGIES = {
    "noiseless": "adaptive,classical,nonadaptive-doubling,qpea",
    "beta-0.9": "adaptive,classical,nonadaptive-doubling",
}


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("noise", sorted(NOISE_ARGS))
def test_sweep_results_csv_digest(tmp_path, capsys, noise):
    code = cli.main([
        "sweep",
        "--strategies", SWEEP_STRATEGIES[noise],
        "--ladder", "64,512,4096",
        "--thetas", "3",
        "--reps", "1",
        *NOISE_ARGS[noise],
        "--seed", "11",
        "--workers", "1",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    assert "failed=0" in capsys.readouterr().out
    assert sha256_of(tmp_path / "results.csv") == SWEEP_DIGESTS[noise]


@pytest.mark.parametrize("noise", sorted(NOISE_ARGS))
def test_run_trace_digest(tmp_path, noise):
    out = tmp_path / "trace.json"
    code = cli.main([
        "run",
        "--n-tot", "4096",
        "--theta", "2.2",
        *NOISE_ARGS[noise],
        "--seed", "7",
        "--out", str(out),
    ])
    assert code == 0
    assert sha256_of(out) == RUN_DIGESTS[noise]
