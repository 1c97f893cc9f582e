"""Behaviour digests: sha256 of seeded CLI outputs, pinned byte for byte.

A refactor or speed-up that keeps the algorithm must leave every digest
unchanged.  A change that alters behaviour on purpose re-pins the moved
digests and says why in CHANGES.md.
"""

import hashlib

import pytest

import qpe_lab.cli as cli

SWEEP_DIGESTS = {
    "noiseless": {
        "results.csv": "f6b913f1f7f65d6145aa564b539294afabe69ccf0ff681c8d552fd071e533fd5",
        "aggregate.csv": "8e96de10c60ac7062c14446940c36f4b181b68a194b6793a124fd2dca2c64b38",
        "manifest.json": "375faf8cd5b66dbfaf38080a17f5286c0d7692d5d321e84b3b42ee6f1a7ce53c",
    },
    "beta-0.9": {
        "results.csv": "893a7ac44dd56614a5474dce1c00b9e45f2448148252e02495a3d3b31a61627c",
        "aggregate.csv": "1dcda6b931771c2917d18191d004e51fac604c5a38b5544455978173bf82e75e",
        "manifest.json": "82ffe83b9043a216373fa12e0e7c6f74736f55ff52469dd11d799817ff415ed6",
    },
}

RUN_DIGESTS = {
    "noiseless": "13c5ce4393eedb286f11d99fa4dc7a8b3474cdd809151a8d35384377c940bf7f",
    "beta-0.9": "265fc7240dcceef1fc91c8ff67753c6104cbac1345b53b4b270ced77c66d915a",
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
    digests = {name: sha256_of(tmp_path / name) for name in SWEEP_DIGESTS[noise]}
    assert digests == SWEEP_DIGESTS[noise]


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
