"""Acceptance gate: end-to-end statistical and accounting checks.

Every test prints one `criterion N: PASS/FAIL - detail` line to the real
terminal (bypassing capture) before asserting, so a full run always shows
the scoreboard.  All sweeps are seeded; the numbers below are deterministic.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy import stats

import qpe_lab as q

LADDER = (32, 64, 128, 256, 512, 1024, 2048, 4096)
THETAS = 20
REPS = 10
NOISELESS = q.NoiseModel()
NOISY = q.NoiseModel(1.0, 0.9)


def median_by_budget(cells, n_tot, field):
    return float(np.median([getattr(c, field) for c in cells if c.n_tot == n_tot]))


def mean_by_budget(cells, n_tot, field):
    return float(np.mean([getattr(c, field) for c in cells if c.n_tot == n_tot]))


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def noiseless_sweep():
    config = q.SweepConfig(
        strategies=("adaptive", "classical"),
        resource_ladder=LADDER,
        theta_count=THETAS,
        repetitions=REPS,
        master_seed=0,
    )
    start = time.perf_counter()
    cells = q.run_sweep(config, workers=1)
    elapsed = time.perf_counter() - start
    return cells, elapsed


@pytest.fixture(scope="module")
def noisy_sweep():
    config = q.SweepConfig(
        strategies=("adaptive",),
        resource_ladder=LADDER,
        theta_count=THETAS,
        repetitions=REPS,
        noise=NOISY,
        master_seed=0,
    )
    start = time.perf_counter()
    cells = q.run_sweep(config, workers=1)
    elapsed = time.perf_counter() - start
    return cells, elapsed


@pytest.fixture(scope="module")
def qpea_sweep():
    ladder = tuple((1 << m) - 1 for m in range(3, 10))
    config = q.SweepConfig(
        strategies=("qpea",),
        resource_ladder=ladder,
        theta_count=THETAS,
        repetitions=REPS,
        master_seed=0,
    )
    return ladder, q.run_sweep(config, workers=1)


def test_criterion_01_heisenberg_scaling(noiseless_sweep, capsys):
    cells, elapsed = noiseless_sweep
    adaptive = [c for c in cells if c.strategy == "adaptive"]
    mae_pts = [(n, median_by_budget(adaptive, n, "abs_error")) for n in LADDER]
    mse_pts = [(n, median_by_budget(adaptive, n, "sq_error")) for n in LADDER]
    mae_slope = q.fit_loglog_slope(mae_pts)[0]
    mse_slope = q.fit_loglog_slope(mse_pts)[0]
    ok = mae_slope <= -0.80 and mse_slope <= -1.6 and elapsed <= 180.0
    report(
        capsys, 1, ok,
        f"median-MAE slope {mae_slope:.4f} (need <= -0.80), "
        f"median-MSE slope {mse_slope:.4f} (need <= -1.60), "
        f"sweep took {elapsed:.1f}s (budget 180s)",
    )
    assert mae_slope <= -0.80
    assert mse_slope <= -1.6
    assert elapsed <= 180.0


def test_criterion_02_sql_baseline(noiseless_sweep, capsys):
    cells, _ = noiseless_sweep
    classical = [c for c in cells if c.strategy == "classical"]
    pts = [(n, mean_by_budget(classical, n, "abs_error")) for n in LADDER]
    slope = q.fit_loglog_slope(pts)[0]
    ok = -0.65 <= slope <= -0.35
    report(capsys, 2, ok, f"classical MAE slope {slope:.4f} (need -0.5 +/- 0.15)")
    assert -0.65 <= slope <= -0.35


def test_criterion_03_sub_sql_crossover(noiseless_sweep, capsys):
    cells, _ = noiseless_sweep
    adaptive = [c for c in cells if c.strategy == "adaptive"]
    worst_ratio = 0.0
    for n in LADDER:
        if n < 128:
            continue
        med = median_by_budget(adaptive, n, "abs_error")
        sql = math.sqrt(2 / math.pi) / math.sqrt(n)
        worst_ratio = max(worst_ratio, med / sql)
    ok = worst_ratio < 1.0
    report(
        capsys, 3, ok,
        f"adaptive median MAE vs SQL curve: worst ratio {worst_ratio:.3f} "
        f"over budgets >= 128 (need < 1)",
    )
    assert worst_ratio < 1.0


def test_criterion_04_noisy_floor(noisy_sweep, capsys):
    cells, elapsed = noisy_sweep
    floor_sigma = lambda n: math.sqrt(q.minimum_achievable_variance(NOISY, n))
    top = LADDER[-1]
    med_top = median_by_budget(cells, top, "abs_error")
    threshold = 3.0 * math.sqrt(2 / math.pi) * floor_sigma(top)
    ratios = [
        median_by_budget(cells, n, "abs_error") / floor_sigma(n) for n in LADDER[-3:]
    ]
    non_increasing = all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))
    ok = med_top <= threshold and non_increasing
    report(
        capsys, 4, ok,
        f"median MAE at N={top} is {med_top:.3e} (need <= {threshold:.3e}); "
        f"floor ratios over top budgets {[f'{r:.4f}' for r in ratios]} non-increasing: "
        f"{non_increasing}; sweep took {elapsed:.1f}s",
    )
    assert med_top <= threshold
    assert non_increasing


def test_criterion_05_depth_discipline(noiseless_sweep, noisy_sweep, capsys):
    noisy_max = max(c.max_depth for c in noisy_sweep[0])
    adaptive = [c for c in noiseless_sweep[0] if c.strategy == "adaptive"]
    top_cells = [c for c in adaptive if c.n_tot == 4096]
    frac_deep = float(np.mean([c.max_depth >= 64 for c in top_cells]))
    ok = noisy_max <= 5 and frac_deep >= 0.90
    report(
        capsys, 5, ok,
        f"decaying-coherence runs peak at depth {noisy_max} (need <= 5); "
        f"{frac_deep:.1%} of noiseless N=4096 runs reach depth >= 64 (need >= 90%)",
    )
    assert noisy_max <= 5
    assert frac_deep >= 0.90


def test_criterion_06_posterior_matches_brute_force(capsys):
    rng = np.random.default_rng(2024)
    grid_size = 4096
    thetas = q.TWO_PI * np.arange(grid_size) / grid_size
    worst = 0.0
    for _ in range(12):
        noise = q.NoiseModel(float(rng.uniform(0.7, 1.0)), float(rng.uniform(0.85, 1.0)))
        theta_true = float(rng.uniform(0, q.TWO_PI))
        records = []
        for _ in range(int(rng.integers(1, 4))):
            circuit = q.Circuit(int(rng.integers(1, 9)), float(rng.uniform(0, q.TWO_PI)))
            shots = int(rng.integers(1, 21))
            p0 = q.success_probability(theta_true, circuit, noise)
            successes = int(rng.binomial(shots, min(max(p0, 0.0), 1.0)))
            records.append(q.MeasurementRecord(circuit, shots, float(successes)))

        posterior = q.uniform_prior(grid_size)
        for record in records:
            q.update(posterior, record, noise)

        reference = np.ones(grid_size)
        for record in records:
            contrast = noise.alpha * noise.beta**record.circuit.depth
            p0 = 0.5 + 0.5 * contrast * np.cos(
                record.circuit.depth * thetas + record.circuit.phase
            )
            reference *= stats.binom.pmf(
                int(record.successes), record.shots, np.clip(p0, 0.0, 1.0)
            )
        reference /= np.trapezoid(np.append(reference, reference[0]), dx=q.TWO_PI / grid_size)

        rel = np.max(np.abs(posterior.density - reference) / np.maximum(np.abs(reference), 1e-300))
        worst = max(worst, float(rel))
    ok = worst <= 1e-9
    report(capsys, 6, ok, f"max relative cell error vs dense reference {worst:.3e} (need <= 1e-9)")
    assert worst <= 1e-9


def test_criterion_07_single_circuit_variance(capsys):
    theta = 1.234
    shots = 10_000
    circuit = q.Circuit(1, q.wrap(math.pi / 2 - theta))
    gaps = []
    for rep in range(200):
        rng = np.random.default_rng(q.derive_cell_seed(0, "variance-check", shots, 0, rep))
        successes = q.sample_outcome(circuit, shots, theta, NOISELESS, rng)
        posterior = q.uniform_prior(4096)
        q.update(posterior, q.MeasurementRecord(circuit, shots, successes), NOISELESS)
        estimate = q.map_estimate(posterior, within=q.CircularInterval(theta, math.pi / 2))
        gaps.append(q.signed_gap(estimate, theta))
    variance = float(np.var(gaps))
    rel_dev = abs(variance * shots - 1.0)
    ok = rel_dev <= 0.15
    report(
        capsys, 7, ok,
        f"MAP variance over 200 runs {variance:.3e} vs predicted {1 / shots:.1e} "
        f"(relative deviation {rel_dev:.3f}, need <= 0.15)",
    )
    assert rel_dev <= 0.15


def test_criterion_08_textbook_estimator(qpea_sweep, capsys):
    exact_ok = True
    for m, k in ((3, 5), (6, 40), (9, 300), (12, 2700)):
        probs = q.qpea_outcome_distribution(q.TWO_PI * k / (1 << m), m)
        exact_ok &= abs(probs[k] - 1.0) <= 1e-12

    sums_ok = True
    rng = np.random.default_rng(11)
    for m in range(1, 13):
        probs = q.qpea_outcome_distribution(float(rng.uniform(0, q.TWO_PI)), m)
        sums_ok &= abs(probs.sum() - 1.0) <= 1e-12

    ladder, cells = qpea_sweep
    pts = [(n, mean_by_budget(cells, n, "abs_error")) for n in ladder]
    slope = q.fit_loglog_slope(pts)[0]
    slope_ok = -1.2 <= slope <= -0.8
    ok = exact_ok and sums_ok and slope_ok
    report(
        capsys, 8, ok,
        f"dyadic phases read exactly: {exact_ok}; distributions normalized to 1e-12 "
        f"for sizes 1..12: {sums_ok}; MAE slope {slope:.4f} (need -1 +/- 0.2)",
    )
    assert exact_ok
    assert sums_ok
    assert slope_ok


def test_criterion_09_analytic_bound_regimes(capsys):
    def bound(n, noise, eps, p):
        settings = q.RunSettings(noise=noise, epsilon_scale=eps, epsilon_exponent=p)
        return q.appendix_loss_bound(n, settings, q.LossKind.ABSOLUTE)

    halving = [bound(1 << k, NOISELESS, 1.0, 3.0) for k in range(13, 18)]
    halving_ratios = [b / a for a, b in zip(halving, halving[1:])]
    halving_ok = all(0.45 <= r <= 0.55 for r in halving_ratios)

    plateau = [bound(1 << k, NOISELESS, 0.01, 0.0) for k in range(13, 18)]
    plateau_ratios = [b / a for a, b in zip(plateau, plateau[1:])]
    floor = 1.5 * math.pi * 0.01
    plateau_ok = all(0.95 <= r <= 1.0 + 1e-12 for r in plateau_ratios) and all(
        b >= floor for b in plateau
    )

    noisy = [bound(1 << k, NOISY, 1e-8, 3.0) for k in range(12, 16)]
    noisy_ratios = [b / a for a, b in zip(noisy, noisy[1:])]
    noisy_ok = all(abs(r / 2**-0.5 - 1.0) <= 0.10 for r in noisy_ratios)

    ok = halving_ok and plateau_ok and noisy_ok
    report(
        capsys, 9, ok,
        f"steep schedule halves per doubling {[f'{r:.4f}' for r in halving_ratios]}; "
        f"flat schedule plateaus {[f'{r:.4f}' for r in plateau_ratios]}; "
        f"decaying coherence tracks N^-1/2 {[f'{r:.4f}' for r in noisy_ratios]}",
    )
    assert halving_ok
    assert plateau_ok
    assert noisy_ok


def test_criterion_10_determinism_and_accounting(
    noiseless_sweep, noisy_sweep, qpea_sweep, tmp_path, capsys
):
    config = q.SweepConfig(
        strategies=("adaptive", "classical", "nonadaptive-doubling", "qpea"),
        resource_ladder=(8, 32),
        theta_count=3,
        repetitions=2,
        master_seed=1,
    )
    first = q.run_sweep(config, workers=1)
    second = q.run_sweep(config, workers=1)
    paths = [tmp_path / name for name in ("r1.csv", "r2.csv", "a1.csv", "a2.csv")]
    q.write_results_csv(first, paths[0])
    q.write_results_csv(second, paths[1])
    q.write_aggregate_csv(q.aggregate(first), paths[2])
    q.write_aggregate_csv(q.aggregate(second), paths[3])
    bytes_ok = (
        paths[0].read_bytes() == paths[1].read_bytes()
        and paths[2].read_bytes() == paths[3].read_bytes()
    )

    every_cell = (
        list(noiseless_sweep[0]) + list(noisy_sweep[0]) + list(qpea_sweep[1]) + first
    )
    budget_ok = all(c.resources_spent <= c.n_tot for c in every_cell)
    clean_ok = all(c.error is None for c in every_cell)

    # the sweep driver revalidates every adaptive trace as it runs; on top
    # of that, re-derive the small sweep's traces, and those of the same
    # cells at a budget of 1024 whose ladders climb several rungs, and check
    # the interval chain pair by pair
    nested_pairs = 0
    nesting_ok = True
    for n_tot, theta_index, rep in itertools.product((8, 32, 1024), range(3), range(2)):
        seed = q.derive_cell_seed(1, "adaptive", n_tot, theta_index, rep)
        trace = q.run(
            q.AlgorithmConfig(total_resources=n_tot, seed=seed),
            config.theta_of(theta_index),
        )
        for prev, curr in zip(trace.steps, trace.steps[1:]):
            if curr.step_index <= 1 or curr.step_index == prev.step_index:
                continue
            gap = float(q.wrapped_distance(curr.interval.center, prev.interval.center))
            nesting_ok &= gap + curr.interval.half_width <= prev.interval.half_width + 1e-9
            nested_pairs += 1

    ok = bytes_ok and budget_ok and clean_ok and nesting_ok
    report(
        capsys, 10, ok,
        f"repeat sweeps byte-identical: {bytes_ok}; "
        f"{len(every_cell)} cells all within budget: {budget_ok}, all error-free: {clean_ok}; "
        f"interval nesting verified on {nested_pairs} step pairs: {nesting_ok}",
    )
    assert bytes_ok
    assert budget_ok
    assert clean_ok
    assert nesting_ok
