import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpe_lab.baselines as baselines
import qpe_lab.posterior as posterior
from qpe_lab.adaptive import AlgorithmConfig, RunSettings, run
from qpe_lab.angles import TWO_PI, signed_gap, wrapped_distance
from qpe_lab.baselines import (
    InfeasibleBoundError,
    appendix_loss_bound,
    default_step_count,
    doubling_schedule,
    limit_curves,
    qpea_outcome_distribution,
    run_classical,
    run_nonadaptive_doubling,
    run_qpea,
)
from qpe_lab.model import Circuit, NoiseModel, sample_outcome
from qpe_lab.posterior import InsufficientResourcesError, LossKind, fold

NOISELESS = NoiseModel()
SETTINGS = RunSettings()
DECAY = RunSettings(noise=NoiseModel(1.0, 0.9))


class TestQpeaDistribution:
    @pytest.mark.parametrize("m", [0, 25])
    def test_register_size_range(self, m):
        with pytest.raises(ValueError):
            qpea_outcome_distribution(1.0, m)

    @pytest.mark.parametrize("m,k", [(3, 0), (3, 5), (8, 17), (12, 4000)])
    def test_dyadic_phase_is_read_exactly(self, m, k):
        probs = qpea_outcome_distribution(TWO_PI * k / (1 << m), m)
        assert probs[k] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 4, 6, 9, 12])
    def test_distribution_normalizes(self, m):
        rng = np.random.default_rng(m)
        for theta in rng.uniform(0, TWO_PI, 4):
            probs = qpea_outcome_distribution(float(theta), m)
            assert probs.shape == (1 << m,)
            assert np.all(probs >= -1e-15)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_half_offset_splits_between_neighbours(self):
        # true phase exactly between registers 5 and 6 of a 4-qubit read
        probs = qpea_outcome_distribution(TWO_PI * 5.5 / 16, 4)
        assert probs[5] == pytest.approx(probs[6], rel=1e-12)
        assert probs[5] == pytest.approx(0.40658933171803785, rel=1e-12)
        # closed form at the half-offset: 1 / (M sin(pi / (2 M)))^2
        assert probs[5] == pytest.approx(1.0 / (16 * math.sin(math.pi / 32)) ** 2, rel=1e-12)

    @given(frac=st.floats(0.0, 1.0, exclude_max=True))
    @settings(max_examples=60)
    def test_two_nearest_registers_carry_most_mass(self, frac):
        m = 5
        probs = qpea_outcome_distribution(TWO_PI * (7 + frac) / (1 << m), m)
        pair = probs[7] + probs[8]
        assert pair >= 8 / math.pi**2 - 1e-12


class TestRunQpea:
    @pytest.mark.parametrize("n_tot,spent", [(1, 1), (31, 31), (62, 31), (4095, 4095), (4096, 4095)])
    def test_largest_register_that_fits_the_budget(self, n_tot, spent):
        res = run_qpea(n_tot, 0.4, SETTINGS, np.random.default_rng(0))
        assert res.resources_spent == spent
        assert res.max_depth == (spent + 1) // 2

    def test_register_size_is_capped(self, monkeypatch):
        monkeypatch.setattr(baselines, "MAX_REGISTER_SIZE", 4)
        res = run_qpea(1000, 0.4, SETTINGS, np.random.default_rng(0))
        assert (res.resources_spent, res.max_depth) == (15, 8)

    @pytest.mark.parametrize("depth_limit,deepest", [(1, 1), (16, 16), (np.int64(16), 16), (24, 16), (1 << 20, 2048)])
    def test_depth_limit_caps_the_register(self, depth_limit, deepest):
        res = run_qpea(4096, 1.0, RunSettings(depth_limit=depth_limit), np.random.default_rng(0))
        assert (res.max_depth, res.resources_spent) == (deepest, 2 * deepest - 1)

    def test_budget_below_one_is_infeasible(self):
        with pytest.raises(InsufficientResourcesError):
            run_qpea(0, 0.4, SETTINGS, np.random.default_rng(0))

    @pytest.mark.parametrize("alpha,beta", [(0.9, 1.0), (1.0, 0.99)])
    def test_noise_is_rejected(self, alpha, beta):
        message = f"the textbook outcome law holds only without noise; got alpha={alpha}, beta={beta}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_qpea(15, 0.4, RunSettings(noise=NoiseModel(alpha, beta)), np.random.default_rng(0))

    def test_exact_at_dyadic_phases(self):
        rng = np.random.default_rng(0)
        res = run_qpea(63, TWO_PI * 17 / 64, SETTINGS, rng)
        assert res.estimate == pytest.approx(TWO_PI * 17 / 64, abs=1e-12)
        assert res.resources_spent == 63
        assert res.max_depth == 32
        assert res.posterior_expected_loss is None

    def test_error_scales_with_register_size(self):
        rng = np.random.default_rng(42)
        theta = 2.2340811
        for m in (4, 6, 8):
            errors = [
                wrapped_distance(run_qpea((1 << m) - 1, theta, SETTINGS, rng).estimate, theta)
                for _ in range(60)
            ]
            assert np.mean(errors) < 4 * TWO_PI / (1 << m)

    def test_seeded_reproducibility(self):
        res_a = run_qpea(31, 1.1, SETTINGS, np.random.default_rng(9))
        res_b = run_qpea(31, 1.1, SETTINGS, np.random.default_rng(9))
        assert res_a.estimate == res_b.estimate


def full_table_readout(theta: float, m: int, u: float) -> int:
    """The readout ``rng.choice(M, p=probs / probs.sum())`` returns when its one double is u."""
    probs = qpea_outcome_distribution(theta, m)
    cdf = np.cumsum(probs / probs.sum())
    cdf /= cdf[-1]
    return int(np.searchsorted(cdf, u, side="right"))


class FixedUniform:
    """A generator stand-in whose ``random()`` returns one chosen double."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


def cells_past_the_window(theta: float, m: int) -> tuple[int, int]:
    """Cells HALF_WINDOW + 2 below and above the peak, on the circle.

    They lie past the window whichever of two tied cells it centres on.
    """
    peak = int(np.argmax(qpea_outcome_distribution(theta, m)))
    reach = baselines.HALF_WINDOW + 2
    return (peak - reach) % (1 << m), (peak + reach) % (1 << m)


class TestQpeaReadoutMatchesTheFullTable:
    @pytest.mark.parametrize("m", range(1, 17))
    def test_seeded_draws_match_rng_choice(self, m):
        m_size = 1 << m
        rng = np.random.default_rng(100 + m)
        dyadic = TWO_PI * rng.integers(0, m_size, 3) / m_size
        thetas = [
            *rng.uniform(0.0, TWO_PI, 6),
            *rng.uniform(0.0, 1e-3, 3),
            *(TWO_PI - rng.uniform(0.0, 1e-3, 3)),
            *(dyadic - 1e-9),
            *(dyadic + 1e-9),
            -0.3,
            TWO_PI + 0.3,
        ]
        for theta in map(float, thetas):
            probs = qpea_outcome_distribution(theta, m)
            for seed in rng.integers(0, 2**32, 3):
                want = int(np.random.default_rng(seed).choice(m_size, p=probs / probs.sum()))
                got = run_qpea(m_size - 1, theta, SETTINGS, np.random.default_rng(seed))
                assert got.estimate == TWO_PI * want / m_size, (theta, seed)

    @pytest.mark.parametrize("m", [3, 9, 10, 12, 16])
    @pytest.mark.parametrize("offset", [0.37, 0.5, 0.999])
    @pytest.mark.parametrize("where", ["inner", "near-zero", "near-two-pi"])
    def test_chosen_doubles_match_the_full_table_cdf(self, m, offset, where):
        m_size = 1 << m
        peak = {"inner": m_size // 3, "near-zero": 1, "near-two-pi": m_size - 2}[where]
        theta = TWO_PI * (peak + offset) / m_size
        probs = qpea_outcome_distribution(theta, m)
        cdf = np.cumsum(probs / probs.sum())
        below, above = cells_past_the_window(theta, m)
        # The middle of each cell past the window forces the draw off the common path.
        doubles = [1e-7, 0.5, 1.0 - 1e-7, cdf[below] - 0.5 * probs[below], cdf[above] - 0.5 * probs[above]]
        for u in doubles:
            got = run_qpea(m_size - 1, theta, SETTINGS, FixedUniform(float(u)))
            assert got.estimate == TWO_PI * full_table_readout(theta, m, u) / m_size, u
        if m_size > 2 * baselines.HALF_WINDOW + 1:
            # Readouts past the window show that those draws left the common path.
            assert [full_table_readout(theta, m, u) for u in doubles[3:]] == [below, above]

    @pytest.mark.parametrize("m", [10, 14, 18, 20])
    def test_mass_below_the_window_matches_the_table(self, m):
        rng = np.random.default_rng(m)
        for theta in rng.uniform(0.5, TWO_PI - 0.5, 3):
            probs = qpea_outcome_distribution(float(theta), m)
            start = int(np.argmax(probs)) - baselines.HALF_WINDOW
            for stop in (1, start // 2, start):
                exact = math.fsum(probs[:stop])
                assert baselines._mass_below(float(theta), m, stop) == pytest.approx(exact, rel=0, abs=1e-12)

    def test_common_path_evaluates_only_the_window(self, monkeypatch):
        sizes = record_evaluated_cells(monkeypatch)
        thetas = (0.0, 1.3, TWO_PI - 1e-4, -0.3, TWO_PI + 0.3)
        for theta in thetas:
            run_qpea((1 << 16) - 1, theta, SETTINGS, FixedUniform(0.5))
        assert sum(sizes) == len(thetas) * (2 * baselines.HALF_WINDOW + 1)

    @pytest.mark.parametrize("m", [18, 20])
    @pytest.mark.parametrize("where", ["inner", "near-zero", "near-two-pi"])
    def test_draws_past_the_window_evaluate_one_block_at_a_time(self, monkeypatch, m, where):
        m_size = 1 << m
        peak = {"inner": m_size // 3, "near-zero": 1, "near-two-pi": m_size - 2}[where]
        theta = TWO_PI * (peak + 0.37) / m_size
        probs = qpea_outcome_distribution(theta, m)
        cdf = np.cumsum(probs / probs.sum())
        doubles = [float(cdf[k] - 0.5 * probs[k]) for k in cells_past_the_window(theta, m)]
        want = [full_table_readout(theta, m, u) for u in doubles]
        assert want == list(cells_past_the_window(theta, m))
        sizes = record_evaluated_cells(monkeypatch)
        got = [run_qpea(m_size - 1, theta, SETTINGS, FixedUniform(u)).estimate for u in doubles]
        assert got == [TWO_PI * k / m_size for k in want]
        assert max(sizes) <= baselines.BLOCK_CELLS
        assert sum(sizes) > 2 * baselines.BLOCK_CELLS, "the draws walked many blocks"


def record_evaluated_cells(monkeypatch) -> list[int]:
    """Patch ``qpea_outcome_distribution`` to log the size of each table it returns."""
    sizes = []
    law = baselines.qpea_outcome_distribution

    def recorded(theta, register_size, start=0, stop=None):
        probs = law(theta, register_size, start, stop)
        sizes.append(probs.size)
        return probs

    monkeypatch.setattr(baselines, "qpea_outcome_distribution", recorded)
    return sizes


def is_power_of_two(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


class TestDoublingSchedule:
    def test_budget_below_two_is_infeasible(self):
        with pytest.raises(InsufficientResourcesError):
            doubling_schedule(1, SETTINGS, 32)

    def test_shots_per_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            doubling_schedule(64, SETTINGS, 0)

    @pytest.mark.parametrize("n_tot,deepest", [(100, 2), (257, 4), (2048, 32)])
    def test_spends_everything(self, n_tot, deepest):
        blocks = doubling_schedule(n_tot, SETTINGS, 32)
        assert sum(depth * shots for depth, _, shots in blocks) == n_tot
        assert max(depth for depth, _, _ in blocks) == deepest

    @given(
        n_tot=st.integers(2, 1 << 21),
        shots_per_depth=st.integers(1, 64),
        depth_limit=st.integers(1, 1 << 20),
    )
    @settings(max_examples=200, deadline=None)
    def test_spends_the_budget_exactly_at_capped_powers_of_two(self, n_tot, shots_per_depth, depth_limit):
        blocks = doubling_schedule(n_tot, RunSettings(depth_limit=depth_limit), shots_per_depth)
        assert sum(depth * shots for depth, _, shots in blocks) == n_tot
        for depth, phase, shots in blocks:
            assert is_power_of_two(depth)
            assert depth <= min(depth_limit, posterior.MAX_DEPTH)
            assert phase in (0.0, math.pi / 2)
            assert shots >= 1

    def test_odd_leftover_shot_goes_to_phase_zero(self):
        # A full pair at depth 1 leaves 7, too few for a pair at depth 2:
        # three shots at depth 2, then one at depth 1.
        assert doubling_schedule(11, SETTINGS, 2) == [
            (1, 0.0, 2), (1, math.pi / 2, 2), (2, 0.0, 2), (2, math.pi / 2, 1), (1, 0.0, 1)
        ]

    @pytest.mark.parametrize("depth_limit,deepest", [(1, 1), (8, 8), (12, 8)])
    def test_depth_limit_caps_the_schedule(self, depth_limit, deepest):
        blocks = doubling_schedule(4096, RunSettings(depth_limit=depth_limit), 32)
        assert sum(depth * shots for depth, _, shots in blocks) == 4096
        assert max(depth for depth, _, _ in blocks) == deepest

    def test_max_depth_stops_the_doubling(self):
        # With one shot per depth the doubling alone would reach 2**18,
        # which the posterior grid cap cannot resolve.
        blocks = doubling_schedule(1 << 20, SETTINGS, 1)
        assert sum(depth * shots for depth, _, shots in blocks) == 1 << 20
        assert max(depth for depth, _, _ in blocks) == posterior.MAX_DEPTH == 1 << 17

    def test_depths_are_powers_of_two(self):
        for depth, _, _ in doubling_schedule(1000, SETTINGS, 16):
            assert is_power_of_two(depth)


class TestRunNonadaptiveDoubling:
    def test_budget_below_two_is_infeasible(self):
        with pytest.raises(InsufficientResourcesError):
            run_nonadaptive_doubling(1, 0.5, SETTINGS, 32, np.random.default_rng(0))

    @pytest.mark.parametrize("n_tot,deepest", [(100, 2), (257, 4), (2048, 32)])
    def test_spends_everything(self, n_tot, deepest):
        res = run_nonadaptive_doubling(n_tot, 2.2, SETTINGS, 32, np.random.default_rng(0))
        assert res.resources_spent == n_tot
        assert res.max_depth == deepest

    @pytest.mark.parametrize("depth_limit,deepest", [(1, 1), (8, 8), (12, 8)])
    def test_depth_limit_caps_the_schedule(self, depth_limit, deepest):
        settings = RunSettings(depth_limit=depth_limit)
        res = run_nonadaptive_doubling(4096, 2.2, settings, 32, np.random.default_rng(0))
        assert res.resources_spent == 4096
        assert res.max_depth == deepest

    def test_grid_cap_stops_the_doubling(self):
        # With one shot per depth the doubling alone would reach 2**18,
        # which the posterior grid cap cannot resolve.
        try:
            res = run_nonadaptive_doubling(1 << 20, 1.3, SETTINGS, 1, np.random.default_rng(0))
        finally:
            # Past their byte budgets the per-grid caches keep only their newest
            # entries, here about 130 MB of 2**22-cell arrays; free those too.
            for cache in (posterior._grid_trig, posterior._log_prob_components):
                cache.cache_clear()
        assert res.resources_spent == 1 << 20
        assert res.max_depth == posterior.MAX_DEPTH == 1 << 17

    def test_converges_on_generous_budgets(self):
        errors = []
        for seed in range(6):
            res = run_nonadaptive_doubling(2048, 2.2, SETTINGS, 32, np.random.default_rng(seed))
            errors.append(wrapped_distance(res.estimate, 2.2))
        assert np.median(errors) < 0.05

    def test_expected_loss_is_reported(self):
        res = run_nonadaptive_doubling(512, 0.3, SETTINGS, 32, np.random.default_rng(1))
        assert res.posterior_expected_loss is not None
        assert res.posterior_expected_loss >= 0.0


@pytest.mark.parametrize("noise", [NOISELESS, NoiseModel(1.0, 0.9)], ids=["noiseless", "beta-0.9"])
@pytest.mark.parametrize("runner, blocks", [
    (lambda settings, rng: run_nonadaptive_doubling(1 << 14, 2.2, settings, 8, rng),
     lambda settings: doubling_schedule(1 << 14, settings, 8)),
    (lambda settings, rng: run_nonadaptive_doubling(300, 2.2, settings, 1, rng),
     lambda settings: doubling_schedule(300, settings, 1)),
    (lambda settings, rng: run_classical(1001, 2.2, settings, rng), lambda settings: [(1, 0.0, 501), (1, np.pi / 2, 500)]),
], ids=["doubling", "doubling-single-shots", "classical"])
def test_a_schedule_folds_what_per_block_draws_give(monkeypatch, noise, runner, blocks):
    settings = RunSettings(noise=noise)
    folded = []

    def recording(post, records, noise_model, *rest):
        folded.append([(r.circuit.depth, r.circuit.phase, r.shots, r.successes) for r in records])
        return fold(post, records, noise_model, *rest)

    monkeypatch.setattr(baselines, "fold", recording)
    runner(settings, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    drawn = []
    for depth, phase, shots in blocks(settings):
        circuit = Circuit(depth, phase)
        drawn.append((circuit.depth, circuit.phase, shots, float(sample_outcome(circuit, shots, 2.2, noise, rng))))
    assert folded == [drawn]


class TestRunClassical:
    def test_spends_everything_at_depth_one(self):
        for n_tot in (2, 3, 101, 1024):
            res = run_classical(n_tot, 1.7, SETTINGS, np.random.default_rng(0))
            assert res.resources_spent == n_tot
            assert res.max_depth == 1

    def test_error_shrinks_like_root_n(self):
        rng = np.random.default_rng(7)
        errors_small = [
            wrapped_distance(run_classical(64, 2.9, SETTINGS, rng).estimate, 2.9)
            for _ in range(30)
        ]
        errors_large = [
            wrapped_distance(run_classical(4096, 2.9, SETTINGS, rng).estimate, 2.9)
            for _ in range(30)
        ]
        assert np.mean(errors_large) < np.mean(errors_small) / 3

    def test_estimates_are_unbiased_enough(self):
        rng = np.random.default_rng(21)
        for theta in (0.3, 2.0, 4.4, 6.0):
            gaps = [
                signed_gap(run_classical(2000, theta, SETTINGS, rng).estimate, theta)
                for _ in range(20)
            ]
            assert abs(np.mean(gaps)) < 0.05


RUNNERS = {
    "adaptive": lambda theta: run(AlgorithmConfig(total_resources=64), theta),
    "classical": lambda theta: run_classical(64, theta, SETTINGS, np.random.default_rng(0)),
    "nonadaptive-doubling": lambda theta: run_nonadaptive_doubling(64, theta, SETTINGS, 1, np.random.default_rng(0)),
    "qpea": lambda theta: run_qpea(63, theta, SETTINGS, np.random.default_rng(0)),
}


@pytest.mark.parametrize("theta", [math.nan, math.inf])
@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_every_runner_rejects_a_non_finite_true_phase(runner, theta):
    with pytest.raises(ValueError, match=f"^theta_true must be finite, got {theta}$"):
        RUNNERS[runner](theta)


BUDGET_RUNNERS = {
    "classical": lambda n: run_classical(n, 1.7, SETTINGS, np.random.default_rng(0)),
    "nonadaptive-doubling": lambda n: run_nonadaptive_doubling(n, 1.7, SETTINGS, 4, np.random.default_rng(0)),
    "qpea": lambda n: run_qpea(n, 1.7, SETTINGS, np.random.default_rng(0)),
}


@pytest.mark.parametrize("runner", sorted(BUDGET_RUNNERS))
def test_every_baseline_takes_a_numpy_integer_budget_as_its_int(runner):
    assert BUDGET_RUNNERS[runner](np.int64(100)) == BUDGET_RUNNERS[runner](100)


def test_doubling_schedule_takes_a_numpy_integer_budget_as_its_int():
    assert doubling_schedule(np.int64(1000), SETTINGS, 4) == doubling_schedule(1000, SETTINGS, 4)


@pytest.mark.parametrize("budget", [100.0, 0.5, np.float64(64.0), True, False, np.bool_(True)])
@pytest.mark.parametrize("runner", sorted(BUDGET_RUNNERS))
def test_every_baseline_rejects_a_float_or_bool_budget(runner, budget):
    # The type check comes before the budget checks: 0.5 and False are not reported as too small.
    message = f"total_resources must be an integer, got {budget!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        BUDGET_RUNNERS[runner](budget)
    assert not isinstance(info.value, InsufficientResourcesError)


class TestLimitCurves:
    def test_noiseless_curves(self):
        curves = limit_curves(400, NOISELESS)
        scale = math.sqrt(2 / math.pi)
        assert curves["sql"] == pytest.approx(scale / 20.0, rel=1e-12)
        assert curves["hl"] == pytest.approx(scale / 400.0, rel=1e-12)
        assert "noisy_floor" not in curves

    def test_decay_adds_a_floor(self):
        curves = limit_curves(1000, NoiseModel(1.0, 0.9))
        sigma2 = 2 * math.e * (-math.log(0.9)) / 1000
        assert curves["noisy_floor"] == pytest.approx(math.sqrt(2 / math.pi) * math.sqrt(sigma2), rel=1e-12)

    def test_curves_decrease_with_budget(self):
        a, b = limit_curves(100, NOISELESS), limit_curves(400, NOISELESS)
        assert b["sql"] < a["sql"]
        assert b["hl"] < a["hl"]


class TestBoundArguments:
    @pytest.mark.parametrize(
        "total_resources,step_count,message",
        [
            (100, 1, "step_count must be >= 2, got 1"),
            (0, 3, "total_resources must be >= 1, got 0"),
            (0, None, "total_resources must be >= 1, got 0"),
        ],
    )
    def test_validation(self, total_resources, step_count, message):
        with pytest.raises(ValueError, match=message):
            appendix_loss_bound(total_resources, SETTINGS, LossKind.ABSOLUTE, step_count)

    @pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf, True, np.True_], ids=repr)
    @pytest.mark.parametrize("call", [
        lambda n: limit_curves(n, NOISELESS),
        lambda n: limit_curves(n, NoiseModel(1.0, 0.9)),
        lambda n: appendix_loss_bound(n, SETTINGS, LossKind.ABSOLUTE),
        lambda n: appendix_loss_bound(n, SETTINGS, LossKind.SQUARED, 4),
        lambda n: default_step_count(n, SETTINGS),
    ], ids=["curves", "curves-beta-0.9", "bound", "bound-4-steps", "step-count"])
    def test_a_non_finite_or_bool_budget_is_rejected(self, call, budget):
        message = f"total_resources must be a finite number, got {budget!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
            call(budget)
        assert not isinstance(info.value, InfeasibleBoundError)

    def test_a_fractional_budget_is_allowed(self):
        # The plots evaluate the curves and the bound between ladder budgets.
        assert limit_curves(1024.5, NOISELESS)["hl"] == pytest.approx(math.sqrt(2 / math.pi) / 1024.5, rel=1e-15)
        assert default_step_count(4096.5, SETTINGS) == default_step_count(4096, SETTINGS)
        assert appendix_loss_bound(4096.5, SETTINGS, LossKind.ABSOLUTE) <= appendix_loss_bound(
            4096, SETTINGS, LossKind.ABSOLUTE
        )


class TestAppendixLossBound:
    def test_two_rung_chain_reduces_to_the_closed_form(self):
        n_tot, eps1 = 500, 0.125
        nu1 = 32 / math.pi**2 * math.log(2 / eps1)
        inv_var = 32 / math.pi**2 * math.log(2 / eps1) + 4 * (n_tot - nu1) / 2
        by_hand = 1.5 * math.pi * eps1 + math.sqrt(2 / (math.pi * inv_var))
        assert appendix_loss_bound(n_tot, SETTINGS, LossKind.ABSOLUTE, 2) == pytest.approx(by_hand, rel=1e-14)

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_default_chain_is_the_default_step_count(self, kind):
        for settings in (SETTINGS, DECAY):
            m = default_step_count(4096, settings)
            assert appendix_loss_bound(4096, settings, kind) == appendix_loss_bound(4096, settings, kind, m)

    def test_noiseless_bound_halves_per_doubling(self):
        prev = None
        for k in (14, 15, 16):
            n = 1 << k
            b = appendix_loss_bound(n, SETTINGS, LossKind.ABSOLUTE)
            if prev is not None:
                assert 0.45 <= b / prev <= 0.55
            prev = b

    def test_constant_profile_plateaus(self):
        flat = RunSettings(epsilon_scale=0.01, epsilon_exponent=0.0)
        values = [appendix_loss_bound(1 << k, flat, LossKind.ABSOLUTE) for k in (14, 15, 16, 17)]
        floor = 1.5 * math.pi * 0.01
        for a, b in zip(values, values[1:]):
            assert 0.95 <= b / a <= 1.0 + 1e-12
        assert all(v >= floor for v in values)

    def test_decay_limits_scaling_to_root_n(self):
        settings = RunSettings(noise=NoiseModel(1.0, 0.9), epsilon_scale=1e-8)
        prev = None
        for k in (12, 13, 14):
            b = appendix_loss_bound(1 << k, settings, LossKind.ABSOLUTE)
            if prev is not None:
                assert 2**-0.5 * 0.9 <= b / prev <= 2**-0.5 * 1.1
            prev = b

    def test_bound_is_monotone_in_budget(self):
        prev = math.inf
        for k in range(8, 17):
            b = appendix_loss_bound(1 << k, SETTINGS, LossKind.ABSOLUTE)
            assert b <= prev + 1e-15
            prev = b

    def test_mse_is_clipped_at_pi_squared(self):
        # with the constant profile at eps = 1 the first term alone
        # exceeds the worst possible squared error
        flat = RunSettings(epsilon_exponent=0.0)
        assert appendix_loss_bound(10**6, flat, LossKind.SQUARED, 4) == pytest.approx(math.pi**2)

    def test_mae_is_clipped_at_pi(self):
        flat = RunSettings(epsilon_exponent=0.0)
        assert appendix_loss_bound(10**6, flat, LossKind.ABSOLUTE, 4) == pytest.approx(math.pi)

    def test_overcommitted_chain_is_infeasible(self):
        with pytest.raises(InfeasibleBoundError):
            appendix_loss_bound(10, SETTINGS, LossKind.ABSOLUTE, 8)

    def test_mse_beats_mae_squared_relationship(self):
        # both bounds exist and the MSE bound exceeds the square of a
        # typical error, sanity anchoring their magnitudes
        n = 1 << 14
        mae = appendix_loss_bound(n, SETTINGS, LossKind.ABSOLUTE)
        mse = appendix_loss_bound(n, SETTINGS, LossKind.SQUARED)
        assert 0 < mse < mae < 1


class TestDefaultStepCount:
    def test_grows_with_budget(self):
        counts = [default_step_count(1 << k, SETTINGS) for k in range(8, 15)]
        assert counts == sorted(counts)
        assert counts[-1] > counts[0]

    def test_known_values(self):
        assert default_step_count(1 << 13, SETTINGS) == 10
        assert default_step_count(1 << 12, RunSettings(noise=NoiseModel(1.0, 0.9), epsilon_scale=1e-8)) == 3

    def test_decay_caps_the_chain(self):
        # top depth must respect the depth optimum of 5, i.e. 2**(m-1) <= 5
        assert default_step_count(10**6, DECAY) == 3

    def test_depth_limit_caps_the_chain(self):
        # top depth 2**(m-1) <= 8
        assert default_step_count(1 << 13, RunSettings(depth_limit=8)) == 4

    def test_tiny_budget_is_infeasible(self):
        with pytest.raises(InfeasibleBoundError):
            default_step_count(7, RunSettings(noise=NoiseModel(1.0, 0.5)))
