import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qpe_lab.model import (
    Circuit,
    DivergenceError,
    MeasurementRecord,
    NoiseModel,
    log_likelihood,
    minimum_achievable_variance,
    optimal_circuit,
    optimal_depth,
    sample_outcome,
    sigma_squared,
    success_probability,
    tuned_circuit,
)
from qpe_lab.angles import TWO_PI, wrap


class TestNoiseModel:
    def test_defaults_are_noiseless(self):
        noise = NoiseModel()
        assert noise.alpha == 1.0
        assert noise.beta == 1.0
        assert noise.noiseless

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.0001])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ValueError):
            NoiseModel(alpha=alpha)

    @pytest.mark.parametrize("beta", [0.0, -1.0, 1.5])
    def test_beta_out_of_range(self, beta):
        with pytest.raises(ValueError):
            NoiseModel(beta=beta)

    def test_contrast_decays_with_depth(self):
        noise = NoiseModel(alpha=0.8, beta=0.9)
        assert noise.contrast(1) == pytest.approx(0.72)
        assert noise.contrast(3) == pytest.approx(0.8 * 0.9**3)
        assert noise.contrast(10) < noise.contrast(2)


class TestCircuit:
    def test_phase_is_wrapped(self):
        assert Circuit(1, TWO_PI + 0.25).phase == pytest.approx(0.25)
        assert Circuit(1, -0.25).phase == pytest.approx(TWO_PI - 0.25)

    @pytest.mark.parametrize("depth", [0, -3])
    def test_depth_must_be_positive(self, depth):
        with pytest.raises(ValueError):
            Circuit(depth, 0.0)

    @pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_phase_is_named(self, phase):
        with pytest.raises(ValueError, match=f"^phase must be finite, got {phase}$"):
            Circuit(1, phase)
        # A tuned circuit names the caller's target, not the nan phase it would wrap to.
        with pytest.raises(ValueError, match=f"^target must be finite, got {phase}$"):
            tuned_circuit(4, phase)
        with pytest.raises(ValueError, match=f"^target must be finite, got {phase}$"):
            optimal_circuit(NoiseModel(1.0, 0.9), phase, 100)


class TestMeasurementRecord:
    def test_fractional_successes_allowed(self):
        rec = MeasurementRecord(Circuit(1, 0.0), 10, 3.5)
        assert rec.successes == 3.5

    def test_successes_bounded_by_shots(self):
        with pytest.raises(ValueError):
            MeasurementRecord(Circuit(1, 0.0), 3, 4.0)
        with pytest.raises(ValueError):
            MeasurementRecord(Circuit(1, 0.0), 3, -0.5)

    def test_negative_shots_rejected(self):
        with pytest.raises(ValueError):
            MeasurementRecord(Circuit(1, 0.0), -1, 0.0)


class TestSuccessProbability:
    def test_known_value_with_decay(self):
        # depth 2 at beta=0.9 damps the fringe to 0.81:
        # 1/2 + 0.405 * cos(2) = 0.33146...
        p = success_probability(1.0, Circuit(2, 0.0), NoiseModel(1.0, 0.9))
        assert p == pytest.approx(0.5 + 0.405 * math.cos(2.0), abs=1e-16)
        assert p == pytest.approx(0.33146053119840735, abs=1e-15)

    def test_noiseless_extremes(self):
        assert success_probability(0.0, Circuit(1, 0.0), NoiseModel()) == pytest.approx(1.0)
        assert success_probability(math.pi, Circuit(1, 0.0), NoiseModel()) == pytest.approx(0.0, abs=1e-15)

    def test_vectorized_over_theta(self):
        thetas = np.linspace(0, TWO_PI, 17)
        p = success_probability(thetas, Circuit(3, 0.7), NoiseModel(0.9, 0.95))
        assert p.shape == thetas.shape
        assert np.all(p >= 0.0) and np.all(p <= 1.0)
        for t, pi in zip(thetas, p):
            assert pi == pytest.approx(success_probability(float(t), Circuit(3, 0.7), NoiseModel(0.9, 0.95)))

    @given(
        theta=st.floats(0, TWO_PI),
        depth=st.integers(1, 50),
        phase=st.floats(0, TWO_PI),
        alpha=st.floats(0.01, 1.0),
        beta=st.floats(0.5, 1.0),
    )
    def test_probability_stays_in_unit_interval(self, theta, depth, phase, alpha, beta):
        p = success_probability(theta, Circuit(depth, phase), NoiseModel(alpha, beta))
        assert 0.0 <= p <= 1.0

    @pytest.mark.parametrize("depth", [1, 3, 64, 1024, 1 << 15])
    def test_fringe_extremes_stay_in_unit_interval(self, depth):
        # At the dark and bright fringes of a noiseless circuit p0 is 0 or 1
        # up to rounding; the angle-addition form dips to -1.1e-16 here.
        for phase in np.linspace(0.0, TWO_PI, 300, endpoint=False):
            circuit = Circuit(depth, float(phase))
            for theta in ((math.pi - circuit.phase) / depth, -circuit.phase / depth):
                p = success_probability(theta, circuit, NoiseModel())
                assert 0.0 <= p <= 1.0, (phase, theta, p)


class TestLogLikelihood:
    def test_balanced_binomial_value(self):
        # p0 = 1/2 at theta = pi/2 for circuit (1, 0); Bin(10, 1/2) at x=5
        # has pmf 252/1024.
        rec = MeasurementRecord(Circuit(1, 0.0), 10, 5.0)
        ll = log_likelihood(rec, math.pi / 2, NoiseModel())
        assert ll == pytest.approx(math.log(0.24609375), abs=1e-13)

    def test_matches_scipy_for_integer_counts(self):
        rng = np.random.default_rng(11)
        thetas = np.linspace(0.05, TWO_PI - 0.05, 64)
        for _ in range(8):
            depth = int(rng.integers(1, 9))
            nu = int(rng.integers(1, 30))
            x = int(rng.integers(0, nu + 1))
            phase = float(rng.uniform(0, TWO_PI))
            noise = NoiseModel(0.9, 0.95)
            rec = MeasurementRecord(Circuit(depth, phase), nu, float(x))
            ours = log_likelihood(rec, thetas, noise)
            p0 = success_probability(thetas, rec.circuit, noise)
            ref = stats.binom.logpmf(x, nu, p0)
            np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=1e-12)

    def test_zero_shots_contributes_nothing(self):
        rec = MeasurementRecord(Circuit(4, 1.0), 0, 0.0)
        assert log_likelihood(rec, 0.3, NoiseModel()) == 0.0

    def test_impossible_outcome_is_minus_infinity(self):
        # At theta = pi the circuit (1, 0) never succeeds.
        rec = MeasurementRecord(Circuit(1, 0.0), 3, 1.0)
        assert log_likelihood(rec, math.pi, NoiseModel()) == -math.inf

    def test_forced_outcome_has_zero_log_likelihood(self):
        # ... and all-failure there is certain (coefficient C(3, 0) = 1).
        rec = MeasurementRecord(Circuit(1, 0.0), 3, 0.0)
        assert log_likelihood(rec, math.pi, NoiseModel()) == 0.0

    def test_fractional_counts_drop_the_coefficient(self):
        noise = NoiseModel()
        theta = 1.1
        rec = MeasurementRecord(Circuit(2, 0.4), 10, 3.5)
        p0 = success_probability(theta, rec.circuit, noise)
        by_hand = 3.5 * math.log(p0) + 6.5 * math.log1p(-p0)
        assert log_likelihood(rec, theta, noise) == pytest.approx(by_hand, rel=1e-14)


class TestSampleOutcome:
    def test_reproducible_with_seed(self):
        circ = Circuit(3, 0.2)
        a = sample_outcome(circ, 50, 1.0, NoiseModel(), np.random.default_rng(7))
        b = sample_outcome(circ, 50, 1.0, NoiseModel(), np.random.default_rng(7))
        assert a == b

    def test_bounds_and_determinism_at_certainty(self):
        rng = np.random.default_rng(0)
        assert sample_outcome(Circuit(1, 0.0), 20, 0.0, NoiseModel(), rng) == 20
        assert sample_outcome(Circuit(1, 0.0), 20, math.pi, NoiseModel(), rng) == 0

    @given(
        theta=st.floats(-10.0, 10.0),
        depth=st.integers(1, 1 << 20),
        phase=st.floats(-20.0, 20.0),
        alpha=st.floats(0.01, 1.0),
        beta=st.floats(0.01, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_draws_with_the_bits_of_success_probability(self, theta, depth, phase, alpha, beta):
        # sample_outcome evaluates p0 in scalar float arithmetic; the draw
        # must see the very p0 that success_probability returns.
        class RecordingRng:
            def binomial(self, shots, p):
                seen.append(p)
                return 0

        seen = []
        circuit, noise = Circuit(depth, phase), NoiseModel(alpha, beta)
        sample_outcome(circuit, 3, theta, noise, RecordingRng())
        assert seen == [min(max(float(success_probability(theta, circuit, noise)), 0.0), 1.0)]

    @pytest.mark.parametrize("shots", [2.5, 3.0, True, -1])
    def test_shots_must_be_a_whole_count(self, shots):
        with pytest.raises(ValueError, match="shots"):
            sample_outcome(Circuit(1, 0.0), shots, 1.0, NoiseModel(), np.random.default_rng(0))

    def test_shots_may_be_a_numpy_integer(self):
        rng = np.random.default_rng(0)
        assert sample_outcome(Circuit(1, 0.0), np.int64(20), 0.0, NoiseModel(), rng) == 20

    def test_empirical_mean_tracks_probability(self):
        circ = Circuit(2, 0.9)
        noise = NoiseModel(0.95, 0.9)
        theta = 2.3
        p0 = success_probability(theta, circ, noise)
        rng = np.random.default_rng(123)
        draws = [sample_outcome(circ, 400, theta, noise, rng) for _ in range(50)]
        mean = np.mean(draws) / 400
        # 4-sigma band around the binomial mean
        assert abs(mean - p0) < 4 * math.sqrt(p0 * (1 - p0) / (400 * 50))


class TestSigmaSquared:
    def test_noiseless_tuned_circuit_gives_inverse_fisher(self):
        # phase pi/2 - n*theta puts theta on the steepest fringe point,
        # where the propagated variance is 1 / (n^2 nu).
        theta = 0.77
        for depth in (1, 4, 16):
            circ = Circuit(depth, wrap(math.pi / 2 - depth * theta))
            v = sigma_squared(theta, circ, 250, NoiseModel())
            assert v == pytest.approx(1.0 / (depth**2 * 250), rel=1e-12)

    def test_known_noisy_value(self):
        v = sigma_squared(1.0, Circuit(2, 0.0), 100, NoiseModel(1.0, 0.9))
        assert v == pytest.approx(0.0040848575114539641, rel=1e-14)
        # independent evaluation in a different operation order
        c2 = 0.81**2
        s, c = math.sin(2.0), math.cos(2.0)
        assert v == pytest.approx((1 - c2 * c * c) / c2 / (s * s) / 4 / 100, rel=1e-12)

    def test_divergence_at_fringe_extremum(self):
        with pytest.raises(DivergenceError):
            sigma_squared(0.0, Circuit(1, 0.0), 100, NoiseModel())

    @pytest.mark.parametrize(
        "shots, message",
        [
            (2.5, "shots must be an integer, got 2.5"),
            (1.0, "shots must be an integer, got 1.0"),
            (True, "shots must be an integer, got True"),
            (0, "shots must be >= 1, got 0"),
        ],
    )
    def test_a_fractional_bool_or_zero_shot_count_is_named(self, shots, message):
        with pytest.raises(ValueError) as raised:
            sigma_squared(0.3, Circuit(2, 0.1), shots, NoiseModel())
        assert str(raised.value) == message

    def test_noise_inflates_variance(self):
        theta = 1.9
        circ = Circuit(3, wrap(math.pi / 2 - 3 * theta))
        clean = sigma_squared(theta, circ, 100, NoiseModel())
        noisy = sigma_squared(theta, circ, 100, NoiseModel(0.9, 0.9))
        assert noisy > clean


class TestOptimalDepth:
    def test_no_decay_returns_the_limit(self):
        assert optimal_depth(NoiseModel(), 1 << 20) == 1 << 20
        assert optimal_depth(NoiseModel(0.5, 1.0), 7) == 7

    def test_beta_09_rounds_to_five(self):
        # -1 / (2 ln 0.9) = 4.7456...
        assert optimal_depth(NoiseModel(1.0, 0.9), 1 << 20) == 5

    def test_limit_caps_the_optimum(self):
        assert optimal_depth(NoiseModel(1.0, 0.9), 3) == 3

    def test_heavy_decay_floors_at_one(self):
        assert optimal_depth(NoiseModel(1.0, 0.05), 100) == 1

    @pytest.mark.parametrize("noise", [NoiseModel(), NoiseModel(1.0, 0.9)])
    @pytest.mark.parametrize("depth_limit", [2.5, 8.0, True, 0])
    def test_the_limit_must_be_a_whole_depth(self, noise, depth_limit):
        with pytest.raises(ValueError, match="depth_limit"):
            optimal_depth(noise, depth_limit)

    @given(beta=st.floats(0.02, 0.9999))
    @settings(max_examples=60)
    def test_rounding_stays_within_half_of_continuum(self, beta):
        continuous = -1.0 / (2.0 * math.log(beta))
        n = optimal_depth(NoiseModel(1.0, beta), 1 << 30)
        assert n >= 1
        if continuous >= 1.0:
            assert abs(n - continuous) <= 0.5 + 1e-9

    def test_dense_scan_confirms_the_optimum(self):
        # per-resource variance at the tuned phase is 1/(a^2 b^(2n) n nu)
        # per unit resource; the discrete argmin matches the formula.
        noise = NoiseModel(1.0, 0.93)
        depths = np.arange(1, 40)
        per_resource = 1.0 / (noise.beta ** (2 * depths) * depths)
        best = int(depths[np.argmin(per_resource)])
        assert optimal_depth(noise, 1 << 20) == best


class TestOptimalCircuit:
    def test_phase_targets_the_guess(self):
        noise = NoiseModel(1.0, 0.9)
        circ = optimal_circuit(noise, 0.0, 10**6)
        assert circ.depth == 5
        assert circ.phase == pytest.approx(math.pi / 2)

    def test_phase_reduction(self):
        circ = optimal_circuit(NoiseModel(1.0, 0.9), 2.0, 10**6)
        assert circ.phase == pytest.approx(wrap(math.pi / 2 - 5 * 2.0))


class TestTunedCircuit:
    @pytest.mark.parametrize("depth", [1, 3, 64, 1 << 15])
    @pytest.mark.parametrize("target", [0.0, 1.234, 2.2, 6.1])
    def test_target_sits_on_the_falling_slope(self, depth, target):
        circuit = tuned_circuit(depth, target)
        assert circuit.depth == depth
        assert 0.0 <= circuit.phase < TWO_PI
        # the phase n * target rounds to about 1e-11 at the deepest circuit
        assert success_probability(target, circuit, NoiseModel()) == pytest.approx(0.5, abs=1e-9)
        step = 0.01 / depth
        assert success_probability(target - step, circuit, NoiseModel()) > 0.5
        assert success_probability(target + step, circuit, NoiseModel()) < 0.5


class TestMinimumAchievableVariance:
    def test_closed_form(self):
        v = minimum_achievable_variance(NoiseModel(1.0, 0.9), 1000)
        assert v == pytest.approx(2 * math.e * (-math.log(0.9)) / 1000, rel=1e-15)
        assert v == pytest.approx(0.00057279915029948784, rel=1e-15)

    def test_alpha_enters_squared(self):
        full = minimum_achievable_variance(NoiseModel(1.0, 0.9), 1000)
        damped = minimum_achievable_variance(NoiseModel(0.5, 0.9), 1000)
        assert damped == pytest.approx(4 * full, rel=1e-12)

    def test_undefined_without_decay(self):
        with pytest.raises(ValueError):
            minimum_achievable_variance(NoiseModel(), 1000)

    @pytest.mark.parametrize("budget", [math.nan, math.inf, 0.0, -5.0, True, np.True_])
    def test_the_budget_must_be_finite_and_positive(self, budget):
        with pytest.raises(ValueError, match="total_resources"):
            minimum_achievable_variance(NoiseModel(1.0, 0.9), budget)

    def test_a_fractional_budget_is_allowed(self):
        assert minimum_achievable_variance(NoiseModel(1.0, 0.9), 2.5) == pytest.approx(
            2 * math.e * (-math.log(0.9)) / 2.5, rel=1e-15
        )
