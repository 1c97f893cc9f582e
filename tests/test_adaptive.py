import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpe_lab.adaptive as adaptive
from qpe_lab.adaptive import (
    AlgorithmConfig,
    InfeasibleIntervalError,
    RunSettings,
    chernoff_shot_budget,
    choose_center,
    max_shots_for_step,
    next_depth,
    required_confidence,
    run,
    validate_trace,
)
from qpe_lab.angles import TWO_PI, wrapped_distance
from qpe_lab.model import NoiseModel, optimal_depth
from qpe_lab.posterior import CircularInterval


class TestAlgorithmConfig:
    def test_budget_must_cover_both_probes(self):
        with pytest.raises(ValueError):
            AlgorithmConfig(total_resources=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"depth_limit": 0},
            {"epsilon_exponent": -1.0},
            {"epsilon_scale": 0.0},
            {"epsilon_scale": 1.5},
            {"estimator": "mode"},
        ],
    )
    def test_invalid_fields(self, kwargs):
        with pytest.raises(ValueError):
            AlgorithmConfig(total_resources=100, **kwargs)


class TestRequiredConfidence:
    def test_cubic_schedule_value(self):
        config = AlgorithmConfig(total_resources=300)
        assert required_confidence(2, config) == pytest.approx(8 / 27_000_000, rel=1e-15)

    def test_saturates_at_one(self):
        config = AlgorithmConfig(total_resources=300)
        assert required_confidence(300, config) == 1.0
        assert required_confidence(1000, config) == 1.0

    def test_scale_and_exponent(self):
        config = AlgorithmConfig(total_resources=100, epsilon_scale=0.5, epsilon_exponent=2.0)
        assert required_confidence(10, config) == pytest.approx(0.5 * 0.01)


class TestNextDepth:
    def test_noiseless_pure_doubling(self):
        config = AlgorithmConfig(total_resources=4096)
        assert [next_depth(i, config) for i in range(1, 8)] == [1, 2, 4, 8, 16, 32, 64]

    def test_decay_caps_the_ladder(self):
        config = AlgorithmConfig(total_resources=4096, noise=NoiseModel(1.0, 0.9))
        assert [next_depth(i, config) for i in range(1, 8)] == [1, 2, 4, 5, 5, 5, 5]

    def test_hardware_limit_caps_the_ladder(self):
        config = AlgorithmConfig(total_resources=4096, depth_limit=6)
        assert [next_depth(i, config) for i in range(1, 8)] == [1, 2, 4, 6, 6, 6, 6]

    def test_huge_step_index_does_not_overflow(self):
        config = AlgorithmConfig(total_resources=4096, depth_limit=1 << 20)
        assert next_depth(10_000, config) == 1 << 20

    def test_step_index_starts_at_one(self):
        with pytest.raises(ValueError):
            next_depth(0, AlgorithmConfig(total_resources=10))


class TestDepthCap:
    @pytest.mark.parametrize("beta", [1.0, 0.99, 0.9, 0.5, 0.05])
    @pytest.mark.parametrize("depth_limit", [1, 3, 6, 1 << 20])
    def test_is_the_optimal_depth_within_the_limit(self, beta, depth_limit):
        noise = NoiseModel(1.0, beta)
        settings = RunSettings(noise=noise, depth_limit=depth_limit)
        assert settings.depth_cap == optimal_depth(noise, depth_limit)
        config = AlgorithmConfig(total_resources=64, noise=noise, depth_limit=depth_limit)
        assert config.depth_cap == settings.depth_cap == next_depth(10_000, config)


class TestChooseCenter:
    def test_first_step_is_exempt(self):
        assert choose_center(5.9, None, 1, 1) == CircularInterval(5.9, math.pi / 2)
        prev = CircularInterval(1.0, 0.1)
        assert choose_center(3.0, prev, 1, 1) == CircularInterval(3.0, math.pi / 2)

    def test_first_step_wraps_the_estimate(self):
        assert choose_center(TWO_PI + 0.25, None, 2, 1).center == pytest.approx(0.25)

    def test_half_width_is_pi_over_twice_the_next_depth(self):
        prev = CircularInterval(2.0, math.pi / 2)
        for depth in (1, 2, 8, 1 << 20):
            assert choose_center(2.0, prev, depth, 3).half_width == math.pi / (2.0 * depth)

    def test_estimate_inside_slack_passes_through(self):
        prev = CircularInterval(2.0, 0.8)
        # next depth 4 -> half-width pi/8 = 0.3927, slack ~ 0.407
        assert choose_center(2.3, prev, 4, 3).center == pytest.approx(2.3)

    def test_estimate_outside_slack_is_clamped(self):
        prev = CircularInterval(2.0, 0.8)
        slack = 0.8 - math.pi / 8
        assert choose_center(2.7, prev, 4, 3).center == pytest.approx(2.0 + slack)
        assert choose_center(1.0, prev, 4, 3).center == pytest.approx(2.0 - slack)

    def test_widening_is_infeasible(self):
        prev = CircularInterval(2.0, 0.1)
        with pytest.raises(InfeasibleIntervalError):
            choose_center(2.0, prev, 2, 3)  # pi/4 > 0.1

    @given(
        prev_center=st.floats(0, TWO_PI),
        prev_hw=st.floats(0.05, math.pi),
        estimate=st.floats(0, TWO_PI),
        depth=st.integers(1, 64),
    )
    @settings(max_examples=100)
    def test_result_always_nests(self, prev_center, prev_hw, estimate, depth):
        new_hw = math.pi / (2 * depth)
        if new_hw > prev_hw:
            return
        prev = CircularInterval(prev_center, prev_hw)
        interval = choose_center(estimate, prev, depth, step_index=4)
        gap = wrapped_distance(interval.center, prev_center)
        assert gap + interval.half_width <= prev_hw + adaptive.NESTING_TOLERANCE


class TestChernoffShotBudget:
    def test_known_value(self):
        raw = chernoff_shot_budget(1e-6, 1e-4, 1, NoiseModel())
        assert raw == pytest.approx(39.0139, abs=5e-4)
        assert math.ceil(raw) == 40

    def test_decay_inflates_the_budget(self):
        clean = chernoff_shot_budget(1e-6, 1e-4, 5, NoiseModel())
        noisy = chernoff_shot_budget(1e-6, 1e-4, 5, NoiseModel(1.0, 0.9))
        assert noisy / clean == pytest.approx(0.9**-10, rel=1e-12)

    def test_sentinel_disables_the_credit(self):
        with_credit = chernoff_shot_budget(1e-6, 1e-4, 1, NoiseModel())
        without = chernoff_shot_budget(1e-6, 2.0, 1, NoiseModel())
        assert without == pytest.approx(with_credit + 8 / math.pi**2 * math.log(2e4), rel=1e-12)

    def test_can_go_nonpositive(self):
        assert chernoff_shot_budget(1.0, 1e-30, 1, NoiseModel()) < 0.0


class TestMaxShotsForStep:
    def test_needs_a_gated_step(self):
        with pytest.raises(ValueError):
            max_shots_for_step(1, AlgorithmConfig(total_resources=100))

    def test_zero_disables_the_cap(self):
        # at N=2 the step-2 allowance is already 1 and the bracket vanishes
        config = AlgorithmConfig(total_resources=2)
        assert max_shots_for_step(2, config) == 0

    def test_positive_for_realistic_budgets(self):
        config = AlgorithmConfig(total_resources=4096)
        caps = [max_shots_for_step(i, config) for i in range(2, 8)]
        assert all(c > 0 for c in caps)


class TestRun:
    def test_minimal_budget_spends_exactly_two(self):
        trace = run(AlgorithmConfig(total_resources=2, seed=1), 1.0)
        validate_trace(trace)
        assert trace.resources_spent == 2
        assert trace.max_depth_used == 1
        assert len(trace.steps) >= 1

    def test_budget_is_never_exceeded(self):
        for n_tot in (2, 3, 7, 50, 230):
            trace = run(AlgorithmConfig(total_resources=n_tot, seed=5), 2.2)
            validate_trace(trace)
            assert trace.resources_spent <= n_tot

    def test_deterministic_given_seed(self):
        config = AlgorithmConfig(total_resources=500, seed=13)
        a = run(config, 3.3)
        b = run(config, 3.3)
        assert a.final_estimate == b.final_estimate
        assert a.resources_spent == b.resources_spent
        assert [(s.circuit, s.shots_used, s.successes) for s in a.steps] == [
            (s.circuit, s.shots_used, s.successes) for s in b.steps
        ]

    def test_seed_changes_the_draws(self):
        base = AlgorithmConfig(total_resources=500, seed=13)
        other = dataclasses.replace(base, seed=14)
        assert run(base, 3.3).final_estimate != run(other, 3.3).final_estimate

    def test_decay_keeps_depth_at_the_optimum(self):
        config = AlgorithmConfig(total_resources=300, noise=NoiseModel(1.0, 0.9), seed=3)
        trace = run(config, 1.0)
        validate_trace(trace)
        assert trace.max_depth_used <= 5

    def test_noiseless_run_deepens(self):
        trace = run(AlgorithmConfig(total_resources=2048, seed=7), 0.9)
        validate_trace(trace)
        assert trace.max_depth_used >= 16

    def test_estimate_converges_for_generous_budget(self):
        errors = []
        for seed in range(5):
            trace = run(AlgorithmConfig(total_resources=2048, seed=seed), 4.0)
            errors.append(wrapped_distance(trace.final_estimate, 4.0))
        assert np.median(errors) < 0.02

    def test_circular_mean_estimator(self):
        config = AlgorithmConfig(total_resources=400, estimator="circular-mean", seed=2)
        trace = run(config, 2.0)
        validate_trace(trace)
        assert wrapped_distance(trace.final_estimate, 2.0) < 0.3

    def test_squared_loss_variant(self):
        from qpe_lab.posterior import LossKind

        config = AlgorithmConfig(total_resources=256, loss_kind=LossKind.SQUARED, seed=9)
        trace = run(config, 5.1)
        validate_trace(trace)
        assert trace.final_expected_loss >= 0.0

    def test_trace_fields_are_coherent(self):
        trace = run(AlgorithmConfig(total_resources=300, seed=11), 2.7)
        assert all(s.decision in ("deepen", "stay", "exhaust") for s in trace.steps)
        assert all(s.shots_used >= 0 for s in trace.steps)
        assert all(0 <= s.successes <= s.shots_used for s in trace.steps)
        assert trace.max_depth_used == max(c.depth for c in trace.wall_outcome_counts)
        assert 0.0 <= trace.final_estimate < TWO_PI
        assert trace.final_expected_loss >= 0.0

    def test_interval_widths_follow_the_ladder(self):
        trace = run(AlgorithmConfig(total_resources=1024, seed=4), 1.5)
        widths = {}
        for s in trace.steps:
            widths.setdefault(s.step_index, s.interval.half_width)
        # each gated step narrows the interval to pi / (2 * next depth);
        # the budget-draining tail keeps the last gated interval instead
        config = trace.config
        checked = 0
        for s in trace.steps:
            if s.circuit.depth != next_depth(s.step_index, config):
                continue
            expected = math.pi / (2 * next_depth(s.step_index + 1, config))
            assert s.interval.half_width == pytest.approx(expected, rel=1e-12)
            checked += 1
        assert checked >= 3

    @given(
        n_tot=st.integers(2, 300),
        theta=st.floats(0, TWO_PI),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_accounting_invariants_hold(self, n_tot, theta, seed):
        trace = run(AlgorithmConfig(total_resources=n_tot, seed=seed), theta)
        validate_trace(trace)
        assert trace.resources_spent <= n_tot


class TestValidateTrace:
    def test_rejects_overspend(self):
        trace = run(AlgorithmConfig(total_resources=100, seed=0), 1.0)
        bad = dataclasses.replace(trace, resources_spent=trace.resources_spent + 1)
        with pytest.raises(ValueError):
            validate_trace(bad)

    def test_rejects_an_escaped_interval(self):
        trace = run(AlgorithmConfig(total_resources=1024, seed=0), 1.0)
        gated = [s for s in trace.steps if s.step_index >= 2]
        assert len(gated) >= 2, "needs a trace with at least two gated steps"
        victim = trace.steps[-1]
        hacked = dataclasses.replace(
            victim,
            step_index=victim.step_index + 1,
            interval=CircularInterval(victim.interval.center + math.pi, victim.interval.half_width),
        )
        bad = dataclasses.replace(trace, steps=trace.steps + [hacked])
        with pytest.raises(ValueError):
            validate_trace(bad)

    def test_rejects_an_escape_past_the_nesting_tolerance(self):
        # choose_center and validate_trace share one rounding tolerance, far below 1e-10.
        trace = run(AlgorithmConfig(total_resources=1024, seed=0), 1.0)
        victim = trace.steps[-1]
        hacked = dataclasses.replace(
            victim,
            step_index=victim.step_index + 1,
            shots_used=0,
            interval=CircularInterval(victim.interval.center + 1e-10, victim.interval.half_width),
        )
        with pytest.raises(ValueError, match="escapes its predecessor"):
            validate_trace(dataclasses.replace(trace, steps=trace.steps + [hacked]))

    def test_rejects_misreported_shots(self):
        trace = run(AlgorithmConfig(total_resources=100, seed=0), 1.0)
        victim = trace.steps[-1]
        hacked = dataclasses.replace(victim, shots_used=victim.shots_used + 1)
        bad = dataclasses.replace(trace, steps=trace.steps[:-1] + [hacked])
        with pytest.raises(ValueError):
            validate_trace(bad)


class TestDecisionPaths:
    """The stay/deepen/exhaust choice on each path through the rung loop.

    ``predict_loss``, ``required_confidence`` and ``max_shots_for_step`` are
    replaced where ``run`` looks them up, so each path is forced without
    depending on the sampled outcomes.
    """

    @staticmethod
    def losses(monkeypatch, values):
        """Make predict_loss return ``values(call_number)``, counting from 0."""
        calls = []

        def fake(posterior, circuit, budget, noise, kind):
            calls.append(circuit)
            if len(calls) > 100:
                raise AssertionError("the rung loop does not terminate")
            return values(len(calls) - 1)

        monkeypatch.setattr(adaptive, "predict_loss", fake)
        return calls

    @staticmethod
    def gate(monkeypatch, eps_by_depth, shot_cap):
        real = adaptive.required_confidence
        monkeypatch.setattr(
            adaptive, "required_confidence",
            lambda depth, config: eps_by_depth(depth, real(depth, config)),
        )
        monkeypatch.setattr(adaptive, "max_shots_for_step", lambda step_index, config: shot_cap)

    def test_equal_losses_deepen_at_step_one_and_stay_at_a_rung(self, monkeypatch):
        self.losses(monkeypatch, lambda k: 1.0)
        trace = run(AlgorithmConfig(total_resources=256, seed=3), 1.2)
        validate_trace(trace)
        assert {s.decision for s in trace.steps if s.step_index == 1} == {"deepen"}
        rung = trace.steps[2]
        assert rung.step_index == 2
        assert rung.decision == "stay"
        assert rung.predicted_loss_stay == rung.predicted_loss_deepen == 1.0

    def test_a_stay_at_step_one_spends_the_rest_on_one_unit_depth_circuit(self, monkeypatch):
        # Step 1's stay is the closer: one depth-1 circuit tuned once, not
        # retuned after every shot like a rung's stay loop.
        self.losses(monkeypatch, lambda k: 0.5 if k == 0 else 1.0)
        trace = run(AlgorithmConfig(total_resources=256, seed=3), 1.2)
        validate_trace(trace)
        assert [s.step_index for s in trace.steps] == [1, 1, 2]
        assert {s.decision for s in trace.steps[:2]} == {"stay"}
        closer = trace.steps[2]
        assert closer.circuit.depth == 1
        assert len(trace.wall_outcome_counts) == 3
        assert trace.wall_outcome_counts[closer.circuit] == (closer.shots_used, closer.successes)
        assert trace.resources_spent == 256

    def test_step_one_fires_its_first_probe_before_checking_its_gate(self):
        # An allowance of 1 passes any gate, so step 1 stops after one shot.
        trace = run(AlgorithmConfig(total_resources=64, epsilon_exponent=0.0, seed=3), 1.2)
        validate_trace(trace)
        assert [(s.step_index, s.shots_used) for s in trace.steps[:2]] == [(1, 1), (1, 0)]

    def test_cap_and_budget_running_out_on_one_shot_keep_the_cap_hit(self, monkeypatch):
        # Step 1 spends 18 of 30; rung 2 then fires its capped 6 shots at
        # depth 2, which also spends the last of the budget.  The cap is
        # checked before the budget, so the rung still predicts (both
        # infinite, as nothing is left) and records its cap hit.
        calls = self.losses(monkeypatch, lambda k: 1.0)
        self.gate(monkeypatch, lambda depth, eps: 1e-3 if depth == 1 else -1.0, shot_cap=3)
        trace = run(AlgorithmConfig(total_resources=30, seed=3), 1.2)
        validate_trace(trace)
        assert sum(s.shots_used for s in trace.steps if s.step_index == 1) == 18
        rung = trace.steps[2]
        assert (rung.step_index, rung.circuit.depth, rung.shots_used) == (2, 2, 6)
        assert rung.cap_hit
        assert rung.decision == "exhaust"
        assert math.isinf(rung.predicted_loss_stay) and math.isinf(rung.predicted_loss_deepen)
        assert len(calls) == 2  # step 1 only; nothing is left to predict the rung with
        assert trace.resources_spent == 30

    def test_infinite_losses_exhaust_the_rung_and_keep_its_cap_hit(self, monkeypatch):
        # Step 1 deepens; the rung's gate never passes, so it stops at its
        # shot cap of 2 and both of its predictions are infinite.
        self.losses(monkeypatch, lambda k: 1.0 if k < 2 else math.inf)
        self.gate(monkeypatch, lambda depth, eps: eps if depth == 1 else -1.0, shot_cap=1)
        trace = run(AlgorithmConfig(total_resources=256, seed=3), 1.2)
        validate_trace(trace)
        rung = trace.steps[2]
        assert rung.step_index == 2
        assert rung.decision == "exhaust"
        assert rung.cap_hit
        assert rung.shots_used == 2
        assert math.isinf(rung.predicted_loss_stay) and math.isinf(rung.predicted_loss_deepen)
        assert trace.resources_spent == 256

    def test_budget_running_out_mid_gate_exhausts_without_predictions(self, monkeypatch):
        calls = self.losses(monkeypatch, lambda k: 1.0)
        self.gate(monkeypatch, lambda depth, eps: eps if depth == 1 else -1.0, shot_cap=0)
        trace = run(AlgorithmConfig(total_resources=256, seed=3), 1.2)
        validate_trace(trace)
        rungs = [s for s in trace.steps if s.circuit.depth > 1]
        assert [s.step_index for s in rungs] == [2]
        rung = rungs[-1]
        assert rung.decision == "exhaust"
        assert rung.predicted_loss_stay is None and rung.predicted_loss_deepen is None
        assert not rung.cap_hit
        assert len(calls) == 2  # step 1 only
        assert trace.resources_spent == 256

    def test_saturated_ladder_with_a_passing_gate_stays(self, monkeypatch):
        # depth_limit 2 makes rung 2 its own successor; an always-passing
        # gate and a cheaper "deepen" would otherwise loop forever.
        self.losses(monkeypatch, lambda k: 0.5 if k % 2 else 1.0)
        self.gate(monkeypatch, lambda depth, eps: 1.0, shot_cap=0)
        trace = run(AlgorithmConfig(total_resources=64, depth_limit=2, seed=3), 1.2)
        validate_trace(trace)
        rung = trace.steps[2]
        assert rung.step_index == 2
        assert rung.circuit.depth == 2
        assert rung.decision == "stay"
        assert rung.predicted_loss_deepen < rung.predicted_loss_stay
        assert [s.step_index for s in trace.steps] == [1, 1, 2, 3]
        assert trace.resources_spent == 64
