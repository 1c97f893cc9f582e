import dataclasses
import importlib
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpe_lab.adaptive as adaptive
import qpe_lab.posterior as posterior_module
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
from qpe_lab.harness import fit_loglog_slope
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
            {"epsilon_exponent": math.nan},
            {"epsilon_exponent": math.inf},
            {"epsilon_scale": 0.0},
            {"epsilon_scale": 1.5},
            {"estimator": "mode"},
            # (1/100)**200 underflows to 0, and the Chernoff budget would divide by it.
            {"epsilon_exponent": 200.0},
            {"epsilon_scale": 1e-300, "epsilon_exponent": 20.0},
            {"seed": -1},
            {"seed": 1.5},
            {"total_resources": 100.5},
            {"depth_limit": 8.5},
            {"depth_limit": 8.0},
            {"epsilon_scale": True},
            {"epsilon_exponent": np.True_},
        ],
    )
    def test_invalid_fields(self, kwargs):
        with pytest.raises(ValueError):
            AlgorithmConfig(**{"total_resources": 100, **kwargs})

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"total_resources": 100.5}, "total_resources must be an integer, got 100.5"),
            ({"depth_limit": 8.5}, "depth_limit must be an integer, got 8.5"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
        ],
    )
    def test_a_malformed_count_is_named(self, kwargs, message):
        with pytest.raises(ValueError) as raised:
            AlgorithmConfig(**{"total_resources": 100, **kwargs})
        assert str(raised.value) == message

    def test_numpy_float_schedule_knobs_are_their_floats(self):
        settings = RunSettings(epsilon_exponent=np.float32(2.0), epsilon_scale=np.float64(0.5))
        assert type(settings.epsilon_exponent) is float and type(settings.epsilon_scale) is float
        assert settings == RunSettings(epsilon_exponent=2.0, epsilon_scale=0.5)

    def test_a_numpy_integer_depth_limit_is_its_int(self):
        # The baselines take the bit length of the limit, which numpy integers lack.
        settings = RunSettings(depth_limit=np.int64(16))
        assert type(settings.depth_limit) is int and settings == RunSettings(depth_limit=16)


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

    @pytest.mark.parametrize("eps_now, eps_prev", [(0.0, 2.0), (1e-6, 0.0)])
    def test_an_allowance_that_underflowed_is_named(self, eps_now, eps_prev):
        with pytest.raises(ValueError, match="underflowed to 0"):
            chernoff_shot_budget(eps_now, eps_prev, 1, NoiseModel())


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

    def test_circular_mean_falls_back_to_the_map_when_undefined(self):
        # Four unit-depth shots leave a resultant of 2.2e-17, which defines no circular mean.
        config = AlgorithmConfig(
            total_resources=4, seed=129, noise=NoiseModel(beta=0.6), depth_limit=1, estimator="circular-mean"
        )
        trace = run(config, 4.564017842540894)
        validate_trace(trace)
        # The estimator is read only at the end, so the MAP run fires the same shots.
        map_trace = run(dataclasses.replace(config, estimator="map"), 4.564017842540894)
        assert trace.final_estimate == map_trace.final_estimate
        assert trace.final_expected_loss == map_trace.final_expected_loss

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
        """Make predict_loss return ``values(call_number)``, counting from 0; record each (depth, budget) given."""
        calls = []

        def fake(posterior, circuit, budget, noise, kind):
            calls.append((circuit.depth, budget))
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

    def test_a_noiseless_stay_decides_again_after_one_horizon(self, monkeypatch):
        # Step 1 deepens; rung 2 stays once, then deepens at its next choice.
        # Every later choice stays, so rung 3 re-decides until the budget is spent.
        pairs = [(1.0, 0.5), (0.5, 1.0), (1.0, 0.25)]
        given = self.losses(monkeypatch, lambda k: pairs[k // 2][k % 2] if k < 6 else (0.5, 1.0)[k % 2])
        config = AlgorithmConfig(total_resources=4096, seed=3)
        trace = run(config, 1.2)
        validate_trace(trace)
        step_one_horizon = 2 * 2 * max(1, max_shots_for_step(2, config))
        rung_horizon = 2 * 4 * max(1, max_shots_for_step(3, config))
        assert given[0][1] == given[1][1] == step_one_horizon
        assert [budget for _, budget in given[2:6]] == [rung_horizon] * 4
        rung = trace.steps[2]
        assert (rung.step_index, rung.circuit.depth, rung.decision) == (2, 2, "deepen")
        assert (rung.predicted_loss_stay, rung.predicted_loss_deepen) == (1.0, 0.25)
        stay_shots = sum(s for c, (s, _) in trace.wall_outcome_counts.items() if c.depth == 2 and c != rung.circuit)
        assert stay_shots == rung_horizon // 2
        assert rung.shots_used == trace.wall_outcome_counts[rung.circuit][0] + stay_shots
        last = trace.steps[3]
        assert (last.step_index, last.circuit.depth, last.decision) == (3, 4, "stay")
        assert len(given) > 8  # rung 3 decided more than once
        assert trace.resources_spent == 4096

    def test_a_stay_under_decay_is_final_and_predicts_with_the_whole_budget(self, monkeypatch):
        pairs = [(1.0, 0.5), (0.5, 1.0)]
        given = self.losses(monkeypatch, lambda k: pairs[k // 2][k % 2] if k < 4 else 0.0)
        config = AlgorithmConfig(total_resources=4096, seed=3, noise=NoiseModel(1.0, 0.99))
        trace = run(config, 1.2)
        validate_trace(trace)
        assert len(given) == 4
        spent_before_rung = sum(s.shots_used for s in trace.steps[:2])
        assert given[0][1] == given[1][1] == 4096 - spent_before_rung
        rung = trace.steps[2]
        assert (rung.step_index, rung.decision) == (2, "stay")
        assert [s.step_index for s in trace.steps] == [1, 1, 2, 3]
        assert trace.resources_spent == 4096


def golden_phase(seed: int) -> float:
    """theta_s = 2*pi*frac(0.618034*s), the phase of seed s in the large-budget checks."""
    return 2.0 * math.pi * ((0.618034 * seed) % 1.0)


class TestLargeBudgets:
    """Heisenberg scaling past the acceptance ladder, noiseless, 40 seeds per budget.

    A loop whose stays spend the rest of a large budget at one shallow depth
    reads a median error x N of about 57 and a mean N^2*MSE near 2*10^4 at
    N = 2^18, with a deepest depth that falls as N grows.  A loop that keeps
    climbing reads about 10 and 260 there.
    """

    BUDGETS = (1 << 14, 1 << 16, 1 << 18)
    SEEDS = 40

    @pytest.fixture(scope="class")
    def by_budget(self):
        """N -> (absolute errors, deepest depths) over the seeds."""
        results = {}
        for n_tot in self.BUDGETS:
            errors, depths = [], []
            for seed in range(self.SEEDS):
                theta = golden_phase(seed)
                trace = run(AlgorithmConfig(total_resources=n_tot, seed=seed), theta)
                errors.append(float(wrapped_distance(trace.final_estimate, theta)))
                depths.append(trace.max_depth_used)
            results[n_tot] = (np.array(errors), depths)
        return results

    def test_median_error_times_n_is_bounded(self, by_budget):
        for n_tot, (errors, _) in by_budget.items():
            assert np.median(errors) * n_tot <= 20.0, n_tot

    def test_mean_squared_error_times_n_squared_is_bounded(self, by_budget):
        for n_tot, (errors, _) in by_budget.items():
            assert np.mean(errors**2) * n_tot**2 <= 600.0, n_tot

    def test_median_deepest_depth_grows_with_the_budget(self, by_budget):
        medians = [np.median(depths) for _, depths in by_budget.values()]
        assert all(a < b for a, b in zip(medians, medians[1:])), medians

    @pytest.mark.parametrize("statistic", [np.median, np.mean])
    def test_squared_error_slope_is_heisenberg_like(self, by_budget, statistic):
        points = [(n_tot, float(statistic(errors**2))) for n_tot, (errors, _) in by_budget.items()]
        slope, _, _ = fit_loglog_slope(points)
        assert slope <= -1.6, points


class TestStepOneDeepens:
    """Step 1 predicts over a bounded horizon, so it deepens however large the budget.

    Predicting with the whole budget let step 1 stay at N >= 2^22.  A
    step-1 stay leaves the whole budget to one unit-depth circuit.
    """

    class StepOneChosen(Exception):
        pass

    @staticmethod
    def step_one_losses(monkeypatch, config: AlgorithmConfig) -> list[float]:
        """Step 1's (stay, deepen) predicted losses; the run stops once both are made."""
        losses = []
        real = adaptive.predict_loss

        def predict_and_stop(*args):
            losses.append(real(*args))
            if len(losses) == 2:
                raise TestStepOneDeepens.StepOneChosen
            return losses[-1]

        monkeypatch.setattr(adaptive, "predict_loss", predict_and_stop)
        with pytest.raises(TestStepOneDeepens.StepOneChosen):
            run(config, golden_phase(config.seed))
        return losses

    @pytest.mark.parametrize("n_tot", [1 << 22, 1 << 24, 1 << 26])
    def test_step_one_deepens(self, monkeypatch, n_tot):
        stays = []
        for seed in range(8):
            config = AlgorithmConfig(total_resources=n_tot, seed=seed)
            loss_stay, loss_deepen = self.step_one_losses(monkeypatch, config)
            if loss_deepen > loss_stay:
                stays.append(seed)
        assert stays == []


class TestSkippedSums:
    @pytest.mark.parametrize("beta, seed", [(1.0, 4), (0.9, 0), (0.9, 1)])
    def test_every_reader_of_the_total_sees_the_sum_of_the_weights(self, monkeypatch, beta, seed):
        # Stays and the closer skip per-shot sums; each call that reads the
        # total must still find it equal to the sum of the weights.
        events = []

        def checking(name, real):
            def call(posterior, *args, **kwargs):
                assert posterior.total == float(np.add.reduce(posterior.weights)), name
                events.append(name)
                return real(posterior, *args, **kwargs)
            return call

        for name in ("predict_loss", "confidence", "expected_loss", "mass_outside"):
            monkeypatch.setattr(adaptive, name, checking(name, getattr(adaptive, name)))
        real_normalize = posterior_module.normalize

        def normalize(posterior):
            if float(np.add.reduce(posterior.weights)) < posterior_module.RESCALE_FLOOR:
                events.append("rescale")
            return real_normalize(posterior)

        monkeypatch.setattr(posterior_module, "normalize", normalize)
        trace = run(AlgorithmConfig(total_resources=4096, seed=seed, noise=NoiseModel(1.0, beta)), golden_phase(seed))
        last_rung = [step for step in trace.steps if step.predicted_loss_stay is not None][-1]
        last_choice = len(events) - events[::-1].index("predict_loss")
        assert last_rung.decision == "stay" and "rescale" in events[last_choice:], "the final stay rescales"
        assert {"confidence", "expected_loss", "mass_outside"} <= set(events)


class TestBenchmarkTracer:
    def test_the_traced_benchmark_run_finds_every_function_it_patches(self, monkeypatch):
        # perfbench/layers.py patches each traced function under the name its
        # callers look up, and raises LookupError when no module has it, so a
        # rename on the shot path would break the benchmark's traced runs.
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
        layers = importlib.import_module("layers")
        tracer = layers.make_tracer(layers.Counters())
        with tracer:
            adaptive.run(AlgorithmConfig(total_resources=256, seed=1, noise=NoiseModel(1.0, 0.9)), 1.0)
        assert adaptive.run is run, "the tracer restores what it patched"
        assert tracer.stats["adaptive.run"].calls == 1
        for name in ("posterior.mass_outside", "posterior.confidence", "posterior.predict_loss"):
            assert tracer.stats[name].calls > 0, name


class TestGateBound:
    @staticmethod
    def runs():
        """About 200 seeded runs: beta in {1, 0.99, 0.9}, budgets 8 .. 2^14, fewer seeds at larger budgets."""
        for beta in (1.0, 0.99, 0.9):
            for exponent in range(3, 15):
                for seed in range(8 if exponent <= 8 else 3):
                    yield AlgorithmConfig(total_resources=1 << exponent, seed=seed, noise=NoiseModel(1.0, beta))

    def test_the_bound_leaves_every_trace_as_the_direct_sum_gives_it(self, monkeypatch):
        # The bound only skips tail sums it proves would fail the gate, so a
        # loop whose bound never fires must give the same traces, field by field.
        configs = list(self.runs())
        assert 180 <= len(configs) <= 220
        bounded = [run(config, golden_phase(config.seed)) for config in configs]
        monkeypatch.setattr(adaptive, "tail_exceeds", lambda posterior, center, half_width, allowance: False)
        died_in_step_one = 0
        for config, fast in zip(configs, bounded):
            slow = run(config, golden_phase(config.seed))
            for field in dataclasses.fields(slow):
                assert getattr(fast, field.name) == getattr(slow, field.name), (config, field.name)
            assert list(fast.wall_outcome_counts) == list(slow.wall_outcome_counts)
            died_in_step_one += slow.steps[0].decision == "exhaust" and slow.steps[0].predicted_loss_stay is None
        assert died_in_step_one > 0, "some budgets die mid-gate at step 1"

    def test_the_bound_settles_most_of_step_ones_checks(self, monkeypatch):
        # Step 1's interval has half-width pi / (2 n2); the rungs' are narrower.
        config = AlgorithmConfig(total_resources=4096, seed=3, noise=NoiseModel(1.0, 0.9))
        step_one = math.pi / (2 * next_depth(2, config))
        sums = []
        real = adaptive.mass_outside

        def counting(posterior, interval):
            sums.append(interval.half_width == step_one)
            return real(posterior, interval)

        monkeypatch.setattr(adaptive, "mass_outside", counting)
        trace = run(config, golden_phase(3))
        checks = sum(step.shots_used for step in trace.steps if step.step_index == 1)
        assert checks > 20
        assert 0 < sum(sums) < checks / 2
