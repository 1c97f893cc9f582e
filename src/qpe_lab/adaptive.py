"""Adaptive phase-estimation loop with doubling depths and confidence gates.

The estimator interleaves sampling and planning.  It starts with unit-depth
circuits at two phase offsets to break the mirror degeneracy of a single
fringe, then walks up a depth ladder (1, 2, 4, ...) capped by the
noise-optimal depth and a hard depth limit.  At each rung it samples until
the posterior concentrates inside a shrinking circular interval, compares
the predicted loss of staying at the current depth against deepening, and
finally dumps any leftover budget into unit-depth circuits tuned to the
running estimate.

Resource accounting is exact: every shot of a depth-n circuit costs n from
the budget, and a circuit is never fired when the remaining budget cannot
pay for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .angles import signed_gap, wrap_float, wrapped_distance
from .model import Circuit, MeasurementRecord, NoiseModel, optimal_depth, sample_outcome
from .posterior import (
    CircularInterval,
    GridPosterior,
    InsufficientResourcesError,
    LossKind,
    circular_mean_estimate,
    confidence,
    expected_loss,
    map_estimate,
    mass_outside,
    predict_loss,
    uniform_prior,
    update,
)

ESTIMATORS = ("map", "circular-mean")


class InfeasibleIntervalError(ValueError):
    """Raised when a requested interval cannot nest inside its predecessor."""


@dataclass(frozen=True)
class AlgorithmConfig:
    """Tunable knobs for one adaptive estimation run."""

    total_resources: int
    noise: NoiseModel = NoiseModel()
    depth_limit: int = 1 << 20
    epsilon_exponent: float = 3.0
    epsilon_scale: float = 1.0
    loss_kind: LossKind = LossKind.ABSOLUTE
    estimator: str = "map"
    grid_size: int = 4096
    seed: int = 0

    def __post_init__(self):
        if self.total_resources < 2:
            raise ValueError(f"total_resources must be >= 2, got {self.total_resources}")
        if self.depth_limit < 1:
            raise ValueError(f"depth_limit must be >= 1, got {self.depth_limit}")
        if self.epsilon_exponent < 0:
            raise ValueError(f"epsilon_exponent must be >= 0, got {self.epsilon_exponent}")
        if not 0.0 < self.epsilon_scale <= 1.0:
            raise ValueError(f"epsilon_scale must be in (0, 1], got {self.epsilon_scale}")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}")


@dataclass(frozen=True)
class StepRecord:
    """Audit entry for one sampling phase of the loop."""

    step_index: int
    circuit: Circuit
    shots_used: int
    successes: int
    interval: CircularInterval
    confidence_reached: float
    predicted_loss_stay: float | None = None
    predicted_loss_deepen: float | None = None
    decision: str = "exhaust"
    cap_hit: bool = False


@dataclass
class AlgorithmTrace:
    """Everything one run did: steps, tallies, and the final answer."""

    config: AlgorithmConfig
    steps: list[StepRecord]
    resources_spent: int
    final_estimate: float
    final_expected_loss: float
    wall_outcome_counts: dict[Circuit, tuple[int, int]]

    @property
    def max_depth_used(self) -> int:
        if not self.wall_outcome_counts:
            return 0
        return max(c.depth for c in self.wall_outcome_counts)


def required_confidence(depth: int, config: AlgorithmConfig) -> float:
    """Allowed posterior mass outside the interval at this depth.

    Shallow circuits may only leave a sliver outside (they anchor every
    later rung); the allowance grows like (depth / total)**p up to 1.
    """
    ratio = depth / config.total_resources
    return min(1.0, config.epsilon_scale * ratio**config.epsilon_exponent)


def next_depth(step_index: int, config: AlgorithmConfig) -> int:
    """Ladder depth at a 1-based step: min(2**(i-1), optimal, limit)."""
    if step_index < 1:
        raise ValueError(f"step_index must be >= 1, got {step_index}")
    cap = optimal_depth(config.noise, config.depth_limit)
    doubling = 1 << (step_index - 1) if step_index - 1 < cap.bit_length() + 1 else cap
    return min(doubling, cap)


def choose_center(
    estimate: float,
    previous: CircularInterval | None,
    next_depth: int,
    step_index: int,
) -> float:
    """Center for the next interval, clamped so it nests in the previous.

    The first step is exempt: its interval may sit anywhere on the circle,
    including across the 0/2*pi seam.
    """
    if step_index == 1 or previous is None:
        return wrap_float(estimate)
    new_half_width = np.pi / (2.0 * next_depth)
    if new_half_width > previous.half_width + 1e-12:
        raise InfeasibleIntervalError(
            f"half-width {new_half_width:.6f} cannot nest inside {previous.half_width:.6f}"
        )
    slack = previous.half_width - new_half_width
    gap = float(signed_gap(estimate, previous.center))
    return wrap_float(previous.center + min(max(gap, -slack), slack))


def chernoff_shot_budget(eps_now: float, eps_prev: float, depth: int, noise: NoiseModel) -> float:
    """Raw Chernoff shot count for one gated rung (may be <= 0).

    Passing eps_prev = 2 disables the credit for the previous rung, which
    is how the first rung is handled.
    """
    bracket = math.log(2.0 / eps_now) - 0.25 * math.log(2.0 / eps_prev)
    scale = 32.0 / (math.pi**2 * noise.alpha**2 * noise.beta ** (2 * depth))
    return scale * bracket


def max_shots_for_step(step_index: int, config: AlgorithmConfig) -> int:
    """Ceiling of the Chernoff shot count for this rung; 0 disables the cap."""
    if step_index < 2:
        raise ValueError(f"step_index must be >= 2, got {step_index}")
    depth = next_depth(step_index, config)
    prev = next_depth(step_index - 1, config)
    raw = chernoff_shot_budget(
        required_confidence(depth, config),
        required_confidence(prev, config),
        depth,
        config.noise,
    )
    if raw <= 0.0:
        return 0
    return int(math.ceil(raw))


def _tuned_phase(depth: int, target: float) -> float:
    """Phase putting ``target`` on the steepest point of the depth-n fringe."""
    return wrap_float(np.pi / 2.0 - depth * target)


def run(config: AlgorithmConfig, theta_true: float) -> AlgorithmTrace:
    """Execute one adaptive estimation and return its full trace."""
    rng = np.random.default_rng(config.seed)
    posterior = uniform_prior(config.grid_size)
    noise = config.noise
    kind = config.loss_kind
    budget = config.total_resources
    tallies: dict[Circuit, list[int]] = {}
    steps: list[StepRecord] = []

    def fire(circuit: Circuit) -> int:
        nonlocal budget
        outcome = sample_outcome(circuit, 1, theta_true, noise, rng)
        update(posterior, MeasurementRecord(circuit, 1, outcome), noise)
        budget -= circuit.depth
        tally = tallies.setdefault(circuit, [0, 0])
        tally[0] += 1
        tally[1] += outcome
        return outcome

    def predicted(circuit: Circuit) -> float:
        if budget < circuit.depth:
            return math.inf
        try:
            return predict_loss(posterior, circuit, budget, noise, kind)
        except InsufficientResourcesError:
            return math.inf

    probe_a = Circuit(1, 0.0)
    probe_b = Circuit(1, np.pi / 4.0)
    n2 = next_depth(2, config)
    eps1 = required_confidence(next_depth(1, config), config)
    half_width_1 = np.pi / (2.0 * n2)

    # Step 1: alternate the two probes, recentering the candidate interval
    # on the running mode, until only eps1 of the mass is left outside.
    interval = None
    gate_passed = False
    toggle = 0
    while budget >= 1:
        fire(probe_a if toggle % 2 == 0 else probe_b)
        toggle += 1
        center = choose_center(map_estimate(posterior), None, n2, 1)
        interval = CircularInterval(center, half_width_1)
        if mass_outside(posterior, interval) <= eps1:
            gate_passed = True
            break

    conf1 = confidence(posterior, interval)
    loss_stay = loss_deepen = None
    decision = "exhaust"
    if gate_passed:
        estimate = map_estimate(posterior, within=interval)
        loss_stay = predicted(Circuit(1, _tuned_phase(1, estimate)))
        loss_deepen = predicted(Circuit(n2, _tuned_phase(n2, interval.center)))
        if math.isinf(loss_stay) and math.isinf(loss_deepen):
            decision = "exhaust"
        elif loss_stay < loss_deepen:
            decision = "stay"
        else:
            decision = "deepen"
    for probe in (probe_a, probe_b):
        shots, successes = tallies.get(probe, (0, 0))
        steps.append(
            StepRecord(
                step_index=1,
                circuit=probe,
                shots_used=shots,
                successes=successes,
                interval=interval,
                confidence_reached=conf1,
                predicted_loss_stay=loss_stay,
                predicted_loss_deepen=loss_deepen,
                decision=decision,
            )
        )

    # Step 5 loop: gated sampling at each rung, then a stay/deepen choice.
    step_index = 2
    if decision == "deepen":
        while True:
            depth = next_depth(step_index, config)
            if budget < depth:
                break
            deeper = next_depth(step_index + 1, config)
            estimate = map_estimate(posterior, within=interval)
            center = choose_center(estimate, interval, deeper, step_index)
            current = CircularInterval(center, np.pi / (2.0 * deeper))
            circuit = Circuit(depth, _tuned_phase(depth, center))
            eps = required_confidence(depth, config)
            cap = max_shots_for_step(step_index, config)
            shot_cap = 2 * cap if cap > 0 else None

            shots_used = 0
            successes = 0
            gate_passed = False
            cap_hit = False
            while True:
                if mass_outside(posterior, current) <= eps:
                    gate_passed = True
                    break
                if shot_cap is not None and shots_used >= shot_cap:
                    cap_hit = True
                    break
                if budget < depth:
                    break
                successes += fire(circuit)
                shots_used += 1

            if not (gate_passed or cap_hit):
                # Budget died mid-gate; log the partial rung and fall out.
                steps.append(
                    StepRecord(
                        step_index,
                        circuit,
                        shots_used,
                        successes,
                        current,
                        confidence(posterior, current),
                    )
                )
                interval = current
                break

            estimate = map_estimate(posterior, within=current)
            loss_stay = predicted(Circuit(depth, _tuned_phase(depth, estimate)))
            loss_deepen = predicted(Circuit(deeper, _tuned_phase(deeper, center)))
            if math.isinf(loss_stay) and math.isinf(loss_deepen):
                steps.append(
                    StepRecord(
                        step_index,
                        circuit,
                        shots_used,
                        successes,
                        current,
                        confidence(posterior, current),
                        loss_stay,
                        loss_deepen,
                        "exhaust",
                        cap_hit,
                    )
                )
                interval = current
                break

            deepen = loss_deepen < loss_stay
            if deepen and deeper == depth and shots_used == 0:
                # A saturated ladder with an already-passing gate spends
                # nothing; deepening again would spin forever.
                deepen = False
            if deepen:
                steps.append(
                    StepRecord(
                        step_index,
                        circuit,
                        shots_used,
                        successes,
                        current,
                        confidence(posterior, current),
                        loss_stay,
                        loss_deepen,
                        "deepen",
                        cap_hit,
                    )
                )
                interval = current
                step_index += 1
                continue

            # Stay: retune to the running mode after every execution and
            # spend whatever still pays for this depth.
            while budget >= depth:
                retuned = Circuit(depth, _tuned_phase(depth, map_estimate(posterior, within=current)))
                successes += fire(retuned)
                shots_used += 1
            steps.append(
                StepRecord(
                    step_index,
                    circuit,
                    shots_used,
                    successes,
                    current,
                    confidence(posterior, current),
                    loss_stay,
                    loss_deepen,
                    "stay",
                    cap_hit,
                )
            )
            interval = current
            break

    # Step 6: remainder goes to unit-depth circuits at the running estimate.
    if budget >= 1:
        estimate = map_estimate(posterior, within=interval)
        closer = Circuit(1, _tuned_phase(1, estimate))
        shots_used = 0
        successes = 0
        while budget >= 1:
            successes += fire(closer)
            shots_used += 1
        steps.append(
            StepRecord(
                steps[-1].step_index + 1,
                closer,
                shots_used,
                successes,
                interval,
                confidence(posterior, interval),
            )
        )

    if config.estimator == "map":
        final_estimate = map_estimate(posterior)
    else:
        final_estimate = circular_mean_estimate(posterior)
    return AlgorithmTrace(
        config=config,
        steps=steps,
        resources_spent=config.total_resources - budget,
        final_estimate=final_estimate,
        final_expected_loss=expected_loss(posterior, final_estimate, kind),
        wall_outcome_counts={c: (s, x) for c, (s, x) in tallies.items()},
    )


def validate_trace(trace: AlgorithmTrace) -> None:
    """Check the hard bookkeeping invariants of a finished trace.

    Raises ValueError on any violation: overspent budget, tallies that do
    not add up, or an interval escaping its predecessor.
    """
    total = trace.config.total_resources
    if trace.resources_spent > total:
        raise ValueError(f"spent {trace.resources_spent} of a budget of {total}")
    from_tallies = sum(c.depth * s for c, (s, _) in trace.wall_outcome_counts.items())
    if from_tallies != trace.resources_spent:
        raise ValueError(
            f"tallies account for {from_tallies}, trace claims {trace.resources_spent}"
        )
    step_shots = sum(s.shots_used for s in trace.steps)
    tally_shots = sum(s for _, (s, _) in trace.wall_outcome_counts.items())
    if step_shots != tally_shots:
        raise ValueError(f"steps log {step_shots} shots, tallies log {tally_shots}")
    for prev, curr in zip(trace.steps, trace.steps[1:]):
        if curr.step_index <= 1 or curr.step_index == prev.step_index:
            continue
        gap = float(wrapped_distance(curr.interval.center, prev.interval.center))
        if gap + curr.interval.half_width > prev.interval.half_width + 1e-9:
            raise ValueError(
                f"interval at step {curr.step_index} escapes its predecessor by "
                f"{gap + curr.interval.half_width - prev.interval.half_width:.3e}"
            )
