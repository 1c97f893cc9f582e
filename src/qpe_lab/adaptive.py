"""Adaptive phase-estimation loop with doubling depths and confidence gates.

The estimator interleaves sampling and planning.  It starts with unit-depth
circuits at two phase offsets to break the mirror degeneracy of a single
fringe, then walks up a depth ladder (1, 2, 4, ...) capped by the
noise-optimal depth and a hard depth limit.  At each rung it samples until
the posterior concentrates inside a shrinking circular interval, compares
the predicted loss of staying at the current depth against deepening, and
finally spends any leftover budget on one unit-depth circuit tuned to the
running estimate.

Inside ``run`` every circuit goes through one shot loop, ``sample``, which
checks a gate, a shot cap and the budget before each shot, and every
stay/deepen/exhaust choice goes through one rule, ``decide``.  Step 1, each
rung, a rung's stay and the closing unit-depth circuit are calls of these two.

Resource accounting is exact: every shot of a depth-n circuit costs n from
the budget, and a circuit is never fired when the remaining budget cannot
pay for it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .angles import signed_gap, wrapped_distance
from .model import Circuit, MeasurementRecord, NoiseModel, optimal_depth, sample_outcome, tuned_circuit
from .posterior import (
    CircularInterval,
    GridPosterior,
    LossKind,
    check_grid_size,
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
# How far, in radians, an interval may reach past its predecessor by rounding alone.
NESTING_TOLERANCE = 1e-12


class InfeasibleIntervalError(ValueError):
    """Raised when a requested interval cannot nest inside its predecessor."""


@dataclass(frozen=True, kw_only=True)
class RunSettings:
    """Settings an adaptive run and a sweep share; keyword-only, so subclasses list their own fields first."""

    noise: NoiseModel = NoiseModel()
    depth_limit: int = 1 << 20
    epsilon_exponent: float = 3.0
    epsilon_scale: float = 1.0
    loss_kind: LossKind = LossKind.ABSOLUTE
    estimator: str = "map"
    grid_size: int = 4096

    def __post_init__(self):
        if self.depth_limit < 1:
            raise ValueError(f"depth_limit must be >= 1, got {self.depth_limit}")
        if self.epsilon_exponent < 0:
            raise ValueError(f"epsilon_exponent must be >= 0, got {self.epsilon_exponent}")
        if not 0.0 < self.epsilon_scale <= 1.0:
            raise ValueError(f"epsilon_scale must be in (0, 1], got {self.epsilon_scale}")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}")
        check_grid_size(self.grid_size)

    @property
    def depth_cap(self) -> int:
        """The top of the depth ladder: the noise-optimal depth within the depth limit."""
        return optimal_depth(self.noise, self.depth_limit)


@dataclass(frozen=True)
class AlgorithmConfig(RunSettings):
    """Tunable knobs for one adaptive estimation run."""

    total_resources: int
    seed: int = 0

    def __post_init__(self):
        if self.total_resources < 2:
            raise ValueError(f"total_resources must be >= 2, got {self.total_resources}")
        super().__post_init__()


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
    cap = config.depth_cap
    return min(1 << min(step_index - 1, cap.bit_length()), cap)


def choose_center(
    estimate: float,
    previous: CircularInterval | None,
    next_depth: int,
    step_index: int,
) -> CircularInterval:
    """The interval checked before depth ``next_depth``: half-width pi / (2 * next_depth).

    Its center is the estimate, clamped so the interval nests in the
    previous one.  The first step is exempt: its interval may sit anywhere
    on the circle, including across the 0/2*pi seam.
    """
    half_width = np.pi / (2.0 * next_depth)
    if step_index == 1 or previous is None:
        return CircularInterval(estimate, half_width)
    if half_width > previous.half_width + NESTING_TOLERANCE:
        raise InfeasibleIntervalError(
            f"half-width {half_width:.6f} cannot nest inside {previous.half_width:.6f}"
        )
    slack = previous.half_width - half_width
    gap = float(signed_gap(estimate, previous.center))
    return CircularInterval(previous.center + min(max(gap, -slack), slack), half_width)


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


def run(config: AlgorithmConfig, theta_true: float) -> AlgorithmTrace:
    """Execute one adaptive estimation and return its full trace."""
    rng = np.random.default_rng(config.seed)
    posterior = uniform_prior(config.grid_size)
    noise = config.noise
    kind = config.loss_kind
    budget = config.total_resources
    tallies: dict[Circuit, list[int]] = {}
    steps: list[StepRecord] = []

    def sample(
        depth: int,
        circuit_for: Callable[[int], Circuit],
        gate: Callable[[int], bool] = lambda shots: False,
        shot_cap: int | None = None,
    ) -> tuple[int, int, bool, bool]:
        """Fire ``circuit_for(shots)`` one shot at a time; return (shots, successes, gate_passed, cap_hit).

        Before each shot it stops if ``gate(shots)`` passes, then if
        ``shot_cap`` shots are spent, then if the budget cannot pay for depth.
        """
        nonlocal budget
        shots = successes = 0
        while True:
            if gate(shots):
                return shots, successes, True, False
            if shot_cap is not None and shots >= shot_cap:
                return shots, successes, False, True
            if budget < depth:
                return shots, successes, False, False
            circuit = circuit_for(shots)
            outcome = sample_outcome(circuit, 1, theta_true, noise, rng)
            update(posterior, MeasurementRecord(circuit, 1, outcome), noise)
            budget -= depth
            tally = tallies.setdefault(circuit, [0, 0])
            tally[0] += 1
            tally[1] += outcome
            shots += 1
            successes += outcome

    def decide(
        depth: int, deeper: int, interval: CircularInterval, tie: str, reached: bool, can_deepen: bool = True
    ) -> tuple[str, float | None, float | None]:
        """Predict staying (tuned to the mode in the interval) and deepening (tuned to its center), then choose.

        Returns (decision, loss_stay, loss_deepen).  A phase that did not
        reach its choice (the budget died mid-gate) predicts nothing and
        exhausts.  A circuit the budget cannot pay for once predicts an
        infinite loss; two of them exhaust.  Otherwise the cheaper branch
        wins and ``tie`` settles equal losses, but a rung that cannot
        deepen stays.
        """
        if not reached:
            return "exhaust", None, None
        stay = tuned_circuit(depth, map_estimate(posterior, within=interval))
        loss_stay, loss_deepen = (
            predict_loss(posterior, c, budget, noise, kind) if budget >= c.depth else math.inf
            for c in (stay, tuned_circuit(deeper, interval.center))
        )
        if math.isinf(loss_stay) and math.isinf(loss_deepen):
            decision = "exhaust"
        elif loss_stay < loss_deepen or not can_deepen:
            decision = "stay"
        else:
            decision = "deepen" if loss_deepen < loss_stay else tie
        return decision, loss_stay, loss_deepen

    probes = (Circuit(1, 0.0), Circuit(1, np.pi / 4.0))
    n2 = next_depth(2, config)
    eps1 = required_confidence(next_depth(1, config), config)
    interval = None

    def step_one_gate(shots: int) -> bool:
        # Checked only after a probe has fired, on an interval recentred on the global mode.
        nonlocal interval
        if shots == 0:
            return False
        interval = choose_center(map_estimate(posterior), None, n2, 1)
        return mass_outside(posterior, interval) <= eps1

    # Step 1: alternate the two probes until only eps1 of the mass is left
    # outside.  Ties deepen; a stay leaves the rest to the closer below.
    _, _, gate_passed, _ = sample(1, lambda shots: probes[shots % 2], step_one_gate)
    conf1 = confidence(posterior, interval)
    decision, loss_stay, loss_deepen = decide(1, n2, interval, "deepen", gate_passed)
    for probe in probes:
        shots, successes = tallies.get(probe, (0, 0))
        steps.append(StepRecord(1, probe, shots, successes, interval, conf1, loss_stay, loss_deepen, decision))

    # Each rung samples until its gate passes or its shot cap is spent, then
    # chooses.  A tie stays, and so does a saturated ladder whose gate passed
    # without a shot, where deepening again would spin forever.  A rung that
    # stays retunes to the running mode every shot until the budget is spent.
    step_index = 2
    while decision == "deepen":
        depth = next_depth(step_index, config)
        if budget < depth:
            break
        deeper = next_depth(step_index + 1, config)
        current = choose_center(map_estimate(posterior, within=interval), interval, deeper, step_index)
        circuit = tuned_circuit(depth, current.center)
        eps = required_confidence(depth, config)
        cap = max_shots_for_step(step_index, config)
        shots, successes, gate_passed, cap_hit = sample(
            depth,
            lambda shots: circuit,
            lambda shots: mass_outside(posterior, current) <= eps,
            2 * cap if cap > 0 else None,
        )
        decision, loss_stay, loss_deepen = decide(
            depth, deeper, current, "stay", gate_passed or cap_hit, deeper > depth or shots > 0
        )
        if decision == "stay":
            more, more_successes, _, _ = sample(
                depth, lambda shots: tuned_circuit(depth, map_estimate(posterior, within=current))
            )
            shots += more
            successes += more_successes
        steps.append(
            StepRecord(
                step_index, circuit, shots, successes, current, confidence(posterior, current),
                loss_stay, loss_deepen, decision, cap_hit,
            )
        )
        interval = current
        step_index += 1

    # The closer: what is left goes to one unit-depth circuit at the running estimate.
    if budget >= 1:
        closer = tuned_circuit(1, map_estimate(posterior, within=interval))
        shots, successes, _, _ = sample(1, lambda shots: closer)
        steps.append(
            StepRecord(steps[-1].step_index + 1, closer, shots, successes, interval, confidence(posterior, interval))
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
        if gap + curr.interval.half_width > prev.interval.half_width + NESTING_TOLERANCE:
            raise ValueError(
                f"interval at step {curr.step_index} escapes its predecessor by "
                f"{gap + curr.interval.half_width - prev.interval.half_width:.3e}"
            )
