"""Adaptive phase-estimation loop with doubling depths and confidence gates.

The estimator interleaves sampling and planning.  From a flat prior on
``posterior.PRIOR_GRID_SIZE`` cells it starts with unit-depth circuits at
two phase offsets to break the mirror degeneracy of a single fringe, then
walks up a depth ladder (1, 2, 4, ...) capped by the noise-optimal depth
and a hard depth limit.  At each rung it samples until the posterior
concentrates inside a shrinking circular interval, compares the predicted
loss of staying at the current depth against deepening, and finally spends
any leftover budget on one unit-depth circuit tuned to the running estimate.

Without decay (beta = 1) both predictions look ahead over a bounded
horizon, the most the next rung's gate may spend, rather than the whole
remaining budget, and a stay below the top of the ladder lasts one
horizon's worth of shots before the rung decides again.  So a large budget
keeps climbing the ladder instead of spending itself at one shallow depth.
With decay the ladder stops at the noise-optimal depth, and a stay is
final.

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

from .angles import check_finite, signed_gap, wrapped_distance
from .model import (
    Circuit,
    NoiseModel,
    check_integer,
    check_real,
    draw_probability,
    optimal_depth,
    tuned_circuit,
    tuned_phase,
)
from .posterior import (
    PRIOR_GRID_SIZE,
    CircularInterval,
    LossKind,
    UndefinedMeanError,
    circular_mean_estimate,
    confidence,
    expected_loss,
    map_estimate,
    mass_outside,
    normalize,
    peak_cell_angle,
    predict_loss,
    retuned_factor,
    shot_likelihood,
    tail_exceeds,
    uniform_prior,
    update_shot,
    window_trig,
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

    def __post_init__(self):
        object.__setattr__(self, "depth_limit", check_integer("depth_limit", self.depth_limit, 1))
        if not 0.0 <= self.epsilon_exponent < math.inf:
            raise ValueError(f"epsilon_exponent must be finite and >= 0, got {self.epsilon_exponent}")
        if not 0.0 < self.epsilon_scale <= 1.0:
            raise ValueError(f"epsilon_scale must be in (0, 1], got {self.epsilon_scale}")
        object.__setattr__(self, "epsilon_exponent", check_real("epsilon_exponent", self.epsilon_exponent))
        object.__setattr__(self, "epsilon_scale", check_real("epsilon_scale", self.epsilon_scale))
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}")

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
        object.__setattr__(self, "total_resources", check_integer("total_resources", self.total_resources, 2))
        object.__setattr__(self, "seed", check_integer("seed", self.seed, 0))
        super().__post_init__()
        # The allowance grows with depth, so depth 1 holds the smallest.
        if not required_confidence(1, self) > 0.0:
            raise ValueError(
                f"epsilon_scale * (1 / total_resources) ** epsilon_exponent underflows to 0 at "
                f"epsilon_scale={self.epsilon_scale}, epsilon_exponent={self.epsilon_exponent}, "
                f"total_resources={self.total_resources}"
            )


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
    is how the first rung is handled.  An allowance that underflowed to 0
    raises ValueError.
    """
    if not (eps_now > 0.0 and eps_prev > 0.0):
        raise ValueError(
            f"the confidence allowance underflowed to 0 (eps_now={eps_now}, eps_prev={eps_prev}); "
            f"lower epsilon_exponent or raise epsilon_scale"
        )
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
    check_finite("theta_true", theta_true)
    rng = np.random.default_rng(config.seed)
    posterior = uniform_prior(PRIOR_GRID_SIZE)
    noise = config.noise
    kind = config.loss_kind
    budget = config.total_resources
    binomial = rng.binomial
    tallies: dict[tuple[int, float], list[int]] = {}
    steps: list[StepRecord] = []

    def sample(
        depth: int,
        phases: tuple[float, ...] | CircularInterval,
        gate: Callable[[int], bool] | None = None,
        shot_cap: int | None = None,
        mode: float | None = None,
    ) -> tuple[int, int, bool, bool]:
        """Fire depth-``depth`` circuits one shot at a time; return (shots, successes, gate_passed, cap_hit).

        ``phases`` is either a tuple of wrapped phases, fired in turn, or, for
        a stay, an interval: before every shot the phase is retuned to the
        posterior's mode within it.  Before each shot it stops if
        ``gate(shots)`` passes, then if ``shot_cap`` shots are spent, then if
        the budget cannot pay for depth.  The circuit stays two scalars,
        (depth, phase), which also key the tallies.

        What cannot change between shots is bound at the first one, whose
        update refines the grid if depth needs it; no later shot moves the
        window.  A fixed phase binds its (p0, q0), built once for the call,
        and its draw probability, and its tally is added up over the call and
        written in firing order.  A stay never repeats a phase, so it binds
        the depth's cos/sin on the window and one p0 buffer that every shot
        refills.

        A gate reads the total before every shot: its bound, ``tail_exceeds``,
        weighs single nodes against it, and its tail sum divides by it, so
        every gated shot sums.  Without a gate nothing reads the total
        between shots, so a shot skips its sum while the weight at the mode,
        the stay's retuned one or the given ``mode`` (for a call without a
        gate only), stays at or above the rescale floor, and ``normalize``
        sums the total once before the call returns.
        """
        nonlocal budget
        retuned = isinstance(phases, CircularInterval)
        envelope = noise.contrast(depth)
        shots = successes = 0
        gate_passed = cap_hit = False
        while True:
            if gate is not None and gate(shots):
                gate_passed = True
                break
            if shot_cap is not None and shots >= shot_cap:
                cap_hit = True
                break
            if budget < depth:
                break
            if retuned:
                mode = map_estimate(posterior, within=phases)
                phase = tuned_phase(depth, mode)
                if not shots:
                    trig = window_trig(posterior, depth)
                    buffer = np.empty_like(trig[0])
                outcome = int(binomial(1, draw_probability(depth, phase, envelope, theta_true)))
                update_shot(posterior, retuned_factor(trig, phase, envelope, outcome, buffer), mode)
                tally = tallies.setdefault((depth, phase), [0, 0])
                tally[0] += 1
                tally[1] += outcome
            else:
                if not shots:
                    bound = [
                        (*shot_likelihood(posterior, depth, phase, envelope),
                         draw_probability(depth, phase, envelope, theta_true))
                        for phase in phases
                    ]
                    fired = [[0, 0] for _ in phases]
                turn = shots % len(phases)
                p0, q0, probability = bound[turn]
                outcome = int(binomial(1, probability))
                update_shot(posterior, p0 if outcome else q0, mode)
                fired[turn][0] += 1
                fired[turn][1] += outcome
            budget -= depth
            shots += 1
            successes += outcome
        if shots and not retuned:
            for phase, (count, bright) in zip(phases, fired):
                if count:
                    tally = tallies.setdefault((depth, phase), [0, 0])
                    tally[0] += count
                    tally[1] += bright
        if shots and mode is not None:
            normalize(posterior)
        return shots, successes, gate_passed, cap_hit

    def decide(
        depth: int,
        deeper: int,
        interval: CircularInterval,
        tie: str,
        reached: bool,
        can_deepen: bool = True,
        horizon: int | None = None,
    ) -> tuple[str, float | None, float | None]:
        """Predict staying (tuned to the mode in the interval) and deepening (tuned to its center), then choose.

        Both branches are predicted as if min(budget, ``horizon``) were
        spent on them, or the whole budget when there is no horizon.
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
        spend = budget if horizon is None else min(budget, horizon)
        loss_stay, loss_deepen = (
            predict_loss(posterior, c, spend, noise, kind) if budget >= c.depth else math.inf
            for c in (stay, tuned_circuit(deeper, interval.center))
        )
        if math.isinf(loss_stay) and math.isinf(loss_deepen):
            decision = "exhaust"
        elif loss_stay < loss_deepen or not can_deepen:
            decision = "stay"
        else:
            decision = "deepen" if loss_deepen < loss_stay else tie
        return decision, loss_stay, loss_deepen

    def horizon(step_index: int, deeper: int) -> int | None:
        """The resources a noiseless prediction looks ahead over: the most the next rung's gate may spend.

        That is twice its shot cap at its depth ``deeper``.  Under decay there
        is none: the ladder stops at the noise-optimal depth, and a stay there
        is final, so predictions take the whole budget.
        """
        if noise.beta != 1.0:
            return None
        return 2 * deeper * max(1, max_shots_for_step(step_index + 1, config))

    probes = (0.0, np.pi / 4.0)
    n2 = next_depth(2, config)
    eps1 = required_confidence(next_depth(1, config), config)
    # Step 1's interval, of half-width pi / (2 n2) around the mode, lies within
    # the arc of half-width half1 around the mode's peak cell, since the mode
    # lies within half a cell, pi / PRIOR_GRID_SIZE, of it.
    half1 = np.pi / (2.0 * n2) + np.pi / PRIOR_GRID_SIZE

    def step_one_gate(shots: int) -> bool:
        """Whether at most eps1 of the mass lies outside the interval recentred on the global mode.

        Checked only after a probe has fired.  Depth 1 never refines, so the
        grid is the prior's whole grid, and the peak cell that
        ``map_estimate`` picks is the one of ``peak_cell_angle``.  The check
        fails first if ``tail_exceeds`` holds on the arc of half-width half1
        around that cell; only a check this bound cannot settle finds the
        mode, builds the interval and sums its tail.
        """
        if shots == 0 or tail_exceeds(posterior, peak_cell_angle(posterior), half1, eps1):
            return False
        return mass_outside(posterior, choose_center(map_estimate(posterior), None, n2, 1)) <= eps1

    # Step 1: alternate the two probes until only eps1 of the mass is left
    # outside.  Ties deepen; a stay leaves the rest to the closer below.  No
    # shot follows the last check, so the interval it read is rebuilt from
    # the posterior as sample leaves it.
    _, _, gate_passed, _ = sample(1, probes, step_one_gate)
    interval = choose_center(map_estimate(posterior), None, n2, 1)
    conf1 = confidence(posterior, interval)
    decision, loss_stay, loss_deepen = decide(1, n2, interval, "deepen", gate_passed, horizon=horizon(1, n2))
    for probe in probes:
        shots, successes = tallies.get((1, probe), (0, 0))
        steps.append(
            StepRecord(1, Circuit(1, probe), shots, successes, interval, conf1, loss_stay, loss_deepen, decision)
        )

    # Each rung samples until its gate passes or its shot cap is spent, then
    # chooses.  A tie stays, and so does a saturated ladder whose gate passed
    # without a shot, where deepening again would spin forever.  A rung that
    # stays retunes to the running mode every shot.  Below the top of a
    # noiseless ladder it stays for one horizon's worth of shots and then
    # decides again, until it deepens or the budget is spent; otherwise the
    # stay is final and spends the budget.
    step_index = 2
    while decision == "deepen":
        depth = next_depth(step_index, config)
        if budget < depth:
            break
        deeper = next_depth(step_index + 1, config)
        ahead = horizon(step_index, deeper) if deeper > depth else None
        current = choose_center(map_estimate(posterior, within=interval), interval, deeper, step_index)
        phase = tuned_phase(depth, current.center)
        eps = required_confidence(depth, config)
        cap = max_shots_for_step(step_index, config)

        def rung_gate(shots: int) -> bool:
            if tail_exceeds(posterior, current.center, current.half_width, eps):
                return False
            return mass_outside(posterior, current) <= eps

        shots, successes, gate_passed, cap_hit = sample(depth, (phase,), rung_gate, 2 * cap if cap > 0 else None)
        decision, loss_stay, loss_deepen = decide(
            depth, deeper, current, "stay", gate_passed or cap_hit, deeper > depth or shots > 0, ahead
        )
        while decision == "stay":
            more, more_successes, _, _ = sample(
                depth, current, shot_cap=None if ahead is None else max(1, ahead // depth)
            )
            shots += more
            successes += more_successes
            if budget < depth:
                break
            decision, loss_stay, loss_deepen = decide(depth, deeper, current, "stay", True, horizon=ahead)
        steps.append(
            StepRecord(
                step_index, Circuit(depth, phase), shots, successes, current, confidence(posterior, current),
                loss_stay, loss_deepen, decision, cap_hit,
            )
        )
        interval = current
        step_index += 1

    # The closer: what is left goes to one unit-depth circuit at the running estimate.
    if budget >= 1:
        target = map_estimate(posterior, within=interval)
        phase = tuned_phase(1, target)
        shots, successes, _, _ = sample(1, (phase,), mode=target)
        steps.append(
            StepRecord(
                steps[-1].step_index + 1, Circuit(1, phase), shots, successes, interval, confidence(posterior, interval)
            )
        )

    final_estimate = None
    if config.estimator == "circular-mean":
        try:
            final_estimate = circular_mean_estimate(posterior)
        except UndefinedMeanError:
            # A few unit-depth shots can cancel the resultant to rounding; the mode stands in.
            pass
    if final_estimate is None:
        final_estimate = map_estimate(posterior)
    # Each tally gives up its key as the key's Circuit is made, last fired
    # first, so the run never holds both for every circuit at once.
    circuits, counts = [], []
    while tallies:
        (depth, phase), (shots, successes) = tallies.popitem()
        circuits.append(Circuit.of_wrapped(depth, phase))
        counts.append((shots, successes))
    return AlgorithmTrace(
        config=config,
        steps=steps,
        resources_spent=config.total_resources - budget,
        final_estimate=final_estimate,
        final_expected_loss=expected_loss(posterior, final_estimate, kind),
        wall_outcome_counts=dict(zip(reversed(circuits), reversed(counts))),
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
