"""Reference strategies and analytic error envelopes.

Three runnable baselines bracket the adaptive loop: the textbook
phase-estimation register (noiseless only), a non-adaptive
depth-doubling schedule, and a unit-depth classical strategy.  The
register draws its readout from the cells nearest the peak of its
outcome law, not from the whole table of 2**m probabilities, and gives
the readout ``rng.choice`` over that table would give.  Alongside
them sit closed-form envelopes (standard quantum limit, Heisenberg limit,
decoherence floor) and an evaluator for the Chernoff-chain loss bound that
motivates the confidence schedule.

The baselines and the bound read the noise, grid size, loss, depth limit
and confidence schedule from the ``RunSettings`` an adaptive run uses, so
every strategy in a comparison runs with one set of settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angles import TWO_PI, check_true_phase
from .model import (
    Circuit,
    MeasurementRecord,
    NoiseModel,
    check_integer,
    minimum_achievable_variance,
    sample_outcome,
)
from .posterior import (
    MAX_DEPTH,
    InsufficientResourcesError,
    LossKind,
    expected_loss,
    fold,
    map_estimate,
    uniform_prior,
    update,  # noqa: F401  kept importable here: perfbench/layers.py traces ``baselines.update``
)
from .adaptive import RunSettings, chernoff_shot_budget

MAX_REGISTER_SIZE = 24
# Cells on each side of the peak that a qpea draw evaluates on its common path.
HALF_WINDOW = 256
# Cells a draw past the window evaluates at a time.
BLOCK_CELLS = 1 << 14
MAE_OF_STD = math.sqrt(2.0 / math.pi)
Schedule = list[tuple[int, float, int]]  # (depth, phase, shots) blocks


class InfeasibleBoundError(ValueError):
    """Raised when the Chernoff chain cannot fit inside the budget."""


@dataclass(frozen=True)
class BaselineResult:
    """Outcome of one baseline estimation run."""

    estimate: float
    resources_spent: int
    max_depth: int
    posterior_expected_loss: float | None


def qpea_outcome_distribution(
    theta: float, register_size: int, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """Probability of each register readout k in [start, stop) for a true phase theta.

    Pr[k] = sin^2(M delta_k / 2) / (M^2 sin^2(delta_k / 2)) with
    M = 2**m and delta_k = theta - 2 pi k / M, extended by its limit 1
    where delta_k vanishes.  Without a range this is the whole table,
    k in [0, M); a range gives the same floats as that table's slice.
    """
    if not 1 <= register_size <= MAX_REGISTER_SIZE:
        raise ValueError(f"register_size must be in [1, {MAX_REGISTER_SIZE}]")
    m_size = 1 << register_size
    delta = theta - TWO_PI * np.arange(start, m_size if stop is None else stop) / m_size
    half = 0.5 * delta
    denom = np.sin(half)
    numer = np.sin(m_size * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        amplitude = numer / (m_size * denom)
    probs = np.where(denom == 0.0, 1.0, amplitude * amplitude)
    return probs


def _mass_below(theta: float, register_size: int, stop: int) -> float:
    """Pr[k < stop] in closed form, for a stop at least HALF_WINDOW cells below the peak.

    Every cell's numerator is sin^2(M theta / 2), so the sum is that over
    M^2 times a sum of csc^2(y_k), y_k = (theta mod 2 pi) / 2 - pi k / M,
    over y in (0, pi).  Euler-Maclaurin gives that sum: the integral of
    csc^2 (a difference of cotangents), the two end terms, and the B2, B4
    and B6 corrections, written as polynomials in the cotangents.  The
    range must sit at least HALF_WINDOW steps from the poles at y = 0 (the
    peak) and y = pi (its image a period away); then the next correction
    is far below double precision.
    """
    if stop <= 0:
        return 0.0
    m_size = 1 << register_size
    step = math.pi / m_size
    y_first = 0.5 * (theta % TWO_PI)
    cot_first = 1.0 / math.tan(y_first)
    cot_last = 1.0 / math.tan(y_first - step * (stop - 1))

    def odd_derivative_terms(c: float) -> float:
        c2 = c * c
        return c * (
            step * (1.0 + c2) / 6.0
            - step**3 * (2.0 + c2 * (5.0 + 3.0 * c2)) / 90.0
            + step**5 * (17.0 + c2 * (77.0 + c2 * (105.0 + 45.0 * c2))) / 1890.0
        )

    csc_sum = (
        (cot_last - cot_first) / step
        + 1.0
        + 0.5 * (cot_first * cot_first + cot_last * cot_last)
        + odd_derivative_terms(cot_last)
        - odd_derivative_terms(cot_first)
    )
    return math.sin(0.5 * m_size * theta) ** 2 / (m_size * m_size) * csc_sum


def _cumsum_from(carry: float, probs: np.ndarray) -> np.ndarray:
    """``np.cumsum(probs)`` with the running sum started at ``carry`` instead of 0.

    Each value has the bits of the one cumsum over the cells that summed
    to ``carry`` followed by ``probs``, since it adds the same floats in the
    same order.
    """
    if not carry:
        return np.cumsum(probs)
    sums = np.empty(probs.size + 1)
    sums[0] = carry
    sums[1:] = probs
    return np.cumsum(sums, out=sums)[1:]


def _blocks(theta: float, register_size: int, start: int, stop: int, upward: bool):
    """(first readout, probabilities) of [start, stop) in BLOCK_CELLS-cell blocks, from start up or from stop down."""
    if upward:
        firsts = range(start, stop, BLOCK_CELLS)
    else:
        firsts = range(stop - BLOCK_CELLS, start - BLOCK_CELLS, -BLOCK_CELLS)
    for first in firsts:
        first, last = max(first, start), min(first + BLOCK_CELLS, stop)
        yield first, qpea_outcome_distribution(theta, register_size, first, last)


def _search_up(blocks, base: float, u: float, stop: int) -> int:
    """First readout whose CDF, ``base`` plus the running sum of ``blocks`` from the bottom, exceeds u, or ``stop``."""
    carry = 0.0
    for first, probs in blocks:
        sums = _cumsum_from(carry, probs)
        k = int(np.searchsorted(base + sums, u, side="right"))
        if k < probs.size:
            return first + k
        carry = float(sums[-1])
    return stop


def _search_down(blocks, u: float, start: int) -> int:
    """First readout whose CDF, 1 less the running sum of ``blocks`` above it from the top, exceeds u, or ``start``."""
    carry = 0.0
    for first, probs in blocks:
        tail = _cumsum_from(carry, probs[::-1])[::-1]
        k = int(np.searchsorted(1.0 - (tail - probs), u, side="right"))
        if k > 0:
            return first + k
        carry = float(tail[0])
    return start


def _readout(theta: float, register_size: int, u: float) -> int:
    """The smallest readout k whose index-ordered CDF exceeds u.

    This inverts the CDF ``rng.choice`` builds from the whole table while
    evaluating only the 2 * HALF_WINDOW + 1 cells nearest the peak.  The
    indices split at a <= b into [0, a), [a, b) and [b, M); the CDF at a
    and at b picks the part that holds u, and only that part is searched.
    A window inside [0, M) is [a, b), and the mass below it is
    ``_mass_below``.  A window that wraps past index 0 is [0, a) and
    [b, M), summed up from index 0 and down from M - 1, and a register
    of at most 2 * HALF_WINDOW + 1 cells is all [b, M) with b = 0.  The
    unevaluated part holds at most about 2 / (pi^2 HALF_WINDOW) of the
    mass.  A draw that lands there walks it in blocks of BLOCK_CELLS
    cells, up from its first cell or down from its last as its CDF is
    summed, and stops at the block that holds u, so its memory does not
    grow with the register.
    """
    m_size = 1 << register_size
    center = round((theta % TWO_PI) * m_size / TWO_PI) % m_size
    lo, hi = center - HALF_WINDOW, center + HALF_WINDOW + 1
    if lo >= 0 and hi <= m_size:
        a, b = lo, hi
        probs = qpea_outcome_distribution(theta, register_size, a, b)
        cdf_a = _mass_below(theta, register_size, a)
        cdf_b = cdf_a + probs.sum()
        below = _blocks(theta, register_size, 0, a, upward=True)
        middle = [(a, probs)]
        above = _blocks(theta, register_size, b, m_size, upward=False)
    else:
        a, b = (0, 0) if m_size <= 2 * HALF_WINDOW + 1 else (hi % m_size, lo % m_size)
        low = qpea_outcome_distribution(theta, register_size, 0, a)
        high = qpea_outcome_distribution(theta, register_size, b, m_size)
        cdf_a = low.sum()
        cdf_b = 1.0 - high.sum()
        below = [(0, low)]
        middle = _blocks(theta, register_size, a, b, upward=True)
        above = [(b, high)]
    if u < cdf_a:
        k = _search_up(below, 0.0, u, a)
    elif u < cdf_b:
        k = _search_up(middle, cdf_a, u, b)
    else:
        k = _search_down(above, u, b)
    # Rounding can leave u at or above the last CDF value summed upward; the
    # CDF at M - 1 is 1, as rng.choice makes it.
    return min(k, m_size - 1)


def run_qpea(
    total_resources: int, theta_true: float, settings: RunSettings, rng: np.random.Generator
) -> BaselineResult:
    """Draw one readout of the largest register whose 2**m - 1 applications fit the budget.

    The draw takes one ``rng.random()`` and gives the readout
    ``rng.choice(M, p=qpea_outcome_distribution(...))`` would give for it.
    """
    total_resources = _integer_budget(total_resources)
    if total_resources < 1:
        raise InsufficientResourcesError(f"budget {total_resources} cannot pay one register application")
    check_true_phase(theta_true)
    noise = settings.noise
    if not noise.noiseless:
        raise ValueError(
            "the textbook outcome law holds only without noise; "
            f"got alpha={noise.alpha}, beta={noise.beta}"
        )
    register_size = min(MAX_REGISTER_SIZE, (total_resources + 1).bit_length() - 1)
    m_size = 1 << register_size
    k = _readout(theta_true, register_size, rng.random())
    return BaselineResult(
        estimate=TWO_PI * k / m_size,
        resources_spent=m_size - 1,
        max_depth=m_size >> 1,
        posterior_expected_loss=None,
    )


def _largest_power_of_two_at_most(n: int) -> int:
    return 1 << (n.bit_length() - 1)


def _integer_budget(total_resources) -> int:
    """``total_resources`` as an int; a bool or a non-integer raises ValueError, as ``AlgorithmConfig`` does."""
    if not isinstance(total_resources, (int, np.integer)) or isinstance(total_resources, bool):
        raise ValueError(f"total_resources must be an integer, got {total_resources!r}")
    return int(total_resources)


def _check_probe_budget(total_resources) -> int:
    """``total_resources`` as an int, if it pays one shot at each probe phase."""
    total_resources = _integer_budget(total_resources)
    if total_resources < 2:
        raise InsufficientResourcesError(f"budget {total_resources} cannot pay one shot at each probe phase")
    return total_resources


def _probe_pair(depth: int, shots: int) -> Schedule:
    """Blocks splitting the shots at this depth between phases 0 and pi/2, the odd one at 0."""
    return [(depth, phase, n) for phase, n in ((0.0, shots - shots // 2), (np.pi / 2.0, shots // 2)) if n > 0]


def _run_schedule(blocks: Schedule, theta_true, settings: RunSettings, rng) -> BaselineResult:
    """Sample every block, fold the records into a flat prior at once, and score the mode.

    Sampling never reads the posterior, so drawing every block before the
    fold calls ``rng`` in the order block-by-block updates would.
    """
    check_true_phase(theta_true)
    noise = settings.noise
    records = []
    for depth, phase, shots in blocks:
        circuit = Circuit(depth, phase)
        records.append(MeasurementRecord(circuit, shots, sample_outcome(circuit, shots, theta_true, noise, rng)))
    posterior = fold(uniform_prior(settings.grid_size), records, noise)
    estimate = map_estimate(posterior)
    return BaselineResult(
        estimate=estimate,
        resources_spent=sum(depth * shots for depth, _, shots in blocks),
        max_depth=max(depth for depth, _, _ in blocks),
        posterior_expected_loss=expected_loss(posterior, estimate, settings.loss_kind),
    )


def doubling_schedule(total_resources: int, settings: RunSettings, shots_per_depth: int) -> Schedule:
    """Blocks of shots_per_depth at each of (n,0) and (n,pi/2), n doubling.

    Doubling stops once the next full block no longer fits, or once n would
    pass the depth limit or MAX_DEPTH.  The leftover budget is spent at the
    deepest power-of-two depth it can still pay for, up to the next
    doubling depth and never past those caps, split between the same two
    phases.
    """
    total_resources = _check_probe_budget(total_resources)
    check_integer("shots_per_depth", shots_per_depth, 1)
    top = _largest_power_of_two_at_most(min(settings.depth_limit, MAX_DEPTH))
    blocks = []
    budget = total_resources
    depth = 1
    while depth <= top and budget >= 2 * depth * shots_per_depth:
        blocks += _probe_pair(depth, 2 * shots_per_depth)
        budget -= 2 * depth * shots_per_depth
        depth *= 2

    deepest = min(depth, top)
    while budget >= 1:
        depth = min(deepest, _largest_power_of_two_at_most(budget))
        affordable = budget // depth
        blocks += _probe_pair(depth, affordable)
        budget -= depth * affordable
    return blocks


def run_nonadaptive_doubling(
    total_resources: int,
    theta_true: float,
    settings: RunSettings,
    shots_per_depth: int,
    rng: np.random.Generator,
) -> BaselineResult:
    """Non-adaptive baseline: sample the ``doubling_schedule`` and score the posterior mode."""
    return _run_schedule(doubling_schedule(total_resources, settings, shots_per_depth), theta_true, settings, rng)


def run_classical(
    total_resources: int, theta_true: float, settings: RunSettings, rng: np.random.Generator
) -> BaselineResult:
    """Unit-depth strategy: split the budget between phases 0 and pi/2."""
    total_resources = _check_probe_budget(total_resources)
    return _run_schedule(_probe_pair(1, total_resources), theta_true, settings, rng)


def _check_real_budget(total_resources) -> None:
    """Raise ValueError naming ``total_resources`` unless it is a finite number >= 1, not a bool.

    The curves and the bound take fractional budgets, as the plots pass them.
    """
    if isinstance(total_resources, (bool, np.bool_)) or not math.isfinite(total_resources):
        raise ValueError(f"total_resources must be a finite number, got {total_resources!r}")
    if total_resources < 1:
        raise ValueError(f"total_resources must be >= 1, got {total_resources}")


def limit_curves(total_resources: float, noise: NoiseModel) -> dict[str, float]:
    """Mean-absolute-error envelopes at this budget.

    Keys: 'sql' (one resource, one bit), 'hl' (coherent use of the whole
    budget), and 'noisy_floor' (decoherence-limited optimum; present only
    when beta < 1).  Each converts a variance to an MAE via sqrt(2/pi).
    """
    _check_real_budget(total_resources)
    n = float(total_resources)
    curves = {
        "sql": MAE_OF_STD * math.sqrt(1.0 / n),
        "hl": MAE_OF_STD * math.sqrt(1.0 / n**2),
    }
    if noise.beta < 1.0:
        curves["noisy_floor"] = MAE_OF_STD * math.sqrt(
            minimum_achievable_variance(noise, n)
        )
    return curves


def _chernoff_chain(total_resources: float, settings: RunSettings, step_count: int):
    """Depths, confidence allowances, and shot counts for the bound chain.

    The chain uses pure depth doubling n_i = 2**(i-1) for i = 1..step_count
    and the confidence profile eps_i = epsilon_scale * (n_i / n_m)**epsilon_exponent.
    Shot counts for rungs 1..m-1 come from the Chernoff budget; the last
    rung absorbs whatever the resource identity leaves over.
    """
    if step_count < 2:
        raise ValueError(f"step_count must be >= 2, got {step_count}")
    _check_real_budget(total_resources)
    depths = [1 << (i - 1) for i in range(1, step_count + 1)]
    top = depths[-1]
    eps = [settings.epsilon_scale * (d / top) ** settings.epsilon_exponent for d in depths]
    shots = []
    for i in range(step_count - 1):
        eps_prev = 2.0 if i == 0 else eps[i - 1]
        shots.append(chernoff_shot_budget(eps[i], eps_prev, depths[i], settings.noise))
    spent = sum(d * s for d, s in zip(depths, shots))
    last_shots = (total_resources - spent) / top
    if last_shots < 0.0:
        raise InfeasibleBoundError(
            f"chain needs {spent:.1f} resources before the last rung, "
            f"budget is {total_resources}"
        )
    shots.append(last_shots)
    return depths, eps, shots


def appendix_loss_bound(
    total_resources: float, settings: RunSettings, kind: LossKind, step_count: int | None = None
) -> float:
    """Worst-case expected loss of the gated ladder over ``step_count`` rungs.

    The bound has three parts: a catastrophic term from the first rung
    failing, interval-escape terms from the middle rungs, and the terminal
    posterior width.  Values are clipped at the trivial wrapped maximum
    (pi for absolute error, pi**2 for squared).  Without ``step_count`` the
    chain is ``default_step_count`` rungs long.
    """
    if step_count is None:
        step_count = default_step_count(total_resources, settings)
    depths, eps, shots = _chernoff_chain(total_resources, settings, step_count)
    noise = settings.noise
    top = depths[-1]
    sigma_inv_sq = (8.0 * top**2 / math.pi**2) * math.log(2.0 / eps[-2])
    sigma_inv_sq += noise.alpha**2 * noise.beta ** (2 * top) * top**2 * shots[-1]
    terminal_var = 1.0 / sigma_inv_sq

    if kind is LossKind.ABSOLUTE:
        value = 1.5 * math.pi * eps[0]
        for d, e in zip(depths[1:-1], eps[1:-1]):
            value += e * math.pi / (2.0 * d)
        value += math.sqrt(2.0 * terminal_var / math.pi)
        return min(value, math.pi)
    value = 3.75 * math.pi**2 * eps[0]
    for d, e in zip(depths[1:-1], eps[1:-1]):
        value += e * 3.0 * math.pi**2 / (4.0 * d * d)
    value += terminal_var
    return min(value, math.pi**2)


def default_step_count(total_resources: float, settings: RunSettings) -> int:
    """Deepest feasible chain length whose top depth respects the caps."""
    _check_real_budget(total_resources)
    best = 0
    m = 2
    while (1 << (m - 1)) <= settings.depth_cap:
        try:
            _chernoff_chain(total_resources, settings, m)
        except InfeasibleBoundError:
            break
        best = m
        m += 1
    if best == 0:
        raise InfeasibleBoundError(
            f"budget {total_resources} cannot fit even a two-rung chain"
        )
    return best
