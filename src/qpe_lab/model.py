"""Circuit-level model for noisy phase-sampling experiments.

A phase-sampling circuit applies the unknown-phase unitary ``depth`` times,
offsets the accumulated phase by a controllable shift, and measures a single
bit.  Decoherence is folded into two static parameters: a visibility
``alpha`` and a per-application decay ``beta``.  The chance of observing the
bright outcome is

    p0(theta) = 1/2 + (alpha * beta**depth / 2) * cos(depth * theta + phase)

which is all downstream inference ever needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angles import check_finite, wrap_float


class DivergenceError(ValueError):
    """Raised where the single-circuit variance formula blows up."""


@dataclass(frozen=True)
class NoiseModel:
    """Static noise description: visibility ``alpha``, decay ``beta``.

    Both sit in (0, 1]; ``alpha = beta = 1`` is the noiseless limit.
    """

    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        for name, role in (("alpha", "visibility"), ("beta", "decay")):
            value = getattr(self, name)
            if not (0.0 < value <= 1.0):
                raise ValueError(f"{role} {name} must be in (0, 1], got {value}")
            object.__setattr__(self, name, check_real(name, value))

    @property
    def noiseless(self) -> bool:
        return self.alpha == 1.0 and self.beta == 1.0

    def contrast(self, depth: int) -> float:
        """Envelope alpha * beta**depth multiplying the oscillation."""
        return self.alpha * self.beta**depth


def check_integer(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is an integer, not a bool, of at least ``minimum``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_real(name: str, value) -> float:
    """``value`` as a float; ValueError naming ``name`` unless it is a finite number, not a bool (numpy's included)."""
    if isinstance(value, (bool, np.bool_)) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Circuit:
    """One circuit configuration: unitary applications and phase offset."""

    depth: int
    phase: float

    def __post_init__(self):
        object.__setattr__(self, "depth", check_integer("depth", self.depth, 1))
        check_finite("phase", self.phase)
        object.__setattr__(self, "phase", wrap_float(self.phase))

    @classmethod
    def of_wrapped(cls, depth: int, phase: float) -> "Circuit":
        """The circuit of an int ``depth`` >= 1 and a ``phase`` already wrapped to [0, 2*pi), not checked again.

        ``wrap_float`` returns such a phase unchanged, so the result equals
        ``Circuit(depth, phase)``.
        """
        circuit = object.__new__(cls)
        object.__setattr__(circuit, "depth", depth)
        object.__setattr__(circuit, "phase", phase)
        return circuit


@dataclass(frozen=True)
class MeasurementRecord:
    """Tally of repeated executions of one circuit.

    ``successes`` may be fractional: predicted-outcome bookkeeping feeds
    expected counts back through the same likelihood.
    """

    circuit: Circuit
    shots: int
    successes: float

    def __post_init__(self):
        object.__setattr__(self, "shots", check_integer("shots", self.shots, 0))
        if not 0.0 <= self.successes <= self.shots:
            raise ValueError(
                f"successes must lie in [0, shots], got {self.successes} with shots={self.shots}"
            )
        object.__setattr__(self, "successes", float(self.successes))


def success_probability(theta, circuit: Circuit, noise: NoiseModel):
    """Bright-outcome probability p0 at phase ``theta`` (scalar or array)."""
    envelope = noise.contrast(circuit.depth)
    return 0.5 + 0.5 * envelope * np.cos(circuit.depth * np.asarray(theta, dtype=float) + circuit.phase)


def log_binomial_coefficient(n: float, k: float) -> float:
    return math.lgamma(n + 1.0) - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)


def log_likelihood(record: MeasurementRecord, theta, noise: NoiseModel):
    """Log-probability of ``record`` given phase ``theta`` (scalar or array).

    For integer success counts this is the full binomial log-pmf.  For
    fractional counts the combinatorial coefficient is dropped; it does not
    depend on theta, so posterior updates are unaffected.  Cells where the
    observed count is impossible (p0 exactly 0 or 1 with the wrong count)
    come back as -inf, and forced outcomes contribute exactly 0.
    """
    theta = np.asarray(theta, dtype=float)
    x = record.successes
    misses = record.shots - x
    if record.shots == 0:
        return np.zeros_like(theta)

    p0 = success_probability(theta, record.circuit, noise)
    ll = np.zeros_like(p0)
    with np.errstate(divide="ignore"):
        if x > 0:
            ll = ll + x * np.log(p0)
        if misses > 0:
            ll = ll + misses * np.log1p(-p0)
    if float(x).is_integer():
        ll = ll + log_binomial_coefficient(record.shots, x)
    return ll


def sample_outcome(
    circuit: Circuit,
    shots: int,
    theta_true: float,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> int:
    """Draw the number of bright outcomes in ``shots`` executions, an integer >= 0."""
    shots = check_integer("shots", shots, 0)
    if shots == 0:
        return 0
    depth = circuit.depth
    return int(rng.binomial(shots, draw_probability(depth, circuit.phase, noise.contrast(depth), theta_true)))


def draw_probability(depth: int, phase: float, envelope: float, theta_true: float) -> float:
    """Bright-outcome probability at the true phase of the circuit (depth, phase), given as scalars, for a draw.

    ``envelope`` is the circuit's ``NoiseModel.contrast``.  p0 is evaluated
    in scalar float arithmetic and clamped to [0, 1], so ``rng.binomial``
    takes it as is.
    """
    p0 = 0.5 + 0.5 * envelope * math.cos(depth * theta_true + phase)
    return min(max(p0, 0.0), 1.0)


def sigma_squared(
    theta: float,
    circuit: Circuit,
    shots: int,
    noise: NoiseModel,
    singular_tol: float = 1e-9,
) -> float:
    """Phase variance of the maximum-likelihood estimate from one circuit.

    Valid to leading order in 1/shots; diverges where the oscillation is
    stationary, i.e. sin(depth * theta + phase) = 0.  ``shots`` is an integer >= 1.
    """
    shots = check_integer("shots", shots, 1)
    arg = circuit.depth * theta + circuit.phase
    s = math.sin(arg)
    if abs(s) < singular_tol:
        raise DivergenceError(
            f"variance diverges: |sin(depth*theta + phase)| = {abs(s):.3e} < {singular_tol:.3e}"
        )
    c = math.cos(arg)
    envelope_sq = noise.contrast(circuit.depth) ** 2
    return (1.0 - envelope_sq * c * c) / (envelope_sq * s * s * circuit.depth**2 * shots)


def optimal_depth(noise: NoiseModel, depth_limit: int) -> int:
    """Depth minimising the per-resource variance, clipped to the limit.

    The continuous optimum sits at -1 / (2 ln beta); it is rounded to the
    nearest integer and floored at 1.  Without decay the variance improves
    monotonically with depth, so the limit itself is returned.  The limit
    is an integer >= 1.
    """
    depth_limit = check_integer("depth_limit", depth_limit, 1)
    if noise.beta == 1.0:
        return depth_limit
    continuous = -1.0 / (2.0 * math.log(noise.beta))
    return min(depth_limit, max(1, math.floor(continuous + 0.5)))


def tuned_phase(depth: int, target: float) -> float:
    """Phase of the depth-n circuit with ``target`` at p0 = 1/2 on its falling slope: pi/2 - depth * target, wrapped."""
    return wrap_float(np.pi / 2.0 - depth * target)


def tuned_circuit(depth: int, target: float) -> Circuit:
    """The depth-n circuit of ``tuned_phase``; ``target`` must be finite."""
    check_finite("target", target)
    return Circuit(depth, tuned_phase(depth, target))


def optimal_circuit(noise: NoiseModel, theta_guess: float, depth_limit: int) -> Circuit:
    """Circuit of the optimal depth tuned to measure most sharply around ``theta_guess``."""
    return tuned_circuit(optimal_depth(noise, depth_limit), theta_guess)


def minimum_achievable_variance(noise: NoiseModel, total_resources: float) -> float:
    """Variance floor -2 e ln(beta) / (alpha**2 * N) at the optimal depth.

    Only meaningful for beta < 1; beta = 1 has no floor.  The budget may
    be fractional but must pass ``check_real`` and be > 0.
    """
    if noise.beta == 1.0:
        raise ValueError("no variance floor without decay (beta = 1)")
    if check_real("total_resources", total_resources) <= 0:
        raise ValueError(f"total_resources must be > 0, got {total_resources}")
    return -2.0 * math.e * math.log(noise.beta) / (noise.alpha**2 * total_resources)
