"""Grid-based Bayesian posterior over a phase on the circle [0, 2*pi).

The posterior is held as log-weights on a uniform grid so that thousands of
sequential likelihood multiplications never underflow.  Normalisation uses
the periodic trapezoid rule, which on a uniform circular grid reduces to a
plain node sum times the cell width.

The adaptive loop runs an update and a mode search after every shot, so
both do only the work their callers read.  An update normalises the
log-weights and keeps the exponentiated weights and their sum; the density
is divided out of them on first read, which the per-shot loop never does.
Each circuit's per-cell outcome probability is computed once, and each of
its two log branches only when an outcome needs it.  ``map_estimate`` with
an interval searches the cells of that arc alone.  The confidence gate
(``mass_outside``) still integrates over the whole grid: restricting its
prefix sums to the arc would change their rounding and could flip a gate
decision.

The grid must stay fine enough to resolve the fastest likelihood
oscillation: a circuit of depth n modulates the likelihood at angular
frequency n, and updates enforce at least 32 grid points per period.  When
an incoming record is too deep for the current grid the posterior doubles
its resolution in place, carrying existing log-weights over by midpoint
interpolation, up to a hard memory cap.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .angles import TWO_PI, wrap, wrap_float, wrapped_distance
from .model import Circuit, MeasurementRecord, NoiseModel

MIN_GRID_SIZE = 64
POINTS_PER_PERIOD = 32
MAX_GRID_SIZE = 1 << 22


class GridTooCoarseError(ValueError):
    """Raised when a record needs more resolution than the grid cap allows."""


class ImpossibleObservationError(ValueError):
    """Raised when an update wipes out every grid cell (all weights -inf)."""


class UndefinedMeanError(ValueError):
    """Raised when the circular mean resultant is too short to define one."""


class InsufficientResourcesError(ValueError):
    """Raised when a budget cannot pay for even one execution."""


class LossKind(enum.Enum):
    ABSOLUTE = "absolute-error"
    SQUARED = "squared-error"


@dataclass(frozen=True)
class CircularInterval:
    """Arc of the circle: all angles within ``half_width`` of ``center``."""

    center: float
    half_width: float

    def __post_init__(self):
        if not 0.0 < self.half_width <= np.pi:
            raise ValueError(f"half_width must be in (0, pi], got {self.half_width}")
        object.__setattr__(self, "center", wrap_float(self.center))
        object.__setattr__(self, "half_width", float(self.half_width))

    def contains(self, theta) -> bool:
        return bool(np.all(wrapped_distance(theta, self.center) <= self.half_width + 1e-12))

    @property
    def lower(self) -> float:
        """Counterclockwise start of the arc (may exceed ``upper`` mod 2*pi)."""
        return float(wrap(self.center - self.half_width))

    @property
    def upper(self) -> float:
        return float(wrap(self.center + self.half_width))


@lru_cache(maxsize=16)
def _grid_angles(grid_size: int) -> np.ndarray:
    angles = np.arange(grid_size) * (TWO_PI / grid_size)
    angles.setflags(write=False)
    return angles


@lru_cache(maxsize=64)
def _grid_trig(grid_size: int, depth: int):
    arg = depth * _grid_angles(grid_size)
    cos_n = np.cos(arg)
    sin_n = np.sin(arg)
    cos_n.setflags(write=False)
    sin_n.setflags(write=False)
    return cos_n, sin_n


def _grid_p0(grid_size: int, depth: int, phase: float, envelope: float) -> np.ndarray:
    """Bright-outcome probability p0 of one circuit at every grid node."""
    cos_n, sin_n = _grid_trig(grid_size, depth)
    p0 = cos_n * math.cos(phase)
    p0 -= sin_n * math.sin(phase)
    p0 *= 0.5 * envelope
    p0 += 0.5
    return p0


class _CircuitLikelihood:
    """One circuit's per-cell p0, with log p0 and log(1 - p0) taken on first use.

    A freshly tuned circuit usually sees one outcome, so it pays for one
    transcendental pass; p0 is dropped once both branches exist.
    """

    __slots__ = ("_p0", "_log_p", "_log_q")

    def __init__(self, p0: np.ndarray):
        self._p0 = p0
        self._log_p = None
        self._log_q = None

    def log_p(self) -> np.ndarray:
        if self._log_p is None:
            with np.errstate(divide="ignore"):
                self._log_p = np.log(self._p0)
            self._settle(self._log_p)
        return self._log_p

    def log_q(self) -> np.ndarray:
        if self._log_q is None:
            with np.errstate(divide="ignore"):
                self._log_q = np.log1p(-self._p0)
            self._settle(self._log_q)
        return self._log_q

    def _settle(self, branch: np.ndarray) -> None:
        branch.setflags(write=False)
        if self._log_p is not None and self._log_q is not None:
            self._p0 = None


@lru_cache(maxsize=8)
def _log_prob_components(grid_size: int, depth: int, phase: float, alpha: float, beta: float):
    """Per-cell likelihood branches for one circuit, cached.

    Gated sampling phases hammer the same circuit for tens of shots; caching
    the branches makes each such update a fused add instead of fresh
    transcendental passes.
    """
    p0 = _grid_p0(grid_size, depth, phase, alpha * beta**depth)
    np.clip(p0, 0.0, 1.0, out=p0)
    return _CircuitLikelihood(p0)


@dataclass(eq=False)
class GridPosterior:
    """Posterior density on a uniform circular grid, stored in log space.

    ``_pending`` holds the exponentiated weights and their sum from the
    last normalisation until ``density`` divides them out.
    """

    grid_size: int
    log_weights: np.ndarray
    _density: np.ndarray | None = field(default=None, repr=False)
    _pending: tuple[np.ndarray, float] | None = field(default=None, repr=False)
    _cumulative: np.ndarray | None = field(default=None, repr=False)

    @property
    def cell_width(self) -> float:
        return TWO_PI / self.grid_size

    @property
    def angles(self) -> np.ndarray:
        return _grid_angles(self.grid_size)

    @property
    def density(self) -> np.ndarray:
        """Probability density at the grid nodes (integrates to 1)."""
        if self._density is None:
            if self._pending is None:
                _, w, total = _exp_weights(self.log_weights, "posterior carries no finite weight")
            else:
                w, total = self._pending
                self._pending = None
            w /= total * self.cell_width
            self._density = w
        return self._density

    def clone(self) -> "GridPosterior":
        return GridPosterior(self.grid_size, self.log_weights.copy())

    def _invalidate(self):
        self._density = None
        self._pending = None
        self._cumulative = None


def _exp_weights(log_weights: np.ndarray, message: str):
    """The shift max(log_weights), the weights exp(log_weights - shift), and their sum."""
    shift = np.max(log_weights)
    if not np.isfinite(shift):
        raise ImpossibleObservationError(message)
    w = log_weights - shift
    np.exp(w, out=w)
    return shift, w, w.sum()


def uniform_prior(grid_size: int = 4096) -> GridPosterior:
    """Flat prior 1/(2*pi) on a grid of at least MIN_GRID_SIZE cells."""
    if grid_size < MIN_GRID_SIZE:
        raise ValueError(f"grid_size must be >= {MIN_GRID_SIZE}, got {grid_size}")
    if grid_size > MAX_GRID_SIZE:
        raise ValueError(f"grid_size must be <= {MAX_GRID_SIZE}, got {grid_size}")
    lw = np.full(grid_size, -math.log(TWO_PI))
    return GridPosterior(grid_size, lw)


def normalize(posterior: GridPosterior) -> GridPosterior:
    """Rescale log-weights so the trapezoid integral of the density is 1."""
    posterior._invalidate()
    shift, w, total = _exp_weights(
        posterior.log_weights, "cannot normalize: every grid cell has log-weight -inf"
    )
    posterior.log_weights -= shift + math.log(total) + math.log(posterior.cell_width)
    posterior._pending = (w, total)
    return posterior


def _refine_once(posterior: GridPosterior):
    """Double the grid, interpolating log-weights at the new midpoints."""
    lw = posterior.log_weights
    mid = 0.5 * (lw + np.roll(lw, -1))
    doubled = np.empty(2 * lw.size)
    doubled[0::2] = lw
    doubled[1::2] = mid
    posterior.log_weights = doubled
    posterior.grid_size = 2 * lw.size
    posterior._invalidate()


def required_grid_size(depth: int) -> int:
    return max(MIN_GRID_SIZE, POINTS_PER_PERIOD * depth)


def ensure_resolution(posterior: GridPosterior, depth: int) -> GridPosterior:
    """Grow the grid until it resolves oscillations of the given depth."""
    required = required_grid_size(depth)
    if required > MAX_GRID_SIZE:
        raise GridTooCoarseError(
            f"depth {depth} needs {required} cells, above the cap {MAX_GRID_SIZE}"
        )
    refined = False
    while posterior.grid_size < required:
        _refine_once(posterior)
        refined = True
    if refined:
        normalize(posterior)
    return posterior


def update(posterior: GridPosterior, record: MeasurementRecord, noise: NoiseModel) -> GridPosterior:
    """Multiply in the likelihood of ``record`` and renormalize, in place.

    Zero-shot records leave the posterior untouched.  If the observation is
    impossible everywhere on the grid, ImpossibleObservationError is raised
    and the posterior is left unnormalized; discard it.
    """
    if record.shots == 0:
        return posterior
    ensure_resolution(posterior, record.circuit.depth)

    likelihood = _log_prob_components(
        posterior.grid_size,
        record.circuit.depth,
        record.circuit.phase,
        noise.alpha,
        noise.beta,
    )
    x = record.successes
    misses = record.shots - x
    lw = posterior.log_weights
    if record.shots == 1 and x == 1.0:
        lw += likelihood.log_p()
    elif record.shots == 1 and x == 0.0:
        lw += likelihood.log_q()
    else:
        if x > 0:
            lw += x * likelihood.log_p()
        if misses > 0:
            lw += misses * likelihood.log_q()
    # The binomial coefficient is constant in theta; normalisation removes
    # it, so it is never added here.
    try:
        return normalize(posterior)
    except ImpossibleObservationError:
        raise ImpossibleObservationError(
            f"record {record} has zero likelihood at every grid cell"
        ) from None


def _cumulative_mass(posterior: GridPosterior) -> np.ndarray:
    """Trapezoid cumulative integral of the density at cell boundaries.

    Entry k is the integral from angle 0 to angle k * cell_width; the last
    entry is the full-circle mass (1 up to rounding).
    """
    if posterior._cumulative is None:
        d = posterior.density
        cum = np.empty(posterior.grid_size + 1)
        cum[0] = 0.0
        segments = cum[1:]
        np.add(d[:-1], d[1:], out=segments[:-1])
        segments[-1] = d[-1] + d[0]
        segments *= 0.5
        segments *= posterior.cell_width
        np.cumsum(segments, out=segments)
        posterior._cumulative = cum
    return posterior._cumulative


def _mass_up_to(posterior: GridPosterior, x: float) -> float:
    """Integral of the piecewise-linear density from angle 0 to x."""
    h = posterior.cell_width
    cum = _cumulative_mass(posterior)
    d = posterior.density
    k = min(int(x / h), posterior.grid_size - 1)
    t = x / h - k
    d_lo = d[k]
    d_hi = d[(k + 1) % posterior.grid_size]
    return float(cum[k] + h * (d_lo * t + 0.5 * (d_hi - d_lo) * t * t))


def confidence(posterior: GridPosterior, interval: CircularInterval) -> float:
    """Posterior mass inside the interval, by trapezoid integration."""
    if interval.half_width >= np.pi:
        return 1.0
    total = float(_cumulative_mass(posterior)[-1])
    lo = interval.lower
    hi = interval.upper
    if lo <= hi:
        mass = _mass_up_to(posterior, hi) - _mass_up_to(posterior, lo)
    else:
        mass = total - (_mass_up_to(posterior, lo) - _mass_up_to(posterior, hi))
    return float(min(max(mass, 0.0), 1.0))


def mass_outside(posterior: GridPosterior, interval: CircularInterval) -> float:
    """Posterior mass in the complement arc, integrated directly.

    Computing the complement head-on keeps tiny tail masses accurate where
    1 - confidence(...) would lose every significant digit to cancellation.
    """
    if interval.half_width >= np.pi:
        return 0.0
    lo = interval.lower
    hi = interval.upper
    total = float(_cumulative_mass(posterior)[-1])
    if lo <= hi:
        mass = total - (_mass_up_to(posterior, hi) - _mass_up_to(posterior, lo))
    else:
        mass = _mass_up_to(posterior, lo) - _mass_up_to(posterior, hi)
    return float(min(max(mass, 0.0), 1.0))


def map_estimate(posterior: GridPosterior, within: CircularInterval | None = None) -> float:
    """Posterior mode, refined by a parabola through the peak cell.

    Ties go to the smallest grid index.  With ``within`` given, the argmax
    is restricted to cells inside that interval (falling back to the global
    argmax if the restriction holds no finite weight); only the cells of
    the arc are searched.
    """
    lw = posterior.log_weights
    angles = posterior.angles
    k = None
    if within is not None:
        cells = _arc_cells(posterior.grid_size, within)
        arc = lw[cells]
        inside = wrapped_distance(angles[cells], within.center) <= within.half_width + 1e-12
        if np.any(inside & np.isfinite(arc)):
            k = int(cells[np.argmax(np.where(inside, arc, -np.inf))])
    if k is None:
        k = int(np.argmax(lw))

    g = posterior.grid_size
    left = float(lw[(k - 1) % g])
    center = float(lw[k])
    right = float(lw[(k + 1) % g])
    offset = 0.0
    if math.isfinite(left) and math.isfinite(center) and math.isfinite(right):
        curvature = left - 2.0 * center + right
        if curvature < 0.0:
            offset = min(max(0.5 * (left - right) / curvature, -0.5), 0.5)
    return wrap_float(float(angles[k]) + offset * posterior.cell_width)


def _arc_cells(grid_size: int, interval: CircularInterval) -> np.ndarray:
    """Ascending indices of the grid cells that can lie inside ``interval``.

    The index range spans center +- half_width with one cell of margin on
    each side, so rounding in the angle arithmetic never drops a cell; the
    caller applies the exact membership test to these cells alone.
    """
    h = TWO_PI / grid_size
    lo = math.floor((interval.center - interval.half_width) / h) - 1
    hi = math.ceil((interval.center + interval.half_width) / h) + 1
    if hi - lo + 1 >= grid_size:
        return np.arange(grid_size)
    cells = np.arange(lo, hi + 1)
    if lo < 0 or hi >= grid_size:
        # The arc crosses the seam: wrap the indices and restore ascending order.
        cells %= grid_size
        cells.sort()
    return cells


def circular_mean_estimate(posterior: GridPosterior) -> float:
    """Argument of the posterior's resultant vector E[exp(i theta)]."""
    d = posterior.density
    angles = posterior.angles
    h = posterior.cell_width
    re = float(np.dot(d, np.cos(angles))) * h
    im = float(np.dot(d, np.sin(angles))) * h
    if math.hypot(re, im) <= 1e-12:
        raise UndefinedMeanError(
            f"resultant length {math.hypot(re, im):.3e} leaves the circular mean undefined"
        )
    return float(wrap(math.atan2(im, re)))


def expected_loss(posterior: GridPosterior, estimate: float, kind: LossKind) -> float:
    """Posterior expectation of the wrapped error of ``estimate``."""
    d = wrapped_distance(posterior.angles, estimate)
    if kind is LossKind.SQUARED:
        d = d * d
    return float(max(np.dot(posterior.density, d) * posterior.cell_width, 0.0))


def predict_outcome(posterior: GridPosterior, circuit: Circuit, shots: int, noise: NoiseModel) -> float:
    """Expected bright-outcome count: shots times the posterior mean of p0."""
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    ensure_resolution(posterior, circuit.depth)
    p0 = _grid_p0(posterior.grid_size, circuit.depth, circuit.phase, noise.contrast(circuit.depth))
    mean_p = float(np.dot(posterior.density, p0)) * posterior.cell_width
    return float(np.clip(shots * mean_p, 0.0, shots))


def predict_loss(
    posterior: GridPosterior,
    circuit: Circuit,
    resources_left: int,
    noise: NoiseModel,
    kind: LossKind,
) -> float:
    """Expected loss after hypothetically spending the budget on ``circuit``.

    The whole remaining budget is converted into shots at this depth, the
    expected (generally fractional) outcome is folded into a cloned
    posterior, and the loss of the updated mode is reported.
    """
    shots = int(resources_left // circuit.depth)
    if shots < 1:
        raise InsufficientResourcesError(
            f"budget {resources_left} cannot pay for one shot at depth {circuit.depth}"
        )
    expected_count = predict_outcome(posterior, circuit, shots, noise)
    hypothetical = posterior.clone()
    update(hypothetical, MeasurementRecord(circuit, shots, expected_count), noise)
    return expected_loss(hypothetical, map_estimate(hypothetical), kind)
