"""Grid-based Bayesian posterior over a phase on the circle [0, 2*pi).

The posterior is held as log-weights on a uniform grid so that thousands of
sequential likelihood multiplications never underflow.  Normalisation uses
the periodic trapezoid rule, which on a uniform circular grid reduces to a
plain node sum times the cell width.

The adaptive loop runs an update, a gate check and a mode search after
every shot, so each does only the work its caller reads.  An update
normalises the log-weights and keeps the exponentiated weights and their
sum; the density is divided out of them only when it is read, which the
per-shot loop never does.  Each circuit's per-cell outcome probability is
computed once, and each of its two log branches only when an outcome needs
it.  Interval masses (``confidence`` and the gate check ``mass_outside``)
integrate the kept weights over the arc they report, one or two slice sums
plus a closed-form partial cell at each end, so a tiny tail mass is summed
directly instead of being left over from a difference of O(1) sums.
``map_estimate`` with an interval takes the argmax over the one circular
run of cells inside the arc.

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
        return wrap_float(self.center - self.half_width)

    @property
    def upper(self) -> float:
        return wrap_float(self.center + self.half_width)


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
    np.minimum(p0, 1.0, out=p0)
    np.maximum(p0, 0.0, out=p0)
    return _CircuitLikelihood(p0)


@dataclass(eq=False)
class GridPosterior:
    """Posterior density on a uniform circular grid, stored in log space.

    ``_weights`` holds the exponentiated weights and their sum from the
    last normalisation; the density and the interval masses are read from
    them.
    """

    grid_size: int
    log_weights: np.ndarray
    _density: np.ndarray | None = field(default=None, repr=False)
    _weights: tuple[np.ndarray, float] | None = field(default=None, repr=False)

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
            w, total = self._kept_weights()
            self._density = w / (total * self.cell_width)
        return self._density

    def _kept_weights(self) -> tuple[np.ndarray, float]:
        """Unnormalised node weights and their sum, rebuilt if none are kept."""
        if self._weights is None:
            _, w, total = _exp_weights(self.log_weights, "posterior carries no finite weight")
            self._weights = (w, total)
        return self._weights

    def clone(self) -> "GridPosterior":
        return GridPosterior(self.grid_size, self.log_weights.copy())

    def _invalidate(self):
        self._density = None
        self._weights = None


def _exp_weights(log_weights: np.ndarray, message: str):
    """The shift max(log_weights), the weights exp(log_weights - shift), and their sum."""
    shift = log_weights.max()
    if not math.isfinite(shift):
        raise ImpossibleObservationError(message)
    w = log_weights - shift
    np.exp(w, out=w)
    return shift, w, float(w.sum())


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
    posterior._weights = (w, total)
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


def _segment_part(w: np.ndarray, k: int, t0: float, t1: float) -> float:
    """Integral of the linear interpolant of w over [k + t0, k + t1], 0 <= t0 <= t1 <= 1.

    Written as the width times a convex mix of the two node values, so no
    term cancels when one node is far smaller than the other.
    """
    v0 = w.item(k)
    v1 = w.item((k + 1) % w.size)
    return (t1 - t0) * (v0 * (0.5 * ((1.0 - t0) + (1.0 - t1))) + v1 * (0.5 * (t0 + t1)))


def _span_integral(w: np.ndarray, a: float, b: float) -> float:
    """Integral of the periodic linear interpolant of w from a to b, 0 <= a <= b <= w.size.

    ``a`` and ``b`` are in cell units.  The whole segments between the two
    partial end cells come from one slice sum of the nodes they span.
    """
    last = w.size - 1
    ka = min(int(a), last)
    kb = min(int(b), last)
    if ka == kb:
        return _segment_part(w, ka, a - ka, b - kb)
    whole = float(w[ka + 1:kb + 1].sum()) - 0.5 * (w.item(ka + 1) + w.item(kb))
    return _segment_part(w, ka, a - ka, 1.0) + whole + _segment_part(w, kb, 0.0, b - kb)


def _arc_mass(posterior: GridPosterior, start: float, end: float) -> float:
    """Posterior mass of the arc running counterclockwise from angle start to end.

    The arc is integrated head-on from the kept weights, in two slices
    where it crosses the 0/2*pi seam, and divided by the weights' periodic
    trapezoid total; the result is clamped to [0, 1].
    """
    w, total = posterior._kept_weights()
    a = start / posterior.cell_width
    b = end / posterior.cell_width
    if a <= b:
        mass = _span_integral(w, a, b)
    else:
        mass = _span_integral(w, a, posterior.grid_size) + _span_integral(w, 0.0, b)
    return min(max(mass / total, 0.0), 1.0)


def confidence(posterior: GridPosterior, interval: CircularInterval) -> float:
    """Posterior mass inside the interval, by trapezoid integration."""
    if interval.half_width >= np.pi:
        return 1.0
    return _arc_mass(posterior, interval.lower, interval.upper)


def mass_outside(posterior: GridPosterior, interval: CircularInterval) -> float:
    """Posterior mass in the complement arc, integrated directly.

    The gate check of every gated shot.  It is not ``1 - confidence(...)``:
    the gate compares tail masses down to ~1e-15 against allowances as
    small, and the subtraction would lose every significant digit to
    cancellation.  The complement arc is summed over its own cells
    instead, so the cost is one pass over the cells outside the interval,
    with no prefix array and no density.
    """
    if interval.half_width >= np.pi:
        return 0.0
    return _arc_mass(posterior, interval.upper, interval.lower)


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
        k = _arc_argmax(lw, angles, within)
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


def _in_arc(angle: float, interval: CircularInterval) -> bool:
    """Scalar form of ``wrapped_distance(angle, center) <= half_width + 1e-12``."""
    gap = (angle - interval.center) % TWO_PI
    if gap > np.pi:
        gap -= TWO_PI
    return abs(gap) <= interval.half_width + 1e-12


def _arc_argmax(lw: np.ndarray, angles: np.ndarray, interval: CircularInterval) -> int | None:
    """Smallest index of the largest log-weight among the cells inside ``interval``.

    Those cells form one circular run.  Its index range is center +-
    half_width with one cell of margin per side, so rounding in the angle
    arithmetic never drops a cell; the exact membership test then trims
    each end.  A range that wraps all the way round is cut next to the
    antipode instead, where any cells outside the arc lie.  Returns None
    when no cell inside holds a finite weight.
    """
    g = lw.size
    h = TWO_PI / g
    lo = math.floor((interval.center - interval.half_width) / h) - 1
    hi = math.ceil((interval.center + interval.half_width) / h) + 1
    if hi - lo + 1 >= g:
        lo = math.floor((interval.center + np.pi) / h) + 1
        hi = lo + g - 1
    while lo <= hi and not _in_arc(float(angles[lo % g]), interval):
        lo += 1
    while hi >= lo and not _in_arc(float(angles[hi % g]), interval):
        hi -= 1
    if lo > hi:
        return None
    start = lo % g
    stop = start + hi - lo + 1
    if stop <= g:
        k = start + int(np.argmax(lw[start:stop]))
    else:
        # The run crosses the seam: the low-index slice goes first, so a tie
        # still goes to the smallest grid index.
        k = int(np.argmax(lw[:stop - g]))
        k_high = start + int(np.argmax(lw[start:]))
        if lw[k_high] > lw[k]:
            k = k_high
    return k if math.isfinite(lw[k]) else None


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
    return min(max(shots * mean_p, 0.0), float(shots))


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
