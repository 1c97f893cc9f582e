"""Grid-based Bayesian posterior over a phase on the circle [0, 2*pi).

The posterior is held as unnormalised linear weights on a uniform grid of
``grid_size`` cells and their sum.  Normalisation uses the periodic
trapezoid rule, which on a uniform circular grid reduces to a plain node
sum times the cell width.

Only a live window of the grid is stored, and it is always stated as
(grid_size, offset, length): the circular run of cells offset, ...,
offset + length - 1 (mod grid_size), which may cross the 0/2*pi seam, where
length is the size of the weights.  Every cell outside it holds exactly
zero weight, so each operation here, and each cache of cos(n theta),
sin(n theta), p0 and arc geometry, works on the window alone.  A new
posterior's window is the whole grid.  It shrinks only in
``ensure_resolution``, right before each doubling of the grid: the two end
runs of the window that together hold at most TRIM_MASS = 2**-100 of the
mass are cut, GUARD_CELLS = 2 cells short of each cut, so the parabola of
the mode and the end segments of the interval integrals read the same
cells as on the whole grid.  The share of the mass cut so far is kept in
``discarded``, and the gate check ``mass_outside`` adds it to the tail it
sums inside the window, so a trimmed posterior passes a gate only later,
never earlier.

A window of the whole grid is a circle; a shorter one has zero cells
beyond both ends.  Four places differ between the two because
periodicity forces them: ``_trim`` puts a whole window's ends at the
antipode of its largest weight, ``_refine_once`` puts a midpoint between
its last and first cells, ``map_estimate`` reads the peak's neighbours
across that join, and ``_integrate`` integrates the segment over it.

One shot is folded in by ``update_shot`` alone: it multiplies the weights
in place by the shot's factor, the circuit's p0 or 1 - p0, and takes one
sum, the new total: the sequential Monte Carlo update
w <- w * Pr(d | theta) (Granade et al., New J. Phys. 14, 103013, 2012) on
the grid.  Once the sum falls below RESCALE_FLOOR the weights are divided
by it.  A caller that reads only the weights between shots, as the
adaptive loop's stays and closing circuit do, names the mode, and the sum
is skipped while the mode's weight is at or above the floor; the caller
then calls ``normalize`` before anything reads the total.  The factor
comes from ``shot_likelihood`` for a circuit that repeats, or from
``retuned_factor`` on the window's ``window_trig`` for one that does not;
both refine the grid first, so a caller can fetch them once for all the
shots of one depth.  Interval masses (``confidence`` and
``mass_outside``) integrate the weights' linear interpolant over the arc
they report, so a tiny tail mass is summed directly instead of being left
over from a difference of O(1) sums.

The grid must stay fine enough to resolve the fastest likelihood
oscillation: a circuit of depth n modulates the likelihood at angular
frequency n, and updates enforce at least 32 grid points per period.  When
an incoming record is too deep for the current grid the posterior doubles
its resolution in place, giving each new midpoint the geometric mean of its
neighbours (the midpoint of the log-weights), up to a hard memory cap.
Restricting the work to the arc that holds the mass follows the nested
intervals of Kimmel, Low & Yoder (PRA 92, 062315, 2015).

Three caches hold window arrays, each value a pair of read-only arrays
as long as the window: ``_grid_trig`` keeps cos(n theta) and sin(n theta)
per depth, ``_log_prob_components`` the p0 and q0 = 1 - p0 of circuits
that single shots and predictions repeat, and ``_log_likelihood`` the
log p0 and log q0 of circuits that batch records repeat.  The p0 cache
serves the adaptive loop's two unit-depth probes, each gated rung's
circuit and the closing circuit, each looked up once per sampling phase,
and ``predict_outcome``; the hypothetical update of ``predict_loss`` takes
its logs from that same p0 and keeps them nowhere, since its circuit is
folded in once.  A circuit retuned for every shot, as a rung's stay is,
never repeats, so ``retuned_factor`` builds its p0 anew outside the cache,
from the depth's cached cos and sin and into a buffer the caller reuses,
and turns it into q0 in place only for a dark outcome.  The log cache
serves the baselines, whose runs fold in the same whole-grid circuits
(depths up to 128 at phases 0 and pi/2 on 4096 cells) run after run, so a
repeated batch record takes no log of its own.  ``fold`` takes each run of
consecutive batch records that one grid resolves through one log and one
exp of the weights, each record adding its cached x log p0 +
(shots - x) log q0 to that one log: a doubling run's 16 records on the
4096-cell grid take one log and one exp, not 16 of each.  A run of one
record, as ``update`` and ``predict_loss`` fold, is the batch update
operation for operation.  Each cache is
bounded by a number of entries and by the bytes it holds
(TRIG_CACHE_BYTES, LIKELIHOOD_CACHE_BYTES, LOG_LIKELIHOOD_CACHE_BYTES),
and a miss evicts the least recently used entries until both bounds hold
again.  The trig and p0 caches never evict the entry a miss just built, so
a window too large for the budget still finds its arrays on the next
lookup, as ``predict_loss`` makes right after ``predict_outcome``.  The
log cache keeps no entry larger than its budget: a batch record on a grid
that large is a doubling block that does not come back, and keeping it
would hold up to 64 MiB at the grid cap long after the run.  Memory thus
follows the live window, not the largest grid the process has seen.

The window's angles are rebuilt on each read, in a few microseconds at
4096 cells: only trig misses and the loss reads need them, and a cache of
them held one more window-sized array per grid.

Most gate checks fail, by orders of magnitude, so a check is first
tried against a bound: ``nodes_beyond_arc`` names the nodes at least 3
cells beyond each end of an arc around the interval, and
``tail_exceeds`` reports whether one of them alone holds more than twice
the allowance.  Such a node is a whole term of the tail integral, so
True proves ``mass_outside`` above the allowance; only a check the bound
cannot settle sums the tail, so every check that could pass is still
decided by the direct sum.

Three small caches hold arc geometry, no arrays.  ``_arc_spans`` keeps the
spans of the last interval a mass was read over, since a gated rung reads
one interval after every shot; step 1's interval moves with the mode and
replaces it, now only on the checks the bound cannot settle.
``_arc_runs`` keeps the slices of the last 16 intervals the mode was
searched within, which a stay reads every shot, and ``nodes_beyond_arc``
the bound's nodes of the last 16 arcs and windows.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache, update_wrapper
from itertools import islice

import numpy as np

from .angles import TWO_PI, wrap, wrap_float, wrapped_distance
from .model import Circuit, MeasurementRecord, NoiseModel, check_integer

MIN_GRID_SIZE = 64
POINTS_PER_PERIOD = 32
MAX_GRID_SIZE = 1 << 22
MAX_DEPTH = MAX_GRID_SIZE // POINTS_PER_PERIOD  # the deepest circuit a capped grid resolves
# Weights summing to less than this are divided by their sum, which happens
# every few hundred shots and long before the largest weight nears underflow.
RESCALE_FLOOR = 2.0**-256
TINY_MASS = 2.0**-900
# Before each doubling the window drops end runs holding at most this share
# of the mass, and keeps GUARD_CELLS cells beyond each cut.
TRIM_MASS = 2.0**-100
GUARD_CELLS = 2
# p0 = 1/2 + (e/2) x with x = cos(n theta) cos(phase) - sin(n theta) sin(phase)
# in floats.  Each of the four factors is within a few ulps of the cosine or
# sine of one angle, so after the two products and the difference round,
# |x| <= 1 + 2**-47.  An envelope e <= 1 - 2**-32 then gives (e/2)|x| < 1/2,
# and since rounding is monotone, 1/2 + (e/2) x lands in [0, 1] with no
# clamp.  The margin 2**-32 is 2**15 times the error bound.  Only a larger
# envelope (in practice e = 1, a noiseless circuit) can round p0 past 0 or 1.
CLAMP_FREE_ENVELOPE = 1.0 - 2.0**-32
# Bytes of arrays each per-grid cache may hold beside its entry count.  The
# trig and p0 caches keep the entry built last even when it alone is larger;
# the log cache keeps no such entry.  1.25 MiB holds the 16 whole-grid
# circuits of a doubling run on 4096 cells and the small windows after them.
TRIG_CACHE_BYTES = 4 << 20
LIKELIHOOD_CACHE_BYTES = 2 << 20
LOG_LIKELIHOOD_CACHE_BYTES = 5 << 18


class GridTooCoarseError(ValueError):
    """Raised when a record needs more resolution than the grid cap allows."""


class ImpossibleObservationError(ValueError):
    """Raised when an update wipes out every grid cell (all weights 0)."""


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
        if not math.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center}")
        object.__setattr__(self, "center", wrap_float(self.center))
        object.__setattr__(self, "half_width", float(self.half_width))

    def contains(self, theta: float) -> bool:
        """Whether ``wrapped_distance(theta, center) <= half_width + 1e-12``, in float arithmetic."""
        gap = (theta - self.center) % TWO_PI
        if gap > np.pi:
            gap -= TWO_PI
        return abs(gap) <= self.half_width + 1e-12

    @property
    def lower(self) -> float:
        """Counterclockwise start of the arc (may exceed ``upper`` mod 2*pi)."""
        return wrap_float(self.center - self.half_width)

    @property
    def upper(self) -> float:
        return wrap_float(self.center + self.half_width)


# ndarray.sum() without its Python wrapper: the same reduction, so the same bits.
_add_reduce = np.add.reduce

CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize", "maxbytes", "currbytes"])


def _nbytes(pair) -> int:
    """Bytes of the two arrays a cached value holds."""
    return sum(array.nbytes for array in pair)


def _bounded_cache(maxsize: int, maxbytes: int, keep_newest: bool = True):
    """Least-recently-used memo of a function that returns a pair of arrays, bounded by entries and by bytes.

    After a miss, the oldest entries go until at most ``maxsize`` entries
    of at most ``maxbytes`` bytes (``_nbytes``) are left.  With
    ``keep_newest`` the entry the miss built always stays, even when it
    alone is larger than ``maxbytes``; without it such an entry is returned
    and not kept.  Arguments are positional and hashable.  As with
    ``functools.lru_cache``, the wrapper has ``cache_info()``,
    ``cache_clear()``, ``cache_parameters()`` and ``__wrapped__``.
    """

    def decorate(build):
        entries = {}  # key -> (value, bytes), least recently used first
        pop = entries.pop
        hits = misses = held = 0

        def cached(*key):
            nonlocal hits, misses, held
            entry = pop(key, None)
            if entry is not None:
                entries[key] = entry
                hits += 1
                return entry[0]
            misses += 1
            value = build(*key)
            size = _nbytes(value)
            if size > maxbytes and not keep_newest:
                return value
            entries[key] = value, size
            held += size
            while len(entries) > maxsize or (held > maxbytes and len(entries) > 1):
                held -= pop(next(iter(entries)))[1]
            return value

        def cache_info() -> CacheInfo:
            return CacheInfo(hits, misses, maxsize, len(entries), maxbytes, held)

        def cache_clear() -> None:
            nonlocal hits, misses, held
            entries.clear()
            hits = misses = held = 0

        def cache_parameters() -> dict:
            return {"maxsize": maxsize, "maxbytes": maxbytes, "keep_newest": keep_newest}

        cached.cache_info = cache_info
        cached.cache_clear = cache_clear
        cached.cache_parameters = cache_parameters
        return update_wrapper(cached, build)

    return decorate


def _grid_angles(grid_size: int, offset: int, length: int) -> np.ndarray:
    """Angles of the grid cells offset, ..., offset + length - 1 (mod grid_size), built anew.

    The cell numbers are exact in floats, so wrapping them past the seam by
    one subtraction gives the bits of the integer ``% grid_size``.
    """
    angles = np.arange(offset, offset + length, dtype=float)
    angles[grid_size - offset:] -= grid_size
    angles *= TWO_PI / grid_size
    return angles


@_bounded_cache(maxsize=64, maxbytes=TRIG_CACHE_BYTES)
def _grid_trig(grid_size: int, depth: int, offset: int, length: int):
    arg = _grid_angles(grid_size, offset, length)
    arg *= depth
    cos_n = np.cos(arg)
    sin_n = np.sin(arg)
    cos_n.setflags(write=False)
    sin_n.setflags(write=False)
    return cos_n, sin_n


def _grid_p0(trig: tuple, phase: float, envelope: float, out: np.ndarray | None = None) -> np.ndarray:
    """Bright-outcome probability p0 of one circuit at every cell of a window, into ``out`` if given.

    ``trig`` is the window's (cos n theta, sin n theta) for the circuit's depth n, from ``_grid_trig``.
    """
    cos_n, sin_n = trig
    p0 = np.multiply(cos_n, math.cos(phase), out=out)
    p0 -= sin_n * math.sin(phase)
    p0 *= 0.5 * envelope
    p0 += 0.5
    return p0


def _unit_p0(trig: tuple, phase: float, envelope: float, out: np.ndarray | None = None) -> np.ndarray:
    """``_grid_p0`` in [0, 1], built anew into ``out``, or into a new writable array.

    p0 is clamped only above CLAMP_FREE_ENVELOPE, where rounding can push it
    out; below, the clamp would change nothing.
    """
    p0 = _grid_p0(trig, phase, envelope, out)
    if envelope > CLAMP_FREE_ENVELOPE:
        np.minimum(p0, 1.0, out=p0)
        np.maximum(p0, 0.0, out=p0)
    return p0


@_bounded_cache(maxsize=8, maxbytes=LIKELIHOOD_CACHE_BYTES)
def _log_prob_components(grid_size: int, depth: int, phase: float, envelope: float, offset: int, length: int):
    """Per-cell outcome probabilities (p0, q0 = 1 - p0) of one circuit on a window, from ``_unit_p0``, cached.

    Gated sampling phases hammer the same circuit for tens of shots; caching
    p0 and q0 makes each such update one multiply and one sum.  The
    key holds the circuit's envelope, ``NoiseModel.contrast``, so noise
    models of one envelope share an entry.
    """
    p0 = _unit_p0(_grid_trig(grid_size, depth, offset, length), phase, envelope)
    q0 = 1.0 - p0
    p0.setflags(write=False)
    q0.setflags(write=False)
    return p0, q0


@_bounded_cache(maxsize=64, maxbytes=LOG_LIKELIHOOD_CACHE_BYTES, keep_newest=False)
def _log_likelihood(grid_size: int, depth: int, phase: float, envelope: float, offset: int, length: int):
    """(log p0, log q0) of one circuit on a window, from ``_unit_p0``, cached for batch records.

    The baselines fold in the same few whole-grid circuits run after run, so
    a repeated batch record takes no log but that of the weights.  The logs
    are those of ``_log_prob_components``' p0 and 1 - p0, bit for bit.
    """
    p0 = _unit_p0(_grid_trig(grid_size, depth, offset, length), phase, envelope)
    q0 = 1.0 - p0
    with np.errstate(divide="ignore"):
        np.log(p0, out=p0)
        np.log(q0, out=q0)
    p0.setflags(write=False)
    q0.setflags(write=False)
    return p0, q0


@dataclass(eq=False)
class GridPosterior:
    """Posterior on a uniform circular grid of ``grid_size`` cells, as unnormalised linear weights.

    ``weights`` covers only the live window, the grid cells ``offset``, ...,
    ``offset + weights.size - 1`` (mod ``grid_size``); every other cell has
    weight 0.  ``total`` is the sum of the weights, and ``discarded`` the
    share of the mass cut from the window so far.  The density and the
    interval masses are read from the weights and their total.

    A posterior whose total is 0 carries no probability and raises
    ImpossibleObservationError when either is read.
    """

    weights: np.ndarray
    total: float
    grid_size: int
    offset: int = 0
    discarded: float = 0.0

    @property
    def cell_width(self) -> float:
        return TWO_PI / self.grid_size

    @property
    def angles(self) -> np.ndarray:
        """Angles of the window's cells."""
        return _grid_angles(self.grid_size, self.offset, self.weights.size)

    @property
    def density(self) -> np.ndarray:
        """Probability density at the window's cells (integrates to 1)."""
        return self.weights / (_live_total(self) * self.cell_width)

    def clone(self) -> "GridPosterior":
        return GridPosterior(self.weights.copy(), self.total, self.grid_size, self.offset, self.discarded)


def _live_total(posterior: GridPosterior) -> float:
    """The weight sum, or ImpossibleObservationError if no weight is left."""
    if not posterior.total > 0.0:
        raise ImpossibleObservationError("posterior carries no weight")
    return posterior.total


def check_grid_size(grid_size: int) -> None:
    """Raise ValueError unless grid_size is an integer power of two from MIN_GRID_SIZE to MAX_GRID_SIZE.

    Doubling a power of two never steps over MAX_GRID_SIZE, so every grid stays within the cap.
    """
    check_integer("grid_size", grid_size, MIN_GRID_SIZE)
    if grid_size > MAX_GRID_SIZE:
        raise ValueError(f"grid_size must be <= {MAX_GRID_SIZE}, got {grid_size}")
    if grid_size & (grid_size - 1):
        raise ValueError(f"grid_size must be a power of two, got {grid_size}")


def uniform_prior(grid_size: int) -> GridPosterior:
    """Flat prior 1/(2*pi) on a grid of ``grid_size`` cells, as ``check_grid_size`` allows."""
    check_grid_size(grid_size)
    return GridPosterior(np.ones(grid_size), float(grid_size), grid_size)


def normalize(posterior: GridPosterior) -> GridPosterior:
    """Recompute ``total`` from the weights, dividing them by it below RESCALE_FLOOR.

    Raises ImpossibleObservationError, with ``total`` set to 0, when no
    weight is left.
    """
    total = float(posterior.weights.sum())
    if not total > 0.0:
        posterior.total = 0.0
        raise ImpossibleObservationError("cannot normalize: every grid cell has weight 0")
    if total < RESCALE_FLOOR:
        posterior.weights /= total
        total = float(posterior.weights.sum())
    posterior.total = total
    return posterior


def _trim(posterior: GridPosterior):
    """Cut the window's two end runs that hold at most TRIM_MASS of its mass, GUARD_CELLS short of each cut.

    Each end gives up at most half of TRIM_MASS, and the share it gives up
    goes into ``discarded``.  A whole-grid window is a circle, so its ends
    are put at the antipode of its largest weight first.
    """
    w = posterior.weights
    start = 0
    if w.size == posterior.grid_size:
        start = (int(np.argmax(w)) + w.size // 2) % w.size
        w = np.roll(w, -start)
    from_left = np.cumsum(w)
    total = float(from_left[-1])
    if not total > 0.0:
        return
    allowance = 0.5 * TRIM_MASS * total
    left = int(np.searchsorted(from_left, allowance, side="right")) - GUARD_CELLS
    right = int(np.searchsorted(np.cumsum(w[::-1]), allowance, side="right")) - GUARD_CELLS
    if left <= 0 and right <= 0:
        return
    left, right = max(left, 0), max(right, 0)
    kept = w[left:w.size - right].copy()
    posterior.discarded += (float(w[:left].sum()) + float(w[w.size - right:].sum())) / total
    posterior.offset = (posterior.offset + start + left) % posterior.grid_size
    posterior.weights = kept
    posterior.total = float(kept.sum())


def _refine_once(posterior: GridPosterior) -> GridPosterior:
    """Double the grid, putting sqrt(w_k) * sqrt(w_k+1) between each pair of neighbours.

    That is exp of the midpoint of their log-weights; taking the roots
    first keeps the product of two tiny weights from underflowing.  A
    window of L cells short of the whole grid becomes one of 2L - 1 cells.
    """
    w = posterior.weights
    root = np.sqrt(w)
    if w.size == posterior.grid_size:
        doubled = np.empty(2 * w.size)
        np.multiply(root, np.roll(root, -1), out=doubled[1::2])
    else:
        doubled = np.empty(2 * w.size - 1)
        np.multiply(root[:-1], root[1:], out=doubled[1::2])
    doubled[0::2] = w
    posterior.weights = doubled
    posterior.grid_size *= 2
    posterior.offset *= 2
    return posterior


def required_grid_size(depth: int) -> int:
    return max(MIN_GRID_SIZE, POINTS_PER_PERIOD * depth)


def ensure_resolution(posterior: GridPosterior, depth: int) -> GridPosterior:
    """Grow the grid until it resolves oscillations of the given depth, trimming the window before each doubling."""
    required = required_grid_size(depth)
    if depth > MAX_DEPTH:
        raise GridTooCoarseError(
            f"depth {depth} needs {required} cells, above the cap {MAX_GRID_SIZE}"
        )
    refined = False
    while posterior.grid_size < required:
        _trim(posterior)
        _refine_once(posterior)
        refined = True
    if refined:
        normalize(posterior)
    return posterior


def _resolves(posterior: GridPosterior, depth: int) -> bool:
    """Whether the grid resolves circuits of ``depth`` with no refining: the rule ``_resolve`` and ``fold`` read."""
    return posterior.grid_size >= required_grid_size(depth) and depth <= MAX_DEPTH


def _resolve(posterior: GridPosterior, depth: int) -> None:
    """Refine the grid in place, if it must, to resolve circuits of ``depth``."""
    if not _resolves(posterior, depth):
        ensure_resolution(posterior, depth)


def _window_key(posterior: GridPosterior, depth: int, phase: float, envelope: float) -> tuple:
    """Refine the grid in place to resolve ``depth``, then return the circuit's p0 arguments on the window."""
    _resolve(posterior, depth)
    return posterior.grid_size, depth, phase, envelope, posterior.offset, posterior.weights.size


def shot_likelihood(posterior: GridPosterior, depth: int, phase: float, envelope: float) -> tuple:
    """Refine the grid in place to resolve ``depth``, then look up the circuit's cached (p0, q0) on the window.

    ``envelope`` is the circuit's ``NoiseModel.contrast``.  A bright shot
    multiplies the weights by p0, a dark one by q0 = 1 - p0.
    """
    return _log_prob_components(*_window_key(posterior, depth, phase, envelope))


def window_trig(posterior: GridPosterior, depth: int) -> tuple:
    """Refine the grid in place to resolve ``depth``, then return the window's cached (cos n theta, sin n theta).

    For circuits of this depth that ``retuned_factor`` builds shot by shot.
    """
    _resolve(posterior, depth)
    return _grid_trig(posterior.grid_size, depth, posterior.offset, posterior.weights.size)


def retuned_factor(trig: tuple, phase: float, envelope: float, bright: bool, out: np.ndarray | None = None):
    """The factor p0, or q0 = 1 - p0 for a dark shot, of one shot of a circuit that will not repeat.

    ``trig`` is the window's from ``window_trig``.  The factor is built anew
    from ``_unit_p0``, into ``out`` if given, and never cached; q0 is made
    from p0 in place, with the bits of the cached q0.
    """
    factor = _unit_p0(trig, phase, envelope, out)
    if not bright:
        np.subtract(1.0, factor, out=factor)
    return factor


def update_shot(posterior: GridPosterior, factor: np.ndarray, mode: float | None = None) -> GridPosterior:
    """Fold one shot into the posterior in place: multiply the weights by its ``factor``, then sum and rescale.

    ``factor`` is the shot's p0 or q0 on the window, from ``shot_likelihood``
    or ``retuned_factor``.  The sum is the new total unless it fell below
    RESCALE_FLOOR, and then ``normalize`` divides the weights by it.

    With ``mode``, an angle near the posterior's peak, the sum is skipped
    when the weight of the window's cell nearest it is at least
    RESCALE_FLOOR after the multiply.  That is exact: a float sum of
    nonnegative weights is at least its largest term, so no rescale can be
    due.  ``total`` is then stale; the caller reads only the weights until
    it calls ``normalize``, which sums them to the bits this shot's sum
    would have left.  If the shot is impossible everywhere on the grid,
    ImpossibleObservationError is raised; discard the posterior.
    """
    w = posterior.weights
    w *= factor
    if mode is not None:
        g = posterior.grid_size
        cell = (int(mode * g / TWO_PI + 0.5) - posterior.offset) % g
        if cell < w.size and w.item(cell) >= RESCALE_FLOOR:
            return posterior
    total = float(_add_reduce(w))
    if total >= RESCALE_FLOOR:
        posterior.total = total
        return posterior
    return normalize(posterior)


def update(posterior: GridPosterior, record: MeasurementRecord, noise: NoiseModel) -> GridPosterior:
    """Multiply in the likelihood of ``record`` and renormalize, in place: ``fold`` of that one record.

    A single shot with a whole outcome is ``update_shot`` of its circuit's
    cached p0 or q0.  Any other record is added to the log-weights as
    x * log p0 + (shots - x) * log q0, with the logs cached by
    ``_log_likelihood``; the binomial coefficient is constant in theta, so
    normalisation removes it and it is never added.  Zero-shot records
    leave the posterior untouched.  If the observation is impossible
    everywhere on the grid, ImpossibleObservationError is raised; discard
    the posterior.
    """
    return fold(posterior, (record,), noise)


def _single_shot(record: MeasurementRecord) -> bool:
    """Whether ``record`` is one shot with a whole outcome, which ``update_shot`` folds."""
    return record.shots == 1 and (record.successes == 1.0 or record.successes == 0.0)


def fold(posterior: GridPosterior, records, noise: NoiseModel, logs=None) -> GridPosterior:
    """Multiply in the likelihoods of the sequence ``records``, in order, and renormalize, in place.

    A single shot with a whole outcome is ``update_shot`` of its circuit's
    cached p0 or q0.  The other records are folded in runs.  A run starts
    at such a batch record, for which the grid is refined first, and takes
    every batch record right after it that the grid then resolves
    (``_resolves``).  The run takes the log of the weights once, adds
    x * log p0 + (shots - x) * log q0 of each of its records, with the
    logs from ``logs`` called on the circuit's window key (the cached
    ``_log_likelihood`` if None), then shifts by the largest log,
    exponentiates and normalizes once.  A run of one record is thus the
    batch update of ``update``, operation for operation; a longer run
    differs from folding its records one at a time by rounding alone.  The
    log is taken in place of the weights, and each record's logs are let
    go before the next record's are built, so a run holds no more window
    arrays at once than one record does.  Zero-shot records leave the
    posterior untouched.  If the records are impossible everywhere on the
    grid, ImpossibleObservationError is raised; discard the posterior.
    """
    logs = _log_likelihood if logs is None else logs
    start, count = 0, len(records)
    while start < count:
        first = records[start]
        stop = start + 1
        if first.shots == 0:
            start = stop
            continue
        _resolve(posterior, first.circuit.depth)
        single = _single_shot(first)
        while (not single and stop < count and not _single_shot(records[stop])
               and _resolves(posterior, records[stop].circuit.depth)):
            stop += 1
        try:
            if single:
                depth = first.circuit.depth
                p0, q0 = shot_likelihood(posterior, depth, first.circuit.phase, noise.contrast(depth))
                update_shot(posterior, p0 if first.successes == 1.0 else q0)
            else:
                _fold_run(posterior, islice(records, start, stop), noise, logs)
        except ImpossibleObservationError:
            which = f"record {first} has" if stop == start + 1 else f"records {list(records[start:stop])} have"
            raise ImpossibleObservationError(f"{which} zero likelihood at every grid cell") from None
        start = stop
    return posterior


def _fold_run(posterior: GridPosterior, run, noise: NoiseModel, logs) -> None:
    """Fold a run of batch records, all resolved by the grid as it is, through one log and one exp of the weights."""
    with np.errstate(divide="ignore"):
        lw = np.log(posterior.weights, out=posterior.weights)
    term = np.empty_like(lw)
    for record in run:
        if record.shots == 0:
            continue
        depth = record.circuit.depth
        log_p0, log_q0 = logs(*_window_key(posterior, depth, record.circuit.phase, noise.contrast(depth)))
        x = record.successes
        misses = record.shots - x
        if x > 0:
            lw += np.multiply(log_p0, x, out=term)
        if misses > 0:
            lw += np.multiply(log_q0, misses, out=term)
        del log_p0, log_q0
    shift = lw.max()
    if math.isfinite(shift):
        lw -= shift
    np.exp(lw, out=lw)
    normalize(posterior)


def _logs_taken_once(grid_size: int, depth: int, phase: float, envelope: float, offset: int, length: int):
    """(log p0, log q0) of the p0 cache's entry, taken anew and not kept.

    For a circuit folded in once, as the hypothetical update of
    ``predict_loss`` is: the log cache keeps only circuits that batch
    records repeat, and the p0 is the one ``predict_outcome`` just read.
    """
    p0, q0 = _log_prob_components(grid_size, depth, phase, envelope, offset, length)
    with np.errstate(divide="ignore"):
        return np.log(p0), np.log(q0)


def _integrate(w: np.ndarray, spans: tuple) -> float:
    """Integral of the interpolant of the window's weights ``w`` over ``spans`` from ``_window_spans``.

    A span (ka, ta, kb, tb, periodic) runs from ka + ta to kb + tb, ka <= kb
    and 0 <= ta, tb <= 1.  Node -1, and node ``len(w)`` off a periodic
    window, are zero.  The part [k + t0, k + t1] of one segment integrates
    to its width times a convex mix of the segment's two nodes, with the
    weights 1/2 ((1 - t0) + (1 - t1)) and 1/2 (t0 + t1), so no term cancels
    when one node is far smaller than the other.  A span within one cell is
    one such part.  A longer one is a partial first cell [ka + ta, ka + 1],
    the whole segments after it as one slice sum of the nodes they span
    less half of its two end nodes, and a partial last cell [kb, kb + tb].
    """
    n = w.size
    mass = 0.0
    for ka, ta, kb, tb, periodic in spans:
        left = w.item(ka) if ka >= 0 else 0.0
        right = w.item(kb + 1) if kb + 1 < n else (w.item(0) if periodic else 0.0)
        if ka == kb:
            mass += (tb - ta) * (left * (0.5 * ((1.0 - ta) + (1.0 - tb))) + right * (0.5 * (ta + tb)))
        else:
            lo, hi = w.item(ka + 1), w.item(kb)
            whole = float(_add_reduce(w[ka + 1:kb + 1])) - 0.5 * (lo + hi)
            first = (1.0 - ta) * (left * (0.5 * (1.0 - ta)) + lo * (0.5 * (ta + 1.0)))
            last = tb * (hi * (0.5 * (1.0 + (1.0 - tb))) + right * (0.5 * tb))
            mass += first + whole + last
    return mass


def _window_spans(grid_size: int, offset: int, length: int, a: float, b: float) -> tuple:
    """Spans of the window's interpolant over the arc from cell a to cell b of the grid.

    ``a`` and ``b`` are in grid cell units, 0 <= a, b <= grid_size, and the
    arc runs counterclockwise, across the 0/2*pi seam when it must.  Each
    end is moved into the window's own cells, its first at 0, as a whole
    cell plus the fraction ``a`` or ``b`` had, so no end loses precision.
    A whole window is periodic.  A shorter one has zero cells just outside
    it at -1 and ``length``, so the arc meets its support in at most two
    spans.
    """
    g = grid_size
    periodic = length == g
    first = 0 if periodic else -1
    k = min(int(a), g - 1)
    ka, ta = (k - offset - first) % g + first, a - k
    k = min(int(b), g - 1)
    kb, tb = (k - offset - first) % g + first, b - k
    if ka < kb or (ka == kb and ta <= tb):
        pieces = ((ka, ta, kb, tb),)
    else:
        pieces = ((ka, ta, first + g - 1, 1.0), (first, 0.0, kb, tb))
    spans = []
    for ka, ta, kb, tb in pieces:
        if kb >= length:
            kb, tb = length - 1, 1.0
        if ka < kb or (ka == kb and ta < tb):
            spans.append((ka, ta, kb, tb, periodic))
    return tuple(spans)


@lru_cache(maxsize=1)
def _arc_spans(grid_size: int, offset: int, length: int, center: float, half_width: float, outside: bool):
    """``_window_spans`` of the window inside the interval (center, half_width), or in its complement if ``outside``.

    One entry is kept: a gated rung reads one interval after every shot, and
    nothing reads an interval between two of its gate checks.  Step 1's
    interval is recentred on every check the bound of ``nodes_beyond_arc``
    cannot settle and never repeats, so it replaces the entry at the cost of
    one ``_window_spans`` call.  The key holds the interval's two floats,
    which hash faster than the dataclass.  None when the interval covers the
    whole circle: at half_width = pi, or when its two ends round to one
    angle on an arc wider than pi / 2, which covers the circle but a
    rounding error.  Ends that round to one angle on a narrower arc, one
    far below a cell, hold nothing: no spans inside, the whole window
    outside.
    """
    # The interval's lower and upper ends, without building the interval.
    lower, upper = wrap_float(center - half_width), wrap_float(center + half_width)
    if half_width >= np.pi or lower == upper:
        if half_width > 0.5 * np.pi:
            return None
        periodic = length == grid_size
        return ((0 if periodic else -1, 0.0, length - 1, 1.0, periodic),) if outside else ()
    start, end = (upper, lower) if outside else (lower, upper)
    cell_width = TWO_PI / grid_size
    return _window_spans(grid_size, offset, length, start / cell_width, end / cell_width)


def _arc_mass(posterior: GridPosterior, spans: tuple) -> float:
    """Window mass over ``spans``, divided by the weights' periodic trapezoid total and clamped to [0, 1].

    The arc is integrated head-on from the weights.  Products of subnormal
    weights round to an absolute 2**-1075, so a mass below TINY_MASS is
    integrated again on the weights scaled by 1 / TINY_MASS, an exact power
    of two; no weight exceeds 1, so none overflows.
    """
    w, total = posterior.weights, _live_total(posterior)
    mass = _integrate(w, spans)
    if mass < TINY_MASS:
        mass = _integrate(w / TINY_MASS, spans)
        total /= TINY_MASS
    return min(max(mass / total, 0.0), 1.0)


def confidence(posterior: GridPosterior, interval: CircularInterval) -> float:
    """Posterior mass inside the interval, by trapezoid integration over the window.

    An interval wider than pi / 2 whose two ends round to one angle covers
    the whole circle but a rounding error, so it holds all the mass, as at
    half_width = pi; a narrower one holds none.
    """
    spans = _arc_spans(
        posterior.grid_size, posterior.offset, posterior.weights.size, interval.center, interval.half_width, False
    )
    return 1.0 if spans is None else _arc_mass(posterior, spans)


def mass_outside(posterior: GridPosterior, interval: CircularInterval) -> float:
    """Posterior mass in the complement arc, integrated directly, plus the mass cut from the window.

    The gate check of every gated shot.  It is not ``1 - confidence(...)``:
    the gate compares tail masses down to ~1e-15 against allowances as
    small, and the subtraction would lose every significant digit to
    cancellation.  The complement arc is summed over its own cells of the
    window instead, so the cost is one pass over those cells, with no
    prefix array and no density.  Adding ``discarded`` means a trimmed
    window can only pass the gate later, never earlier.  Ends that round
    to one angle leave no mass outside a wide interval and all of it
    outside a narrow one, as in ``confidence``.  A check that fails by a
    wide margin is settled more cheaply by ``nodes_beyond_arc`` and
    ``tail_exceeds``.
    """
    spans = _arc_spans(
        posterior.grid_size, posterior.offset, posterior.weights.size, interval.center, interval.half_width, True
    )
    return 0.0 if spans is None else _arc_mass(posterior, spans) + posterior.discarded


@lru_cache(maxsize=16)
def nodes_beyond_arc(grid_size: int, offset: int, length: int, center: float, half: float) -> tuple:
    """Window indices of the nodes at least 3 whole cells beyond each end of the arc center +- half.

    ``center`` and ``half`` are in grid cell units.  Each end contributes the
    first node 3 cells or more past it, ceil(center + half) + 3 and
    floor(center - half) - 3 (mod grid_size).  There are none when the
    complement is too short to hold both, 2 half + 8 >= grid_size, and a
    node is dropped when it is not in the window, or is one of its first
    two cells or its last.  Cached, keyed by the window as well as the arc,
    so a window that changes gets its own nodes.

    ``tail_exceeds`` reads these nodes to prove that a gate check fails on
    any interval inside the arc, up to the rounding of its ends, far below
    a cell.  Such a node k is an interior term of a slice sum of
    ``_integrate`` over the complement spans of ``_window_spans``: it lies
    2 cells or more from the span's end nodes ka and kb, so it is neither
    the span's lo node ka + 1 nor its hi node kb, and it is not a window
    end, where the complement may be cut in two.  (Past the cut, a whole
    window's span restarts at cell 0, whose lo node is cell 1, and a
    shorter window's at -1, whose lo node is cell 0.)  A float sum of
    nonnegative terms is at least each term, up to a relative rounding of
    about 1e-13, and taking back the halves of lo and hi leaves at least
    half the sum to the same precision.  The partial cells and any other
    span add nonnegative terms, and the rescale of ``_arc_mass`` below
    TINY_MASS is exact.  So the integral over the total exceeds
    w_k / total (1 - 1e-13), the clamp at 1 never bites (w_k <= total, so
    the bound holds only below allowance 1/2), and ``discarded`` is >= 0:
    w_k > 2 allowance total implies ``mass_outside(...) > allowance``, and
    the check fails.
    """
    if 2.0 * half + 8.0 >= grid_size:
        return ()
    nodes = []
    for cell in (math.ceil(center + half) + 3, math.floor(center - half) - 3):
        k = (cell - offset) % grid_size
        if 2 <= k < length - 1:
            nodes.append(k)
    return tuple(nodes)


def tail_exceeds(posterior: GridPosterior, nodes: tuple, allowance: float) -> bool:
    """Whether one of ``nodes``, from ``nodes_beyond_arc``, has weight above 2 allowance times the total.

    True proves that ``mass_outside`` of an interval within that arc is
    above ``allowance``, so the gate check fails without the tail sum.
    False proves nothing.  ``total`` must be current, as it is after every
    gated shot, since gated shots always sum.  A product 2 allowance total
    that rounds, or underflows, still compares as the exact one: rounding
    is monotone and the weight is a float.
    """
    limit = 2.0 * allowance * posterior.total
    w = posterior.weights
    for k in nodes:
        if w.item(k) > limit:
            return True
    return False


@lru_cache(maxsize=16)
def _arc_runs(grid_size: int, offset: int, length: int, center: float | None = None, half_width: float | None = None):
    """Slices of the window holding its cells inside the interval (center, half_width), in ascending grid index.

    Keyed by the interval's two floats, as ``_arc_spans`` is.  With no
    center the slices cover the whole window.  The cells
    inside an interval form one circular run of the grid.  Its index range
    is center +- half_width with one cell of margin per side, so rounding
    in the angle arithmetic never drops a cell; the exact membership test
    then trims each end.  A range that wraps all the way round is cut next
    to the antipode instead, where any cells outside the arc lie.  The run
    meets the window in at most two pieces, and a piece across grid cell 0
    (window index grid_size - offset) is split there.
    """
    g = grid_size
    if center is None:
        pieces = [(0, length)]
    else:
        interval = CircularInterval(center, half_width)
        h = TWO_PI / g
        lo = math.floor((interval.center - interval.half_width) / h) - 1
        hi = math.ceil((interval.center + interval.half_width) / h) + 1
        if hi - lo + 1 >= g:
            lo = math.floor((interval.center + np.pi) / h) + 1
            hi = lo + g - 1
        while lo <= hi and not interval.contains((lo % g) * h):
            lo += 1
        while hi >= lo and not interval.contains((hi % g) * h):
            hi -= 1
        if lo > hi:
            return ()
        start = (lo - offset) % g
        stop = start + hi - lo + 1
        pieces = [(start, min(stop, length))]
        if stop > g:
            pieces.append((0, min(stop - g, length)))
    seam = g - offset
    runs = []
    for first, last in pieces:
        if first < seam < last:
            runs += [(first, seam), (seam, last)]
        elif first < last:
            runs.append((first, last))
    return tuple(sorted(runs, key=lambda run: (offset + run[0]) % g))


def _run_argmax(w: np.ndarray, runs: tuple) -> int | None:
    """Window index of the largest weight in the slices ``runs``, None if there are none.

    The slices come in ascending grid index and none crosses grid cell 0,
    so taking the first of equal maxima sends ties to the smallest grid index.
    """
    k = None
    for start, stop in runs:
        j = start + int(w[start:stop].argmax())
        if k is None or w.item(j) > w.item(k):
            k = j
    return k


def map_estimate(posterior: GridPosterior, within: CircularInterval | None = None) -> float:
    """Posterior mode, refined by a parabola through the peak cell.

    Ties go to the smallest grid index.  With ``within`` given, the argmax
    is restricted to cells inside that interval (falling back to the global
    argmax if every cell inside has weight 0); only the window's cells of
    the arc are searched.  The parabola is fitted to the log-weights of
    the peak cell and its two neighbours, and skipped if any of them is 0.
    """
    w = posterior.weights
    n, g = w.size, posterior.grid_size
    k = None
    if within is not None:
        k = _run_argmax(w, _arc_runs(g, posterior.offset, n, within.center, within.half_width))
        if k is not None and not w.item(k) > 0.0:
            k = None
    if k is None:
        k = _run_argmax(w, _arc_runs(g, posterior.offset, n))

    left = w.item((k - 1) % n) if k > 0 or n == g else 0.0
    center = w.item(k)
    right = w.item((k + 1) % n) if k < n - 1 or n == g else 0.0
    shift = 0.0
    if left > 0.0 and center > 0.0 and right > 0.0:
        left, center, right = math.log(left), math.log(center), math.log(right)
        curvature = left - 2.0 * center + right
        if curvature < 0.0:
            shift = min(max(0.5 * (left - right) / curvature, -0.5), 0.5)
    cell_width = posterior.cell_width
    return wrap_float((posterior.offset + k) % g * cell_width + shift * cell_width)


def circular_mean_estimate(posterior: GridPosterior) -> float:
    """Argument of the posterior's resultant vector E[exp(i theta)]."""
    d = posterior.density
    cos_1, sin_1 = _grid_trig(posterior.grid_size, 1, posterior.offset, d.size)
    h = posterior.cell_width
    re = float((d * cos_1).sum()) * h
    im = float((d * sin_1).sum()) * h
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
    return float(max((posterior.density * d).sum() * posterior.cell_width, 0.0))


def predict_outcome(posterior: GridPosterior, circuit: Circuit, shots: int, noise: NoiseModel) -> float:
    """Expected bright-outcome count: shots times the posterior mean of p0.

    Refines the caller's posterior in place to resolve ``circuit``, and reads the clamped, cached p0 of update.
    """
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    depth = circuit.depth
    p0, _ = shot_likelihood(posterior, depth, circuit.phase, noise.contrast(depth))
    mean_p = float((posterior.density * p0).sum()) * posterior.cell_width
    return min(max(shots * mean_p, 0.0), float(shots))


def predict_loss(
    posterior: GridPosterior,
    circuit: Circuit,
    resources_left: int,
    noise: NoiseModel,
    kind: LossKind,
) -> float:
    """Expected loss after hypothetically spending ``resources_left`` on ``circuit``.

    The given resources are converted into shots at this depth (the whole
    remaining budget, or a noiseless run's horizon), the
    expected (generally fractional) outcome is folded into a cloned
    posterior as ``update`` folds a record, with logs taken once from the
    cached p0 (``_logs_taken_once``), and the loss of the updated mode is
    reported.  The caller's posterior is refined in place first, as in
    ``predict_outcome``.
    """
    shots = int(resources_left // circuit.depth)
    if shots < 1:
        raise InsufficientResourcesError(
            f"budget {resources_left} cannot pay for one shot at depth {circuit.depth}"
        )
    expected_count = predict_outcome(posterior, circuit, shots, noise)
    record = MeasurementRecord(circuit, shots, expected_count)
    hypothetical = fold(posterior.clone(), (record,), noise, _logs_taken_once)
    return expected_loss(hypothetical, map_estimate(hypothetical), kind)
