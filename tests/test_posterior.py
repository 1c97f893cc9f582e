import gc
import importlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

import qpe_lab
import qpe_lab.posterior as posterior_module
from qpe_lab import adaptive
from qpe_lab.adaptive import AlgorithmConfig, RunSettings
from qpe_lab.angles import TWO_PI, wrap, wrap_float, wrapped_distance
from qpe_lab.baselines import doubling_schedule, run_nonadaptive_doubling
from qpe_lab.harness import SweepConfig, derive_cell_seed
from qpe_lab.model import Circuit, MeasurementRecord, NoiseModel, sample_outcome, success_probability, tuned_phase
from qpe_lab.posterior import (
    CLAMP_FREE_ENVELOPE,
    GUARD_CELLS,
    MAX_GRID_SIZE,
    MIN_GRID_SIZE,
    POINTS_PER_PERIOD,
    PRIOR_GRID_SIZE,
    RESCALE_FLOOR,
    TRIM_MASS,
    CircularInterval,
    GridPosterior,
    GridTooCoarseError,
    ImpossibleObservationError,
    InsufficientResourcesError,
    LossKind,
    UndefinedMeanError,
    circular_mean_estimate,
    confidence,
    ensure_resolution,
    expected_loss,
    fold,
    map_estimate,
    mass_outside,
    normalize,
    predict_loss,
    predict_outcome,
    required_grid_size,
    retuned_factor,
    shot_likelihood,
    tail_exceeds,
    uniform_prior,
    update,
    update_shot,
    window_trig,
)
from qpe_lab.posterior import (
    CacheInfo, _arc_runs, _arc_spans, _bounded_cache, _grid_angles, _grid_p0, _grid_trig, _integrate,
    _log_likelihood, _nodes_beyond_arc, _refine_once, _trim, _unit_p0, _window_p0_q0, _window_spans,
)

NOISELESS = NoiseModel()


def grid_p0(grid_size, depth, phase, envelope, offset, length):
    """``_grid_p0`` of the circuit on the window (grid_size, offset, length)."""
    return _grid_p0(_grid_trig(grid_size, depth, offset, length), phase, envelope)


def posterior_from_log_weights(lw):
    """The posterior with weights exp(lw), scaled so that the largest is 1 (or all 0)."""
    top = np.max(lw)
    w = np.exp(lw - top) if np.isfinite(top) else np.zeros(lw.size)
    return GridPosterior(w, float(w.sum()), w.size)


def von_mises_posterior(mu, kappa, grid_size=4096):
    return posterior_from_log_weights(kappa * np.cos(_grid_angles(grid_size, 0, grid_size) - mu))


def brute_force_density(records, noise, grid_size):
    """Linear-space reference evaluation of the multi-record posterior."""
    thetas = TWO_PI * np.arange(grid_size) / grid_size
    dens = np.ones(grid_size)
    for rec in records:
        kappa = noise.alpha * noise.beta**rec.circuit.depth
        p0 = 0.5 + 0.5 * kappa * np.cos(rec.circuit.depth * thetas + rec.circuit.phase)
        dens *= stats.binom.pmf(int(rec.successes), rec.shots, np.clip(p0, 0.0, 1.0))
    dens /= np.trapezoid(np.append(dens, dens[0]), dx=TWO_PI / grid_size)
    return dens


class TestCircularInterval:
    def test_contains_basic(self):
        iv = CircularInterval(1.0, 0.5)
        assert iv.contains(1.0)
        assert iv.contains(1.49)
        assert not iv.contains(1.6)

    def test_contains_across_the_seam(self):
        iv = CircularInterval(0.1, 0.3)
        assert iv.contains(TWO_PI - 0.1)
        assert iv.contains(0.39)
        assert not iv.contains(0.5)

    @given(center=st.floats(0, TWO_PI), hw=st.floats(1e-6, math.pi), offset=st.floats(-4.0, 4.0))
    @settings(max_examples=300, deadline=None)
    def test_contains_agrees_with_the_wrapped_distance(self, center, hw, offset):
        iv = CircularInterval(center, hw)
        # across the seam, and at +-1e-12 of either boundary
        for theta in (center + offset, center + 2 * TWO_PI, iv.lower, iv.upper,
                      iv.lower - 1e-12, iv.lower + 1e-12, iv.upper - 1e-12, iv.upper + 1e-12,
                      center + hw + 2e-12, center - hw - 2e-12, -1e-12, TWO_PI + 1e-12):
            assert iv.contains(theta) == bool(wrapped_distance(theta, iv.center) <= iv.half_width + 1e-12)

    def test_center_is_wrapped(self):
        assert CircularInterval(TWO_PI + 1.0, 0.5).center == pytest.approx(1.0)

    @pytest.mark.parametrize("hw", [0.0, -0.1, math.pi + 0.001])
    def test_half_width_range(self, hw):
        with pytest.raises(ValueError):
            CircularInterval(0.0, hw)

    @pytest.mark.parametrize("center", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_center_is_rejected(self, center):
        with pytest.raises(ValueError, match="center"):
            CircularInterval(center, 0.5)

    def test_bounds(self):
        iv = CircularInterval(0.2, 0.5)
        assert iv.lower == pytest.approx(wrap(-0.3))
        assert iv.upper == pytest.approx(0.7)


class TestUniformPrior:
    def test_density_is_flat(self):
        post = uniform_prior(128)
        np.testing.assert_allclose(post.density, 1.0 / TWO_PI, rtol=1e-14)

    def test_minimum_grid_size_enforced(self):
        with pytest.raises(ValueError):
            uniform_prior(32)
        with pytest.raises(ValueError):
            uniform_prior(MAX_GRID_SIZE * 2)
        with pytest.raises(ValueError, match="power of two"):
            uniform_prior(3072)

    def test_confidence_is_arc_fraction(self):
        post = uniform_prior(512)
        for center, hw in [(0.0, 0.5), (3.0, 1.2), (6.1, 0.4)]:
            assert confidence(post, CircularInterval(center, hw)) == pytest.approx(hw / math.pi, rel=1e-12)


class TestUpdateAgainstBruteForce:
    def test_random_record_sets_match_reference(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(10):
            noise = NoiseModel(float(rng.uniform(0.7, 1.0)), float(rng.uniform(0.85, 1.0)))
            theta_true = float(rng.uniform(0, TWO_PI))
            records = []
            for _ in range(int(rng.integers(1, 4))):
                circ = Circuit(int(rng.integers(1, 9)), float(rng.uniform(0, TWO_PI)))
                nu = int(rng.integers(1, 21))
                p0 = success_probability(theta_true, circ, noise)
                x = int(rng.binomial(nu, min(max(p0, 0.0), 1.0)))
                records.append(MeasurementRecord(circ, nu, float(x)))
            post = uniform_prior(4096)
            for rec in records:
                update(post, rec, noise)
            ref = brute_force_density(records, noise, 4096)
            rel = np.max(np.abs(post.density - ref) / np.maximum(np.abs(ref), 1e-300))
            worst = max(worst, float(rel))
        assert worst <= 1e-9

    def test_single_record_normalization_is_exact(self):
        post = uniform_prior(256)
        update(post, MeasurementRecord(Circuit(2, 0.3), 9, 4.0), NOISELESS)
        total = post.density.sum() * post.cell_width
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_zero_shot_update_is_identity(self):
        post = uniform_prior(256)
        before = post.density.copy()
        update(post, MeasurementRecord(Circuit(5, 1.0), 0, 0.0), NOISELESS)
        np.testing.assert_array_equal(post.density, before)

    def test_update_order_commutes(self):
        r1 = MeasurementRecord(Circuit(2, 0.3), 7, 4.0)
        r2 = MeasurementRecord(Circuit(5, 1.1), 9, 2.0)
        pa, pb = uniform_prior(256), uniform_prior(256)
        update(update(pa, r1, NOISELESS), r2, NOISELESS)
        update(update(pb, r2, NOISELESS), r1, NOISELESS)
        np.testing.assert_allclose(pa.density, pb.density, rtol=1e-12)

    def test_fractional_expected_counts_keep_all_peaks(self):
        # A depth-n record with phase 0 cannot tell theta from -theta or
        # from 2*pi/n translates: 2n equally tall modes must survive.
        theta_true, nu = 0.7, 50
        circ = Circuit(3, 0.0)
        x = float(nu * success_probability(theta_true, circ, NOISELESS))
        post = uniform_prior(4096)
        update(post, MeasurementRecord(circ, nu, x), NOISELESS)
        d = post.density
        is_peak = (d > np.roll(d, 1)) & (d >= np.roll(d, -1))
        peaks = np.sort(post.angles[is_peak])
        expected = np.sort(
            [wrap(s * theta_true + TWO_PI * l / 3) for s in (1, -1) for l in range(3)]
        )
        assert len(peaks) == 6
        np.testing.assert_allclose(peaks, expected, atol=post.cell_width)
        heights = d[is_peak]
        # node sampling sits within half a cell of each true apex, so the
        # sampled heights agree only to second order in the cell width
        assert np.max(heights) / np.min(heights) == pytest.approx(1.0, rel=1e-3)

    def test_phase_quarter_offset_breaks_the_mirror_symmetry(self):
        theta_true, nu = 0.7, 60
        post = uniform_prior(4096)
        for circ in (Circuit(1, 0.0), Circuit(1, math.pi / 4)):
            x = float(nu * success_probability(theta_true, circ, NOISELESS))
            update(post, MeasurementRecord(circ, nu, x), NOISELESS)
        assert wrapped_distance(map_estimate(post), theta_true) < 0.02


class TestRefinement:
    def test_required_grid_size_scales_with_depth(self):
        assert required_grid_size(1) == MIN_GRID_SIZE
        assert required_grid_size(8) == 256
        assert required_grid_size(129) == 32 * 129

    def test_update_refines_automatically(self):
        post = uniform_prior(64)
        update(post, MeasurementRecord(Circuit(64, 0.0), 3, 2.0), NOISELESS)
        assert post.grid_size >= 32 * 64

    def test_refining_a_uniform_prior_stays_uniform(self):
        post = uniform_prior(64)
        ensure_resolution(post, 16)
        assert post.grid_size == 512
        np.testing.assert_allclose(post.density, 1.0 / TWO_PI, rtol=1e-12)

    def test_refinement_preserves_the_map(self):
        post = von_mises_posterior(2.345, 3.0, grid_size=256)
        coarse_map = map_estimate(post)
        ensure_resolution(post, 64)
        assert post.grid_size == 2048
        assert abs(map_estimate(post) - coarse_map) < TWO_PI / 256

    def test_new_midpoints_are_the_midpoints_of_the_log_weights(self):
        rng = np.random.default_rng(5)
        lw = rng.normal(scale=30.0, size=64)
        # dead pairs, a dead cell between live ones, a dead cell at the seam,
        # and two neighbours whose product would underflow
        lw[[3, 4, 10, 63]] = -math.inf
        lw[[20, 21]] = lw.max() - 700.0
        post = posterior_from_log_weights(lw)
        w = post.weights.copy()
        # The doubling alone: ensure_resolution would trim this profile's tiny end runs first.
        normalize(_refine_once(post))
        assert post.grid_size == 128
        with np.errstate(divide="ignore"):
            lw = np.log(w)
        want = np.exp(0.5 * (lw + np.roll(lw, -1)))
        np.testing.assert_array_equal(post.weights[0::2], w)
        np.testing.assert_allclose(post.weights[1::2], want, rtol=1e-12, atol=0)
        assert post.weights[41] > 0.0
        assert post.total == float(post.weights.sum())

    def test_depth_beyond_cap_raises(self):
        post = uniform_prior(64)
        with pytest.raises(GridTooCoarseError):
            ensure_resolution(post, MAX_GRID_SIZE // 32 + 1)

    def test_update_at_huge_depth_raises_before_allocating(self):
        post = uniform_prior(64)
        with pytest.raises(GridTooCoarseError):
            update(post, MeasurementRecord(Circuit(MAX_GRID_SIZE, 0.0), 1, 1.0), NOISELESS)


class TestConfidenceAndMass:
    def test_uniform_complement(self):
        post = uniform_prior(512)
        iv = CircularInterval(2.0, 0.8)
        assert mass_outside(post, iv) == pytest.approx(1.0 - 0.8 / math.pi, rel=1e-12)

    def test_matches_quadrature_on_a_smooth_posterior(self):
        mu, kappa = 1.2345678, 4.0
        post = von_mises_posterior(mu, kappa)
        for center, hw in [(mu + 0.3, 0.7), (mu - 1.0, 1.4), (0.05, 0.2)]:
            iv = CircularInterval(center, hw)
            exact = integrate.quad(
                lambda t: math.exp(kappa * math.cos(t - mu)),
                iv.center - iv.half_width,
                iv.center + iv.half_width,
            )[0] / (TWO_PI * special.i0(kappa))
            assert confidence(post, iv) == pytest.approx(exact, abs=2e-5)

    def test_complementarity(self):
        post = von_mises_posterior(0.456, 2.5)
        for center, hw in [(0.1, 0.4), (3.3, 1.0), (6.2, 2.9), (0.456, math.pi)]:
            iv = CircularInterval(center, hw)
            assert confidence(post, iv) + mass_outside(post, iv) == pytest.approx(1.0, abs=1e-12)

    def test_full_circle_interval(self):
        post = von_mises_posterior(2.0, 3.0)
        iv = CircularInterval(0.7, math.pi)
        assert confidence(post, iv) == pytest.approx(1.0, abs=1e-12)
        assert mass_outside(post, iv) == pytest.approx(0.0, abs=1e-12)

    def test_ends_that_round_to_one_angle_cover_the_circle(self):
        # half_width one ulp below pi: the wrapped ends coincide for some
        # centres, and the interval still holds all but a sliver of the mass
        post = uniform_prior(4096)
        half_width = math.nextafter(math.pi, 0.0)
        merged = 0
        for center in np.linspace(0.0, TWO_PI, 1000, endpoint=False):
            iv = CircularInterval(float(center), half_width)
            merged += iv.lower == iv.upper
            assert confidence(post, iv) == pytest.approx(1.0, abs=1e-12)
            assert mass_outside(post, iv) == pytest.approx(0.0, abs=1e-12)
        assert merged > 0

    @pytest.mark.parametrize("grid_size", [64, 4096])
    @pytest.mark.parametrize("half_width", [1e-300, 1e-17])
    def test_ends_that_round_to_one_angle_on_a_narrow_arc_hold_nothing(self, grid_size, half_width):
        # Far below a cell the two ends round to the centre: the arc holds
        # no mass, and the complement is the whole window, trimmed or not.
        iv = CircularInterval(1.0, half_width)
        assert iv.lower == iv.upper
        post = uniform_prior(grid_size)
        assert (confidence(post, iv), mass_outside(post, iv)) == (0.0, 1.0)
        peaked = von_mises_posterior(1.0, 50.0, grid_size)
        assert (confidence(peaked, iv), mass_outside(peaked, iv)) == (0.0, pytest.approx(1.0, rel=1e-14))
        window, _ = window_of(peaked, grid_size - 5, grid_size // 2)
        assert (confidence(window, iv), mass_outside(window, iv)) == (0.0, pytest.approx(1.0, rel=1e-14))

    def test_seam_crossing_interval(self):
        post = von_mises_posterior(0.0, 5.0)
        # the interval straddles the 0/2pi seam; both halves must count
        exact = integrate.quad(
            lambda t: math.exp(5.0 * math.cos(t)), -1.0, 1.0
        )[0] / (TWO_PI * special.i0(5.0))
        assert confidence(post, CircularInterval(0.0, 1.0)) == pytest.approx(exact, abs=1e-5)

    def test_tiny_mass_outside_is_accurate(self):
        # complement-side integration keeps precision where 1 - conf
        # would lose it to cancellation; the tails are 1.4e-38 and 1.3e-13.
        # rel is about twice the grid's own discretisation error on them,
        # measured against quad at 4096 cells: 5.8e-4 and 5.1e-4 relative.
        post = von_mises_posterior(3.0, 60.0)
        for half_width in (2.0, 1.0):
            out = mass_outside(post, CircularInterval(3.0, half_width))
            exact = 2 * integrate.quad(
                lambda t: math.exp(60.0 * math.cos(t)), half_width, math.pi,
            )[0] / (TWO_PI * special.i0(60.0))
            assert out == pytest.approx(exact, rel=1e-3, abs=0)
            assert out < 1e-10

    @given(center=st.floats(0, TWO_PI), hw=st.floats(0.01, math.pi))
    @settings(max_examples=40, deadline=None)
    def test_confidence_stays_in_unit_interval(self, center, hw):
        post = von_mises_posterior(1.0, 3.0, grid_size=256)
        c = confidence(post, CircularInterval(center, hw))
        assert -1e-12 <= c <= 1.0 + 1e-12


def interpolant_integral(w, a, b):
    """Integral of the periodic linear interpolant of node weights w over [a, b].

    a <= b are exact Fractions in cell units and b may pass w.size.  Whole
    segments are summed by math.fsum over their node values and halved in
    rational arithmetic (halving a subnormal float would round), the
    partial end segments in rational arithmetic.
    """
    g = w.size
    whole = np.arange(math.ceil(a), math.floor(b)) % g
    total = Fraction(math.fsum(np.concatenate((w[whole], w[(whole + 1) % g])).tolist())) / 2
    for k in sorted({math.floor(a), math.floor(b)}):
        t0 = max(a, k) - k
        t1 = min(b, k + 1) - k
        if t1 > t0 and not (t0 == 0 and t1 == 1):
            v0 = Fraction(float(w[k % g]))
            v1 = Fraction(float(w[(k + 1) % g]))
            total += (t1 - t0) * (v0 + (v1 - v0) * (t0 + t1) / 2)
    return total


def span_integral(w, a, b):
    """The posterior's integral of the periodic interpolant of w from a to b, in cell units."""
    return _integrate(w, _window_spans(w.size, 0, w.size, a, b))


def segment_formula_part(w, k, t0, t1, periodic):
    """Integral of the interpolant of w over [k + t0, k + t1], as the width times a convex mix of the two nodes."""
    v0 = w.item(k) if k >= 0 else 0.0
    v1 = w.item(k + 1) if k + 1 < w.size else (w.item(0) if periodic else 0.0)
    return (t1 - t0) * (v0 * (0.5 * ((1.0 - t0) + (1.0 - t1))) + v1 * (0.5 * (t0 + t1)))


def segment_formula_integral(w, spans):
    """Integral of the interpolant of w over raw spans (ka, ta, kb, tb, periodic) from ``_window_spans``."""
    mass = 0.0
    for ka, ta, kb, tb, periodic in spans:
        if ka == kb:
            mass += segment_formula_part(w, ka, ta, tb, periodic)
        else:
            whole = float(w[ka + 1:kb + 1].sum()) - 0.5 * (w.item(ka + 1) + w.item(kb))
            first = segment_formula_part(w, ka, ta, 1.0, periodic)
            mass += first + whole + segment_formula_part(w, kb, 0.0, tb, periodic)
    return mass


def arc_mass_reference(w, start, end):
    """Mass of the arc from angle start counterclockwise to end, under the interpolant of w."""
    h = TWO_PI / w.size
    a = Fraction(start / h)
    b = Fraction(end / h)
    if b < a:
        b += w.size
    return float(interpolant_integral(w, a, b) / Fraction(math.fsum(w.tolist())))


@st.composite
def node_arcs(draw):
    """Arcs whose ends fall on grid nodes, up to the rounding of center +- half_width."""
    grid_size = draw(st.sampled_from([64, 4096, 65536]))
    cell = TWO_PI / grid_size
    center = draw(st.integers(0, grid_size - 1)) * cell
    return grid_size, CircularInterval(center, draw(st.integers(1, grid_size // 2)) * cell)


@st.composite
def weighted_arcs(draw):
    """A grid, an interval on it, and von Mises-like log-weights near or far from it."""
    grid_size, interval = draw(st.one_of(arcs(), node_arcs()))
    kappa = 10.0 ** draw(st.floats(-2.0, math.log10((grid_size / 16) ** 2)))
    mu = interval.center + draw(st.one_of(st.just(0.0), st.floats(-math.pi, math.pi)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    angles = TWO_PI * np.arange(grid_size) / grid_size
    lw = kappa * np.cos(angles - mu) + 0.5 * rng.normal(size=grid_size)
    return grid_size, interval, lw


class TestArcMassesMatchTheInterpolant:
    @given(case=weighted_arcs())
    @settings(max_examples=200, deadline=None)
    def test_inside_and_outside_match_the_fsum_reference(self, case):
        grid_size, iv, lw = case
        post = posterior_from_log_weights(lw)
        w = post.weights
        if iv.half_width >= math.pi or iv.lower == iv.upper:
            # Ends that round to one angle cover the whole circle, as at pi.
            assert (confidence(post, iv), mass_outside(post, iv)) == (1.0, 0.0)
            return
        inside = min(arc_mass_reference(w, iv.lower, iv.upper), 1.0)
        outside = min(arc_mass_reference(w, iv.upper, iv.lower), 1.0)
        assert confidence(post, iv) == pytest.approx(inside, rel=1e-12, abs=0)
        assert mass_outside(post, iv) == pytest.approx(outside, rel=1e-12, abs=0)

    @pytest.mark.parametrize("grid_size, kappa, center, half_width", [
        (65536, 1e5, 1.0, 0.025),
        (65536, 1e5, 0.01, 0.025),
        (4096, 400.0, 6.2, 0.42),
        (64, 30.0, 0.1, 1.75),
    ])
    def test_gate_sized_tails(self, grid_size, kappa, center, half_width):
        angles = TWO_PI * np.arange(grid_size) / grid_size
        post = posterior_from_log_weights(kappa * np.cos(angles - center))
        w = post.weights
        iv = CircularInterval(center, half_width)
        outside = mass_outside(post, iv)
        assert 1e-17 < outside < 1e-13
        assert outside == pytest.approx(arc_mass_reference(w, iv.upper, iv.lower), rel=1e-12, abs=0)
        assert confidence(post, iv) == pytest.approx(arc_mass_reference(w, iv.lower, iv.upper), rel=1e-12)

    @pytest.mark.parametrize("grid_size", [64, 4096, 65536])
    def test_node_to_node_spans(self, grid_size):
        rng = np.random.default_rng(grid_size)
        w = np.exp(rng.normal(scale=5.0, size=grid_size))
        for a, b in [(0, 0), (0, 1), (3, 4), (3, 5), (0, grid_size), (grid_size - 1, grid_size),
                     (7, grid_size // 2), (grid_size, grid_size)]:
            want = float(interpolant_integral(w, Fraction(a), Fraction(b)))
            assert span_integral(w, float(a), float(b)) == pytest.approx(want, rel=1e-12, abs=0)

    def test_sub_cell_span_next_to_a_vanishing_node(self):
        # the mass sits near the far end of a cell whose other node is 1e-12
        # times smaller; no term of the partial cell may cancel
        w = np.array([1.0, 1e-12, 1.0, 1.0])
        a, b = 0.999999, 0.9999995
        want = float(interpolant_integral(w, Fraction(a), Fraction(b)))
        assert span_integral(w, a, b) == pytest.approx(want, rel=1e-12, abs=0)


    @given(grid_size=st.sampled_from([64, 4096]), start=st.floats(0.0, 1.0, exclude_max=True),
           share=st.one_of(st.just(1.0), st.floats(0.0, 1.0)), a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    @example(grid_size=64, start=0.0, share=1.0, a=0.5, b=0.25, seed=0)  # a whole window, across the seam
    @example(grid_size=64, start=0.9, share=0.5, a=0.95, b=0.05, seed=1)  # a short window across the seam
    @example(grid_size=64, start=0.0, share=1.0, a=0.1001, b=0.1002, seed=2)  # within one cell
    @example(grid_size=64, start=0.0, share=1.0, a=0.1001, b=0.115, seed=4)  # two end parts, no whole segment
    @example(grid_size=64, start=0.5, share=0.2, a=0.1, b=0.3, seed=3)  # an arc that misses the window
    def test_the_integral_keeps_the_segment_formula(self, grid_size, start, share, a, b, seed):
        # The integral reads each raw span's segment weights inline; it must
        # keep the bits of the formula written out part by part.
        length = 1 + int(share * (grid_size - 1))
        w = np.exp(np.random.default_rng(seed).normal(scale=5.0, size=length))
        spans = _window_spans(grid_size, int(start * grid_size), length, a * grid_size, b * grid_size)
        # Span by span first, since a sum of two spans can hide a changed last bit of one.
        for span in spans:
            assert _integrate(w, (span,)) == segment_formula_integral(w, (span,))
        assert _integrate(w, spans) == segment_formula_integral(w, spans)

    def test_masses_of_subnormal_weights_keep_their_relative_precision(self):
        # Products of subnormal node weights round to an absolute 2**-1075,
        # which once read 9/28 for the 10/28 inside this arc over cells 0-2.
        w = np.array([1.0, 5.0, 9.0, 13.0]) * 2.0**-1074
        post = GridPosterior(w, float(w.sum()), w.size)
        iv = CircularInterval(post.cell_width, post.cell_width)
        assert (iv.lower, iv.upper) == (0.0, 2 * post.cell_width)
        assert confidence(post, iv) == arc_mass_reference(w, iv.lower, iv.upper) == 10 / 28
        assert mass_outside(post, iv) == arc_mass_reference(w, iv.upper, iv.lower) == 18 / 28


@st.composite
def bounded_gates(draw):
    """A posterior on a whole or trimmed window, an arc in cells, an interval inside it, and an allowance."""
    grid_size = draw(st.sampled_from([64, 4096, 65536]))
    cell = TWO_PI / grid_size
    # The arc: a centre anywhere, a half-width from a few cells to nearly pi.
    center = draw(st.integers(0, grid_size - 1)) + draw(st.floats(0.0, 1.0, exclude_max=True))
    half = draw(st.one_of(st.floats(2.0, 16.0), st.floats(2.0, grid_size / 2 - 4.0)))
    # The interval: the arc itself (a rung), or one up to half a cell narrower
    # and moved by as much (step 1's interval around its peak cell).
    shrink = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5)))
    shift = draw(st.floats(-1.0, 1.0)) * shrink
    interval = CircularInterval((center + shift) * cell, (half - shrink) * cell)
    kappa = 10.0 ** draw(st.floats(-1.0, math.log10((grid_size / 4) ** 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    angles = TWO_PI * np.arange(grid_size) / grid_size
    mu = interval.center + draw(st.one_of(st.just(0.0), st.floats(-math.pi, math.pi)))
    post = posterior_from_log_weights(kappa * np.cos(angles - mu) + 2.0 * rng.normal(size=grid_size))
    if draw(st.booleans()):
        # A trimmed window at a nonzero offset, across the seam when it reaches past the last cell.
        post, _ = window_of(post, draw(st.integers(1, grid_size - 1)), draw(st.integers(8, grid_size - 1)))
    post.discarded = draw(st.sampled_from([0.0, 2.0**-101]))
    # An allowance anywhere from 1e-300 to 1, or a multiple of the heaviest
    # node's share, on a complement emptied but for the nodes or not.
    allowance = 10.0 ** draw(st.floats(-300.0, 0.0))
    multiple = draw(st.one_of(st.none(), st.sampled_from([0.25, math.nextafter(0.5, 0.0), 0.5, 1.0, 3.0])))
    return post, center, half, interval, allowance, multiple, draw(st.booleans())


class TestGateBound:
    @given(case=bounded_gates())
    @settings(max_examples=400, deadline=None)
    def test_a_node_beyond_the_arc_proves_the_gate_fails(self, case):
        post, center, half, interval, allowance, multiple, isolate = case
        # The arc in radians, as the gates pass it, and the nodes the bound reads for it.
        arc = (center * post.cell_width, half * post.cell_width)
        per_radian = post.grid_size / TWO_PI
        nodes = _nodes_beyond_arc(
            post.grid_size, post.offset, post.weights.size, arc[0] * per_radian, arc[1] * per_radian
        )
        if isolate and nodes:
            # Only the arc, a cell either side of it, and the nodes keep their weight.
            cells = (post.offset + np.arange(post.weights.size)) % post.grid_size
            gap = np.abs((cells - center + post.grid_size / 2) % post.grid_size - post.grid_size / 2)
            keep = gap <= half + 1.0
            keep[list(nodes)] = True
            post.weights[~keep] = 0.0
            post.total = float(post.weights.sum())
        if not post.total > 0.0:
            return
        if multiple is not None and nodes:
            heaviest = max(post.weights[list(nodes)])
            allowance = min(max(heaviest / post.total * multiple, 1e-300), 1.0)
        if tail_exceeds(post, *arc, allowance):
            assert mass_outside(post, interval) > allowance

    @pytest.mark.parametrize("offset, length", [(0, 4096), (4000, 4096), (4000, 300), (100, 50)])
    def test_the_nodes_lie_three_cells_beyond_the_arc_in_the_window(self, offset, length):
        center, half = 10.25, 20.5
        nodes = _nodes_beyond_arc(4096, offset, length, center, half)
        cells = {(offset + k) % 4096 for k in nodes}
        assert cells <= {math.ceil(center + half) + 3, (math.floor(center - half) - 3) % 4096}
        assert all(2 <= k < length - 1 for k in nodes)
        # Whole windows keep both; the others keep the ones they hold away from their ends.
        assert len(nodes) == {(0, 4096): 2, (4000, 4096): 2, (4000, 300): 2, (100, 50): 0}[offset, length]

    def test_no_nodes_when_the_complement_is_too_short(self):
        assert _nodes_beyond_arc(64, 0, 64, 30.0, 27.9) != ()
        assert _nodes_beyond_arc(64, 0, 64, 30.0, 28.0) == ()

    def test_the_bound_compares_with_twice_the_allowance(self):
        post = uniform_prior(64)
        # The arc of 4 cells around cell 10, in radians, reads the nodes 17 and 3.
        center, half = 10 * post.cell_width, 4 * post.cell_width
        assert _nodes_beyond_arc(64, 0, 64, 10.0, 4.0) == (17, 3)
        assert tail_exceeds(post, center, half, math.nextafter(1 / 128, 0.0))
        assert not tail_exceeds(post, center, half, 1 / 128)
        # An arc of the whole circle leaves no node beyond it, so even allowance 0 proves nothing.
        assert not tail_exceeds(post, center, math.pi, 0.0)


class TestMapEstimate:
    def test_quadratic_refinement_beats_the_grid(self):
        mu = 1.2345678
        post = von_mises_posterior(mu, 6.0)
        assert abs(map_estimate(post) - mu) < 1e-8

    def test_tie_breaks_to_smallest_index(self):
        post = uniform_prior(128)
        assert map_estimate(post) == 0.0

    def test_masked_argmax_selects_the_lobe(self):
        angles = _grid_angles(4096, 0, 4096)
        post = posterior_from_log_weights(
            np.logaddexp(8.0 * np.cos(angles - 1.0), 8.0 * np.cos(angles - 4.0) + 0.2)
        )
        assert abs(map_estimate(post) - 4.0) < 1e-3
        within = CircularInterval(1.0, 0.8)
        assert abs(map_estimate(post, within=within) - 1.0) < 1e-3

    def test_mask_without_mass_falls_back_to_global(self):
        # hard zeros (not merely small mass) inside the window trigger the
        # global fallback
        angles = _grid_angles(1024, 0, 1024)
        lw = 3.0 * np.cos(angles - 1.0)
        lw[wrapped_distance(angles, 4.0) < 1.0] = -math.inf
        post = posterior_from_log_weights(lw)
        empty_side = CircularInterval(4.0, 0.5)
        assert map_estimate(post, within=empty_side) == map_estimate(post)


def masked_map_reference(posterior, within):
    """The full-grid masked search that map_estimate(within=...) replaced."""
    w = posterior.weights
    angles = posterior.angles
    inside = wrapped_distance(angles, within.center) <= within.half_width + 1e-12
    if np.any(inside & (w > 0)):
        masked = np.where(inside, w, -1.0)
        k = int(np.argmax(masked))
    else:
        k = int(np.argmax(w))

    g = posterior.grid_size
    left, center, right = (float(w[i % g]) for i in (k - 1, k, k + 1))
    offset = 0.0
    if left > 0 and center > 0 and right > 0:
        left, center, right = math.log(left), math.log(center), math.log(right)
        curvature = left - 2.0 * center + right
        if curvature < 0.0:
            offset = 0.5 * (left - right) / curvature
            offset = float(np.clip(offset, -0.5, 0.5))
    return float(wrap(angles[k] + offset * posterior.cell_width))


def log_weight_profile(kind, grid_size, within, seed):
    """Log-weights of one shape: random, tied plateaus, flat, or dead inside the arc."""
    rng = np.random.default_rng(seed)
    angles = TWO_PI * np.arange(grid_size) / grid_size
    if kind == "random":
        return rng.normal(size=grid_size) + 40.0 * np.cos(angles - rng.uniform(0, TWO_PI))
    if kind == "ties":
        return np.round(rng.normal(size=grid_size))
    if kind == "flat":
        return np.full(grid_size, -math.log(TWO_PI))
    lw = rng.normal(size=grid_size)
    lw[wrapped_distance(angles, within.center) <= within.half_width + 1e-12] = -math.inf
    return lw


SEAM = st.one_of(
    st.floats(0.0, TWO_PI, exclude_max=True),
    st.floats(0.0, 1e-3),
    st.floats(TWO_PI - 1e-3, TWO_PI, exclude_max=True),
)


@st.composite
def arcs(draw):
    grid_size = draw(st.sampled_from([64, 4096, 65536]))
    cell = TWO_PI / grid_size
    half_width = draw(st.one_of(
        st.floats(1e-9, math.pi),
        st.just(math.pi),
        st.floats(1e-3 * cell, cell),
        st.floats(math.pi - cell, math.pi),
    ))
    return grid_size, CircularInterval(draw(SEAM), half_width)


class TestMapEstimateWithinMatchesFullGrid:
    @given(arc=arcs(), kind=st.sampled_from(["random", "ties", "flat", "dead"]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_masked_search(self, arc, kind, seed):
        grid_size, within = arc
        post = posterior_from_log_weights(log_weight_profile(kind, grid_size, within, seed))
        assert map_estimate(post, within=within) == masked_map_reference(post, within)

    @pytest.mark.parametrize("grid_size", [64, 4096, 65536])
    def test_seam_crossing_tie_goes_to_the_smallest_index(self, grid_size):
        # the arc starts just below 2*pi, but index 0 is the smallest inside
        post = uniform_prior(grid_size)
        within = CircularInterval(0.05, 0.3)
        assert map_estimate(post, within=within) == 0.0 == masked_map_reference(post, within)

    @pytest.mark.parametrize("grid_size", [64, 4096, 65536])
    def test_full_circle_and_sub_cell_arcs(self, grid_size):
        post = von_mises_posterior(2.0, 30.0, grid_size)
        cell = post.cell_width
        for within in (
            CircularInterval(5.0, math.pi),
            CircularInterval(7 * cell, 0.25 * cell),
            CircularInterval(7.5 * cell, 0.25 * cell),
            CircularInterval(TWO_PI - 0.5 * cell, 0.75 * cell),
        ):
            assert map_estimate(post, within=within) == masked_map_reference(post, within)

    @pytest.mark.parametrize("grid_size", [64, 4096, 65536])
    @pytest.mark.parametrize("nudge", [-1e-12, 0.0, 1e-12])
    def test_membership_boundary_at_a_node(self, grid_size, nudge):
        # the tolerance edge half_width + 1e-12 falls on a node, or 1e-12 to
        # either side, and that node holds the largest weight
        rng = np.random.default_rng(grid_size)
        angles = _grid_angles(grid_size, 0, grid_size)
        for center_cell, reach in [(5, 3), (grid_size - 2, 4), (grid_size // 2, grid_size // 4)]:
            center = float(angles[center_cell])
            for edge in ((center_cell - reach) % grid_size, (center_cell + reach) % grid_size):
                distance = float(wrapped_distance(angles[edge], center))
                within = CircularInterval(center, distance - 1e-12 + nudge)
                lw = rng.normal(size=grid_size)
                lw[edge] = 10.0
                post = posterior_from_log_weights(lw)
                assert map_estimate(post, within=within) == masked_map_reference(post, within)

    @pytest.mark.parametrize("grid_size", [64, 4096, 65536])
    def test_equal_maxima_on_both_sides_of_the_seam(self, grid_size):
        angles = _grid_angles(grid_size, 0, grid_size)
        lw = np.zeros(grid_size)
        lw[2] = lw[grid_size - 2] = 5.0
        post = posterior_from_log_weights(lw)
        within = CircularInterval(0.0, 4 * post.cell_width)
        assert map_estimate(post, within=within) == masked_map_reference(post, within) == angles[2]

    @pytest.mark.parametrize("grid_size", [64, 4096, 65536])
    @pytest.mark.parametrize("center", [1.0, 0.0, TWO_PI - 1e-9])
    @pytest.mark.parametrize("end", ["first", "last"])
    def test_only_one_end_cell_of_the_arc_is_alive(self, grid_size, center, end):
        within = CircularInterval(center, 0.3)
        angles = _grid_angles(grid_size, 0, grid_size)
        inside = wrapped_distance(angles, within.center) <= within.half_width + 1e-12
        if end == "first":
            alive = int(np.flatnonzero(inside & ~np.roll(inside, 1))[0])
        else:
            alive = int(np.flatnonzero(inside & ~np.roll(inside, -1))[0])
        lw = np.random.default_rng(grid_size).normal(size=grid_size)
        lw[inside] = -math.inf
        lw[alive] = -10.0
        post = posterior_from_log_weights(lw)
        assert map_estimate(post, within=within) == masked_map_reference(post, within) == angles[alive]

    @pytest.mark.parametrize("grid_size", [64, 4096, 65536])
    @pytest.mark.parametrize("cells_short", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0])
    def test_arcs_that_nearly_wrap_around(self, grid_size, cells_short):
        # the index range spans G - 2 cells or more; the cells outside the
        # arc sit by the antipode and hold the largest weights
        cell = TWO_PI / grid_size
        angles = _grid_angles(grid_size, 0, grid_size)
        for center in (0.0, 1.3, float(angles[7]) + 0.5 * cell, TWO_PI - 0.3 * cell):
            within = CircularInterval(center, math.pi - cells_short * cell)
            antipode = round(wrap(center + math.pi) / cell)
            for kind in ("random", "ties", "flat"):
                lw = log_weight_profile(kind, grid_size, within, grid_size)
                for offset in (-2, -1, 0, 1, 2):
                    lw[(antipode + offset) % grid_size] = 10.0 - abs(offset)
                post = posterior_from_log_weights(lw)
                assert map_estimate(post, within=within) == masked_map_reference(post, within)

    def test_dead_interior_falls_back_to_the_global_argmax(self):
        post = von_mises_posterior(1.0, 8.0, 4096)
        within = CircularInterval(TWO_PI - 0.1, 0.4)
        post.weights[wrapped_distance(post.angles, within.center) <= 0.41] = 0.0
        normalize(post)
        assert map_estimate(post, within=within) == map_estimate(post)
        assert map_estimate(post, within=within) == masked_map_reference(post, within)


GRID_64 = required_grid_size(64)


@st.composite
def shot_sequences(draw):
    """Single shots at depths 1-64 on a 64-deep grid, outcomes drawn at a true phase.

    Phases 0 and pi put exact zeros of p0 or 1 - p0 on grid nodes (dark
    fringes), and the sequence is long enough for the weight sum to fall
    below RESCALE_FLOOR.
    """
    noise = draw(st.one_of(st.just(NOISELESS), st.floats(0.9, 0.999).map(lambda b: NoiseModel(1.0, b))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = rng.uniform(0.0, TWO_PI)
    records = []
    for _ in range(draw(st.integers(1200, 1500))):
        phase = [0.0, math.pi, rng.uniform(0.0, TWO_PI)][rng.integers(3)]
        circuit = Circuit(int(rng.integers(1, 65)), float(phase))
        outcome = float(rng.random() < success_probability(theta, circuit, noise))
        records.append(MeasurementRecord(circuit, 1, outcome))
    return noise, records


def log_space_reference(records, noise, grid_size):
    """Per-cell log-weights of a shot sequence, each the math.fsum of its log-likelihoods.

    Also returns each cell's lowest log-weight relative to the log-sum of
    all cells along the way, and that log-sum after every shot.
    """
    terms = np.empty((len(records), grid_size))
    for row, rec in zip(terms, records):
        depth = rec.circuit.depth
        p0 = np.clip(grid_p0(grid_size, depth, rec.circuit.phase, noise.contrast(depth), 0, grid_size), 0.0, 1.0)
        with np.errstate(divide="ignore"):
            row[:] = np.log(p0 if rec.successes == 1.0 else 1.0 - p0)
    lw = np.array([math.fsum(column) for column in terms.T.tolist()])
    running = np.cumsum(terms, axis=0, out=terms)
    log_sums = special.logsumexp(running, axis=1)
    running -= log_sums[:, None]
    return lw, running.min(axis=0), log_sums


class TestSingleShotUpdate:
    @given(case=shot_sequences())
    @settings(max_examples=12, deadline=None)
    def test_matches_the_log_space_reference(self, case):
        noise, records = case
        post = uniform_prior(GRID_64)
        for rec in records:
            update(post, rec, noise)
        lw, lowest, log_sums = log_space_reference(records, noise, GRID_64)
        # the weight sum fell below the floor, so the update rescaled
        assert log_sums.min() < math.log(RESCALE_FLOOR)
        dead = np.isneginf(lw)
        assert dead.any() == (noise is NOISELESS)
        assert np.all(post.weights[dead] == 0.0)
        # cells that never fell below e^-500 of the sum stayed normal floats
        live = lowest > -500.0
        want = np.exp(lw[live] - special.logsumexp(lw))
        np.testing.assert_allclose(post.weights[live] / post.total, want, rtol=1e-12, atol=0)


class TestUpdatePaths:
    RECORDS = [
        MeasurementRecord(Circuit(5, 0.77), 1, 1.0),
        MeasurementRecord(Circuit(5, 0.77), 1, 0.0),
        MeasurementRecord(Circuit(3, 2.5), 4, 3.0),
    ]

    @pytest.mark.parametrize("record", RECORDS)
    def test_fresh_circuit_matches_the_cached_branches(self, record):
        noise = NoiseModel(0.95, 0.9)
        base = von_mises_posterior(0.7, 3.0, 4096)
        _log_likelihood.cache_clear()
        fresh = update(base.clone(), record, noise)
        # Another posterior sees the opposite outcome before the same update runs again.
        opposite = MeasurementRecord(record.circuit, 1, 1.0 - min(record.successes, 1.0))
        update(base.clone(), opposite, noise)
        cached = update(base.clone(), record, noise)
        # A batch record reads its logs from the log cache; a single shot builds its p0 anew.
        assert _log_likelihood.cache_info()[:2] == ((0, 0) if record.shots == 1 else (1, 1))
        np.testing.assert_array_equal(fresh.weights, cached.weights)
        np.testing.assert_array_equal(fresh.density, cached.density)

    def test_fractional_single_shot_uses_both_branches(self):
        noise = NoiseModel(0.9, 0.95)
        circuit = Circuit(4, 1.1)
        record = MeasurementRecord(circuit, 1, 0.3)
        post = update(uniform_prior(4096), record, noise)
        p0 = success_probability(post.angles, circuit, noise)
        ref = np.exp(0.3 * np.log(p0) + 0.7 * np.log1p(-p0))
        ref /= ref.sum() * post.cell_width
        np.testing.assert_allclose(post.density, ref, rtol=1e-9)

    def test_one_shot_prediction_is_a_fractional_record(self):
        post = von_mises_posterior(1.0, 4.0, 4096)
        circuit = Circuit(8, 0.4)
        expected = predict_outcome(post, circuit, 1, NOISELESS)
        assert 0.0 < expected < 1.0
        hypothetical = update(post.clone(), MeasurementRecord(circuit, 1, expected), NOISELESS)
        want = expected_loss(hypothetical, map_estimate(hypothetical), LossKind.ABSOLUTE)
        assert predict_loss(post, circuit, 8, NOISELESS, LossKind.ABSOLUTE) == want

    def test_density_read_late_equals_density_from_the_weights(self):
        post = update(uniform_prior(4096), MeasurementRecord(Circuit(2, 0.3), 1, 1.0), NOISELESS)
        update(post, MeasurementRecord(Circuit(2, 1.3), 1, 0.0), NOISELESS)
        recomputed = GridPosterior(post.weights.copy(), post.total, post.grid_size).density
        np.testing.assert_allclose(post.density, recomputed, rtol=1e-12)

    def test_reading_the_density_first_leaves_interval_masses_alone(self):
        records = [MeasurementRecord(Circuit(4, 0.3), 1, 1.0), MeasurementRecord(Circuit(8, 1.9), 1, 0.0)]
        read, unread = uniform_prior(4096), uniform_prior(4096)
        for record in records:
            update(read, record, NOISELESS)
            update(unread, record, NOISELESS)
        assert read.density[0] >= 0.0
        for iv in (CircularInterval(1.0, 0.2), CircularInterval(0.05, 0.4)):
            assert mass_outside(read, iv) == mass_outside(unread, iv)
            assert confidence(read, iv) == confidence(unread, iv)
        np.testing.assert_array_equal(read.density, unread.density)

    @pytest.mark.parametrize("read_density", [False, True])
    def test_impossible_observation_leaves_no_stale_density(self, read_density):
        # only theta = 0 carries weight, and there depth 1, phase pi has p0 = 0
        w = np.zeros(64)
        w[0] = 1.0
        post = GridPosterior(w, 1.0, 64)
        iv = CircularInterval(0.0, 0.5)
        if read_density:
            assert post.density[0] > 0.0
        # the weights and their sum are read before the failed update
        assert confidence(post, iv) == 1.0
        with pytest.raises(ImpossibleObservationError):
            update(post, MeasurementRecord(Circuit(1, math.pi), 1, 1.0), NOISELESS)
        assert post.total == 0.0
        with pytest.raises(ImpossibleObservationError):
            post.density
        with pytest.raises(ImpossibleObservationError):
            mass_outside(post, iv)
        with pytest.raises(ImpossibleObservationError):
            confidence(post, iv)


def single_shot_reference(post, depth, phase, bright, noise):
    """One shot written out on a clone: refine, multiply by the clamped p0 or 1 - p0, sum, rescale below the floor.

    Also returns whether the sum fell below RESCALE_FLOOR.
    """
    post = post.clone()
    ensure_resolution(post, depth)
    envelope = noise.contrast(depth)
    p0 = grid_p0(post.grid_size, depth, phase, envelope, post.offset, post.weights.size)
    if envelope > CLAMP_FREE_ENVELOPE:
        p0 = np.clip(p0, 0.0, 1.0)
    post.weights *= p0 if bright else 1.0 - p0
    post.total = float(post.weights.sum())
    rescaled = post.total < RESCALE_FLOOR
    if rescaled:
        post.weights /= post.total
        post.total = float(post.weights.sum())
    return post, rescaled


def fold_one_shot(post, depth, phase, envelope, bright, pair):
    """``update_shot`` of one shot's factor: p0 or q0 of the circuit's pair, or one built as a stay builds it."""
    if pair:
        factor = shot_likelihood(post, depth, phase, envelope)[0 if bright else 1]
    else:
        factor = retuned_factor(window_trig(post, depth), phase, envelope, bright)
    return update_shot(post, factor)


def at_the_floor(post):
    """``post`` with its weights scaled so that they sum to about RESCALE_FLOOR."""
    post.weights *= RESCALE_FLOOR / post.total
    post.total = float(post.weights.sum())
    return post


SINGLE_SHOTS = {
    # name: (posterior, depth, phase)
    "whole": (lambda: von_mises_posterior(0.7, 3.0), 5, 0.77),
    # The angle-addition p0 of this circuit dips to -1.1e-16 at one node of the 256-cell grid.
    "dark-fringe": (lambda: von_mises_posterior(2.0, 2.0, 256), 7, 15 * math.pi / 16),
    "seam-window": (lambda: window_of(von_mises_posterior(0.01, 2000.0), 4000, 200)[0], 3, 2.5),
    "rescale": (lambda: at_the_floor(von_mises_posterior(4.0, 30.0)), 2, 1.2),
    "refine": (lambda: von_mises_posterior(1.0, 3000.0, 256), 16, 0.3),
}


class TestSingleShotCall:
    @pytest.mark.parametrize("case", SINGLE_SHOTS)
    @pytest.mark.parametrize("noise", [NOISELESS, NoiseModel(1.0, 0.9)], ids=["noiseless", "beta-0.9"])
    @pytest.mark.parametrize("bright", [True, False], ids=["bright", "dark"])
    @pytest.mark.parametrize("pair", [True, False], ids=["pair", "retuned"])
    def test_matches_update_of_a_one_shot_record(self, case, noise, bright, pair):
        make, depth, phase = SINGLE_SHOTS[case]
        base = make()
        want, rescaled = single_shot_reference(base, depth, phase, bright, noise)
        assert rescaled == (case == "rescale")
        assert (want.grid_size > base.grid_size) == (case == "refine")
        if case == "seam-window":
            assert base.offset + base.weights.size > base.grid_size
        if case == "refine":
            assert want.weights.size < want.grid_size
        by_record = update(base.clone(), MeasurementRecord(Circuit(depth, phase), 1, float(bright)), noise)
        shot = fold_one_shot(base.clone(), depth, phase, noise.contrast(depth), bright, pair)
        for got in (by_record, shot):
            np.testing.assert_array_equal(got.weights, want.weights)
            assert (got.total, got.grid_size, got.offset, got.discarded) == (
                want.total, want.grid_size, want.offset, want.discarded
            )

    @given(case=st.tuples(
        st.sampled_from([64, 256, 4096]),
        st.floats(0.0, 1.0, exclude_max=True),
        st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
        st.floats(0.0, TWO_PI, exclude_max=True),
        st.one_of(st.just(1.0), st.just(CLAMP_FREE_ENVELOPE), st.floats(0.01, 1.0)),
        st.booleans(),
    ), depth_share=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    @example(case=(256, 0.0, 1.0, 15 * math.pi / 16, 1.0, True), depth_share=6 / 7)  # clamped at a dark fringe
    def test_a_retuned_factor_equals_the_pairs_p0_or_q0(self, case, depth_share):
        # On weights of 1 the update leaves the factor itself in the weights.
        grid_size, start, share, phase, envelope, bright = case
        depth = 1 + int(depth_share * (grid_size // POINTS_PER_PERIOD - 1))
        offset, length = int(start * grid_size), 1 + int(share * (grid_size - 1))
        p0, q0 = _window_p0_q0(grid_size, depth, phase, envelope, offset, length)
        want = p0 if bright else q0
        if not want.sum() >= RESCALE_FLOOR:
            return
        post = GridPosterior(np.ones(length), float(length), grid_size, offset)
        fold_one_shot(post, depth, phase, envelope, bright, pair=False)
        np.testing.assert_array_equal(post.weights, want)

    @pytest.mark.parametrize("noise", [NOISELESS, NoiseModel(1.0, 0.9)], ids=["noiseless", "beta-0.9"])
    def test_a_stay_across_the_floor_matches_shot_by_shot_updates(self, noise):
        # The rescale case, started 2**24 above the floor and folded as a stay
        # folds it: a retuned factor in one reused buffer and the mode given,
        # so a shot skips its sum while the weight at the mode is at or above
        # the floor.  The sum falls below the floor midway, and the twin,
        # updated shot by shot with every sum taken, must keep the same bits.
        make, depth, _ = SINGLE_SHOTS["rescale"]
        post = make()
        post.weights *= 2.0**24
        post.total = float(post.weights.sum())
        twin = post.clone()
        interval = CircularInterval(4.0, 0.5)
        envelope = noise.contrast(depth)
        trig = window_trig(post, depth)
        buffer = np.empty(post.weights.size)
        rng = np.random.default_rng(3)
        skipped = rescaled = 0
        for _ in range(60):
            mode = map_estimate(post, within=interval)
            assert mode == map_estimate(twin, within=interval)
            phase = tuned_phase(depth, mode)
            bright = bool(rng.random() < 0.5)
            before = twin.total
            update_shot(twin, retuned_factor(window_trig(twin, depth), phase, envelope, bright))
            update_shot(post, retuned_factor(trig, phase, envelope, bright, buffer), mode)
            np.testing.assert_array_equal(post.weights, twin.weights)
            skipped += post.total != twin.total
            rescaled += twin.total > before
        assert skipped > 0 and rescaled == 1
        normalize(post)
        assert post.total == twin.total


def batch_reference(post, record, noise):
    """A batch record folded in on a clone, its logs taken from ``_unit_p0`` directly."""
    post = post.clone()
    depth, phase = record.circuit.depth, record.circuit.phase
    ensure_resolution(post, depth)
    p0 = _unit_p0(_grid_trig(post.grid_size, depth, post.offset, post.weights.size), phase, noise.contrast(depth))
    x, misses = record.successes, record.shots - record.successes
    with np.errstate(divide="ignore"):
        lw = np.log(post.weights)
        if x > 0:
            lw += x * np.log(p0)
        if misses > 0:
            lw += misses * np.log(1.0 - p0)
    if np.isfinite(lw.max()):
        lw -= lw.max()
    post.weights = np.exp(lw)
    return normalize(post)


BATCH_WINDOWS = {name: SINGLE_SHOTS[name] for name in ("whole", "dark-fringe", "seam-window")}


class TestBatchLogCache:
    @pytest.mark.parametrize("case", BATCH_WINDOWS)
    @pytest.mark.parametrize("noise", [NOISELESS, NoiseModel(1.0, 0.9)], ids=["noiseless", "beta-0.9"])
    @pytest.mark.parametrize("x", [0.0, 5.0, 2.3], ids=["none-bright", "all-bright", "fractional"])
    def test_a_cached_fold_equals_logs_taken_from_the_unit_p0(self, case, noise, x):
        make, depth, phase = BATCH_WINDOWS[case]
        base = make()
        if case == "seam-window":
            assert base.offset + base.weights.size > base.grid_size
        record = MeasurementRecord(Circuit(depth, phase), 5, x)
        want = batch_reference(base, record, noise)
        _log_likelihood.cache_clear()
        built = update(base.clone(), record, noise)
        found = update(base.clone(), record, noise)
        assert _log_likelihood.cache_info()[:2] == (1, 1), "the second fold reads the first one's logs"
        for got in (built, found):
            np.testing.assert_array_equal(got.weights, want.weights)
            assert (got.total, got.grid_size, got.offset, got.discarded) == (
                want.total, want.grid_size, want.offset, want.discarded
            )

    def test_the_cached_logs_are_those_of_the_window_p0_q0(self):
        key = (256, 7, 15 * math.pi / 16, 1.0, 0, 256)
        log_p0, log_q0 = _log_likelihood(*key)
        p0, q0 = _window_p0_q0(*key)
        with np.errstate(divide="ignore"):
            assert log_p0.tobytes() == np.log(p0).tobytes()
            assert log_q0.tobytes() == np.log(q0).tobytes()
        assert np.isneginf(log_p0).any(), "the clamped p0 is 0 at the dark fringe"
        assert not log_p0.flags.writeable and not log_q0.flags.writeable

    def test_a_second_doubling_run_hits_on_every_batch_record(self):
        settings = RunSettings()
        batch = [block for block in doubling_schedule(4096, settings, 32) if block[2] > 1]
        # At N = 4096 no depth passes 64, so every record folds into the whole 4096-cell grid.
        assert max(depth for depth, _, _ in batch) * POINTS_PER_PERIOD <= PRIOR_GRID_SIZE
        _log_likelihood.cache_clear()
        run_nonadaptive_doubling(4096, 1.0, settings, 32, np.random.default_rng(0))
        first = _log_likelihood.cache_info()
        assert (first.hits, first.misses) == (0, len(batch))
        run_nonadaptive_doubling(4096, 2.5, settings, 32, np.random.default_rng(1))
        second = _log_likelihood.cache_info()
        assert (second.hits, second.misses) == (len(batch), len(batch))

    def test_predict_loss_adds_nothing_to_the_log_cache(self):
        post = von_mises_posterior(1.0, 4.0)
        _log_likelihood.cache_clear()
        for circuit in (Circuit(8, 0.4), Circuit(1, 0.0)):
            predict_loss(post, circuit, 800, NOISELESS, LossKind.ABSOLUTE)
        info = _log_likelihood.cache_info()
        assert (info.hits, info.misses, info.currsize, info.currbytes) == (0, 0, 0, 0)

    def test_an_entry_larger_than_the_budget_is_used_once_and_not_kept(self):
        # 2**17 cells make a pair of 2 MiB, above the 1.25 MiB budget.
        grid_size = 1 << 17
        record = MeasurementRecord(Circuit(1, 0.3), 4, 1.0)
        assert 2 * grid_size * 8 > _log_likelihood.cache_info().maxbytes
        _log_likelihood.cache_clear()
        want = batch_reference(uniform_prior(grid_size), record, NOISELESS)
        for misses in (1, 2):
            got = update(uniform_prior(grid_size), record, NOISELESS)
            np.testing.assert_array_equal(got.weights, want.weights)
            info = _log_likelihood.cache_info()
            assert (info.hits, info.misses, info.currsize, info.currbytes) == (0, misses, 0, 0)


class TestFold:
    @pytest.mark.parametrize("case", [*BATCH_WINDOWS, "refine"])
    @pytest.mark.parametrize("noise", [NOISELESS, NoiseModel(1.0, 0.9)], ids=["noiseless", "beta-0.9"])
    @pytest.mark.parametrize("x", [0.0, 5.0, 2.3], ids=["none-bright", "all-bright", "fractional"])
    def test_a_one_record_fold_is_the_batch_update_bit_for_bit(self, case, noise, x):
        make, depth, phase = SINGLE_SHOTS[case]
        base = make()
        record = MeasurementRecord(Circuit(depth, phase), 5, x)
        want = batch_reference(base, record, noise)
        assert (want.grid_size > base.grid_size) == (case == "refine")
        got = fold(base.clone(), [record], noise)
        np.testing.assert_array_equal(got.weights, want.weights)
        assert (got.total, got.grid_size, got.offset, got.discarded) == (
            want.total, want.grid_size, want.offset, want.discarded
        )

    @pytest.mark.parametrize("n_tot, shots_per_depth", [(1 << 12, 8), (1 << 16, 32), (1 << 20, 32), (1 << 20, 8)])
    @pytest.mark.parametrize("seed, theta", [(0, 1.3), (1, 5.02), (2, 0.0)])
    def test_a_grouped_doubling_schedule_matches_record_by_record_folding(
        self, monkeypatch, n_tot, shots_per_depth, seed, theta
    ):
        records = doubling_records(n_tot, seed, theta, shots_per_depth)
        one_by_one, _ = replay_doubling(n_tot, seed, theta, shots_per_depth)
        runs = []
        fold_run = posterior_module._fold_run

        def counted(post, run, noise, logs):
            runs.append(list(run))
            fold_run(post, runs[-1], noise, logs)

        monkeypatch.setattr(posterior_module, "_fold_run", counted)
        grouped = fold(uniform_prior(PRIOR_GRID_SIZE), records, NOISELESS)
        assert [record for run in runs for record in run] == [record for record in records if record.shots > 1]
        assert [record.circuit.depth for record in runs[0]] == [1 << (k // 2) for k in range(16)], (
            "the blocks at depths 1 to 128 fold in one run on the first 4096-cell grid"
        )
        assert len(runs) < len(records), "some runs fold several records"
        assert (grouped.grid_size, grouped.offset, grouped.weights.size) == (
            one_by_one.grid_size, one_by_one.offset, one_by_one.weights.size
        )
        # The trimmed tail weights carry the rounding of the log domain, so the cut share agrees to 1e-12.
        assert grouped.discarded == pytest.approx(one_by_one.discarded, rel=1e-12, abs=0)
        assert wrapped_distance(map_estimate(grouped), map_estimate(one_by_one)) <= 1e-12

    def test_a_run_stops_at_a_single_shot_and_at_a_depth_that_refines(self, monkeypatch):
        records = [MeasurementRecord(Circuit(depth, phase), shots, x) for depth, phase, shots, x in (
            (1, 0.0, 4, 3), (2, 0.3, 6, 2), (2, 0.3, 0, 0), (4, 1.0, 1, 1),
            (8, 0.2, 3, 1), (16, 0.5, 5, 4), (8, 0.1, 2, 1),
        )]
        runs = []
        fold_run = posterior_module._fold_run

        def counted(post, run, noise, logs):
            runs.append([(record.circuit.depth, record.shots) for record in run])
            fold_run(post, run, noise, logs)

        monkeypatch.setattr(posterior_module, "_fold_run", counted)
        post = fold(uniform_prior(256), records, NOISELESS)
        # 256 cells resolve depth 8; depth 16 refines the grid, and depth 8 then joins its run.
        assert runs == [[(1, 4), (2, 6), (2, 0)], [(8, 3)], [(16, 5), (8, 2)]]
        assert post.grid_size == 512
        want = uniform_prior(256)
        for record in records:
            update(want, record, NOISELESS)
        assert wrapped_distance(map_estimate(post), map_estimate(want)) <= 1e-12

    def test_an_impossible_run_names_its_records(self):
        # All the mass sits at theta = 0, where a noiseless unit-depth circuit at phase pi is never bright.
        records = [MeasurementRecord(Circuit(1, 0.0), 2, 2.0), MeasurementRecord(Circuit(1, math.pi), 2, 2.0)]
        post = uniform_prior(64)
        post.weights[:] = 0.0
        post.weights[0] = 1.0
        with pytest.raises(ImpossibleObservationError, match=r"^records \[.*\] have zero likelihood"):
            fold(post, records, NOISELESS)
        assert post.total == 0.0

    def test_folding_a_deep_doubling_cell_at_once_peaks_no_higher_than_record_by_record(self):
        # A 2**20 doubling cell of the baseline sweep, 32 shots per depth,
        # whose window refines whole to 262144 cells: the fold takes its log
        # in place of the weights and lets each record's logs go before the
        # next record's are built.
        config = SweepConfig(
            strategies=("nonadaptive-doubling",), resource_ladder=(1 << 20,), theta_count=6, master_seed=9_000_021
        )
        seed = derive_cell_seed(config.master_seed, "nonadaptive-doubling", 1 << 20, 1, 0)
        records = doubling_records(1 << 20, seed, config.theta_of(1))

        def one_by_one():
            post = uniform_prior(4096)
            for record in records:
                update(post, record, NOISELESS)
            return post

        peaks = []
        for fold_them in (one_by_one, lambda: fold(uniform_prior(4096), records, NOISELESS)):
            for name in ARRAY_CACHES:
                getattr(posterior_module, name).cache_clear()
            gc.collect()
            tracemalloc.start()
            try:
                post = fold_them()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert post.weights.size == post.grid_size == 1 << 18, "the window refined whole"
        assert peaks[1] <= peaks[0]


class TestCircularMean:
    def test_concentrated_posterior(self):
        post = von_mises_posterior(5.5, 8.0)
        assert wrapped_distance(circular_mean_estimate(post), 5.5) < 1e-6

    def test_uniform_has_no_mean(self):
        with pytest.raises(UndefinedMeanError):
            circular_mean_estimate(uniform_prior(256))

    def test_antipodal_bimodal_has_no_mean(self):
        angles = _grid_angles(1024, 0, 1024)
        post = posterior_from_log_weights(
            np.logaddexp(5.0 * np.cos(angles - 1.0), 5.0 * np.cos(angles - 1.0 - math.pi))
        )
        with pytest.raises(UndefinedMeanError):
            circular_mean_estimate(post)


class TestExpectedLoss:
    def test_independent_of_the_blas_thread_count(self):
        script = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "from qpe_lab.model import Circuit, MeasurementRecord, NoiseModel; "
            "from qpe_lab.posterior import LossKind, expected_loss, uniform_prior, update; "
            "post = uniform_prior(1 << 18); "
            "update(post, MeasurementRecord(Circuit(4096, 0.3), 5, 2.0), NoiseModel()); "
            "print(repr(expected_loss(post, 1.0, LossKind.ABSOLUTE)))"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(qpe_lab.__file__)))
        printed = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env.pop("OMP_NUM_THREADS", None)
            done = subprocess.run([sys.executable, "-c", script, src], env=env,
                                  capture_output=True, text=True, check=True)
            printed.append(done.stdout)
        assert printed[0] == printed[1]

    def test_uniform_squared_loss(self):
        post = uniform_prior(4096)
        assert expected_loss(post, 1.3, LossKind.SQUARED) == pytest.approx(math.pi**2 / 3, rel=1e-6)

    def test_uniform_absolute_loss(self):
        post = uniform_prior(4096)
        assert expected_loss(post, 0.7, LossKind.ABSOLUTE) == pytest.approx(math.pi / 2, rel=1e-9)

    def test_concentrated_posterior_approaches_point_loss(self):
        post = von_mises_posterior(2.0, 400.0)
        assert expected_loss(post, 2.0 + 0.5, LossKind.ABSOLUTE) == pytest.approx(0.5, rel=1e-3)
        # E[(X - mu - d)^2] = d^2 + Var(X) with Var = 1/kappa for large kappa
        assert expected_loss(post, 2.0 + 0.5, LossKind.SQUARED) == pytest.approx(0.25 + 1 / 400, rel=1e-3)

    def test_half_normal_mean_for_gaussian_like(self):
        sigma = 0.01
        post = von_mises_posterior(3.0, 1.0 / sigma**2)
        loss = expected_loss(post, 3.0, LossKind.ABSOLUTE)
        assert loss == pytest.approx(math.sqrt(2 / math.pi) * sigma, rel=0.02)

    def test_loss_kind_values(self):
        assert LossKind("absolute-error") is LossKind.ABSOLUTE
        assert LossKind("squared-error") is LossKind.SQUARED


class TestGridOutcomeLawMatchesModel:
    """The grid's angle-addition form of p0 against ``success_probability``.

    The grid reuses cached cos(n*theta) and sin(n*theta), so it differs
    from the direct cosine by rounding alone: a few ulp of the argument
    2*pi*n (0.5625 ulp measured over these cases).
    """

    @pytest.mark.parametrize("depth", [1, 3, 64, 1024, 1 << 15])
    @pytest.mark.parametrize("noise", [NOISELESS, NoiseModel(1.0, 0.999)], ids=["noiseless", "beta-0.999"])
    def test_within_a_few_ulp(self, depth, noise):
        grid_size = required_grid_size(depth)
        angles = _grid_angles(grid_size, 0, grid_size)
        tolerance = 4 * np.spacing(TWO_PI * depth)
        for phase in np.linspace(0.0, TWO_PI, 7, endpoint=False):
            circuit = Circuit(depth, float(phase))
            grid = grid_p0(grid_size, depth, circuit.phase, noise.contrast(depth), 0, grid_size)
            direct = success_probability(angles, circuit, noise)
            assert np.max(np.abs(grid - direct)) <= tolerance


@st.composite
def clamp_free_circuits(draw):
    """A grid, a window of it, and a circuit with an envelope up to CLAMP_FREE_ENVELOPE.

    The phase often puts a bright or dark fringe on a grid node, where p0
    sits closest to 1 or 0.
    """
    grid_size = draw(st.sampled_from([64, 256, 4096, 65536]))
    depth = draw(st.integers(1, grid_size // POINTS_PER_PERIOD))
    envelope = draw(st.one_of(
        st.just(CLAMP_FREE_ENVELOPE),
        st.floats(CLAMP_FREE_ENVELOPE - 1e-9, CLAMP_FREE_ENVELOPE),
        st.floats(0.0, CLAMP_FREE_ENVELOPE),
    ))
    node = draw(st.integers(0, grid_size - 1)) * TWO_PI / grid_size
    fringe = draw(st.sampled_from([0.0, math.pi]))
    jitter = draw(st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9), st.floats(0.0, TWO_PI)))
    phase = wrap_float(fringe - depth * node + jitter)
    offset = draw(st.integers(0, grid_size - 1))
    length = draw(st.integers(1, grid_size))
    return grid_size, depth, phase, envelope, offset, length


class TestClampFreeEnvelope:
    @given(case=clamp_free_circuits())
    @settings(max_examples=300, deadline=None)
    def test_p0_lies_in_the_unit_interval_without_the_clamp(self, case):
        grid_size, depth, phase, envelope, offset, length = case
        raw = grid_p0(grid_size, depth, phase, envelope, offset, length)
        assert 0.0 <= raw.min() and raw.max() <= 1.0
        np.testing.assert_array_equal(np.clip(raw, 0.0, 1.0), raw)
        built, _ = _window_p0_q0(grid_size, depth, phase, envelope, offset, length)
        np.testing.assert_array_equal(built, raw)


class TestPredictOutcome:
    def test_uniform_prior_predicts_half(self):
        post = uniform_prior(256)
        for circ in (Circuit(1, 0.0), Circuit(3, 1.1), Circuit(8, 4.0)):
            assert predict_outcome(post, circ, 100, NOISELESS) == pytest.approx(50.0, abs=1e-9)

    def test_concentrated_posterior_predicts_pointwise_rate(self):
        post = von_mises_posterior(2.0, 500.0)
        circ = Circuit(2, 0.9)
        want = 80 * success_probability(2.0, circ, NOISELESS)
        assert predict_outcome(post, circ, 80, NOISELESS) == pytest.approx(want, rel=1e-3)

    def test_result_is_clamped(self):
        post = uniform_prior(256)
        x = predict_outcome(post, Circuit(1, 0.0), 10, NOISELESS)
        assert 0.0 <= x <= 10.0

    @pytest.mark.parametrize("shots, message", [
        (2.5, "shots must be an integer, got 2.5"),
        (True, "shots must be an integer, got True"),
        (-1, "shots must be >= 0, got -1"),
    ])
    def test_a_bad_shot_count_is_named(self, shots, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            predict_outcome(uniform_prior(256), Circuit(1, 0.0), shots, NOISELESS)

    def test_dark_fringe_reads_the_clamped_p0(self):
        # The angle-addition p0 of this circuit dips to -1.1e-16 at one node.
        circuit = Circuit(7, 15 * math.pi / 16)
        raw = grid_p0(256, circuit.depth, circuit.phase, 1.0, 0, 256)
        k = int(np.argmin(raw))
        assert raw[k] < 0.0
        w = np.zeros(256)
        w[k] = 1.0
        w[k + 1] = 1e-3
        post = normalize(GridPosterior(w, 1.0, 256))

        def trapezoid_count(p0):
            return 1000 * (float((post.density * p0).sum()) * post.cell_width)

        expected = predict_outcome(post, circuit, 1000, NOISELESS)
        assert expected == trapezoid_count(np.clip(raw, 0.0, 1.0))
        assert expected != trapezoid_count(raw)
        # predict_loss reads the same count and folds it with the logs of the same clamped pair
        hypothetical = update(post.clone(), MeasurementRecord(circuit, 1000, expected), NOISELESS)
        want = expected_loss(hypothetical, map_estimate(hypothetical), LossKind.ABSOLUTE)
        assert predict_loss(post, circuit, 1000 * circuit.depth, NOISELESS, LossKind.ABSOLUTE) == want


class TestPredictLoss:
    def test_budget_below_depth_is_infeasible(self):
        post = uniform_prior(256)
        with pytest.raises(InsufficientResourcesError):
            predict_loss(post, Circuit(8, 0.0), 7, NOISELESS, LossKind.ABSOLUTE)

    @pytest.mark.parametrize("resources_left, message", [
        (math.inf, "resources_left must be an integer, got inf"),
        (800.0, "resources_left must be an integer, got 800.0"),
        (-8, "resources_left must be >= 0, got -8"),
    ])
    def test_a_bad_budget_is_named(self, resources_left, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            predict_loss(uniform_prior(256), Circuit(8, 0.0), resources_left, NOISELESS, LossKind.ABSOLUTE)

    def test_a_deeper_circuit_refines_the_callers_posterior(self):
        # Later updates and gate checks run on the refined grid, so the
        # decision paths depend on this side effect.
        post = von_mises_posterior(1.0, 20.0, 256)
        want = ensure_resolution(post.clone(), 64)
        predict_loss(post, Circuit(64, 0.3), 640, NOISELESS, LossKind.ABSOLUTE)
        assert post.grid_size == required_grid_size(64) == 2048
        np.testing.assert_array_equal(post.weights, want.weights)
        assert post.total == want.total

    def test_does_not_mutate_the_posterior(self):
        post = von_mises_posterior(1.0, 2.0)
        before = post.density.copy()
        predict_loss(post, Circuit(1, 0.0), 50, NOISELESS, LossKind.ABSOLUTE)
        np.testing.assert_array_equal(post.density, before)

    def test_quarter_phase_resolves_a_mirror_ambiguity(self):
        # after one cosine record the posterior has mirror modes at
        # +-arccos(2/3); a quarter-offset fringe separates them while the
        # same-phase fringe cannot.
        post = uniform_prior(4096)
        update(post, MeasurementRecord(Circuit(1, 0.0), 30, 25.0), NOISELESS)
        stay = predict_loss(post, Circuit(1, 0.0), 200, NOISELESS, LossKind.ABSOLUTE)
        offset = predict_loss(post, Circuit(1, math.pi / 4), 200, NOISELESS, LossKind.ABSOLUTE)
        assert offset < stay
        assert stay == pytest.approx(0.893056, abs=5e-3)
        assert offset == pytest.approx(0.049001, abs=5e-3)


class TestImpossibleObservation:
    def test_normalize_rejects_an_empty_posterior(self):
        post = GridPosterior(np.zeros(64), 1.0, 64)
        with pytest.raises(ImpossibleObservationError):
            normalize(post)

    def test_density_property_rejects_an_empty_posterior(self):
        post = GridPosterior(np.zeros(64), 0.0, 64)
        with pytest.raises(ImpossibleObservationError):
            post.density


def window_of(post, offset, length):
    """The window offset .. offset + length - 1 (mod grid) of a whole-grid posterior, and its zero-filled twin."""
    g = post.grid_size
    cells = (offset + np.arange(length)) % g
    w = post.weights[cells].copy()
    full = np.zeros(g)
    full[cells] = w
    return GridPosterior(w, float(w.sum()), g, offset), GridPosterior(full, float(full.sum()), g)


def doubling_records(n_tot, seed, theta, shots_per_depth=32):
    """The records ``run_nonadaptive_doubling`` folds, each block sampled in turn from ``default_rng(seed)``."""
    settings = RunSettings()
    rng = np.random.default_rng(seed)
    records = []
    for depth, phase, shots in doubling_schedule(n_tot, settings, shots_per_depth):
        circuit = Circuit(depth, phase)
        records.append(MeasurementRecord(circuit, shots, sample_outcome(circuit, shots, theta, settings.noise, rng)))
    return records


def replay_doubling(n_tot, seed, theta, shots_per_depth=32):
    """The posterior of ``doubling_records`` updated one record at a time, and its window length after each update."""
    settings = RunSettings()
    post = uniform_prior(PRIOR_GRID_SIZE)
    lengths = []
    for record in doubling_records(n_tot, seed, theta, shots_per_depth):
        update(post, record, settings.noise)
        lengths.append(post.weights.size)
    return post, lengths


def captured_run(monkeypatch, n_tot, seed, theta, noise=NOISELESS):
    """A ``run()``, noiseless by default, and the posterior it ends with."""
    made = []

    def prior(grid_size):
        made.append(uniform_prior(grid_size))
        return made[-1]

    monkeypatch.setattr(adaptive, "uniform_prior", prior)
    trace = adaptive.run(AlgorithmConfig(total_resources=n_tot, seed=seed, noise=noise), theta)
    return trace, made[0]


def assert_reads_match(post, twin, rel=1e-12, mass_abs=0.0):
    """Masses, modes, losses and the circular mean of two posteriors agree."""
    mode = map_estimate(twin)
    assert map_estimate(post) == pytest.approx(mode, rel=0, abs=1e-12)
    for kind in LossKind:
        assert expected_loss(post, mode, kind) == pytest.approx(expected_loss(twin, mode, kind), rel=rel)
    assert circular_mean_estimate(post) == pytest.approx(circular_mean_estimate(twin), rel=0, abs=1e-12)
    for cells in (0.3, 1.0, 2.5, 8.0, 40.0, 500.0):
        iv = CircularInterval(mode + 0.7 * twin.cell_width, cells * twin.cell_width)
        assert confidence(post, iv) == pytest.approx(confidence(twin, iv), rel=rel, abs=mass_abs)
        assert mass_outside(post, iv) == pytest.approx(mass_outside(twin, iv), rel=rel, abs=mass_abs)
        assert map_estimate(post, within=iv) == pytest.approx(map_estimate(twin, within=iv), rel=0, abs=1e-12)


class TestWindow:
    @given(arc=arcs(), kind=st.sampled_from(["random", "ties", "flat", "dead"]), seed=st.integers(0, 2**32 - 1),
           start=st.floats(0.0, 1.0, exclude_max=True), share=st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
    @settings(max_examples=300, deadline=None)
    def test_a_window_reads_as_its_zero_filled_grid(self, arc, kind, seed, start, share):
        # share = 1 stores the whole grid, rotated to start at the offset.
        grid_size, within = arc
        whole = posterior_from_log_weights(log_weight_profile(kind, grid_size, within, seed))
        length = 1 + int(share * (grid_size - 1))
        post, twin = window_of(whole, int(start * grid_size), length)
        if not twin.total > 0.0:
            return
        np.testing.assert_array_equal(post.angles, twin.angles[(post.offset + np.arange(length)) % grid_size])
        assert map_estimate(post) == map_estimate(twin)
        assert map_estimate(post, within=within) == map_estimate(twin, within=within)
        assert confidence(post, within) == pytest.approx(confidence(twin, within), rel=1e-12, abs=0)
        assert mass_outside(post, within) == pytest.approx(mass_outside(twin, within), rel=1e-12, abs=0)
        estimate = within.center
        for kind_of_loss in LossKind:
            assert expected_loss(post, estimate, kind_of_loss) == pytest.approx(
                expected_loss(twin, estimate, kind_of_loss), rel=1e-12
            )

    def test_ties_across_the_seam_go_to_the_smallest_grid_index(self):
        # Window cells 2 and 6 are grid cells 62 and 2.
        w = np.array([1.0, 1.0, 5.0, 1.0, 1.0, 1.0, 5.0, 1.0])
        post = GridPosterior(w, float(w.sum()), 64, 60)
        cell = TWO_PI / 64
        assert map_estimate(post) == 2 * cell
        assert map_estimate(post, within=CircularInterval(0.0, 3.5 * cell)) == 2 * cell
        assert map_estimate(post, within=CircularInterval(61 * cell, 1.5 * cell)) == 62 * cell

    def test_trimming_cuts_the_far_tails_across_the_seam(self):
        post = von_mises_posterior(0.01, 4000.0)
        trimmed = post.clone()
        _trim(trimmed)
        g, n = trimmed.grid_size, trimmed.weights.size
        assert n < g // 4
        assert trimmed.offset + n > g, "the window crosses the seam"
        assert 0.0 < trimmed.discarded <= TRIM_MASS
        # The cut cells and the guard cells at both ends of the window hold at most TRIM_MASS.
        kept = (trimmed.offset + np.arange(n)) % g
        np.testing.assert_array_equal(trimmed.weights, post.weights[kept])
        outside = np.ones(g, dtype=bool)
        outside[kept[GUARD_CELLS:-GUARD_CELLS]] = False
        assert post.weights[outside].sum() <= TRIM_MASS * post.total
        assert_reads_match(trimmed, post, mass_abs=TRIM_MASS)

    @pytest.mark.parametrize("kappa", [0.0, 3.0, 20.0])
    def test_a_broad_posterior_is_not_trimmed(self, kappa):
        post = von_mises_posterior(2.0, kappa)
        trimmed = post.clone()
        _trim(trimmed)
        assert (trimmed.offset, trimmed.discarded, trimmed.total) == (0, 0.0, post.total)
        np.testing.assert_array_equal(trimmed.weights, post.weights)

    def test_a_window_refines_to_twice_its_length_less_one(self):
        post, twin = window_of(von_mises_posterior(3.0, 900.0, 256), 230, 20)
        _refine_once(post)
        _refine_once(twin)
        assert (post.grid_size, post.offset, post.weights.size) == (512, 460, 39)
        np.testing.assert_array_equal(post.weights, twin.weights[460:499])
        assert not twin.weights[:460].any() and not twin.weights[499:].any()

    @pytest.mark.parametrize("n_tot", [1 << 16, 1 << 18, 1 << 20])
    @pytest.mark.parametrize("seed, theta", [(0, 1.3), (1, 5.02)])
    def test_deep_doubling_runs_keep_a_short_window(self, n_tot, seed, theta):
        post, lengths = replay_doubling(n_tot, seed, theta)
        assert post.grid_size == 32 * n_tot // 128
        assert 0.0 < post.discarded <= 2.0**-90
        assert post.weights.size < post.grid_size // 64

    @pytest.mark.parametrize("seed, theta", [(0, 0.0), (1, 3.883222148137428)])
    def test_deep_adaptive_runs_discard_almost_nothing(self, monkeypatch, seed, theta):
        trace, post = captured_run(monkeypatch, 1 << 16, seed, theta)
        assert post.grid_size >= 32 * trace.max_depth_used > 4096
        assert 0.0 < post.discarded <= 2.0**-90
        assert post.weights.size < post.grid_size

    @pytest.mark.parametrize("n_tot", [1 << 16, 1 << 20])
    def test_trimmed_doubling_runs_match_their_untrimmed_twins(self, monkeypatch, n_tot):
        post, _ = replay_doubling(n_tot, 0, 1.3)
        monkeypatch.setattr(posterior_module, "_trim", lambda post: None)
        twin, _ = replay_doubling(n_tot, 0, 1.3)
        assert twin.weights.size == twin.grid_size == post.grid_size
        assert_reads_match(post, twin, mass_abs=2.0**-90)

    def test_a_trimmed_run_across_the_seam_matches_its_untrimmed_twin(self, monkeypatch):
        trace, post = captured_run(monkeypatch, 1 << 16, 0, 0.0)
        assert post.offset + post.weights.size > post.grid_size, "the window crosses the seam"
        monkeypatch.setattr(posterior_module, "_trim", lambda post: None)
        twin_trace, twin = captured_run(monkeypatch, 1 << 16, 0, 0.0)
        assert twin_trace.wall_outcome_counts == trace.wall_outcome_counts
        assert [s.decision for s in twin_trace.steps] == [s.decision for s in trace.steps]
        assert_reads_match(post, twin, mass_abs=2.0**-90)

    @pytest.mark.parametrize("seed", range(3))
    def test_caches_hold_window_sized_arrays(self, monkeypatch, seed):
        # Every array the per-window caches build, and every live weight
        # array, is no longer than the longest window the run has had.
        built = []

        def recording(cached):
            def build(*args):
                value = cached.__wrapped__(*args)
                built.extend(a.size for a in value)
                return value
            return _bounded_cache(**cached.cache_parameters())(build)

        for name in ARRAY_CACHES:
            monkeypatch.setattr(posterior_module, name, recording(getattr(posterior_module, name)))
        post, lengths = replay_doubling(1 << 20, seed, 2.0 + seed)
        assert max(built) <= max(PRIOR_GRID_SIZE, *lengths)
        assert max(lengths) < post.grid_size // 32


ARRAY_CACHES = ("_grid_trig", "_log_likelihood")


class TestByteBoundedCaches:
    def array_cache(self, maxsize, maxbytes):
        calls = []

        def build(n):
            # A pair of arrays, as the posterior's caches hold, of n cells in all.
            calls.append(n)
            return np.zeros(n), np.zeros(0)

        return _bounded_cache(maxsize, maxbytes)(build), calls

    def test_the_oldest_entries_go_first_once_the_bytes_run_over(self):
        cached, calls = self.array_cache(8, 100 * 8)
        for n in (40, 30, 20):
            cached(n)
        cached(40)  # now the most recently used
        cached(25)  # 115 cells: 30, the least recently used, goes
        assert cached.cache_info() == CacheInfo(1, 4, 8, 3, 800, (40 + 20 + 25) * 8)
        cached(30)
        assert calls == [40, 30, 20, 25, 30]

    def test_the_entry_count_still_bounds_the_cache(self):
        cached, calls = self.array_cache(2, 1 << 20)
        for n in (1, 2, 3, 1):
            cached(n)
        assert calls == [1, 2, 3, 1]
        assert cached.cache_info().currsize == 2

    def test_an_entry_larger_than_the_budget_is_returned_and_not_kept(self):
        cached, calls = self.array_cache(8, 100 * 8)
        cached(10)
        big = cached(1000)
        assert big[0].size == 1000
        assert cached.cache_info() == CacheInfo(0, 2, 8, 1, 800, 80), "the small entry stays"
        assert cached(1000) is not big
        cached(10)
        assert calls == [10, 1000, 1000]
        cached(100)  # exactly the budget: kept, and the small entry goes
        assert cached.cache_info()[3:] == (1, 800, 800)

    def test_the_parameters_rebuild_the_cache(self):
        for name in ARRAY_CACHES:
            parameters = getattr(posterior_module, name).cache_parameters()
            assert set(parameters) == {"maxsize", "maxbytes"}

    def test_clear_empties_the_cache_and_its_counts(self):
        cached, calls = self.array_cache(8, 800)
        cached(10)
        cached(10)
        cached.cache_clear()
        assert cached.cache_info() == CacheInfo(0, 0, 8, 0, 800, 0)
        cached(10)
        assert calls == [10, 10]

    def test_the_benchmark_reads_the_likelihood_cache_counts(self, monkeypatch):
        # perfbench/layers.py derived the traced logprob-cache hit ratio from
        # the p0 cache's two counts; with the cache gone it reads None, so a ratio of 0.
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
        layers = importlib.import_module("layers")
        assert layers.logprob_cache_info() is None

    def test_a_whole_grid_doubling_run_leaves_at_most_the_budgets(self, monkeypatch):
        # One shot per depth leaves the posterior too broad to trim, so the
        # grid refines whole to 2**22 cells; every array still held after the
        # run is in the two caches, and neither keeps an entry above its budget.
        newest = {}

        def recording(name, cached):
            def build(*args):
                value = cached.__wrapped__(*args)
                newest[name] = sum(array.nbytes for array in value)
                return value
            info = cached.cache_info()
            assert isinstance(info.maxsize, int) and isinstance(info.maxbytes, int)
            return _bounded_cache(**cached.cache_parameters())(build)

        for name in ARRAY_CACHES:
            monkeypatch.setattr(posterior_module, name, recording(name, getattr(posterior_module, name)))
        tracemalloc.start()
        try:
            run_nonadaptive_doubling(1 << 20, 1.3, RunSettings(), 1, np.random.default_rng(0))
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        infos = {name: getattr(posterior_module, name).cache_info() for name in ARRAY_CACHES}
        assert newest["_grid_trig"] == 2 * MAX_GRID_SIZE * 8, "the grid refined whole to the cap"
        # The leftover budget buys two-shot blocks at the deepest depth, batch records on the capped grid.
        assert newest["_log_likelihood"] == 2 * MAX_GRID_SIZE * 8
        assert sum(info.maxbytes for info in infos.values()) < MAX_GRID_SIZE * 8, "budgets below one capped array"
        for info in infos.values():
            assert info.currbytes <= info.maxbytes
        assert held <= sum(info.maxbytes for info in infos.values())


class TestRebuiltAngles:
    @given(grid_log2=st.integers(6, 18), start=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
           share=st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
    @example(grid_log2=6, start=0.0, share=1.0)
    @example(grid_log2=12, start=0.5, share=1.0)
    @example(grid_log2=12, start=0.9, share=0.3)
    @settings(max_examples=300, deadline=None)
    def test_angles_equal_the_integer_cell_formula_bit_for_bit(self, grid_log2, start, share):
        # Offset 0, windows across the seam and whole grids rotated to any offset.
        g = 1 << grid_log2
        offset, length = int(start * g), 1 + int(share * (g - 1))
        want = ((offset + np.arange(length)) % g) * (TWO_PI / g)
        assert _grid_angles(g, offset, length).tobytes() == want.tobytes()

    @pytest.mark.parametrize("trimmed", [False, True])
    def test_circular_mean_equals_the_cosines_of_the_angles_bit_for_bit(self, trimmed):
        post = von_mises_posterior(0.01, 4000.0)
        if trimmed:
            _trim(post)
            assert post.offset + post.weights.size > post.grid_size, "the window crosses the seam"
        g, d, h = post.grid_size, post.density, post.cell_width
        angles = ((post.offset + np.arange(d.size)) % g) * (TWO_PI / g)
        re = float((d * np.cos(angles)).sum()) * h
        im = float((d * np.sin(angles)).sum()) * h
        assert circular_mean_estimate(post) == float(wrap(math.atan2(im, re)))


def geometry_reads(post, iv):
    return confidence(post, iv), mass_outside(post, iv), map_estimate(post, within=iv)


def cold_geometry_reads(post, iv):
    _arc_spans.cache_clear()
    _arc_runs.cache_clear()
    return geometry_reads(post, iv)


def leaves(value):
    if isinstance(value, tuple):
        for item in value:
            yield from leaves(item)
    else:
        yield value


class TestArcGeometryCache:
    @given(arc=arcs(), kind=st.sampled_from(["random", "ties", "dead"]), seed=st.integers(0, 2**32 - 1),
           start=st.floats(0.0, 1.0, exclude_max=True), share=st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
    @settings(max_examples=200, deadline=None)
    def test_cached_reads_equal_cold_reads(self, arc, kind, seed, start, share):
        grid_size, within = arc
        post = posterior_from_log_weights(log_weight_profile(kind, grid_size, within, seed))
        if share < 1.0:
            post, _ = window_of(post, int(start * grid_size), 1 + int(share * (grid_size - 2)))
        if not post.total > 0.0:
            return
        geometry_reads(post, within)
        assert geometry_reads(post, within) == cold_geometry_reads(post, within)

    @pytest.mark.parametrize("center", [0.002, 3.0, TWO_PI - 0.003])
    def test_one_interval_read_across_window_changes(self, center):
        # Each posterior differs from the one before in grid size, offset or
        # length alone, and the interval's geometry for the one before is
        # cached when it is read.
        whole = von_mises_posterior(center, 4000.0)
        iv = CircularInterval(center + 0.3 * whole.cell_width, 25.5 * whole.cell_width)
        mode = int(round(center / whole.cell_width))
        shifted, _ = window_of(whole, (mode - 100) % 4096, 200)
        trimmed = shifted.clone()
        _trim(trimmed)
        refined = normalize(_refine_once(trimmed.clone()))
        posteriors = [
            whole,
            window_of(whole, (mode - 101) % 4096, 200)[0],
            shifted,
            window_of(whole, (mode - 100) % 4096, 180)[0],
            trimmed,
            refined,
        ]
        keys = [(p.grid_size, p.offset, p.weights.size) for p in posteriors]
        assert all(sum(a != b for a, b in zip(k0, k1)) >= 1 for k0, k1 in zip(keys, keys[1:]))
        assert {k[0] for k in keys} == {4096, 8192}
        cold_geometry_reads(whole, iv)
        for post in posteriors:
            warm = geometry_reads(post, iv)
            assert warm == cold_geometry_reads(post, iv)

    def test_a_trim_then_a_refine_keep_the_gate_reads(self):
        # The same interval read on a posterior that ensure_resolution trims
        # and doubles in place, against a twin read with cold caches.
        post = von_mises_posterior(0.001, 3000.0, 256)
        iv = CircularInterval(0.001, 6 * post.cell_width)
        before = geometry_reads(post, iv)
        assert before == cold_geometry_reads(post, iv)
        ensure_resolution(post, 16)
        assert post.weights.size < post.grid_size == 512
        assert geometry_reads(post, iv) == cold_geometry_reads(post, iv)

    @pytest.mark.parametrize("n_tot, beta", [(1024, 0.9), (1 << 16, 1.0)])
    def test_geometry_caches_hold_no_arrays(self, monkeypatch, n_tot, beta):
        built = []

        def recording(cached):
            def build(*args):
                built.append(cached.__wrapped__(*args))
                return built[-1]
            return lru_cache(maxsize=cached.cache_info().maxsize)(build)

        for name in ("_arc_spans", "_arc_runs"):
            monkeypatch.setattr(posterior_module, name, recording(getattr(posterior_module, name)))
        trace, post = captured_run(monkeypatch, n_tot, 0, 0.0, NoiseModel(1.0, beta))
        if beta == 1.0:
            assert post.offset + post.weights.size > post.grid_size, "the trimmed window crosses the seam"
        assert len(built) > 10
        for value in built:
            assert {type(leaf) for leaf in leaves(value)} <= {bool, int, float, type(None)}
