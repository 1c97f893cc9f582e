import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from qpe_lab.angles import TWO_PI, wrap, wrapped_distance
from qpe_lab.model import Circuit, MeasurementRecord, NoiseModel, success_probability
from qpe_lab.posterior import (
    MAX_GRID_SIZE,
    MIN_GRID_SIZE,
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
    map_estimate,
    mass_outside,
    normalize,
    predict_loss,
    predict_outcome,
    required_grid_size,
    uniform_prior,
    update,
)
from qpe_lab.posterior import _cumulative_mass, _log_prob_components

NOISELESS = NoiseModel()


def von_mises_posterior(mu, kappa, grid_size=4096):
    post = uniform_prior(grid_size)
    post.log_weights[:] = kappa * np.cos(post.angles - mu)
    return normalize(post)


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

    def test_center_is_wrapped(self):
        assert CircularInterval(TWO_PI + 1.0, 0.5).center == pytest.approx(1.0)

    @pytest.mark.parametrize("hw", [0.0, -0.1, math.pi + 0.001])
    def test_half_width_range(self, hw):
        with pytest.raises(ValueError):
            CircularInterval(0.0, hw)

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

    def test_seam_crossing_interval(self):
        post = von_mises_posterior(0.0, 5.0)
        # the interval straddles the 0/2pi seam; both halves must count
        exact = integrate.quad(
            lambda t: math.exp(5.0 * math.cos(t)), -1.0, 1.0
        )[0] / (TWO_PI * special.i0(5.0))
        assert confidence(post, CircularInterval(0.0, 1.0)) == pytest.approx(exact, abs=1e-5)

    def test_tiny_mass_outside_is_accurate(self):
        # complement-side integration keeps precision where 1 - conf
        # would lose it to cancellation
        post = von_mises_posterior(3.0, 60.0)
        iv = CircularInterval(3.0, 2.0)
        out = mass_outside(post, iv)
        exact = 2 * integrate.quad(
            lambda t: math.exp(60.0 * math.cos(t)), 2.0, math.pi,
        )[0] / (TWO_PI * special.i0(60.0))
        assert out == pytest.approx(exact, rel=5e-3)
        assert out < 1e-10

    @given(center=st.floats(0, TWO_PI), hw=st.floats(0.01, math.pi))
    @settings(max_examples=40, deadline=None)
    def test_confidence_stays_in_unit_interval(self, center, hw):
        post = von_mises_posterior(1.0, 3.0, grid_size=256)
        c = confidence(post, CircularInterval(center, hw))
        assert -1e-12 <= c <= 1.0 + 1e-12


class TestMapEstimate:
    def test_quadratic_refinement_beats_the_grid(self):
        mu = 1.2345678
        post = von_mises_posterior(mu, 6.0)
        assert abs(map_estimate(post) - mu) < 1e-8

    def test_tie_breaks_to_smallest_index(self):
        post = uniform_prior(128)
        assert map_estimate(post) == 0.0

    def test_masked_argmax_selects_the_lobe(self):
        post = uniform_prior(4096)
        post.log_weights[:] = np.logaddexp(
            8.0 * np.cos(post.angles - 1.0), 8.0 * np.cos(post.angles - 4.0) + 0.2
        )
        normalize(post)
        assert abs(map_estimate(post) - 4.0) < 1e-3
        within = CircularInterval(1.0, 0.8)
        assert abs(map_estimate(post, within=within) - 1.0) < 1e-3

    def test_mask_without_mass_falls_back_to_global(self):
        # hard zeros (not merely small mass) inside the window trigger the
        # global fallback
        post = uniform_prior(1024)
        dead = wrapped_distance(post.angles, 4.0) < 1.0
        post.log_weights[dead] = -math.inf
        post.log_weights[~dead] = 3.0 * np.cos(post.angles[~dead] - 1.0)
        normalize(post)
        empty_side = CircularInterval(4.0, 0.5)
        assert map_estimate(post, within=empty_side) == map_estimate(post)


def masked_map_reference(posterior, within):
    """The full-grid masked search that map_estimate(within=...) replaced."""
    lw = posterior.log_weights
    angles = posterior.angles
    inside = wrapped_distance(angles, within.center) <= within.half_width + 1e-12
    if np.any(inside & np.isfinite(lw)):
        masked = np.where(inside, lw, -np.inf)
        k = int(np.argmax(masked))
    else:
        k = int(np.argmax(lw))

    g = posterior.grid_size
    left = lw[(k - 1) % g]
    center = lw[k]
    right = lw[(k + 1) % g]
    offset = 0.0
    if np.isfinite(left) and np.isfinite(center) and np.isfinite(right):
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
        post = GridPosterior(grid_size, log_weight_profile(kind, grid_size, within, seed))
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

    def test_dead_interior_falls_back_to_the_global_argmax(self):
        post = von_mises_posterior(1.0, 8.0, 4096)
        within = CircularInterval(TWO_PI - 0.1, 0.4)
        post.log_weights[wrapped_distance(post.angles, within.center) <= 0.41] = -math.inf
        assert map_estimate(post, within=within) == map_estimate(post)
        assert map_estimate(post, within=within) == masked_map_reference(post, within)


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
        _log_prob_components.cache_clear()
        fresh = update(base.clone(), record, noise)
        # Another posterior sees the opposite outcome, so both branches of
        # this circuit are cached before the same update runs again.
        opposite = MeasurementRecord(record.circuit, 1, 1.0 - min(record.successes, 1.0))
        update(base.clone(), opposite, noise)
        cached = update(base.clone(), record, noise)
        assert _log_prob_components.cache_info().hits >= 2
        np.testing.assert_array_equal(fresh.log_weights, cached.log_weights)
        np.testing.assert_array_equal(fresh.density, cached.density)

    def test_fractional_single_shot_uses_both_branches(self):
        noise = NoiseModel(0.9, 0.95)
        circuit = Circuit(4, 1.1)
        record = MeasurementRecord(circuit, 1, 0.3)
        _log_prob_components.cache_clear()
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

    def test_density_read_late_equals_density_from_log_weights(self):
        post = update(uniform_prior(4096), MeasurementRecord(Circuit(2, 0.3), 1, 1.0), NOISELESS)
        update(post, MeasurementRecord(Circuit(2, 1.3), 1, 0.0), NOISELESS)
        recomputed = GridPosterior(post.grid_size, post.log_weights.copy()).density
        np.testing.assert_allclose(post.density, recomputed, rtol=1e-12)
        assert post.density is post.density

    def test_cumulative_mass_matches_the_rolled_trapezoid(self):
        post = von_mises_posterior(0.3, 12.0, 4096)
        d = post.density
        segments = 0.5 * (d + np.roll(d, -1)) * post.cell_width
        np.testing.assert_array_equal(_cumulative_mass(post), np.concatenate(([0.0], np.cumsum(segments))))

    @pytest.mark.parametrize("read_density", [False, True])
    def test_impossible_observation_leaves_no_stale_density(self, read_density):
        # only theta = 0 carries weight, and there depth 1, phase pi has p0 = 0
        lw = np.full(64, -math.inf)
        lw[0] = 0.0
        post = normalize(GridPosterior(64, lw))
        if read_density:
            assert post.density[0] > 0.0
        with pytest.raises(ImpossibleObservationError):
            update(post, MeasurementRecord(Circuit(1, math.pi), 1, 1.0), NOISELESS)
        with pytest.raises(ImpossibleObservationError):
            post.density
        with pytest.raises(ImpossibleObservationError):
            mass_outside(post, CircularInterval(0.0, 0.5))


class TestCircularMean:
    def test_concentrated_posterior(self):
        post = von_mises_posterior(5.5, 8.0)
        assert wrapped_distance(circular_mean_estimate(post), 5.5) < 1e-6

    def test_uniform_has_no_mean(self):
        with pytest.raises(UndefinedMeanError):
            circular_mean_estimate(uniform_prior(256))

    def test_antipodal_bimodal_has_no_mean(self):
        post = uniform_prior(1024)
        post.log_weights[:] = np.logaddexp(
            5.0 * np.cos(post.angles - 1.0), 5.0 * np.cos(post.angles - 1.0 - math.pi)
        )
        normalize(post)
        with pytest.raises(UndefinedMeanError):
            circular_mean_estimate(post)


class TestExpectedLoss:
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


class TestPredictLoss:
    def test_budget_below_depth_is_infeasible(self):
        post = uniform_prior(256)
        with pytest.raises(InsufficientResourcesError):
            predict_loss(post, Circuit(8, 0.0), 7, NOISELESS, LossKind.ABSOLUTE)

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
        post = uniform_prior(64)
        post.log_weights[:] = -math.inf
        with pytest.raises(ImpossibleObservationError):
            normalize(post)

    def test_density_property_rejects_an_empty_posterior(self):
        post = uniform_prior(64)
        post.log_weights[:] = -math.inf
        with pytest.raises(ImpossibleObservationError):
            post.density
