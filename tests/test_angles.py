import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpe_lab.angles import TWO_PI, signed_gap, wrap, wrapped_distance

angles = st.floats(-50.0, 50.0, allow_nan=False)


class TestWrap:
    @pytest.mark.parametrize(
        "raw,expected",
        [(0.0, 0.0), (TWO_PI, 0.0), (-0.5, TWO_PI - 0.5), (7.0, 7.0 - TWO_PI), (-TWO_PI, 0.0)],
    )
    def test_known_values(self, raw, expected):
        assert wrap(raw) == pytest.approx(expected, abs=1e-15)

    def test_vectorized(self):
        out = wrap(np.array([-1.0, 0.0, 9.0]))
        assert out.shape == (3,)
        assert np.all((0.0 <= out) & (out < TWO_PI))

    @given(theta=angles)
    @settings(max_examples=200)
    def test_range_and_idempotence(self, theta):
        w = float(wrap(theta))
        assert 0.0 <= w < TWO_PI
        assert float(wrap(w)) == pytest.approx(w, abs=1e-12)

    @given(theta=angles, k=st.integers(-5, 5))
    @settings(max_examples=100)
    def test_period_invariance(self, theta, k):
        # compare on the circle: near the seam, rounding in theta + k*2*pi
        # may land the wrapped value on the other side of 0
        shifted = float(wrap(theta + k * TWO_PI))
        assert float(wrapped_distance(shifted, wrap(theta))) <= 1e-9


class TestSignedGap:
    def test_known_values(self):
        assert float(signed_gap(1.0, 0.5)) == pytest.approx(0.5)
        assert float(signed_gap(0.5, 1.0)) == pytest.approx(-0.5)
        assert float(signed_gap(0.1, TWO_PI - 0.1)) == pytest.approx(0.2, abs=1e-12)

    def test_antipode_maps_to_plus_pi(self):
        assert float(signed_gap(math.pi, 0.0)) == pytest.approx(math.pi)
        assert float(signed_gap(0.0, math.pi)) == pytest.approx(math.pi)

    @given(a=angles, b=angles)
    @settings(max_examples=200)
    def test_range(self, a, b):
        g = float(signed_gap(a, b))
        assert -math.pi < g <= math.pi + 1e-12

    @given(a=angles, b=angles)
    @settings(max_examples=200)
    def test_reconstructs_a_from_b(self, a, b):
        g = float(signed_gap(a, b))
        assert float(wrapped_distance(wrap(b + g), wrap(a))) <= 1e-9


class TestWrappedDistance:
    def test_known_values(self):
        assert float(wrapped_distance(0.2, TWO_PI - 0.2)) == pytest.approx(0.4, abs=1e-12)
        assert float(wrapped_distance(2.0, 2.0)) == 0.0

    def test_vectorized_against_scalar(self):
        a = np.array([0.0, 1.0, 4.0])
        b = np.array([6.0, 1.5, 0.5])
        out = wrapped_distance(a, b)
        for ai, bi, oi in zip(a, b, out):
            assert float(wrapped_distance(float(ai), float(bi))) == pytest.approx(float(oi))

    @given(a=angles, b=angles)
    @settings(max_examples=200)
    def test_symmetric_and_bounded(self, a, b):
        d = float(wrapped_distance(a, b))
        assert 0.0 <= d <= math.pi + 1e-12
        assert d == pytest.approx(float(wrapped_distance(b, a)), abs=1e-12)

    @given(a=angles, b=angles, c=angles)
    @settings(max_examples=200)
    def test_triangle_inequality(self, a, b, c):
        ab = float(wrapped_distance(a, b))
        bc = float(wrapped_distance(b, c))
        ac = float(wrapped_distance(a, c))
        assert ac <= ab + bc + 1e-9


def np_mod_signed_gap(a, b):
    """signed_gap written with np.mod alone."""
    d = np.mod(a - b, TWO_PI)
    return np.where(d > np.pi, d - TWO_PI, d)


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


# Pairs (a, b) whose gap is 0.0, -0.0, exactly +-pi, or a tiny negative number whose + 2*pi rounds to 2*pi.
EDGE_PAIRS = [
    (0.0, 0.0), (-0.0, 0.0), (1.5, 1.5), (math.pi, 0.0), (0.0, math.pi), (TWO_PI - math.pi, TWO_PI),
    (0.0, 1e-17), (0.0, 5e-324), (1.0, 1.0 + 2.0**-52), (TWO_PI - 1e-16, TWO_PI - 1e-17),
]


class TestGapsMatchNpMod:
    def check(self, a, b):
        a_before, b_before = np.copy(a), np.copy(b)
        want = np_mod_signed_gap(a, b)
        assert bits(signed_gap(a, b)) == bits(want)
        assert bits(wrapped_distance(a, b)) == bits(np.abs(want))
        assert bits(a) == bits(a_before) and bits(b) == bits(b_before), "the inputs are left alone"

    def test_edge_gaps(self):
        a = np.array([p[0] for p in EDGE_PAIRS])
        b = np.array([p[1] for p in EDGE_PAIRS])
        assert np.signbit(a - b).tolist().count(True) >= 5, "negative zero and tiny negative gaps are covered"
        self.check(a, b)
        for ai, bi in EDGE_PAIRS:
            self.check(ai, bi)
            self.check(np.array([ai]), bi)

    @pytest.mark.parametrize("low,high", [(0.0, TWO_PI), (-20.0, 20.0)], ids=["angles", "wide"])
    def test_random_gaps(self, low, high):
        rng = np.random.default_rng(7)
        a = rng.uniform(low, high, 4096)
        b = rng.uniform(low, high, 4096)
        self.check(a, b)
        self.check(a, float(b[0]))
        for ai, bi in zip(a[:200], b[:200]):
            self.check(float(ai), float(bi))

    def test_gaps_the_fast_path_leaves_to_np_mod(self):
        self.check(np.array([0.5, TWO_PI + 1.0, -TWO_PI]), 0.25)
        self.check(np.array([0.5, np.nan, 1e300]), 0.25)
        self.check(np.array([3, 9, -4]), 1)
        self.check(np.array([], dtype=float), 1.0)
