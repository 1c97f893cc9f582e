"""Helpers for angles that live on the circle [0, 2*pi)."""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * np.pi


def wrap(theta):
    """Reduce an angle (scalar or array) into [0, 2*pi).

    A single mod can round tiny negative inputs up to exactly 2*pi; the
    second mod maps that boundary case to 0 and is exact everywhere else.
    """
    return np.mod(np.mod(theta, TWO_PI), TWO_PI)


def wrap_float(theta) -> float:
    """wrap() of one real scalar, in plain float arithmetic.

    Python's float ``%`` rounds exactly as ``np.mod`` does, so the result
    equals ``float(wrap(theta))`` without the numpy call overhead.
    """
    theta = float(theta)
    return (theta % TWO_PI) % TWO_PI


def check_true_phase(theta_true: float) -> None:
    """Raise ValueError unless the true phase a runner simulates is a finite number."""
    if not math.isfinite(theta_true):
        raise ValueError(f"theta_true must be finite, got {theta_true}")


def signed_gap(a, b):
    """Signed angular separation a - b, mapped into (-pi, pi]."""
    d = np.mod(a - b, TWO_PI)
    return np.where(d > np.pi, d - TWO_PI, d)


def wrapped_distance(a, b):
    """Shortest angular distance between a and b, in [0, pi]."""
    return np.abs(signed_gap(a, b))
