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


def check_finite(name: str, value: float) -> None:
    """Raise ValueError naming ``name`` unless the angle ``value`` is a finite number."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def signed_gap(a, b):
    """Signed angular separation a - b, mapped into (-pi, pi].

    The gap is reduced as ``np.mod(a - b, TWO_PI)`` would reduce it, and
    then moved down by 2*pi above pi.  A float gap uses Python's float
    ``%``, as ``wrap_float`` does.  An array of float gaps all within
    (-2*pi, 2*pi), as two angles in [0, 2*pi) give, is reduced in place:
    there the mod is exactly 2*pi added below 0, with a zero gap as +0.0.
    Any other gap goes through ``np.mod``.
    """
    d = a - b
    if isinstance(d, float):
        d %= TWO_PI
        return d - TWO_PI if d > np.pi else d
    if isinstance(d, np.ndarray) and d.dtype == np.float64 and d.size and -TWO_PI < d.min() and d.max() < TWO_PI:
        np.add(d, TWO_PI, out=d, where=d < 0.0)
        d += 0.0  # -0.0 becomes +0.0, as np.mod gives it
        np.subtract(d, TWO_PI, out=d, where=d > np.pi)
        return d
    d = np.mod(d, TWO_PI)
    return np.where(d > np.pi, d - TWO_PI, d)


def wrapped_distance(a, b):
    """Shortest angular distance between a and b, in [0, pi]."""
    gap = signed_gap(a, b)
    if isinstance(gap, np.ndarray) and gap.ndim:
        return np.abs(gap, out=gap)
    return abs(gap)
