"""Power-law accuracy curve: evaluation and derivative.

The model is pi(a, b, c)(x) = -a * x**(-b) + c.  With a > 0 and b > 0 the
curve is strictly increasing and concave on x > 0, approaches the horizontal
asymptote y = c from below, and never reaches it at finite x.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ACCURACY_CEILING = 100.0        # no accuracy, in points, lies above it


@dataclass(frozen=True)
class PowerLawCurve:
    """Parameters of one accuracy curve.

    A valid accuracy pattern needs a > 0 and b > 0; the dataclass itself
    accepts any reals, and `fit` returns only valid patterns.
    """

    a: float
    b: float
    c: float


def evaluate(curve: PowerLawCurve, x):
    """Curve value at x (scalar or array). Domain: x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("power-law curve is defined for x > 0 only")
    out = -curve.a * np.power(x, -curve.b) + curve.c
    return float(out) if out.ndim == 0 else out


def derivative(curve: PowerLawCurve, x):
    """First derivative a*b*x**-(b+1); strictly positive for valid curves."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("power-law curve is defined for x > 0 only")
    out = curve.a * curve.b * np.power(x, -(curve.b + 1.0))
    return float(out) if out.ndim == 0 else out

