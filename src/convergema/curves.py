"""Power-law accuracy curve: evaluation, derivative, asymptote, validity.

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
    accepts any reals so that invalid candidates can be represented and
    rejected by :func:`is_valid_pattern`.
    """

    a: float
    b: float
    c: float

    def __call__(self, x):
        return evaluate(self, x)


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


def asymptote(curve: PowerLawCurve) -> float:
    """Limit of the curve for x -> infinity."""
    return curve.c


def is_valid_pattern(curve: PowerLawCurve, upper_bound: float, x_start: float) -> bool:
    """Whether the curve is a usable accuracy pattern on [x_start, inf).

    Checks increase/concavity (a > 0, b > 0), the cap on the asymptote
    (c <= upper_bound) and positivity at the domain start; positivity
    anywhere right of x_start follows from monotonicity.
    """
    if x_start <= 0.0:
        raise ValueError("x_start must be positive")
    if not (curve.a > 0.0 and curve.b > 0.0):
        return False
    if curve.c > upper_bound:
        return False
    return evaluate(curve, x_start) > 0.0
