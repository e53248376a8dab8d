import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convergema import PowerLawCurve, derivative, evaluate

FNTBL = PowerLawCurve(a=542.5451, b=0.3838, c=99.2876)


def test_evaluate_unit_x():
    # x = 1 makes the power term collapse to a, so the value is c - a
    assert evaluate(PowerLawCurve(2.0, 0.5, 95.0), 1.0) == pytest.approx(93.0)


def test_evaluate_direct_arithmetic():
    assert evaluate(PowerLawCurve(1.0, 1.0, 10.0), 4.0) == pytest.approx(9.75)


def test_evaluate_approaches_asymptote():
    vals = evaluate(FNTBL, np.geomspace(1e4, 1e12, 9))
    gaps = 99.2876 - vals
    assert np.all(gaps > 0)
    assert np.all(np.diff(gaps) < 0)  # monotone approach
    assert gaps[-1] < 0.02


def test_evaluate_domain_error():
    with pytest.raises(ValueError):
        evaluate(FNTBL, 0.0)
    with pytest.raises(ValueError):
        evaluate(FNTBL, -3.0)


def test_derivative_value():
    assert derivative(PowerLawCurve(1.0, 1.0, 10.0), 2.0) == pytest.approx(0.25)


def test_derivative_positive():
    rng = np.random.default_rng(5)
    for _ in range(50):
        curve = PowerLawCurve(rng.uniform(0.1, 100), rng.uniform(0.1, 2), rng.uniform(0, 100))
        assert derivative(curve, rng.uniform(1e-3, 1e6)) > 0


def test_derivative_matches_central_difference():
    for x in (1.0, 50.0, 5000.0, 1e6):
        h = 1e-6 * x
        numeric = (evaluate(FNTBL, x + h) - evaluate(FNTBL, x - h)) / (2 * h)
        assert derivative(FNTBL, x) == pytest.approx(numeric, rel=1e-6)


def test_derivative_domain_error():
    with pytest.raises(ValueError):
        derivative(FNTBL, -1.0)


@given(st.floats(0.01, 1e3), st.floats(0.05, 2.5), st.floats(-10, 100),
       st.floats(1e-2, 1e6), st.floats(1.01, 4.0))
@settings(max_examples=200, deadline=None)
def test_strict_increase(a, b, c, x1, ratio):
    curve = PowerLawCurve(a, b, c)
    x2 = x1 * ratio
    lo, hi = evaluate(curve, x1), evaluate(curve, x2)
    assert lo <= hi
    # strictness is only observable while the analytic increment still
    # resolves at double precision
    increment = a * (x1 ** -b - x2 ** -b)
    if increment > 1e-12 * max(1.0, abs(lo)):
        assert lo < hi


@given(st.floats(0.01, 1e3), st.floats(0.05, 2.5), st.floats(-10, 100),
       st.floats(1e-2, 1e5), st.floats(1.1, 4.0), st.floats(1.1, 4.0))
@example(a=0.01, b=2.4921875, c=33.0, x1=45320.0, r1=1.125, r2=2.0)
@settings(max_examples=200, deadline=None)
def test_concavity_by_chords(a, b, c, x1, r1, r2):
    curve = PowerLawCurve(a, b, c)
    x2, x3 = x1 * r1, x1 * r1 * r2
    s12 = (evaluate(curve, x2) - evaluate(curve, x1)) / (x2 - x1)
    s23 = (evaluate(curve, x3) - evaluate(curve, x2)) / (x3 - x2)
    # Rounding floor: with M the largest summand, max(|c|, a*x1**-b), each
    # evaluation is within 2.5 ulp(M) of the curve (power 1 ulp, product
    # 0.5, sum 1 since |f| <= 2M), so a chord's rise is within 5 ulp(M).
    # Once a*x**-b falls below ulp(c), both rises round to noise.
    rise_err = 5.0 * math.ulp(max(abs(c), a * x1 ** -b))
    noise = (1e-12 * max(abs(s12), abs(s23), 1e-300)
             + rise_err / (x2 - x1) + rise_err / (x3 - x2))
    assert s12 >= s23 - noise
    if s12 - s23 > noise:
        assert s12 > s23
