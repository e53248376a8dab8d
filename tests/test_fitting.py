import numpy as np
import pytest

from convergema import DegenerateData, FitProblem, fit
from tests.conftest import power_law_samples
from tests.oracle import GridSpec, oracle_fit


def noiseless_problem(anchor=None):
    x = 1000.0 * np.arange(1, 11)
    y = -2.0 * np.power(x, -0.5) + 95.0
    return FitProblem.from_arrays(x, y, anchor=anchor)


def test_problem_validation():
    with pytest.raises(ValueError):
        FitProblem.from_arrays([1.0, 2.0], [50.0, 60.0])
    with pytest.raises(ValueError):
        FitProblem.from_arrays([1.0, 2.0, 2.0], [50.0, 60.0, 61.0])
    with pytest.raises(ValueError):
        FitProblem.from_arrays([1.0, 2.0, 3.0], [50.0, 60.0, 160.0])
    with pytest.raises(ValueError):
        FitProblem.from_arrays([1.0, 2.0, 3.0], [50.0, 60.0, 70.0], anchor_weight=0.0)


def test_noiseless_recovery():
    result = fit(noiseless_problem())
    assert result.sse < 1e-12
    assert result.curve.a == pytest.approx(2.0, abs=1e-6)
    assert result.curve.b == pytest.approx(0.5, abs=1e-8)
    assert result.curve.c == pytest.approx(95.0, abs=1e-9)
    assert result.converged
    assert result.residual_at_infinity is None


def test_anchored_pulls_asymptote_up():
    result = fit(noiseless_problem(anchor=100.0))
    assert 95.0 < result.curve.c < 100.0
    assert result.residual_at_infinity == pytest.approx(100.0 - result.curve.c)
    # sse includes the infinity term
    res = np.asarray(result.residuals)
    assert result.sse == pytest.approx(float(res @ res)
                                       + result.residual_at_infinity ** 2)


def test_anchored_against_grid_oracle():
    problem = noiseless_problem(anchor=100.0)
    grid = GridSpec((0.1, 50.0), (0.1, 2.0), (90.0, 100.0))
    reference = oracle_fit(problem, grid)
    result = fit(problem)
    assert abs(result.curve.c - reference.curve.c) < 0.05
    assert result.sse <= reference.sse + 1e-12


def test_oracle_matches_on_noiseless():
    problem = noiseless_problem()
    reference = oracle_fit(problem, GridSpec((0.5, 10.0), (0.2, 1.0), (94.0, 96.0)))
    result = fit(problem)
    assert abs(reference.sse - result.sse) < 1e-6


def test_oracle_three_point_interpolation():
    x = np.array([1.0, 2.0, 4.0])
    y = -1.0 / x + 10.0
    reference = oracle_fit(FitProblem.from_arrays(x, y),
                           GridSpec((0.2, 5.0), (0.2, 5.0), (8.0, 12.0)))
    assert reference.curve.a == pytest.approx(1.0, abs=1e-6)
    assert reference.curve.b == pytest.approx(1.0, abs=1e-6)
    assert reference.curve.c == pytest.approx(10.0, abs=1e-6)


def test_degenerate_data():
    x = [1.0, 2.0, 3.0, 4.0]
    with pytest.raises(DegenerateData):
        fit(FitProblem.from_arrays(x, [70.0] * 4))


def test_deterministic():
    problem = noiseless_problem(anchor=100.0)
    first = fit(problem)
    second = fit(problem)
    assert (first.curve, first.sse, first.residuals) == \
           (second.curve, second.sse, second.residuals)


def test_residual_sum_near_zero():
    # stationarity in c forces the residual total to vanish (the anchored
    # variant balances data residuals against the infinity one)
    rng = np.random.default_rng(3)
    x, y = power_law_samples(300.0, 0.6, 93.0, 25)
    y = y + rng.normal(0.0, 0.05, y.size)
    plain = fit(FitProblem.from_arrays(x, y))
    assert abs(sum(plain.residuals)) < 1e-6 * len(x)
    anchored = fit(FitProblem.from_arrays(x, y, anchor=100.0, anchor_weight=1.5))
    total = sum(anchored.residuals) + 1.5 * anchored.residual_at_infinity
    assert abs(total) < 1e-6 * len(x)


def test_anchored_residual_at_infinity_nonnegative():
    rng = np.random.default_rng(9)
    for seed in range(10):
        x, y = power_law_samples(rng.uniform(50, 500), rng.uniform(0.3, 0.9),
                                 rng.uniform(85, 99), 20)
        y = np.clip(y + rng.normal(0, 0.05, y.size), 1.0, 100.0)
        result = fit(FitProblem.from_arrays(x, y, anchor=100.0))
        assert result.residual_at_infinity >= -1e-12
