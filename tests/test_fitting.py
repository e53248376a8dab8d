import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from convergema import DegenerateData, FitProblem, fit
from convergema.fitting import _B_GRID, _BRENT_XATOL, _Profile, _bounded_brent
from tests import fit_fixtures
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


def _smooth(seed):
    """A seeded smooth function with several local minima: a parabola
    plus a few cosines."""
    rng = np.random.default_rng(seed)
    centre, curv = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 5.0)
    amps, freqs, phases = (rng.uniform(0.0, 1.0, 3), rng.uniform(1.0, 9.0, 3),
                           rng.uniform(0.0, 6.3, 3))
    return lambda t: float(curv * (t - centre) ** 2
                           + np.sum(amps * np.cos(freqs * t + phases)))


def _profile_sse(n, noise, seed, anchor):
    problem = fit_fixtures.problem((seed % 3, noise, seed, n, anchor, 1.0))
    profile = _Profile(np.asarray(problem.x), np.asarray(problem.y), anchor, 1.0)
    return lambda t: profile.solve(float(np.exp(t)))[0]


def test_brent_port_matches_scipy_bounded(capsys):
    # scipy is still a dependency; once it goes, the scipy results become a
    # frozen fixture.
    log_lo, log_hi = float(np.log(_B_GRID[0])), float(np.log(_B_GRID[-1]))
    bracket = float(np.log(_B_GRID[20])), float(np.log(_B_GRID[22]))
    cases = [(_smooth(seed), -2.0, 2.0) for seed in range(8)]
    cases += [(lambda t: float(np.exp(t)), 0.0, 1.0),     # minimum at a bound
              (lambda t: (t - 0.25) ** 2, -1.0, 3.0)]
    for n, noise, seed, anchor in [(5, 0.0, 0, None), (30, 0.05, 1, 100.0),
                                   (90, 0.05, 2, None), (180, 0.05, 3, 100.0)]:
        f = _profile_sse(n, noise, seed, anchor)
        cases += [(f, log_lo, log_hi), (f, *bracket)]
    for f, lo, hi in cases:
        ref = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                              options={"xatol": _BRENT_XATOL, "disp": 3})
        t, best = _bounded_brent(lambda t: (f(t),), lo, hi)
        assert t == ref.x and best[0] == ref.fun
    # scipy's iteration log names each step: both kinds were exercised
    steps = capsys.readouterr().out
    assert "parabolic" in steps and "golden" in steps


def test_fit_outputs_frozen():
    got = [tuple(float.hex(v) for v in (r.curve.a, r.curve.b, r.curve.c, r.sse))
           for r in (fit(fit_fixtures.problem(case))
                     for case in fit_fixtures.CASES)]
    assert got == list(fit_fixtures.FROZEN)
    for index, b, frozen in fit_fixtures.SOLVES:
        problem = fit_fixtures.problem(fit_fixtures.CASES[index])
        profile = _Profile(np.asarray(problem.x), np.asarray(problem.y),
                           problem.anchor, problem.anchor_weight)
        got = tuple(float.hex(v) for v in profile.solve(b, grad=True))
        assert got == frozen, (index, b)
