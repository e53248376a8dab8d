import math

import numpy as np
import pytest
from scipy.optimize import least_squares, minimize_scalar

from convergema import DegenerateData, FitProblem, fit, fitting
from convergema.fitting import (_B_GRID, _BRENT_XATOL, _TRUST_FTOL,
                                _TRUST_GTOL, _TRUST_MAX_NFEV, _TRUST_XTOL,
                                _Profile, _bounded_brent, _trust_region)
from tests import fit_fixtures
from tests.conftest import (BIT_PIN_NOTE, C_RTOL, assert_values_close,
                            bits_comparable, power_law_samples, sse_allowance,
                            value_delta)
from tests.oracle import GridSpec, oracle_fit


def noiseless_problem(anchor=None):
    x = 1000.0 * np.arange(1, 11)
    y = -2.0 * np.power(x, -0.5) + 95.0
    return FitProblem.from_arrays(x, y, anchor=anchor)


def test_problem_validation():
    nan, inf = float("nan"), float("inf")
    x, y = [1.0, 2.0, 3.0], [50.0, 60.0, 70.0]
    cases = [
        (([1.0, 2.0], [50.0, 60.0]), {}, "at least 3 observations"),
        ((x, [50.0, 60.0]), {}, "equal length"),
        (([1.0, 2.0, 2.0], [50.0, 60.0, 61.0]), {}, "strictly increasing"),
        (([3.0, 2.0, 1.0], y), {}, "strictly increasing"),
        (([-1.0, 2.0, 3.0], y), {}, "x must be positive"),
        (([0.0, 2.0, 3.0], y), {}, "x must be positive"),
        ((x, [50.0, 60.0, 160.0]), {}, r"\(0, 100\]"),
        ((x, [0.0, 60.0, 70.0]), {}, r"\(0, 100\]"),
        (([1.0, nan, 3.0], y), {}, "x and y must be finite"),
        (([1.0, 2.0, inf], y), {}, "x and y must be finite"),
        (([-inf, 2.0, 3.0], y), {}, "x and y must be finite"),
        ((x, [50.0, nan, 70.0]), {}, "x and y must be finite"),
        ((x, [50.0, 60.0, inf]), {}, "x and y must be finite"),
        ((x, [-inf, 60.0, 70.0]), {}, "x and y must be finite"),
        ((x, y), {"anchor": nan}, "anchor must be finite"),
        ((x, y), {"anchor": inf}, "anchor must be finite"),
        ((x, y), {"anchor_weight": nan}, "anchor_weight must be finite"),
        ((x, y), {"anchor_weight": inf}, "anchor_weight must be finite"),
        ((x, y), {"anchor_weight": 0.0}, "anchor_weight must be positive"),
        ((x, y), {"anchor_weight": -1.0}, "anchor_weight must be positive"),
        ((x, y), {"anchor": 1e200}, "anchored residual would overflow"),
        ((x, y), {"anchor": 100.0, "anchor_weight": 1e308},
         "anchored residual would overflow"),
        ((x, y), {"anchor": 100.0, "anchor_weight": 1e-310},
         "anchored residual would overflow"),
    ]
    for (xs, ys), kwargs, message in cases:
        with pytest.raises(ValueError, match=message):
            FitProblem.from_arrays(xs, ys, **kwargs)
        with pytest.raises(ValueError, match=message):
            FitProblem(tuple(xs), tuple(ys), **kwargs)
    FitProblem.from_arrays(x, [50.0, 60.0, 100.0], anchor=100.0,
                           anchor_weight=0.5)


@pytest.mark.parametrize("weight", [1e-3, 1.0, 1e6])
def test_largest_admitted_anchor_fits(weight):
    # FitProblem's bound on the anchored residual is safe: an anchor one
    # part in 1e12 inside it fits to a finite SSE, with no OverflowError
    # (the trust region warns as its steps near the float range)
    x, y = [1000.0, 2000.0, 3000.0, 4000.0, 5000.0], [80.0, 85.0, 87.0, 88.0, 88.5]
    limit = (math.sqrt(np.finfo(float).max / ((5 + weight) / min(weight, 1.0)))
             - 100.0)
    with pytest.raises(ValueError, match="anchored residual would overflow"):
        FitProblem.from_arrays(x, y, anchor=limit * (1 + 1e-12),
                               anchor_weight=weight)
    problem = FitProblem.from_arrays(x, y, anchor=limit * (1 - 1e-12),
                                     anchor_weight=weight)
    with np.errstate(all="ignore"):
        result = fit(problem)
    assert math.isfinite(result.sse)


def test_noiseless_recovery():
    result = fit(noiseless_problem())
    assert result.sse < 1e-12
    assert result.curve.a == pytest.approx(2.0, abs=1e-6)
    assert result.curve.b == pytest.approx(0.5, abs=1e-8)
    assert result.curve.c == pytest.approx(95.0, abs=1e-9)
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


def _dense_profile_min(problem, bs):
    """The least SSE over `bs` of the valid patterns (a > 0) with (a, c)
    solved by least squares at each b; numpy's solver, not `fit`'s."""
    x, y = np.asarray(problem.x), np.asarray(problem.y)
    target = y
    if problem.anchor is not None:
        sw = math.sqrt(problem.anchor_weight)
        target = np.append(y, sw * problem.anchor)
    best = np.inf
    for b in bs:
        design = np.column_stack([-np.power(x, -b), np.ones_like(x)])
        if problem.anchor is not None:
            design = np.vstack([design, [0.0, sw]])
        (a, c), *_ = np.linalg.lstsq(design, target, rcond=None)
        if a > 0.0:
            r = target - design @ (a, c)
            best = min(best, float(r @ r))
    return best


@pytest.mark.parametrize("problem, refined", [
    # the scan's lowest point (b at its lower edge) gives a < 0, so the one
    # interior basin is refined too and wins
    (FitProblem((4000, 6000, 9000, 14000, 15000, 19000, 21000),
                (88.78413754754496, 87.46174172275101, 89.5597270855389,
                 90.72515473374659, 88.47843453491194, 88.13768476789657,
                 87.40503469643664)), 2),
    # the interior basin's scan values cannot beat the edge basin's refined
    # SSE, so it is skipped
    (FitProblem((4000, 8000, 12000, 16000, 21000, 25000, 29000, 33000),
                (92.78369029405097, 91.36250038145896, 89.09933666050304,
                 89.27102641505866, 89.1524458169443, 87.71318317984432,
                 87.08432410769417, 86.86270548328838),
                anchor=100.37474867648828), 1),
], ids=["plain-two-refined", "anchored-one-skipped"])
def test_second_profile_basin(monkeypatch, problem, refined):
    profile = _Profile(np.asarray(problem.x), np.asarray(problem.y),
                       problem.anchor, problem.anchor_weight)
    grid = profile.scan(_B_GRID)
    interior = np.nonzero((grid[1:-1] <= grid[:-2])
                          & (grid[1:-1] <= grid[2:]))[0] + 1
    assert np.argmin(grid) == 0 and len(interior) == 1
    calls = []
    real = fitting._refine_basin

    def counted(lo, hi, prof):
        calls.append((lo, hi))
        return real(lo, hi, prof)

    monkeypatch.setattr(fitting, "_refine_basin", counted)
    result = fit(problem)
    # the basins refined, then the re-pin at the final b
    assert len(calls) == refined + 1
    assert all(lo in _B_GRID for lo, _ in calls[:refined])
    dense = _dense_profile_min(problem, np.geomspace(_B_GRID[0], _B_GRID[-1],
                                                     4001))
    assert result.curve.a > 0.0 and result.curve.b > 0.0
    assert result.sse <= dense * (1.0 + 1e-12)


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
    # scipy is a test-only dependency: the port is checked against it here.
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


def _scipy_solve(residuals, jacobian, x0):
    return least_squares(residuals, x0, jac=jacobian, method="trf",
                         ftol=_TRUST_FTOL, xtol=_TRUST_XTOL, gtol=_TRUST_GTOL,
                         max_nfev=_TRUST_MAX_NFEV)


def _same_solve_as_scipy(residuals, jacobian, x0):
    """_trust_region's result, asserted equal to least_squares' bit for bit."""
    x, sse, status = _trust_region(residuals, jacobian, x0)
    ref = _scipy_solve(residuals, jacobian, x0)
    assert (x == ref.x).all() and sse == 2.0 * ref.cost and status == ref.status
    return x, sse, status


# The first three points of the noisy drift stream of the benchmark's
# monitor at seed 3: an exact interpolation, whose solve grows and shrinks
# the radius until it runs out of evaluations.
_INTERPOLATION = FitProblem(
    x=(5000.0, 10000.0, 15000.0),
    y=(97.62501495620562, 98.26359819088721, 98.7238998802596))
# Falling accuracies: no basin gives a > 0, so no valid pattern fits and
# the fit raises before the trust region runs.
_FALLING = FitProblem.from_arrays([1.0, 2.0, 3.0, 4.0], [90.0, 85.0, 82.0, 80.0])


def _linear(target, slope=1.0, finite_below=np.inf):
    """Residuals p - target, not finite once p[0] reaches `finite_below`,
    with the Jacobian slope * I (the true one at slope 1); the list records
    every non-finite evaluation."""
    target = np.asarray(target, dtype=float)
    bad = []

    def residuals(p):
        if p[0] >= finite_below:
            bad.append(p[0])
            return np.full(target.size, np.nan)
        return p - target

    return residuals, lambda p: slope * np.eye(target.size), bad


def test_trust_region_port_matches_scipy(monkeypatch):
    step = fitting._trust_step
    starts, statuses, radii, alphas = [], [], [], []

    def checked(residuals, jacobian, x0):
        starts.append(x0)
        radii.append([])
        out = _same_solve_as_scipy(residuals, jacobian, x0)
        statuses.append(out[2])
        return out

    def recorded_step(n, m, uf, s, V, delta, alpha):
        p, alpha = step(n, m, uf, s, V, delta, alpha)
        radii[-1].append(delta)
        alphas.append(alpha)
        return p, alpha

    monkeypatch.setattr(fitting, "_trust_region", checked)
    monkeypatch.setattr(fitting, "_trust_step", recorded_step)
    for case in fit_fixtures.CASES:
        fit(fit_fixtures.problem(case))
    fit(_INTERPOLATION)
    solves = len(starts)
    with pytest.raises(DegenerateData,
                       match="no b in the profile scan gives a > 0"):
        fit(_FALLING)
    assert len(starts) == solves
    # every branch of the solve ran: the Gauss-Newton step (alpha 0) and
    # More's alpha iteration, radius shrink and growth, and each exit
    assert 0.0 in alphas and any(a > 0.0 for a in alphas)
    pairs = [(r0, r1) for r in radii for r0, r1 in zip(r, r[1:])]
    assert any(r1 < r0 for r0, r1 in pairs) and any(r1 > r0 for r0, r1 in pairs)
    assert {0, 2, 3, 4} <= set(statuses)

    # a consistent linear system: the Gauss-Newton step lands on the
    # solution and the gradient vanishes
    residuals, jacobian, _ = _linear([0.5, 0.25, 2.0])
    assert _same_solve_as_scipy(residuals, jacobian, np.array([1.0, 2.0, 3.0]))[2] == 1
    # steps into the non-finite region shrink the radius and are retried
    residuals, jacobian, bad = _linear([1.0], finite_below=0.5)
    _same_solve_as_scipy(residuals, jacobian, np.array([-1.0]))
    assert bad
    # a Jacobian seven times too steep: every step removes a seventh of the
    # residual and is accepted (ratio 0.27), and the gradient is still
    # above _TRUST_GTOL when the evaluations run out
    residuals, jacobian, _ = _linear([0.0], slope=7.0)
    assert _same_solve_as_scipy(residuals, jacobian, np.array([1.0]))[2] == 0
    # 100 residual rows and a smallest singular value 5e-15 of the largest,
    # below the rank threshold EPS * rows * s[0] (but not EPS * 2 * s[0]):
    # the Gauss-Newton step fits inside the radius and is still not taken
    rows, target = np.zeros((100, 2)), np.zeros(100)
    rows[0, 0], rows[1, 1], target[0] = 1.0, 5e-15, 1.0
    _same_solve_as_scipy(lambda p: rows.dot(p) - target, lambda p: rows,
                         np.array([2.0, 0.0]))
    # a non-finite start, or a non-finite Jacobian, raises as scipy does
    residuals, jacobian, _ = _linear([1.0], finite_below=0.0)
    for solve in (_trust_region, _scipy_solve):
        with pytest.raises(ValueError):
            solve(residuals, jacobian, np.array([0.0]))
    residuals, _, _ = _linear([1.0])
    for solve in (_trust_region, _scipy_solve):
        with pytest.raises(ValueError):
            solve(residuals, lambda p: np.array([[np.nan]]), np.array([0.0]))


def test_trust_region_skips_jacobian_at_final_point(monkeypatch):
    # a Jacobian 1.5 times too steep: each accepted step removes two thirds
    # of the residual, until a step is below the step tolerance (status 3);
    # the solve stops on that step and takes no Jacobian there
    residuals, jacobian, _ = _linear([1.0], slope=1.5)
    evaluations = []
    svd = np.linalg.svd

    def counted_jacobian(p):
        evaluations.append("jacobian")
        return jacobian(p)

    def counted_svd(*args, **kwargs):
        evaluations.append("svd")
        return svd(*args, **kwargs)

    x0 = np.array([2.0])
    ref = _scipy_solve(residuals, jacobian, x0)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    x, sse, status = _trust_region(residuals, counted_jacobian, x0)
    assert (x == ref.x).all() and sse == 2.0 * ref.cost
    assert status == ref.status == 3
    assert evaluations.count("jacobian") == evaluations.count("svd") > 1


def c_allowance(problem, result, sse_allowed: float) -> float:
    """How far another SIMD target may move the asymptote of `result`, the
    fit of `problem` whose SSE it moves by at most `sse_allowed`.  A
    minimum of SSE*(b) is located only to where SSE* rises by its rounding,
    |db| <= sqrt(2 * sse_allowed / SSE*''(b)), and c follows b at the
    profile's rate dc/db; the rounding of c itself comes on top.  Both
    derivatives are central differences of the profile at the fitted b,
    SSE*'' one of the envelope gradient `_Profile.solve` returns."""
    profile = _Profile(np.asarray(problem.x), np.asarray(problem.y),
                       problem.anchor, problem.anchor_weight)
    b = result.curve.b
    step = 1e-4 * b
    _, _, c_lo, grad_lo = profile.solve(b - step, grad=True)
    _, _, c_hi, grad_hi = profile.solve(b + step, grad=True)
    dc_db = (c_hi - c_lo) / (2.0 * step)
    curvature = (grad_hi - grad_lo) / (2.0 * step)
    return (abs(dc_db) * math.sqrt(2.0 * sse_allowed / curvature)
            + value_delta(result.curve.c))


def fit_values(fits, solves) -> list:
    """(name, value, allowance) of the asymptote and the SSE of each fit of
    `fits`, one per case of `fit_fixtures.CASES`, and of each profile
    solve (sse, a, c, dsse_db) of `solves`, one per `fit_fixtures.SOLVES`
    row.  A fit's asymptote is allowed what its own conditioning allows
    (`c_allowance`), a solve's the refactor gate.  The other parameters
    trade along the fit's flat valley, so only their bits are pinned."""
    out = []
    for i, result in enumerate(fits):
        problem = fit_fixtures.problem(fit_fixtures.CASES[i])
        sse_allowed = sse_allowance(problem.y, result.sse, result.curve.c,
                                    problem.anchor, problem.anchor_weight)
        out.append((f"case {i} c", result.curve.c,
                    c_allowance(problem, result, sse_allowed)))
        out.append((f"case {i} sse", result.sse, sse_allowed))
    for (i, b, _), (sse, _, c, _) in zip(fit_fixtures.SOLVES, solves):
        problem = fit_fixtures.problem(fit_fixtures.CASES[i])
        out.append((f"case {i} solve at b={b} c", c, C_RTOL * abs(c)))
        out.append((f"case {i} solve at b={b} sse", sse, sse_allowance(
            problem.y, sse, c, problem.anchor, problem.anchor_weight)))
    return out


def test_fit_outputs_frozen():
    fits = [fit(fit_fixtures.problem(case)) for case in fit_fixtures.CASES]
    solves = []
    for index, b, _ in fit_fixtures.SOLVES:
        problem = fit_fixtures.problem(fit_fixtures.CASES[index])
        profile = _Profile(np.asarray(problem.x), np.asarray(problem.y),
                           problem.anchor, problem.anchor_weight)
        solves.append(profile.solve(b, grad=True))
    assert_values_close(fit_values(fits, solves), fit_fixtures.VALUES)
    if not bits_comparable(fit_fixtures.FROZEN_ON):
        return
    got = [tuple(float.hex(v) for v in (r.curve.a, r.curve.b, r.curve.c, r.sse))
           for r in fits]
    assert got == list(fit_fixtures.FROZEN), BIT_PIN_NOTE
    for (index, b, frozen), solve in zip(fit_fixtures.SOLVES, solves):
        got = tuple(float.hex(v) for v in solve)
        assert got == frozen, (index, b, BIT_PIN_NOTE)
