"""Brute-force reference fitter used to check `convergema.fitting.fit`.

`oracle_fit` runs a full lattice search plus Powell's direction-set
refinement, sharing nothing with `fit` beyond the objective.
"""
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from convergema import FitProblem, FitResult, PowerLawCurve


@dataclass(frozen=True)
class GridSpec:
    """Lattice bounds for the brute-force oracle fitter."""

    a_range: tuple[float, float]
    b_range: tuple[float, float]
    c_range: tuple[float, float]
    n_a: int = 24
    n_b: int = 24
    n_c: int = 24


def _sse_lattice(a_vals, b_vals, c_vals, x, y, anchor, weight):
    """SSE over the full (a, b, c) lattice, vectorised over a and c."""
    best = (np.inf, None)
    ac = a_vals[:, None]
    cc = c_vals[None, :]
    for b in b_vals:
        g = np.power(x, -b)
        # residual tensor: y - (c - a g) over (a, c) grid
        sse = np.zeros((a_vals.size, c_vals.size))
        for xi, yi in zip(g, y):
            r = yi - cc + ac * xi
            sse += r * r
        if anchor is not None:
            r = anchor - cc
            sse += weight * r * r
        idx = np.unravel_index(np.argmin(sse), sse.shape)
        if sse[idx] < best[0]:
            best = (float(sse[idx]), (float(a_vals[idx[0]]), float(b),
                                      float(c_vals[idx[1]])))
    return best


def _sse_point(params, x, y, anchor, weight):
    a, b, c = params
    r = y - (-a * np.power(x, -b) + c)
    sse = float(r @ r)
    if anchor is not None:
        sse += weight * (anchor - c) ** 2
    return sse


def oracle_fit(problem: FitProblem, grid: GridSpec) -> FitResult:
    """Brute-force reference fitter: lattice search + coordinate descent.

    The refinement is Powell's direction-set method (cyclic 1-D line
    minimisations with direction updates) over (log a, log b, c); nothing is
    shared with `fit` beyond the objective, so the two routes stay
    independent checks of each other.
    """
    x = np.asarray(problem.x, dtype=float)
    y = np.asarray(problem.y, dtype=float)
    anchor, weight = problem.anchor, problem.anchor_weight
    a_vals = np.geomspace(grid.a_range[0], grid.a_range[1], grid.n_a)
    b_vals = np.geomspace(grid.b_range[0], grid.b_range[1], grid.n_b)
    c_vals = np.linspace(grid.c_range[0], grid.c_range[1], grid.n_c)
    _, start = _sse_lattice(a_vals, b_vals, c_vals, x, y, anchor, weight)

    def objective(p):
        return _sse_point((np.exp(p[0]), np.exp(p[1]), p[2]), x, y, anchor, weight)

    refined = minimize(objective,
                       np.array([np.log(start[0]), np.log(start[1]), start[2]]),
                       method="Powell",
                       options={"xtol": 1e-14, "ftol": 1e-16, "maxfev": 40000})
    a, b, c = np.exp(refined.x[0]), np.exp(refined.x[1]), refined.x[2]
    curve = PowerLawCurve(a=float(a), b=float(b), c=float(c))
    fitted = -curve.a * np.power(x, -curve.b) + curve.c
    res = y - fitted
    sse = float(res @ res)
    rinf = None
    if anchor is not None:
        rinf = float(anchor - curve.c)
        sse += weight * rinf * rinf
    return FitResult(curve=curve, residuals=tuple(float(v) for v in res),
                     residual_at_infinity=rinf, sse=sse)
