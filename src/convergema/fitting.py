"""Nonlinear least-squares fitting of power-law curves.

The objective for a problem with points (x_i, y_i), optional anchor value A
(an extra observation at the point of infinity) and anchor weight w is

    SSE(a, b, c) = sum_i (y_i - pi(a,b,c)(x_i))**2 + w * (A - c)**2

The infinity point is realised exactly as a residual on the asymptote
parameter, since lim_{x->inf} pi(a,b,c)(x) = c.

`fit` has one route and no settings.  For fixed b the model is linear in
(a, c), so the profiled objective SSE*(b) is scanned globally and each of
its basins refined to machine precision; the best basin starts a
trust-region solve on (log a, log b, c), which keeps every iterate inside
the valid pattern family, and a last variable-projection pass re-pins the
stationary point.  The profile route keeps consecutive fits of a growing
observation set on the same minimiser branch, which the level-wise
monotonicity guarantees downstream depend on.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import least_squares, minimize_scalar

from .curves import PowerLawCurve
from .errors import DegenerateData

_B_SCAN_LO = 1e-3
_B_SCAN_HI = 4.0
_B_SCAN_N = 56
# trust-region termination: relative SSE improvement, step norm, evaluations
_TRUST_FTOL = 1e-12
_TRUST_XTOL = 1e-10
_TRUST_MAX_NFEV = 200


@dataclass(frozen=True)
class FitProblem:
    """Observations to fit, with an optional anchor at infinity."""

    x: tuple[float, ...]
    y: tuple[float, ...]
    anchor: Optional[float] = None
    anchor_weight: float = 1.0

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.size < 3:
            raise ValueError("need at least 3 observations to fit a trend")
        if x.size != y.size:
            raise ValueError("x and y must have equal length")
        if np.any(np.diff(x) <= 0.0):
            raise ValueError("x must be strictly increasing")
        if np.any(x <= 0.0):
            raise ValueError("x must be positive")
        if np.any(y <= 0.0) or np.any(y > 100.0):
            raise ValueError("accuracies must lie in (0, 100]")
        if self.anchor_weight <= 0.0:
            raise ValueError("anchor_weight must be positive")

    @staticmethod
    def from_arrays(x, y, anchor=None, anchor_weight=1.0) -> "FitProblem":
        return FitProblem(tuple(float(v) for v in x), tuple(float(v) for v in y),
                          anchor=None if anchor is None else float(anchor),
                          anchor_weight=float(anchor_weight))


@dataclass(frozen=True)
class FitResult:
    curve: PowerLawCurve
    residuals: tuple[float, ...]          # observed - fitted, per finite point
    residual_at_infinity: Optional[float]  # anchor - c, when anchored
    sse: float
    converged: bool


def _projected_solve(b: float, x, y, anchor, weight, lx=None):
    """Exact least squares over (a, c) for fixed b.

    The model is linear in (a, c) once b is fixed; the constant column is
    orthogonalised out of the decaying one, which keeps the solve stable
    even when x**-b barely varies over the data.  Returns
    (sse, a, c, dsse_db); the derivative is exact by the envelope theorem:
    only the explicit b-dependence of the residuals contributes.
    """
    if lx is None:
        lx = np.log(x)
    g = np.exp(lx * (-b))
    n = x.size
    if anchor is not None:
        # rows: (y_i ~ c - a g_i) plus sqrt(w) * (anchor ~ c)
        w_tot = n + weight
        g_mean = float(g.sum()) / w_tot
        y_mean = (float(y.sum()) + weight * anchor) / w_tot
    else:
        w_tot = n
        g_mean = float(g.sum()) / n
        y_mean = float(y.sum()) / n
    g_cent = g - g_mean
    y_cent = y - y_mean
    denom = float(g_cent @ g_cent) + (weight * g_mean * g_mean
                                      if anchor is not None else 0.0)
    if denom <= 0.0:
        return float(y_cent @ y_cent), 0.0, y_mean, 0.0
    if anchor is not None:
        num = float(g_cent @ y_cent) + weight * (-g_mean) * (anchor - y_mean)
    else:
        num = float(g_cent @ y_cent)
    a = -num / denom
    c = y_mean + a * g_mean
    resid = y - c + a * g
    sse = float(resid @ resid)
    if anchor is not None:
        sse += weight * (anchor - c) ** 2
    # d r_i / d b = -a * ln(x_i) * x_i**-b  (anchor row is b-independent)
    grad = -2.0 * a * float(np.dot(resid, lx * g))
    return sse, float(a), float(c), grad


def _scan_profile(grid, x, y, anchor, weight):
    """SSE*(b) over a whole b grid in one vectorised pass."""
    g = np.power.outer(x, -grid)                      # n x m
    n = x.size
    if anchor is not None:
        w_tot = n + weight
        g_mean = g.sum(axis=0) / w_tot
        y_mean = (float(np.sum(y)) + weight * anchor) / w_tot
    else:
        g_mean = g.mean(axis=0)
        y_mean = float(np.mean(y))
    g_cent = g - g_mean
    y_cent = y - y_mean
    denom = np.einsum("ij,ij->j", g_cent, g_cent)
    num = y_cent @ g_cent
    if anchor is not None:
        denom = denom + weight * g_mean * g_mean
        num = num + weight * (-g_mean) * (anchor - y_mean)
    safe = denom > 0.0
    a = np.where(safe, -num / np.where(safe, denom, 1.0), 0.0)
    c = y_mean + a * g_mean
    resid = y[:, None] - c + a * g
    sse = np.einsum("ij,ij->j", resid, resid)
    if anchor is not None:
        sse = sse + weight * (anchor - c) ** 2
    return sse


def _refine_basin(b_lo: float, b_hi: float, x, y, anchor, weight, lx):
    """Locate the minimiser of SSE*(b) inside [b_lo, b_hi] precisely:
    bounded Brent on the profile, then secant steps on its exact gradient."""
    f = lambda t: _projected_solve(float(np.exp(t)), x, y, anchor, weight, lx)[0]
    res = minimize_scalar(f, bounds=(np.log(b_lo), np.log(b_hi)),
                          method="bounded", options={"xatol": 1e-9})
    b = float(np.exp(res.x))
    span = 1e-5 * b
    b0, b1 = b - span, b + span
    g0 = _projected_solve(b0, x, y, anchor, weight, lx)[3]
    g1 = _projected_solve(b1, x, y, anchor, weight, lx)[3]
    for _ in range(12):
        if g1 == g0:
            break
        b2 = b1 - g1 * (b1 - b0) / (g1 - g0)
        if not (b_lo * 0.5 <= b2 <= b_hi * 2.0) or not np.isfinite(b2):
            break
        b0, g0 = b1, g1
        b1 = b2
        g1 = _projected_solve(b1, x, y, anchor, weight, lx)[3]
        if abs(b1 - b0) <= 1e-15 * b1:
            break
    cand = min((b, b1),
               key=lambda t: (_projected_solve(t, x, y, anchor, weight, lx)[0]
                              if t > 0 else np.inf))
    _, a, c, _ = _projected_solve(cand, x, y, anchor, weight, lx)
    return cand, a, c


def _initial_guess(x, y, anchor):
    y_max = float(np.max(y))
    c0 = y_max + 0.5 * (y_max - float(np.median(y)))
    if anchor is not None:
        c0 = min(c0, anchor)
    b0 = 0.5
    a0 = max((c0 - y[0]) * x[0] ** b0, 1e-12)
    return np.array([np.log(a0), np.log(b0), c0])


def fit(problem: FitProblem) -> FitResult:
    """Minimise the (optionally anchored) SSE; deterministic.

    Raises DegenerateData when every accuracy is identical: the flat limit
    a -> 0 lies outside the pattern family.
    """
    x = np.asarray(problem.x, dtype=float)
    y = np.asarray(problem.y, dtype=float)
    if np.all(y == y[0]):
        raise DegenerateData("all observed accuracies are equal")
    anchor, weight = problem.anchor, problem.anchor_weight
    lx = np.log(x)
    sw = np.sqrt(weight)

    def residuals(p):
        u, v, c = p
        t = np.exp(u) * np.exp(-np.exp(v) * lx)
        r = y - c + t
        if anchor is not None:
            r = np.append(r, sw * (anchor - c))
        return r

    def jacobian(p):
        u, v, c = p
        b = np.exp(v)
        t = np.exp(u) * np.exp(-b * lx)
        rows = x.size + (1 if anchor is not None else 0)
        jac = np.zeros((rows, 3))
        jac[:x.size, 0] = t
        jac[:x.size, 1] = -b * lx * t
        jac[:x.size, 2] = -1.0
        if anchor is not None:
            jac[x.size, 2] = -sw
        return jac

    best = None                      # (sse, a, b, c)
    grid = np.geomspace(_B_SCAN_LO, _B_SCAN_HI, _B_SCAN_N)
    sse_grid = _scan_profile(grid, x, y, anchor, weight)
    order = np.argsort(sse_grid)
    interior = set((np.nonzero((sse_grid[1:-1] <= sse_grid[:-2]) &
                               (sse_grid[1:-1] <= sse_grid[2:]))[0] + 1))
    candidates = [int(order[0])] + [i for i in sorted(interior)
                                    if i != int(order[0])]
    for idx in candidates:
        if (best is not None
                and sse_grid[max(idx - 1, 0):idx + 2].min() >= best[0]):
            continue
        lo = float(grid[max(idx - 1, 0)])
        hi = float(grid[min(idx + 1, len(grid) - 1)])
        br, ar, cr = _refine_basin(lo, hi, x, y, anchor, weight, lx)
        sse_r = _projected_solve(br, x, y, anchor, weight, lx)[0]
        if ar > 0.0 and (best is None or sse_r < best[0]):
            best = (sse_r, ar, br, cr)
    start = (_initial_guess(x, y, anchor) if best is None
             else np.array([np.log(best[1]), np.log(best[2]), best[3]]))

    trust = least_squares(residuals, start, jac=jacobian, method="trf",
                          ftol=_TRUST_FTOL, xtol=_TRUST_XTOL,
                          gtol=1e-14, max_nfev=_TRUST_MAX_NFEV)
    a, b, c = float(np.exp(trust.x[0])), float(np.exp(trust.x[1])), float(trust.x[2])
    sse_trust = 2.0 * float(trust.cost)
    converged = trust.status > 0

    # re-pin full stationarity: (a, c) solved exactly at the final b
    br, ar, cr = _refine_basin(b * 0.995, b * 1.005, x, y, anchor, weight, lx)
    sse_r = _projected_solve(br, x, y, anchor, weight, lx)[0]
    if ar > 0.0 and sse_r <= sse_trust:
        a, b, c = ar, br, cr
        converged = True
    if best is not None and best[0] < min(sse_trust, sse_r):
        _, a, b, c = best
        converged = True

    curve = PowerLawCurve(a=a, b=b, c=c)
    fitted = -a * np.power(x, -b) + c
    res = y - fitted
    sse = float(res @ res)
    rinf = None
    if anchor is not None:
        rinf = float(anchor - c)
        sse += weight * rinf * rinf
    return FitResult(curve=curve, residuals=tuple(float(v) for v in res),
                     residual_at_infinity=rinf, sse=sse, converged=converged)

