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

A basin is refined by bounded Brent in log b, inlined here as a faithful
port of scipy's `minimize_scalar(method="bounded")`, then by secant steps
on the exact gradient.  The b-independent terms of the profile are
computed once per fit, Brent's evaluations skip the gradient, and every
point the refinement has solved is returned rather than solved again; the
outputs are those of the plain formulation bit for bit.

The trust-region solve is likewise a step-for-step port of scipy's
`least_squares(method="trf")` without bounds, with the exact SVD
subproblem (`_trust_region`, `_trust_step`), so fitting needs numpy alone.
Its SVD factors are put in the Fortran order scipy's `svd` returns them in:
a product with a C-ordered factor runs another BLAS kernel, sums in another
order and moves b in the last digits.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from math import inf, isfinite, sqrt
from typing import Optional

import numpy as np
from numpy.linalg import norm

from .curves import ACCURACY_CEILING, PowerLawCurve
from .errors import DegenerateData

_B_SCAN_LO = 1e-3
_B_SCAN_HI = 4.0
_B_SCAN_N = 56
_B_GRID = np.geomspace(_B_SCAN_LO, _B_SCAN_HI, _B_SCAN_N)
# trust-region termination: relative SSE improvement, step norm, evaluations,
# gradient
_TRUST_FTOL = 1e-12
_TRUST_XTOL = 1e-10
_TRUST_MAX_NFEV = 200
_TRUST_GTOL = 1e-14
_SQRT_FLOAT_MAX = sqrt(sys.float_info.max)


@dataclass(frozen=True)
class FitProblem:
    """Observations to fit, with an optional anchor at infinity.

    x must be finite, positive and strictly increasing, y finite and in
    (0, 100]; the anchor, when given, and its weight must be finite, the
    weight positive, and the two small enough that the anchored SSE stays
    within the float range.
    """

    x: tuple[float, ...]
    y: tuple[float, ...]
    anchor: Optional[float] = None
    anchor_weight: float = 1.0

    def __post_init__(self):
        n = len(self.x)
        if n < 3:
            raise ValueError("need at least 3 observations to fit a trend")
        if len(self.y) != n:
            raise ValueError("x and y must have equal length")
        x = np.fromiter(self.x, float, n)
        y = np.fromiter(self.y, float, n)
        # NaN fails every comparison and inf fails a bound, so this passes
        # exactly the finite, increasing, positive x and in-range y
        if not (np.minimum.reduce(x[1:] - x[:-1]) > 0.0 and x[0] > 0.0
                and x[-1] < inf and y.min() > 0.0
                and y.max() <= ACCURACY_CEILING):
            raise _invalid_data(x, y)
        if self.anchor is not None and not isfinite(self.anchor):
            raise ValueError("anchor must be finite")
        check_anchor_weight(self.anchor_weight)
        # For a fixed b the profile's (a, c) minimise the SSE, so it is at
        # most the SSE at a = 0 and c the weighted mean of y and A, which
        # lies within |A| + 100 of each of the n + w weighted values; so
        # w (A - c)**2 <= (n + w) (|A| + 100)**2.  `_Profile.solve` squares
        # A - c before w scales it, so (n + w) / min(w, 1) (|A| + 100)**2
        # must stay below the largest float (compared here as square roots).
        if self.anchor is not None and (
                (abs(self.anchor) + ACCURACY_CEILING)
                * sqrt((n + self.anchor_weight) / min(self.anchor_weight, 1.0))
                > _SQRT_FLOAT_MAX):
            raise ValueError(
                f"anchor {self.anchor!r} with anchor_weight "
                f"{self.anchor_weight!r} on {n} points: the anchored residual "
                f"would overflow a float")

    @staticmethod
    def from_arrays(x, y, anchor=None, anchor_weight=1.0) -> "FitProblem":
        return FitProblem(tuple(float(v) for v in x), tuple(float(v) for v in y),
                          anchor=None if anchor is None else float(anchor),
                          anchor_weight=float(anchor_weight))


def check_anchor_weight(weight: float) -> None:
    """Raise ValueError unless the weight of an anchor is finite and > 0."""
    if not isfinite(weight):
        raise ValueError("anchor_weight must be finite")
    if weight <= 0.0:
        raise ValueError("anchor_weight must be positive")


def _invalid_data(x, y) -> ValueError:
    """The error naming the first check that x and y fail."""
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        return ValueError("x and y must be finite")
    if np.any(np.diff(x) <= 0.0):
        return ValueError("x must be strictly increasing")
    if np.any(x <= 0.0):
        return ValueError("x must be positive")
    return ValueError("accuracies must lie in (0, 100]")


@dataclass(frozen=True)
class FitResult:
    curve: PowerLawCurve
    residuals: tuple[float, ...]          # observed - fitted, per finite point
    residual_at_infinity: Optional[float]  # anchor - c, when anchored
    sse: float


class _Profile:
    """SSE*(b) of one problem: exact least squares over (a, c) for fixed b.

    The model is linear in (a, c) once b is fixed; the constant column is
    orthogonalised out of the decaying one, which keeps the solve stable
    even when x**-b barely varies over the data.  The b-independent terms
    (log x, the weighted mean of y, y centred on it and the anchor gap) are
    computed once per fit, for the grid `scan` and the point `solve` alike.

    A fit solves the profile about 47 times, so `solve` is written for
    call overhead at small n: `ndarray.dot` for its 1-D products runs the
    same BLAS `ddot` as `@` at about 60% of its cost (0.49 against 0.79 us
    at n = 90), and `np.add.reduce` is the pairwise summation of `.sum()`.
    Both give the same bits as the plain spelling.
    """

    def __init__(self, x, y, anchor, weight):
        self.x, self.y, self.anchor, self.weight = x, y, anchor, weight
        self.lx = np.log(x)
        n = x.size
        if anchor is not None:
            # rows: (y_i ~ c - a g_i) plus sqrt(w) * (anchor ~ c)
            self.w_tot = n + weight
            self.y_mean = (float(y.sum()) + weight * anchor) / self.w_tot
            self.anchor_gap = anchor - self.y_mean
        else:
            self.w_tot = n
            self.y_mean = float(y.sum()) / n
        self.y_cent = y - self.y_mean

    def solve(self, b: float, grad: bool = False):
        """(sse, a, c, dsse_db) at b; dsse_db is computed only if `grad`.
        The derivative is exact by the envelope theorem: only the explicit
        b-dependence of the residuals contributes."""
        anchor, weight, y_mean = self.anchor, self.weight, self.y_mean
        g = np.exp(self.lx * (-b))
        g_mean = float(np.add.reduce(g)) / self.w_tot
        g_cent = g - g_mean
        denom = float(g_cent.dot(g_cent))
        num = float(g_cent.dot(self.y_cent))
        if anchor is not None:
            denom += weight * g_mean * g_mean
            num += weight * (-g_mean) * self.anchor_gap
        if denom <= 0.0:
            return float(self.y_cent.dot(self.y_cent)), 0.0, y_mean, 0.0
        a = -num / denom
        c = y_mean + a * g_mean
        resid = self.y - c + a * g
        sse = float(resid.dot(resid))
        if anchor is not None:
            sse += weight * (anchor - c) ** 2
        if not grad:
            return sse, a, c, None
        # d r_i / d b = -a * ln(x_i) * x_i**-b  (anchor row is b-independent)
        return sse, a, c, -2.0 * a * float(resid.dot(self.lx * g))

    def scan(self, grid):
        """SSE*(b) over a whole b grid in one vectorised pass: `solve`'s
        algebra with x**-b from `np.power` and plain reductions."""
        anchor, weight, y_mean = self.anchor, self.weight, self.y_mean
        g = np.power.outer(self.x, -grid)                 # n x m
        g_mean = g.sum(axis=0) / self.w_tot
        g_cent = g - g_mean
        denom = np.einsum("ij,ij->j", g_cent, g_cent)
        num = self.y_cent @ g_cent
        if anchor is not None:
            denom = denom + weight * g_mean * g_mean
            num = num + weight * (-g_mean) * self.anchor_gap
        safe = denom > 0.0
        a = np.where(safe, -num / np.where(safe, denom, 1.0), 0.0)
        c = y_mean + a * g_mean
        resid = self.y[:, None] - c + a * g
        sse = np.einsum("ij,ij->j", resid, resid)
        if anchor is not None:
            sse = sse + weight * (anchor - c) ** 2
        return sse


_SQRT_EPS = sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - sqrt(5.0))
_BRENT_XATOL = 1e-9
_BRENT_MAXFUN = 500


def _bounded_brent(f, lo: float, hi: float):
    """Brent's bounded minimisation of a scalar function on [lo, hi]
    (fminbound; Brent 1973, ch. 5), ported step for step from scipy's
    `_minimize_scalar_bounded` with xatol = _BRENT_XATOL, so it returns the
    same point bit for bit.

    `f(t)` returns a tuple whose first item is the value to minimise;
    the result is (t, f(t)) at the best point found.
    """
    if not (isfinite(lo) and isfinite(hi)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if lo > hi:
        raise ValueError("The lower bound exceeds the upper bound.")
    a, b = lo, hi
    fulc = a + _GOLDEN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    best = f(xf)
    fx = best[0]
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + _BRENT_XATOL / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:              # try a parabola through the three points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm - xf >= 0.0 else -tol1
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e
        # step at least tol1, in the direction of rat (forward when rat == 0)
        step = max(abs(rat), tol1)
        x = xf - step if rat < 0.0 else xf + step
        trial = f(x)
        fu = trial[0]
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx, best = x, fu, trial
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + _BRENT_XATOL / 3.0
        tol2 = 2.0 * tol1
        if num >= _BRENT_MAXFUN:
            break
    return xf, best


def _refine_basin(b_lo: float, b_hi: float, profile: _Profile):
    """Locate the minimiser of SSE*(b) inside [b_lo, b_hi] precisely:
    bounded Brent on the profile in log b, then secant steps on its exact
    gradient.  Returns (b, sse, a, c) at the better of Brent's point and
    the last secant point."""
    t, (sse, a, c, _) = _bounded_brent(
        lambda t: profile.solve(float(np.exp(t))),
        float(np.log(b_lo)), float(np.log(b_hi)))
    b = float(np.exp(t))
    span = 1e-5 * b
    b0, b1 = b - span, b + span
    g0 = profile.solve(b0, grad=True)[3]
    last = profile.solve(b1, grad=True)
    g1 = last[3]
    for _ in range(12):
        if g1 == g0:
            break
        b2 = b1 - g1 * (b1 - b0) / (g1 - g0)
        if not (b_lo * 0.5 <= b2 <= b_hi * 2.0) or not np.isfinite(b2):
            break
        b0, g0 = b1, g1
        b1 = b2
        last = profile.solve(b1, grad=True)
        g1 = last[3]
        if abs(b1 - b0) <= 1e-15 * b1:
            break
    # the secant point replaces Brent's only on a strictly smaller SSE
    if last[0] < sse:
        return b1, last[0], last[1], last[2]
    return b, sse, a, c


_EPS = np.finfo(float).eps


def _trust_step(n, m, uf, s, V, delta, alpha):
    """Step of the trust-region subproblem min |J p + f| subject to
    |p| <= delta, from one SVD J = U diag(s) V.T and uf = U.T f (Moré 1977,
    "The Levenberg-Marquardt algorithm: implementation and theory"), ported
    step for step from scipy's `solve_lsq_trust_region`: the Gauss-Newton
    step when J has full rank and the step fits, otherwise at most ten
    Newton iterations on the Levenberg-Marquardt parameter alpha, started
    from the previous one.  Returns (p, alpha)."""
    def phi_and_derivative(alpha):
        # |p(alpha)| - delta and its derivative in alpha
        denom = s**2 + alpha
        p_norm = norm(suf / denom)
        return p_norm - delta, -np.sum(suf ** 2 / denom**3) / p_norm

    suf = s * uf
    full_rank = s[-1] > _EPS * m * s[0] if m >= n else False
    if full_rank:
        p = -V.dot(uf / s)
        if norm(p) <= delta:
            return p, 0.0
    alpha_upper = norm(suf) / delta
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0
    if not full_rank and alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + delta) * ratio / delta
        if np.abs(phi) < 0.01 * delta:
            break
    p = -V.dot(suf / (s**2 + alpha))
    # put p on the boundary exactly, so rounding cannot leave it outside
    p *= delta / norm(p)
    return p, alpha


def _trust_region(residuals, jacobian, x0):
    """Unbounded trust-region least squares with the exact SVD subproblem,
    ported step for step from scipy's `least_squares(method="trf")`
    (`trf_no_bounds` with linear loss and unit variable scale) at
    _TRUST_FTOL, _TRUST_XTOL, _TRUST_GTOL and _TRUST_MAX_NFEV, so it returns
    the same point bit for bit.  It stops on the step that meets a step
    test without evaluating the Jacobian there, which scipy evaluates only
    to return it and to test the gradient, so where that gradient also
    vanishes scipy reports status 1 for the same point.

    Returns (x, sse, status); status is 0 when the evaluation budget ran
    out, 1 for a vanishing gradient, 2 for a small relative SSE decrease,
    3 for a small step and 4 for both of the last two.
    """
    x = np.array(x0, dtype=float)
    f = residuals(x)
    if not np.all(np.isfinite(f)):
        raise ValueError("Residuals are not finite in the initial point.")
    J = jacobian(x)
    nfev = 1
    m, n = J.shape
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)
    delta = norm(x)
    if delta == 0:
        delta = 1.0
    alpha = 0.0
    status = None
    while True:
        if norm(g, ord=np.inf) < _TRUST_GTOL:
            status = 1
        if status is not None or nfev == _TRUST_MAX_NFEV:
            break
        if not np.all(np.isfinite(J)):
            raise ValueError("array must not contain infs or NaNs")
        # in the layout of scipy's svd, so the products sum in its order
        U, s, Vt = np.linalg.svd(J, full_matrices=False)
        V = np.asfortranarray(Vt).T
        uf = np.asfortranarray(U).T.dot(f)
        actual_reduction = -1
        while actual_reduction <= 0 and nfev < _TRUST_MAX_NFEV:
            step, alpha = _trust_step(n, m, uf, s, V, delta, alpha)
            Js = J.dot(step)
            predicted_reduction = -(0.5 * np.dot(Js, Js) + np.dot(step, g))
            x_new = x + step
            f_new = residuals(x_new)
            nfev += 1
            step_norm = norm(step)
            if not np.all(np.isfinite(f_new)):
                delta = 0.25 * step_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            # radius update: shrink on a poor model, grow on a good step
            # that reached the boundary
            if predicted_reduction > 0:
                ratio = actual_reduction / predicted_reduction
            elif predicted_reduction == actual_reduction == 0:
                ratio = 1
            else:
                ratio = 0
            delta_new = delta
            if ratio < 0.25:
                delta_new = 0.25 * step_norm
            elif ratio > 0.75 and step_norm > 0.95 * delta:
                delta_new = delta * 2.0
            ftol_met = actual_reduction < _TRUST_FTOL * cost and ratio > 0.25
            xtol_met = step_norm < _TRUST_XTOL * (_TRUST_XTOL + norm(x))
            if ftol_met and xtol_met:
                status = 4
            elif ftol_met:
                status = 2
            elif xtol_met:
                status = 3
            if status is not None:
                break
            alpha *= delta / delta_new
            delta = delta_new
        if actual_reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            if status is not None:
                break       # nothing reads the Jacobian at the final point
            J = jacobian(x)
            g = J.T.dot(f)
    return x, 2.0 * float(cost), 0 if status is None else status


def fit(problem: FitProblem) -> FitResult:
    """The valid pattern (a > 0, b > 0) of lowest (optionally anchored)
    SSE that the stages found; deterministic.

    Raises DegenerateData, before the trust region runs, when no valid
    pattern fits: when every accuracy is identical (the flat limit a -> 0
    lies outside the family), or when no basin of the profile scan gives
    a > 0.
    """
    x = np.asarray(problem.x, dtype=float)
    y = np.asarray(problem.y, dtype=float)
    if np.all(y == y[0]):
        raise DegenerateData("all observed accuracies are equal")
    anchor, weight = problem.anchor, problem.anchor_weight
    profile = _Profile(x, y, anchor, weight)
    lx = profile.lx
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
    sse_grid = profile.scan(_B_GRID)
    order = np.argsort(sse_grid)
    interior = set((np.nonzero((sse_grid[1:-1] <= sse_grid[:-2]) &
                               (sse_grid[1:-1] <= sse_grid[2:]))[0] + 1))
    candidates = [int(order[0])] + [i for i in sorted(interior)
                                    if i != int(order[0])]
    for idx in candidates:
        if (best is not None
                and sse_grid[max(idx - 1, 0):idx + 2].min() >= best[0]):
            continue
        lo = float(_B_GRID[max(idx - 1, 0)])
        hi = float(_B_GRID[min(idx + 1, _B_SCAN_N - 1)])
        br, sse_r, ar, cr = _refine_basin(lo, hi, profile)
        if ar > 0.0 and (best is None or sse_r < best[0]):
            best = (sse_r, ar, br, cr)
    if best is None:
        raise DegenerateData("no b in the profile scan gives a > 0")

    start = np.array([np.log(best[1]), np.log(best[2]), best[3]])
    p, sse, _ = _trust_region(residuals, jacobian, start)
    a, b, c = float(np.exp(p[0])), float(np.exp(p[1])), float(p[2])

    # re-pin full stationarity: (a, c) solved exactly at the final b; of
    # the three valid patterns the lowest SSE wins, on a tie the later one
    br, sse_r, ar, cr = _refine_basin(b * 0.995, b * 1.005, profile)
    if ar > 0.0 and sse_r <= sse:
        a, b, c, sse = ar, br, cr, sse_r
    if best[0] < sse:
        _, a, b, c = best

    curve = PowerLawCurve(a=a, b=b, c=c)
    fitted = -a * np.power(x, -b) + c
    res = y - fitted
    sse = float(res @ res)
    rinf = None
    if anchor is not None:
        rinf = float(anchor - c)
        sse += weight * rinf * rinf
    return FitResult(curve=curve, residuals=tuple(res.tolist()),
                     residual_at_infinity=rinf, sse=sse)

