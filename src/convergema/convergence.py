"""Trend intersections, the epsilon bound sequence, stop decisions and
look-ahead tuning.

For a trace whose asymptotic backbone decreases past level omega+1, the
last intersection point q of two consecutive trends bounds the disagreement
of every later trend on [q_x, inf) by epsilon_i = |q_y - alpha_i|; the
epsilon sequence decreases to zero outside rupture levels, so the first
level with epsilon <= tau ends the training for the absolute proximity
condition.  The relative condition instead watches backbone gaps, and the
percentage of uncovered threshold (PUT) normalises the remaining distance,
which drives the choice of the look-ahead for anchor updates.

The epsilon fold keeps each crossing of two consecutive trends in the
trace's store, keyed by the two curves and x_min, so the traces that
share a log's store, and a forked helper that sends its store entries
back, intersect each pair of curves once.

Two power laws cross at most twice: their difference has at most two
monotone pieces, split at the one zero of its derivative, so every
intersection is found by one bisection per piece and the count is exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import islice, pairwise
from typing import Optional

from .anchoring import AnchoringStrategy
from .curves import PowerLawCurve, evaluate
from .errors import (CoincidentCurves, MissingWLevel, NotDecreasing,
                     NotReached)
from .traces import LearningTrace, run_jobs

_COINCIDENT_TOL = 1e-12
_X_MIN_FACTOR = 1e-3
_TAIL_LIMIT = 1e280
# largest backbone rise still read as decreasing (rounding, not a trend)
_DECREASING_TOL = 1e-9
CONDITION_KINDS = ("absolute", "relative")      # of a ProximityCondition
ERROR_TARGETS = ("raw", "fitted")       # of evaluation.accuracy
# tentative PUT values of the look-ahead sweep: 100, 90, ..., 0
_TUNING_ZETAS = tuple(float(z) for z in range(100, -1, -10))


@dataclass(frozen=True)
class IntersectionSet:
    first: Optional[tuple[float, float]]
    last: Optional[tuple[float, float]]
    count: int


@dataclass(frozen=True)
class EpsilonRecord:
    level: int
    epsilon: float
    q: Optional[tuple[float, float]]
    is_rupture: bool


@dataclass(frozen=True)
class ProximityCondition:
    kind: str          # "absolute" | "relative"
    tau: float

    def __post_init__(self):
        if self.kind not in CONDITION_KINDS:
            raise ValueError("condition kind must be 'absolute' or 'relative'")
        if not 0.0 < self.tau < math.inf:      # NaN too
            raise ValueError("tau must be finite and positive")


def _difference(c1: PowerLawCurve, c2: PowerLawCurve, x: float) -> float:
    return (c2.a * math.pow(x, -c2.b) - c1.a * math.pow(x, -c1.b)
            + c1.c - c2.c)


def _bisect_root(c1, c2, lo, hi, d_lo):
    """Bisect [lo, hi] at geometric midpoints for the root of
    `_difference(c1, c2, .)`, whose sign at lo is that of d_lo.  The loop
    inlines `_difference` with the curve parameters in locals, in the same
    order of operations, so it returns the bits of the plain calls."""
    a1, nb1, k1 = c1.a, -c1.b, c1.c
    a2, nb2, k2 = c2.a, -c2.b, c2.c
    power, sqrt = math.pow, math.sqrt
    for _ in range(200):
        # sqrt(lo * hi) without overflowing for huge tail brackets
        mid = lo * sqrt(hi / lo)
        if mid <= lo or mid >= hi:
            break
        d_mid = a2 * power(mid, nb2) - a1 * power(mid, nb1) + k1 - k2
        if d_lo * d_mid <= 0.0:
            hi = mid
        else:
            lo = mid
            d_lo = d_mid
        if hi - lo < 1e-12 * mid:
            break
    return lo * sqrt(hi / lo)


def _turning_point(c1: PowerLawCurve, c2: PowerLawCurve) -> float:
    """The only zero of the derivative of c1 - c2, where a1*b1*x**-b1 =
    a2*b2*x**-b2, solved in log space.  It is capped at _TAIL_LIMIT, where
    the root search ends anyway, and is 0.0 when b1 == b2: the difference
    is then monotone on (0, inf)."""
    if c1.b == c2.b:
        return 0.0
    log_x = (math.log(c1.a) + math.log(c1.b) - math.log(c2.a)
             - math.log(c2.b)) / (c1.b - c2.b)
    return math.exp(min(log_x, math.log(_TAIL_LIMIT)))


def intersect(c1: PowerLawCurve, c2: PowerLawCurve,
              x_min: float) -> IntersectionSet:
    """All intersection points of two curves on [x_min, inf).

    The difference d(x) = c1(x) - c2(x) has a derivative with at most one
    zero x*, so d is strictly monotone on [x_min, x*] and on [x*, inf) and
    each piece holds a root exactly when the signs at its ends differ; the
    sign at infinity is that of the asymptote gap c1.c - c2.c.  Each root
    is one bisection, the tail one on [x*, _TAIL_LIMIT], so a root beyond
    _TAIL_LIMIT is reported there.  Both curves must be valid patterns
    (a > 0, b > 0), which the derivation assumes; CoincidentCurves is
    raised when |d| stays below 1e-12 on all of [x_min, inf).
    """
    if x_min <= 0.0:
        raise ValueError("x_min must be positive")
    if min(c1.a, c1.b, c2.a, c2.b) <= 0.0:
        raise ValueError("intersect needs curves with a > 0 and b > 0")
    # (x, d(x)) at the ends of the monotone pieces; the last end stands for
    # infinity, where d tends to the asymptote gap
    ends = [(x_min, _difference(c1, c2, x_min))]
    x_star = _turning_point(c1, c2)
    if x_star > x_min:
        ends.append((x_star, _difference(c1, c2, x_star)))
    ends.append((_TAIL_LIMIT, c1.c - c2.c))
    # the supremum of |d| on [x_min, inf) is attained at a piece end
    if max(abs(d) for _, d in ends) < _COINCIDENT_TOL:
        raise CoincidentCurves("curves agree within 1e-12 on [x_min, inf)")

    roots: list[float] = []
    for (lo, d_lo), (hi, d_hi) in zip(ends, ends[1:]):
        if d_lo == 0.0:
            roots.append(lo)
        elif d_lo * d_hi < 0.0:
            roots.append(_bisect_root(c1, c2, lo, hi, d_lo))
    if not roots:
        return IntersectionSet(first=None, last=None, count=0)
    pts = [(r, evaluate(c1, r)) for r in roots]
    return IntersectionSet(first=pts[0], last=pts[-1], count=len(pts))


def _working_level(trace: LearningTrace) -> int:
    """The trace's working level; MissingWLevel while it is unresolved."""
    if trace.wlevel is None:
        raise MissingWLevel("epsilon sequence needs a resolved working level")
    return trace.wlevel


def _check_decreasing(trace: LearningTrace) -> None:
    """Raise NotDecreasing when the active backbone rises past omega+1."""
    if trace.strategy.kind in ("fixed", "fixed_look_ahead"):
        return
    omega = _working_level(trace)
    entries = [e for e in trace.backbone() if e.level > omega + 1]
    for prev, cur in zip(entries, entries[1:]):
        if cur.alpha - prev.alpha > _DECREASING_TOL:
            raise NotDecreasing(
                f"backbone rises by {cur.alpha - prev.alpha:.3e} at level "
                f"{cur.level}; for increasing backbones the bound depends on "
                "the unknown final accuracy, so absolute thresholds need a "
                "decreasing backbone (use fixed anchoring)")


def epsilon_sequence(trace: LearningTrace) -> list[EpsilonRecord]:
    """Epsilon bound per level, from the last intersection of consecutive
    trends; rupture levels (intersection-count transitions, anchor changes,
    degenerate pairs) are flagged and carry the previous epsilon forward.

    The sequence is a left-to-right fold: a level's record depends only on
    its pair of trends and on the fold state before it (the previous
    intersection count and epsilon), never on later levels.  So the fold is
    kept on the trace and resumed (`_fold`).  The returned list is the
    caller's own.
    """
    _working_level(trace)
    _check_decreasing(trace)
    return list(_fold(trace, trace.trends()))


def _fold(trace: LearningTrace, trends: dict) -> tuple[EpsilonRecord, ...]:
    """The epsilon records of `trends` (level -> FitResult), the trace's
    trends fitted so far, from the fold kept on the trace.

    The trend dicts are written only by `_settle` and `_fit_anchored`,
    each adding levels past the last, and the views are read-only, so the
    trends folded before are still the first ones of `trends`: a call
    folds only the pairs from the last folded trend on.  A pair's crossing
    is kept in the trace's store, keyed (curve, curve, x_min), and None
    for coincident curves."""
    done, records, prev_count, prev_eps = trace._epsilon_fold
    records = list(records)
    store = trace._store
    x_min = trace.observations.entries[0].x * _X_MIN_FACTOR
    start = max(4, trace.wlevel + 2)
    for (prev_level, prev_fit), (level, fit) in pairwise(
            islice(trends.items(), max(done - 1, 0), None)):
        if level < start:
            continue
        anchor_changed = (trace._anchors.get(level)
                          != trace._anchors.get(prev_level))
        key = prev_fit.curve, fit.curve, x_min
        if key not in store:
            try:
                store[key] = intersect(*key)
            except CoincidentCurves:
                store[key] = None
        # None for coincident curves: the previous count carries over
        inter = store[key]
        if inter is None or inter.count == 0:
            # no crossing to bound by: a rupture, carrying epsilon forward
            prev_eps = prev_eps if prev_eps is not None else 0.0
            records.append(EpsilonRecord(level=level, epsilon=prev_eps,
                                         q=None, is_rupture=True))
            if inter is not None:
                prev_count = 0
            continue
        rupture = anchor_changed or (prev_count is not None
                                     and inter.count != prev_count)
        q = inter.last
        eps = abs(q[1] - fit.curve.c)
        records.append(EpsilonRecord(level=level, epsilon=eps, q=q,
                                     is_rupture=rupture))
        prev_count = inter.count
        prev_eps = eps
    trace._epsilon_fold = (len(trends), tuple(records), prev_count, prev_eps)
    return trace._epsilon_fold[1]


def threshold_level(records: list[EpsilonRecord], tau: float,
                    omega: int) -> Optional[int]:
    """Smallest non-rupture level past omega+1 with epsilon <= tau."""
    for rec in records:
        if rec.level > omega + 1 and not rec.is_rupture and rec.epsilon <= tau:
            return rec.level
    return None


def clevel(trace: LearningTrace, condition: ProximityCondition) -> Optional[int]:
    """Level at which the proximity condition first holds; None if not yet.

    Under fixed anchoring an absolute stop is final: no epsilon record
    depends on a later level and no backbone rise is checked, so the stop
    is found, and kept per tau, fitting no level past it (`_final_stop`).
    Other strategies read every level: a later rise must still raise
    NotDecreasing."""
    if condition.kind == "absolute":
        if trace.strategy.kind in ("fixed", "fixed_look_ahead"):
            return _final_stop(trace, condition.tau)
        records = epsilon_sequence(trace)
        omega = trace.wlevel
        return threshold_level(records, condition.tau, omega)

    plevel = trace.plevel
    if plevel is None:
        return None
    look = trace.params.look_ahead
    gaps = backbone_gaps(trace)
    for idx, (level, _) in enumerate(gaps):
        if level <= plevel:
            continue
        window = gaps[idx:idx + look + 1]
        if len(window) < look + 1:
            return None
        if all(g <= condition.tau for _, g in window):
            return level
    return None


def backbone_gaps(trace: LearningTrace) -> list[tuple[int, float]]:
    """(level, |alpha - previous alpha|) along the active backbone."""
    entries = trace.backbone()
    return [(cur.level, abs(cur.alpha - prev.alpha))
            for prev, cur in zip(entries, entries[1:])]


def _final_stop(trace: LearningTrace, tau: float) -> Optional[int]:
    """The absolute clevel of a fixed-anchoring trace, fitting no anchored
    level past it.

    Records are only appended, omega is fixed once known and the first
    qualifying record stays first, so a stop found once is kept on the
    trace (`_stops`) and a later query at that tau is one dict lookup.
    Otherwise the anchored trends fitted so far are folded (`_fold` resumes
    the fold kept on the trace), and then the pending anchored levels are
    fitted and folded one at a time, until a record qualifies or the trace
    ends.  No stop yet is not kept: a longer trace may still stop."""
    stop = trace._stops.get(tau)
    if stop is not None:
        return stop
    omega = _working_level(trace)
    last = len(trace.observations)
    # the first pass fits nothing, and the last reads the whole sequence
    for level in range(max(trace._anchored_level, omega), last + 1):
        if level < last:
            trace._fit_anchored(level)
            records = _fold(trace, trace._anchored_trends)
        else:
            records = epsilon_sequence(trace)
        stop = threshold_level(records, tau, omega)
        if stop is not None:
            trace._stops[tau] = stop
            return stop
    return None


def normalize_threshold(trace: LearningTrace, tau_r: float) -> float:
    """Absolute threshold equivalent to a relative one: the epsilon bound at
    the level where the relative condition stops on this trace."""
    stop = clevel(trace, ProximityCondition("relative", tau_r))
    if stop is None:
        raise NotReached("relative condition does not stop within the trace")
    return _epsilon_at(epsilon_sequence(trace), stop)


def _epsilon_at(records: list[EpsilonRecord], level: int) -> float:
    """Epsilon of the first record at or after `level`."""
    for rec in records:
        if rec.level >= level:
            return rec.epsilon
    raise NotReached(f"no epsilon record at or after level {level}")


def _distance_estimate(trace: LearningTrace, condition: ProximityCondition,
                       level: int,
                       records: Optional[list[EpsilonRecord]]) -> float:
    """The condition's estimate of the remaining distance to final accuracy;
    `records` is the epsilon sequence under the absolute condition."""
    if condition.kind == "absolute":
        return _epsilon_at(records, level)
    for gap_level, gap in backbone_gaps(trace):
        if gap_level >= level:
            return gap
    raise NotReached(f"no backbone gap at or after level {level}")


def put(trace: LearningTrace, condition: ProximityCondition, level: int,
        records: Optional[list[EpsilonRecord]] = None) -> float:
    """Percentage of uncovered threshold at `level`: 0 once the distance
    is within tau, 100 at plevel + 2, and above 100 where the distance has
    grown past that (under the relative condition a later backbone gap
    can exceed the first).  It is defined on fixed anchoring traces past
    plevel + 1: elsewhere this raises ValueError, or NotReached while the
    prediction level is unresolved."""
    if trace.strategy.kind not in ("fixed", "fixed_look_ahead"):
        raise ValueError("PUT is defined for fixed anchoring traces")
    plevel = trace.plevel
    if plevel is None:
        raise NotReached("PUT needs a resolved prediction level")
    if level <= plevel + 1:
        raise ValueError(f"PUT is defined for levels above {plevel + 1}")
    if records is None and condition.kind == "absolute":
        records = epsilon_sequence(trace)
    d_here = _distance_estimate(trace, condition, level, records)
    if d_here < condition.tau:
        return 0.0
    d_base = _distance_estimate(trace, condition, plevel + 2, records)
    span = d_base - condition.tau
    if span <= 0.0:
        return 0.0
    return 100.0 * (d_here - condition.tau) / span


def minimal_look_ahead(trace: LearningTrace, condition: ProximityCondition,
                       zeta: float,
                       records: Optional[list[EpsilonRecord]] = None) -> int:
    """Smallest level past plevel+1 whose PUT is <= zeta, minus plevel."""
    if not (0.0 <= zeta <= 100.0):
        raise ValueError("zeta must lie in [0, 100]")
    plevel = trace.plevel
    if plevel is None:
        raise NotReached("minimal look-ahead needs a prediction level")
    if records is None and condition.kind == "absolute":
        records = epsilon_sequence(trace)
    top = max(trace.trends(), default=0)
    for level in range(plevel + 2, top + 1):
        try:
            if put(trace, condition, level, records) <= zeta:
                return level - plevel
        except NotReached:
            break
    raise NotReached(f"no level reaches PUT <= {zeta} within the trace")


@dataclass(frozen=True)
class TuningCandidate:
    zeta: float
    look_ahead: Optional[int]
    clevel: Optional[int]
    rc: Optional[float]


@dataclass(frozen=True)
class TuningResult:
    look_ahead: int
    zeta: float
    put_at_switch: float
    rc: float
    candidates: tuple[TuningCandidate, ...]


def find_optimal_look_ahead(log, params, tau: float, beta: float,
                            baseline_clevel: int,
                            reference=None) -> TuningResult:
    """Sweep tentative PUT values, build the candidate run for the minimal
    look-ahead of each, and pick the turning point of the relative-cost
    sequence: the candidate that starts the longest strictly increasing RC
    window (ties to the smallest look-ahead).

    A candidate run is a replay of the log with the fixed-anchor base trace
    as its reference, so it shares the base's fits, among them those below
    its switch level, where both anchor at beta.  Its one `clevel` call
    fits the anchored levels only up to its convergence level (see
    `clevel`).  The distinct look-aheads are taken from the base first,
    with no fit; their candidate runs depend on no other and share one
    store, so they run as the jobs of `run_jobs`."""
    condition = ProximityCondition("absolute", tau)
    base = LearningTrace.from_log(log, AnchoringStrategy.fixed(beta), params,
                                  reference=reference)
    base_records = epsilon_sequence(base)

    looks: dict[float, Optional[int]] = {}
    for zeta in _TUNING_ZETAS:
        try:
            looks[zeta] = minimal_look_ahead(base, condition, zeta,
                                             base_records)
        except NotReached:
            looks[zeta] = None

    def candidate_stop(look: int) -> Optional[int]:
        trace = LearningTrace.from_log(
            log, AnchoringStrategy.fixed_with_look_ahead(beta, look),
            params, reference=base)
        return clevel(trace, condition)

    distinct = [look for look in dict.fromkeys(looks.values())
                if look is not None]
    stops = dict(zip(distinct, run_jobs(
        base._store, [partial(candidate_stop, look) for look in distinct])))
    candidates: list[TuningCandidate] = []
    for zeta, look in looks.items():
        stop = None if look is None else stops[look]
        rc = None if stop is None else stop / baseline_clevel
        candidates.append(TuningCandidate(zeta, look, stop, rc))

    chosen = _select_turning_point(candidates)
    put_at_switch = put(base, condition, base.plevel + chosen.look_ahead,
                        base_records)
    return TuningResult(look_ahead=chosen.look_ahead, zeta=chosen.zeta,
                        put_at_switch=put_at_switch, rc=chosen.rc,
                        candidates=tuple(candidates))


def _select_turning_point(candidates) -> TuningCandidate:
    """The candidate starting the longest strictly increasing RC window;
    ties resolve to the earliest (smallest look-ahead, as the sweep visits
    look-aheads in increasing order)."""
    scored = [c for c in candidates if c.rc is not None]
    if not scored:
        raise NotReached("no tuning candidate converged within the trace")
    rcs = [c.rc for c in scored]
    best_idx = 0
    best_window = -1
    for i in range(len(scored)):
        length = 0
        while (i + length + 1 < len(scored)
               and rcs[i + length + 1] > rcs[i + length]):
            length += 1
        if length > best_window:
            best_window = length
            best_idx = i
    return scored[best_idx]
