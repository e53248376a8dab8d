import dataclasses
from itertools import takewhile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from convergema import (AnchoringStrategy, CoincidentCurves, NotDecreasing,
                        NotReached, PowerLawCurve, ProximityCondition,
                        TraceParams, clevel, epsilon_sequence,
                        find_optimal_look_ahead, intersect, minimal_look_ahead,
                        normalize_threshold, put, threshold_level)
from convergema.convergence import EpsilonRecord
from convergema import (ConvergemaError, GeneratorSpec, LearningTrace,
                        MissingWLevel, ObservationLog, generate,
                        drift_perturbations)
from convergema import convergence
from tests import intersect_fixtures
from tests.conftest import (BIT_PIN_NOTE, assert_values_close,
                            bits_comparable, build_trace, count_fits,
                            count_intersects, value_delta)


def dense_sign_scan(c1, c2, x_lo, x_hi, cells=2_000_000):
    """Independent intersection oracle: fine log grid + plain bisection."""
    grid = np.geomspace(x_lo, x_hi, cells + 1)
    d = (-c1.a * np.power(grid, -c1.b) + c1.c) - (-c2.a * np.power(grid, -c2.b) + c2.c)
    sign = np.sign(d)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    roots = []
    for i in idx:
        lo, hi = grid[i], grid[i + 1]
        dlo = d[i]
        for _ in range(80):
            mid = np.sqrt(lo * hi)
            dm = (-c1.a * mid ** -c1.b + c1.c) - (-c2.a * mid ** -c2.b + c2.c)
            if dlo * dm <= 0:
                hi = mid
            else:
                lo, dlo = mid, dm
        roots.append(np.sqrt(lo * hi))
    return roots


class TestIntersect:
    @pytest.mark.parametrize("c2_asymptote", [10.5, 11.0 - 1e-8])
    def test_analytic_two_root_case(self, c2_asymptote):
        # difference is quadratic in u = x**-0.5: u = 1 +- sqrt(11 - c2.c),
        # i.e. 1 +- sqrt(2)/2 for 10.5; near 11 the two roots are twins
        # (u = 1 +- 1e-4) that share any cell of a coarse scan
        c1 = PowerLawCurve(1.0, 1.0, 10.0)
        c2 = PowerLawCurve(2.0, 0.5, c2_asymptote)
        out = intersect(c1, c2, 0.1)
        assert out.count == 2
        half_gap = np.sqrt(11.0 - c2_asymptote)
        u = 1.0 - half_gap
        assert out.last[0] == pytest.approx(u ** -2, rel=1e-9)
        assert out.last[1] == pytest.approx(10.0 - 1.0 / (u ** -2), rel=1e-9)
        assert out.first[0] == pytest.approx((1.0 + half_gap) ** -2, rel=1e-9)

    def test_tangent_curves_touch_once(self):
        # difference -(u - 1)**2 with u = x**-0.5: a double root at x = 1,
        # which is also the turning point of the difference
        out = intersect(PowerLawCurve(1.0, 1.0, 10.0),
                        PowerLawCurve(2.0, 0.5, 11.0), 0.1)
        assert out.count == 1
        assert out.first == out.last == (1.0, 9.0)

    def test_turning_point_beyond_double_range(self):
        # b1 - b2 = 1e-9 puts the turning point at exp(6.9e8), past any
        # double; the difference is ~3e-3 - 3 x**-0.5 with its root near 1e6
        c1 = PowerLawCurve(4.0, 0.5 + 1e-9, 10.003)
        c2 = PowerLawCurve(1.0, 0.5, 10.0)
        out = intersect(c1, c2, 1.0)
        assert out.count == 1
        assert out.last[0] == pytest.approx(1e6, rel=1e-4)

    def test_invalid_curve_rejected(self):
        with pytest.raises(ValueError):
            intersect(PowerLawCurve(-1.0, 1.0, 10.0),
                      PowerLawCurve(1.0, 1.0, 10.0), 0.1)

    def test_no_intersection(self):
        out = intersect(PowerLawCurve(1.0, 1.0, 10.0), PowerLawCurve(2.0, 1.0, 10.0),
                        0.1)
        assert out.count == 0 and out.first is None

    def test_coincident(self):
        c = PowerLawCurve(1.0, 1.0, 10.0)
        with pytest.raises(CoincidentCurves):
            intersect(c, PowerLawCurve(1.0, 1.0, 10.0), 0.1)

    def test_tail_root_beyond_scan_window(self):
        # asymptote gap tiny: the crossing sits far out in the tail
        c1 = PowerLawCurve(100.0, 0.5, 95.0)
        c2 = PowerLawCurve(90.0, 0.48, 94.999)
        out = intersect(c1, c2, 10.0)
        ref = dense_sign_scan(c1, c2, 10.0, 1e14, cells=400_000)
        assert out.count == len(ref)
        assert out.last[0] == pytest.approx(ref[-1], rel=1e-6)

    @staticmethod
    def intersection_values(pairs, found) -> list:
        """(name, value, allowance) of each intersection of `found`, one
        per pair of `pairs`: the count and the crossings' x come from
        CPython's math alone, and y is the first curve's value there."""
        out = []
        for i, ((c1, _), inter) in enumerate(zip(pairs, found)):
            out.append((f"pair {i} count", inter.count, None))
            for end in ("first", "last")[:min(inter.count, 2)]:
                x, y = getattr(inter, end)
                out.append((f"pair {i} {end} x", x, None))
                out.append((f"pair {i} {end} y", y,
                            value_delta(y, c1.c, c1.c - y)))
        return out

    def test_intersections_frozen(self):
        # bit for bit where the SIMD targets match, so a reordered bisection
        # step shows even where the 1e-12 tolerances of the tests above
        # absorb it; by value elsewhere
        pairs = intersect_fixtures.pairs()
        found = [intersect(c1, c2, intersect_fixtures.X_MIN)
                 for c1, c2 in pairs]
        assert {inter.count for inter in found} == {0, 1, 2}
        assert_values_close(self.intersection_values(pairs, found),
                            intersect_fixtures.VALUES)
        if bits_comparable(intersect_fixtures.FROZEN_ON):
            got = [intersect_fixtures.as_hex(inter) for inter in found]
            assert got == list(intersect_fixtures.FROZEN), BIT_PIN_NOTE

    def test_roots_satisfy_equation(self):
        c1 = PowerLawCurve(50.0, 0.7, 97.0)
        c2 = PowerLawCurve(30.0, 0.5, 96.5)
        out = intersect(c1, c2, 1.0)
        for point in (out.first, out.last):
            if point is not None:
                x, y = point
                assert abs((-c1.a * x ** -c1.b + c1.c) -
                           (-c2.a * x ** -c2.b + c2.c)) < 1e-9


def fixed_trace(levels=40, drop=8.0, b=0.7, c=97.0, noise=1e-4, seed=1,
                params=None):
    a = drop * 5000.0 ** b
    return build_trace(a, b, c, levels, AnchoringStrategy.fixed(100.0),
                       noise_sd=noise, seed=seed, params=params)


class TestEpsilonSequence:
    def test_monotone_on_fixed_trace(self):
        trace = fixed_trace()
        records = epsilon_sequence(trace)
        assert records[0].level >= max(4, trace.wlevel + 2)
        eps = [r.epsilon for r in records]
        clean = [r for r in records if not r.is_rupture]
        for prev, cur in zip(records, records[1:]):
            if not cur.is_rupture:
                assert cur.epsilon <= prev.epsilon + 1e-9
        assert eps[-1] < eps[0]
        assert len(clean) > len(records) * 0.8

    def test_epsilon_matches_intersection_arithmetic(self):
        trace = fixed_trace(levels=25)
        records = epsilon_sequence(trace)
        trends = trace.trends()
        levels = sorted(trends)
        rec = records[len(records) // 2]
        prev = levels[levels.index(rec.level) - 1]
        xs = [o.x for o in trace.observations]
        out = intersect(trends[prev].curve, trends[rec.level].curve,
                        xs[0] * 1e-3)
        assert rec.epsilon == pytest.approx(
            abs(out.last[1] - trends[rec.level].curve.c), rel=1e-9)

    def test_records_independent_of_later_observations(self):
        # an online monitor decides on prefixes of the stream: a level's
        # record may not move when later observations arrive
        full = fixed_trace(levels=40)
        replay = {rec.level: rec for rec in epsilon_sequence(full)}
        for k in range(20, 41, 5):
            log = ObservationLog(full.observations.entries[:k])
            prefix = LearningTrace.from_log(log, AnchoringStrategy.fixed(100.0))
            for rec in epsilon_sequence(prefix):
                assert rec == replay[rec.level]

    def test_not_decreasing_raises_for_plain_increasing(self):
        pert = drift_perturbations(30, -1.0, 0.15)   # slow deficit: rising alphas
        trace = build_trace(5 * 5000.0 ** 0.6, 0.6, 96.0, 30,
                            AnchoringStrategy.none(), perturbations=pert)
        with pytest.raises(NotDecreasing):
            epsilon_sequence(trace)

    def test_plain_decreasing_allowed(self):
        pert = drift_perturbations(30, 1.5, 0.15)
        trace = build_trace(5 * 5000.0 ** 0.6, 0.6, 96.0, 30,
                            AnchoringStrategy.none(), perturbations=pert)
        records = epsilon_sequence(trace)
        assert records and records[-1].epsilon < records[0].epsilon


def noisy_log(levels=40, noise=0.05, seed=1):
    """The fixed_trace stream with monitor-like noise, as a bare log."""
    spec = GeneratorSpec(truth=PowerLawCurve(8.0 * 5000.0 ** 0.7, 0.7, 97.0),
                         levels=levels, noise_sd=noise, seed=seed)
    return generate(spec)


def jump_log():
    """A decreasing drift with a jump at level 20, which makes the canonical
    backbone rise a few levels after its fold has started.  Under fixed:100
    tau 7.5 stops at level 15 and tau 6.2 at level 29."""
    pert = dict(drift_perturbations(30, 1.5, 0.15))
    pert[20] += 1.0
    return generate(GeneratorSpec(
        truth=PowerLawCurve(8.0 * 5000.0 ** 0.7, 0.7, 97.0), levels=30,
        noise_sd=1e-3, seed=1, perturbations=tuple(sorted(pert.items()))))


def outcome(fn, *args):
    """The value of fn(*args), or the type of the ConvergemaError it raises."""
    try:
        return fn(*args)
    except ConvergemaError as exc:
        return type(exc)


class TestEpsilonFold:
    """epsilon_sequence resumes its fold on the trace between queries."""

    def test_each_pair_intersected_once(self, monkeypatch):
        calls = []
        real = convergence.intersect

        def counting(c1, c2, x_min):
            calls.append((c1, c2))
            return real(c1, c2, x_min)

        monkeypatch.setattr(convergence, "intersect", counting)
        cond = ProximityCondition("absolute", 0.25)
        trace = LearningTrace(AnchoringStrategy.fixed(100.0))
        for obs in noisy_log():
            trace.extend(obs)
            outcome(clevel, trace, cond)
        assert len(calls) == len(epsilon_sequence(trace)) > 0

    @pytest.mark.parametrize("strategy, outcomes, stops", [
        (AnchoringStrategy.fixed(100.0), {MissingWLevel, list}, {15}),
        (AnchoringStrategy.canonical(), {MissingWLevel, list, NotDecreasing},
         set()),
    ], ids=["fixed:100", "canonical"])
    def test_online_matches_batch_replay(self, strategy, outcomes, stops):
        # two taus, asked in alternating order after every observation: the
        # stop one keeps on the trace must not answer for the other
        log = jump_log()
        conds = [ProximityCondition("absolute", tau) for tau in (6.0, 7.5)]
        online = LearningTrace(strategy)
        seen, stopped = set(), set()
        for k, obs in enumerate(log, start=1):
            online.extend(obs)
            batch = LearningTrace.from_log(ObservationLog(log.entries[:k]),
                                           strategy)
            got = outcome(epsilon_sequence, online)
            assert got == outcome(epsilon_sequence, batch)
            for cond in conds[::1 if k % 2 else -1]:
                answer = outcome(clevel, online, cond)
                replay = LearningTrace.from_log(
                    ObservationLog(log.entries[:k]), strategy)
                assert answer == outcome(clevel, replay, cond)
                if isinstance(answer, int):
                    stopped.add(answer)
            seen.add(type(got) if isinstance(got, list) else got)
        assert seen == outcomes
        assert stopped == stops

    def test_final_stop_is_read_back(self, monkeypatch):
        # under fixed anchoring a stop is final: once found it is kept per
        # tau, and a later query at that tau intersects, folds and fits
        # nothing; a tau that has not stopped yet is not kept
        from convergema import traces
        log = jump_log()
        early, late = (ProximityCondition("absolute", tau)
                       for tau in (7.5, 6.2))
        replay = LearningTrace.from_log(log, AnchoringStrategy.fixed(100.0))
        records = epsilon_sequence(replay)
        want = {cond.tau: threshold_level(records, cond.tau, replay.wlevel)
                for cond in (early, late)}
        assert want == {7.5: 15, 6.2: 29}

        calls = []
        for module, name in ((convergence, "threshold_level"),
                             (convergence, "intersect"), (traces, "fit")):
            def counting(*args, _real=getattr(module, name), _name=name):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(module, name, counting)

        trace = LearningTrace(AnchoringStrategy.fixed(100.0))
        answered, after = {}, {tau: 0 for tau in want}
        for obs in log:
            trace.extend(obs)
            if trace.wlevel is None:
                continue
            for cond in (early, late):
                before = len(calls)
                answer = clevel(trace, cond)
                if cond.tau in answered:
                    assert answer == answered[cond.tau]
                    assert calls[before:] == []
                    after[cond.tau] += 1
                elif answer is not None:
                    answered[cond.tau] = answer
                # None until the trace reaches the stop, then the stop: a
                # "not yet" is never kept
                reached = len(trace.observations) >= want[cond.tau]
                assert answer == (want[cond.tau] if reached else None)
        assert answered == want
        assert after == {tau: len(log) - level for tau, level in want.items()}

    def test_returned_list_is_the_callers_own(self):
        trace = fixed_trace(levels=25)
        first = epsilon_sequence(trace)
        expected = list(first)
        first.clear()
        assert epsilon_sequence(trace) == expected

    def test_replaced_trend_invalidates_fold(self):
        # the fold resumes past the trends it folded, so no view lets a
        # caller replace or delete one of them
        trace = fixed_trace(levels=25)
        before = epsilon_sequence(trace)
        level = before[len(before) // 2].level
        for view in (trace.reference_trends, trace.anchored_trends,
                     trace.anchors, trace.skipped):
            with pytest.raises(TypeError):
                view[level] = trace.reference_trends[level]
            with pytest.raises(TypeError):
                del view[level]
        assert epsilon_sequence(trace) == before


def study_log(levels=60):
    """The synthetic study's noise-free drift stream."""
    return generate(GeneratorSpec(
        truth=PowerLawCurve(2.0 * 5000.0 ** 0.85, 0.85, 99.3), levels=levels,
        perturbations=drift_perturbations(levels, 0.8, 0.15), seed=7))


CROSSING_STRATEGIES = [AnchoringStrategy.none(), AnchoringStrategy.canonical(),
                       AnchoringStrategy.fixed(100.0),
                       AnchoringStrategy.fixed_with_look_ahead(100.0, 3)]


class TestCrossingStore:
    """The fold reads each crossing of two stored curves through the store
    of the later level, so the traces that share a store intersect each
    pair of curves once."""

    @pytest.mark.parametrize("strategy", CROSSING_STRATEGIES,
                             ids=lambda s: s.spec_string())
    def test_second_replay_intersects_nothing(self, monkeypatch, tmp_path,
                                              strategy):
        log = study_log()
        counted = count_intersects(monkeypatch, tmp_path)
        first = LearningTrace.from_log(log, strategy)
        records = epsilon_sequence(first)
        made = len(counted())
        assert made == len(records) > 0
        again = LearningTrace.from_log(log, strategy)
        assert epsilon_sequence(again) == records
        assert len(counted()) == made

    def test_look_ahead_shares_the_pairs_below_its_switch(self, monkeypatch,
                                                          tmp_path):
        log = study_log()
        counted = count_intersects(monkeypatch, tmp_path)
        fixed = LearningTrace.from_log(log, AnchoringStrategy.fixed(100.0))
        below = epsilon_sequence(fixed)
        assert len(counted()) == len(below)
        look = LearningTrace.from_log(
            log, AnchoringStrategy.fixed_with_look_ahead(100.0, 3))
        records = epsilon_sequence(look)
        switch = look.plevel + 3 + 1
        shared = [rec for rec in records if rec.level < switch]
        assert 0 < len(shared) < len(records)
        assert shared == below[:len(shared)]
        # only the pairs from the switch on are new, and no pair of curves
        # is intersected twice
        assert len(counted()) == len(below) + len(records) - len(shared)
        assert len(set(counted())) == len(counted())

    def test_records_equal_a_fresh_replay(self):
        # a store warmed by the study's sweep and frame gives the records a
        # replay on a fresh copy of the log computes itself, bit for bit
        log = study_log()
        params = TraceParams()
        plain = LearningTrace.from_log(log, AnchoringStrategy.none(), params)
        fixed = LearningTrace.from_log(log, AnchoringStrategy.fixed(100.0),
                                       params, reference=plain)
        records = epsilon_sequence(fixed)
        tau = records[int(len(records) * 0.3)].epsilon
        tuning = find_optimal_look_ahead(
            log, params, tau, 100.0,
            clevel(plain, ProximityCondition("absolute", tau)),
            reference=plain)
        strategies = CROSSING_STRATEGIES + [
            AnchoringStrategy.fixed_with_look_ahead(100.0, tuning.look_ahead)]
        for strategy in strategies:
            shared = LearningTrace.from_log(log, strategy)
            fresh = LearningTrace.from_log(
                ObservationLog(log.entries, log.scheme), strategy)
            assert (outcome(epsilon_sequence, shared)
                    == outcome(epsilon_sequence, fresh))


class TestCLevel:
    def test_absolute_first_qualifying(self):
        trace = fixed_trace()
        records = epsilon_sequence(trace)
        tau = records[len(records) // 2].epsilon
        stop = clevel(trace, ProximityCondition("absolute", tau))
        expected = threshold_level(records, tau, trace.wlevel)
        assert stop == expected is not None

    def test_tau_larger_than_everything(self):
        trace = fixed_trace(levels=25)
        records = epsilon_sequence(trace)
        stop = clevel(trace, ProximityCondition("absolute", records[0].epsilon + 1))
        first_clean = next(r.level for r in records if not r.is_rupture)
        assert stop == first_clean
        huge = ProximityCondition("absolute", np.finfo(float).max)
        assert clevel(trace, huge) == stop

    @pytest.mark.parametrize("tau", [0.0, -1.0, np.nan, np.inf])
    def test_tau_must_be_positive(self, tau):
        for kind in ("absolute", "relative"):
            with pytest.raises(ValueError, match="tau must be finite and positive"):
                ProximityCondition(kind, tau)

    def test_relative_sustained_window(self):
        params = TraceParams(look_ahead=3)
        trace = fixed_trace(levels=30, params=params)
        entries = trace.backbone()
        gaps = {cur.level: abs(cur.alpha - prev.alpha)
                for prev, cur in zip(entries, entries[1:])}
        tau_r = sorted(gaps.values())[len(gaps) // 2]
        stop = clevel(trace, ProximityCondition("relative", tau_r))
        assert stop is not None
        levels = sorted(gaps)
        idx = levels.index(stop)
        window = levels[idx:idx + 4]
        assert all(gaps[l] <= tau_r for l in window)
        assert stop > trace.plevel

    def test_relative_not_reached(self):
        trace = fixed_trace(levels=20)
        assert clevel(trace, ProximityCondition("relative", 1e-15)) is None

    def test_canonical_absolute_never_stops(self):
        # the canonical anchor is the previous anchored asymptote, which
        # moves at every level, and every anchor change is a rupture
        trace = LearningTrace.from_log(generate(GeneratorSpec(
            truth=PowerLawCurve(2.0 * 5000.0 ** 0.85, 0.85, 99.3), levels=60,
            perturbations=drift_perturbations(60, 0.8, 0.15), seed=7)),
            AnchoringStrategy.canonical())
        records = epsilon_sequence(trace)
        assert len(records) == 56 and all(r.is_rupture for r in records)
        assert max(r.epsilon for r in records) < 10.0
        assert clevel(trace, ProximityCondition("absolute", 10.0)) is None

    @pytest.mark.parametrize("strategy", [AnchoringStrategy.none(),
                                          AnchoringStrategy.canonical()],
                             ids=lambda s: s.spec_string())
    def test_rise_after_the_stop_still_raises(self, monkeypatch, strategy):
        # these strategies read every level: a backbone rise after the first
        # qualifying record raises, although that record stands
        from convergema import traces
        entries = generate(GeneratorSpec(
            truth=PowerLawCurve(2.0 * 5000.0 ** 0.85, 0.85, 99.3), levels=30,
            perturbations=drift_perturbations(30, 0.8, 0.15), seed=7)).entries
        real_fit = traces.fit

        def rise_at_last(problem):
            result = real_fit(problem)
            if (problem.anchor is None) != (strategy.kind == "none"):
                return result
            c = result.curve.c
            if problem.anchor is not None:
                # the canonical anchor is the previous asymptote, so a
                # moving asymptote makes every record a rupture; held at
                # its anchor, it leaves records to stop at
                c = problem.anchor
            if len(problem.x) == len(entries):
                c += 1.0
            curve = dataclasses.replace(result.curve, c=c)
            return dataclasses.replace(result, curve=curve)

        monkeypatch.setattr(traces, "fit", rise_at_last)
        trace = LearningTrace.from_log(ObservationLog(entries[:-1]), strategy)
        records = epsilon_sequence(trace)
        condition = ProximityCondition("absolute",
                                       records[len(records) // 2].epsilon)
        stop = clevel(trace, condition)
        assert stop is not None and stop < len(entries) - 1
        trace.extend(entries[-1])
        with pytest.raises(NotDecreasing):
            clevel(trace, condition)


class TestNormalizeThreshold:
    @staticmethod
    def _mid_gap(trace):
        entries = trace.backbone()
        gaps = sorted(abs(cur.alpha - prev.alpha)
                      for prev, cur in zip(entries, entries[1:]))
        return gaps[len(gaps) // 2]

    def test_tau_a_is_epsilon_at_hr_level(self):
        trace = fixed_trace(levels=35)
        tau_r = self._mid_gap(trace)
        stop = clevel(trace, ProximityCondition("relative", tau_r))
        assert stop is not None
        tau_a = normalize_threshold(trace, tau_r)
        records = epsilon_sequence(trace)
        expected = next(r.epsilon for r in records if r.level >= stop)
        assert tau_a == expected

    def test_replay_recomputation(self):
        trace = fixed_trace(levels=35)
        tau_r = self._mid_gap(trace)
        assert normalize_threshold(trace, tau_r) == normalize_threshold(trace, tau_r)


class TestPut:
    def test_direct_arithmetic(self):
        # d(plevel+2)=2.0, d=1.25, tau=0.5 -> 100*(1.25-0.5)/(2.0-0.5) = 50
        trace = fixed_trace(levels=30)
        plevel = trace.plevel
        records = [EpsilonRecord(level, eps, (1.0, 1.0), False)
                   for level, eps in [(plevel + 2, 2.0), (plevel + 3, 1.25),
                                      (plevel + 4, 0.4)]]
        cond = ProximityCondition("absolute", 0.5)
        assert put(trace, cond, plevel + 3, records) == pytest.approx(50.0)
        assert put(trace, cond, plevel + 4, records) == 0.0
        assert put(trace, cond, plevel + 2, records) == pytest.approx(100.0)

    def test_monotone_and_zero_after_threshold(self):
        trace = fixed_trace(levels=40)
        records = epsilon_sequence(trace)
        tau = records[int(len(records) * 0.6)].epsilon
        cond = ProximityCondition("absolute", tau)
        top = max(trace.trends())
        series = [put(trace, cond, level, records)
                  for level in range(trace.plevel + 2, top + 1)]
        assert all(b <= a + 1e-9 for a, b in zip(series, series[1:]))
        stop = clevel(trace, cond)
        for level in range(stop, top + 1):
            rec = next(r for r in records if r.level >= level)
            if rec.epsilon < tau:
                assert put(trace, cond, level, records) == 0.0


    def test_relative_reads_the_backbone_gaps(self):
        # the relative condition's distance is the first backbone gap at or
        # after the level; no epsilon sequence is read
        trace = fixed_trace(levels=40)
        plevel = trace.plevel
        gaps = convergence.backbone_gaps(trace)

        def gap_at(level):
            return next(gap for gap_level, gap in gaps if gap_level >= level)

        d_base, d_here = gap_at(plevel + 2), gap_at(plevel + 3)
        tau = 0.5 * min(d_base, d_here)
        cond = ProximityCondition("relative", tau)
        assert put(trace, cond, plevel + 3) == (100.0 * (d_here - tau)
                                               / (d_base - tau))
        assert put(trace, ProximityCondition("relative", 2.0 * d_here),
                   plevel + 3) == 0.0
        with pytest.raises(NotReached, match="no backbone gap"):
            put(trace, cond, gaps[-1][0] + 1)

    def test_relative_put_rises_past_100(self):
        # PUT is 100 at plevel + 2 and grows past it wherever the backbone
        # gap has grown: on this trace every later level but one reads over
        # 100, and the last level reads above 900
        trace = fixed_trace(levels=60)
        plevel, top = trace.plevel, max(trace.trends())
        gaps = dict(convergence.backbone_gaps(trace))
        tau = 0.5 * min(gaps.values())
        cond = ProximityCondition("relative", tau)
        series = [put(trace, cond, level)
                  for level in range(plevel + 2, top + 1)]
        assert series[0] == 100.0
        assert sum(value > 100.0 for value in series) == len(series) - 1
        assert series[-1] == (100.0 * (gaps[top] - tau)
                              / (gaps[plevel + 2] - tau))
        assert series[-1] > 900.0


class TestMinimalLookAhead:
    def test_spec_example_shape(self):
        trace = fixed_trace(levels=30)
        plevel = trace.plevel
        records = [EpsilonRecord(plevel + 2 + i, eps, (1.0, 1.0), False)
                   for i, eps in enumerate([2.0, 1.4, 0.9, 0.4])]
        cond = ProximityCondition("absolute", 0.5)
        # PUT at the four levels: 100, 60, 26.7, 0
        assert minimal_look_ahead(trace, cond, 50.0, records) == 4
        assert minimal_look_ahead(trace, cond, 100.0, records) == 2

    def test_monotone_in_zeta(self):
        trace = fixed_trace(levels=40)
        records = epsilon_sequence(trace)
        tau = records[int(len(records) * 0.6)].epsilon
        cond = ProximityCondition("absolute", tau)
        values = []
        for zeta in range(100, -1, -10):
            try:
                values.append(minimal_look_ahead(trace, cond, float(zeta), records))
            except NotReached:
                values.append(None)
        present = [v for v in values if v is not None]
        assert all(b >= a for a, b in zip(present, present[1:]))

    def test_not_reached(self):
        trace = fixed_trace(levels=25)
        records = epsilon_sequence(trace)
        cond = ProximityCondition("absolute", records[-1].epsilon * 0.9)
        with pytest.raises(NotReached):
            # PUT can never descend to zero if epsilon never crosses tau
            minimal_look_ahead(trace, cond, 0.0, records)


class TestTuningSweep:
    def make_frame(self, seed=7):
        pert = drift_perturbations(80, 0.8, 0.15)
        spec = GeneratorSpec(truth=PowerLawCurve(2.0 * 5000.0 ** 0.85, 0.85, 99.3),
                             levels=80, perturbations=pert, seed=seed)
        log = generate(spec)
        params = TraceParams()
        plain = LearningTrace.from_log(log, AnchoringStrategy.none(), params)
        fixed = LearningTrace.from_log(log, AnchoringStrategy.fixed(100.0), params,
                                       reference=plain)
        records = epsilon_sequence(fixed)
        tau = records[int(len(records) * 0.3)].epsilon
        return log, params, plain, tau

    def test_selected_matches_exhaustive(self):
        log, params, plain, tau = self.make_frame()
        baseline_stop = clevel(plain, ProximityCondition("absolute", tau))
        assert baseline_stop is not None
        result = find_optimal_look_ahead(log, params, tau, 100.0, baseline_stop,
                                         reference=plain)
        rcs = [c.rc for c in result.candidates if c.rc is not None]
        assert result.rc == pytest.approx(min(rcs))

    def test_turning_point_on_synthetic_rc_sequence(self):
        # the documented selection rule on a fabricated RC profile
        from convergema.convergence import TuningCandidate, _select_turning_point
        rcs = [1.9, 1.7, 1.6, 1.8, 1.9]
        cands = [TuningCandidate(100.0 - 10 * i, 2 + i, 30, rc)
                 for i, rc in enumerate(rcs)]
        chosen = _select_turning_point(cands)
        assert chosen.rc == 1.6

    def test_all_equal_rc_ties_to_smallest_look_ahead(self):
        from convergema.convergence import TuningCandidate, _select_turning_point
        cands = [TuningCandidate(100.0 - 10 * i, 2 + i, 30, 1.5) for i in range(5)]
        chosen = _select_turning_point(cands)
        assert chosen.look_ahead == 2

    @given(st.lists(st.one_of(st.none(), st.sampled_from([1.0, 1.2, 1.5, 2.0])),
                    min_size=1, max_size=11))
    def test_turning_point_starts_the_longest_rising_window(self, rcs):
        # the rule read off its definition: the first scored candidate
        # whose following run of strict RC increases is longest
        from convergema.convergence import TuningCandidate, _select_turning_point
        cands = [TuningCandidate(100.0 - 10 * i, 2 + i, None if rc is None
                                 else 30, rc) for i, rc in enumerate(rcs)]
        scored = [c for c in cands if c.rc is not None]
        if not scored:
            with pytest.raises(NotReached):
                _select_turning_point(cands)
            return

        def window(i):
            pairs = zip(scored[i:], scored[i + 1:])
            return len(list(takewhile(lambda p: p[1].rc > p[0].rc, pairs)))
        want = min(range(len(scored)), key=lambda i: (-window(i), i))
        assert _select_turning_point(cands) is scored[want]


class TestTuningSweepReuse:
    """Candidates reuse the fixed-anchor base below their switch and stop
    at their convergence level."""

    @pytest.mark.parametrize("noise_sd", [0.0, 0.05], ids=["clean", "noisy"])
    @pytest.mark.parametrize("plevel_source", ["reference", "anchored"])
    def test_candidates_match_full_runs(self, monkeypatch, tmp_path,
                                        noise_sd, plevel_source):
        _, stops = self.check_sweep(monkeypatch, tmp_path, noise_sd,
                                    plevel_source, share=0.3)
        assert len(stops) > 1

    @pytest.mark.parametrize("plevel_source", ["reference", "anchored"])
    def test_early_stop_fits_nothing_past_it(self, monkeypatch, tmp_path,
                                             plevel_source):
        # at the first epsilon, candidates stop before their working level
        # resolves; the levels up to it are fitted one at a time from there
        log, stops = self.check_sweep(monkeypatch, tmp_path, 0.0,
                                      plevel_source, share=0.0)
        trace = LearningTrace(AnchoringStrategy.fixed(100.0))
        for obs in log:
            trace.extend(obs)
            if trace.wlevel is not None:
                break
        assert any(stop is not None and stop < len(trace.observations)
                   for stop in stops.values())

    @staticmethod
    def check_sweep(monkeypatch, tmp_path, noise_sd, plevel_source, share):
        """Every candidate's stop equals a full run's, and the sweep fits
        exactly each candidate's levels from its switch to its stop, in
        this process or in the helper it shares its candidates with."""
        log = generate(GeneratorSpec(
            truth=PowerLawCurve(2.0 * 5000.0 ** 0.85, 0.85, 99.3), levels=60,
            perturbations=drift_perturbations(60, 0.8, 0.15),
            noise_sd=noise_sd, seed=7))
        params = TraceParams(plevel_source=plevel_source)
        plain = LearningTrace.from_log(log, AnchoringStrategy.none(), params)
        base = LearningTrace.from_log(log, AnchoringStrategy.fixed(100.0),
                                      params, reference=plain)
        records = epsilon_sequence(base)
        tau = records[int(len(records) * share)].epsilon

        counted = count_fits(monkeypatch, tmp_path)
        result = find_optimal_look_ahead(log, params, tau, 100.0, 30,
                                         reference=plain)
        monkeypatch.undo()
        fits = counted()

        stops = {}
        for cand in result.candidates:
            full = LearningTrace.from_log(
                log, AnchoringStrategy.fixed_with_look_ahead(100.0,
                                                             cand.look_ahead),
                params, reference=plain)
            assert cand.clevel == threshold_level(epsilon_sequence(full),
                                                  tau, full.wlevel)
            stops[cand.look_ahead] = cand.clevel
        # the sweep's base takes every anchored fit from `base`, built on the
        # same log; a candidate fits only the levels from its switch (where
        # its anchor leaves beta) to its stop
        levels = [lv for lv in range(plain.wlevel + 1, len(log) + 1)
                  if lv not in plain.skipped]
        expected = 0
        for look, stop in stops.items():
            switch = base.plevel + look + 1
            end = len(log) if stop is None else stop
            expected += sum(1 for lv in levels if switch <= lv <= end)
        assert len(fits) == expected
        return log, stops


class TestDegenerateAndInvariants:
    def test_epsilon_arithmetic_on_analytic_pair(self):
        # last intersection of the analytic pair at y=9.9142; a trend with
        # asymptote 10.5 leaves a bound of |9.9142 - 10.5|
        c1 = PowerLawCurve(1.0, 1.0, 10.0)
        c2 = PowerLawCurve(2.0, 0.5, 10.5)
        out = intersect(c1, c2, 0.1)
        eps = abs(out.last[1] - c2.c)
        assert eps == pytest.approx(0.5858, abs=1e-4)

    def test_stalled_learner_carries_epsilon_forward(self):
        trace = fixed_trace(levels=25)
        levels = sorted(trace.anchored_trends)
        # a stalled learner repeats the previous trend exactly
        mid = levels[len(levels) // 2]
        trace._anchored_trends[mid] = trace.anchored_trends[levels[levels.index(mid) - 1]]
        records = epsilon_sequence(trace)
        rec = next(r for r in records if r.level == mid)
        prev = records[[r.level for r in records].index(mid) - 1]
        assert rec.is_rupture
        assert rec.q is None
        assert rec.epsilon == prev.epsilon

    def test_absolute_clevel_never_precedes_threshold_level(self):
        trace = fixed_trace(levels=35)
        entries = trace.backbone()
        gaps = sorted(abs(cur.alpha - prev.alpha)
                      for prev, cur in zip(entries, entries[1:]))
        tau_r = gaps[len(gaps) // 2]
        stop_r = clevel(trace, ProximityCondition("relative", tau_r))
        tau_a = normalize_threshold(trace, tau_r)
        records = epsilon_sequence(trace)
        iota = threshold_level(records, tau_a, trace.wlevel)
        stop_a = clevel(trace, ProximityCondition("absolute", tau_a))
        assert stop_a == iota
        assert stop_a <= stop_r
