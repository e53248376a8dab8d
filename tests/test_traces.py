import dataclasses
import errno
import operator
import os
import select

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convergema import (AnchoringStrategy, BackboneEntry, DegenerateData,
                        FitProblem, FrameSpec, GeneratorSpec, Horizon,
                        LearningScheme, LearningTrace, Observation,
                        ObservationLog,
                        PowerLawCurve, ProximityCondition, TraceParams,
                        build_frame, clevel, drift_perturbations,
                        epsilon_sequence, find_optimal_look_ahead,
                        generate, normalized_slope, prediction_level, traces,
                        verticality_threshold, working_level)
from tests.conftest import SharedLog, build_trace, count_fits


def entries(levels, alphas, xs=None):
    xs = xs or [5000 * (i + 1) for i in range(len(levels))]
    return [BackboneEntry(level, alpha, x)
            for level, alpha, x in zip(levels, alphas, xs)]


class TestScheme:
    def test_uniform_positions(self):
        scheme = LearningScheme.uniform(5000, 5000)
        assert scheme.positions(4) == [5000, 10000, 15000, 20000]

    def test_custom_step(self):
        scheme = LearningScheme(kernel_size=100, step=lambda i: 10 * i)
        assert scheme.positions(3) == [100, 120, 150]

    def test_log_checks_scheme(self):
        log = ObservationLog(scheme=LearningScheme.uniform(100, 50))
        log.append(Observation(1, 100, 50.0))
        with pytest.raises(ValueError):
            log.append(Observation(2, 145, 51.0))

    @pytest.mark.parametrize("bad_step", [0, -10])
    def test_log_rejects_non_positive_step(self, bad_step):
        scheme = LearningScheme(kernel_size=100,
                                step=lambda i: bad_step if i == 3 else 10)
        log = ObservationLog(scheme=scheme)
        log.append(Observation(1, 100, 50.0))
        log.append(Observation(2, 110, 51.0))
        with pytest.raises(ValueError, match="step function must be positive"):
            log.append(Observation(3, 120, 52.0))
        assert len(log) == 2

    def test_log_follows_positions_one_step_per_append(self):
        calls = []

        def step(i):
            calls.append(i)
            return 10 * i

        scheme = LearningScheme(kernel_size=100, step=step)
        sizes = scheme.positions(40)
        calls.clear()
        log = ObservationLog.from_arrays(sizes, [50.0 + 0.1 * i
                                                 for i in range(40)],
                                         scheme=scheme)
        assert [o.x for o in log] == sizes
        assert calls == list(range(2, 41))
        with pytest.raises(ValueError, match=f"expected {sizes[-1] + 410}"):
            log.append(Observation(41, sizes[-1] + 400, 55.0))


class TestObservationLog:
    def test_contiguous_levels(self):
        log = ObservationLog()
        log.append(Observation(1, 100, 50.0))
        with pytest.raises(ValueError):
            log.append(Observation(3, 200, 55.0))

    def test_rejects_bad_accuracy(self):
        log = ObservationLog()
        with pytest.raises(ValueError):
            log.append(Observation(1, 100, 0.0))
        with pytest.raises(ValueError):
            log.append(Observation(1, 100, 100.5))

    def test_problem_equals_from_arrays(self):
        log = ObservationLog.from_arrays([100, 200, 300, 400],
                                         [50.0, np.float64(55.5), 58, 60.25])
        for level in (3, 4):
            sub = log.entries[:level]
            for anchor, weight in ((None, 1.0), (np.float64(99.5), 2)):
                want = FitProblem.from_arrays(
                    [o.x for o in sub], [o.accuracy for o in sub],
                    anchor=anchor, anchor_weight=weight)
                got = log.problem(level, anchor, weight)
                assert got == want and repr(got) == repr(want)


class TestNormalizedSlope:
    def test_examples(self):
        assert normalized_slope(0.0) == 0.0
        assert normalized_slope(1.0) == 0.5
        nu = 2e-5
        assert normalized_slope(nu / (1.0 - nu)) == pytest.approx(nu, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalized_slope(-1e-9)

    @given(st.floats(0, 1e12), st.floats(0, 1e12))
    @settings(max_examples=200, deadline=None)
    def test_monotone_bounded(self, s1, s2):
        n1, n2 = normalized_slope(s1), normalized_slope(s2)
        assert 0.0 <= n1 < 1.0
        if s1 < s2:
            assert n1 < n2


class TestWorkingLevel:
    def test_threshold_value(self):
        # nu=2e-5, slowdown 1: nu/(1-nu)
        assert verticality_threshold(2e-5, 1) == pytest.approx(2.000040000800016e-05)

    def test_constant_backbone(self):
        bb = entries(range(3, 12), [95.0] * 9)
        assert working_level(bb, 2e-5, 1, 5) == 3

    def test_spike_pushes_window(self):
        # slope spike at an entry inside the first windows: the working level
        # is the first index whose full look-ahead window clears the spike
        alphas = [95.0] * 10
        alphas[1] = 95.0 + 5000 * 1e-3  # slope 1e-3 on both sides of entry 1
        bb = entries(range(3, 13), alphas)
        assert working_level(bb, 2e-5, 1, 2) == bb[2].level

    def test_window_not_yet_observable(self):
        bb = entries(range(3, 8), [95.0] * 5)
        assert working_level(bb, 2e-5, 1, 5) is None

    def test_monotone_in_nu(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            alphas = 95.0 + np.cumsum(rng.normal(0, 0.05, 20)) * rng.uniform(0, 1)
            bb = entries(range(3, 23), list(alphas))
            previous = None
            for nu in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
                level = working_level(bb, nu, 1, 3)
                if previous is not None and level is not None and previous is not None:
                    assert previous is None or level <= previous
                previous = level if level is not None else previous


class TestPredictionLevel:
    def test_all_below_ceiling(self):
        bb = entries(range(3, 10), [95.0] * 7)
        assert prediction_level(bb, 3) == 3

    def test_first_below_after_omega(self):
        bb = entries(range(3, 8), [102.0, 101.0, 99.5, 99.0, 98.9])
        assert prediction_level(bb, 4) == 5

    def test_none_when_all_above(self):
        bb = entries(range(3, 8), [102.0] * 5)
        assert prediction_level(bb, 3) is None


class TestTraceBuilding:
    def test_exact_fit_recovery(self):
        trace = build_trace(2.0, 0.5, 95.0, 3, AnchoringStrategy.none())
        assert trace.reference_backbone()[0].alpha == pytest.approx(95.0, abs=1e-9)

    def test_noiseless_backbone_constant(self):
        trace = build_trace(2.0, 0.5, 95.0, 20, AnchoringStrategy.none())
        alphas = [e.alpha for e in trace.reference_backbone()]
        assert max(abs(a - 95.0) for a in alphas) < 1e-8
        assert trace.wlevel == 3

    def test_fixed_anchored_backbone(self):
        trace = build_trace(2.0, 0.5, 95.0, 10, AnchoringStrategy.fixed(100.0),
                            params=TraceParams(look_ahead=3))
        assert trace.wlevel == 3
        anchored = trace.backbone()
        assert anchored[0].level == trace.wlevel + 1
        values = [e.alpha for e in anchored]
        assert all(95.0 < v <= 100.0 for v in values)
        assert all(b - a <= 1e-9 for a, b in zip(values, values[1:]))

    def test_level_gap_rejected(self):
        trace = LearningTrace(AnchoringStrategy.none())
        trace.extend(Observation(1, 5000, 80.0))
        with pytest.raises(ValueError):
            trace.extend(Observation(3, 15000, 85.0))

    def test_replay_equals_incremental(self):
        spec = GeneratorSpec(truth=PowerLawCurve(300.0, 0.6, 96.0), levels=18,
                             noise_sd=0.01, seed=4)
        log = generate(spec)
        incremental = LearningTrace(AnchoringStrategy.fixed(100.0))
        for obs in log:
            incremental.extend(obs)
        replayed = LearningTrace.from_log(log, AnchoringStrategy.fixed(100.0))
        assert incremental.snapshot() == replayed.snapshot()

    def test_reference_sharing(self):
        spec = GeneratorSpec(truth=PowerLawCurve(300.0, 0.6, 96.0), levels=15,
                             noise_sd=0.005, seed=8)
        log = generate(spec)
        base = LearningTrace.from_log(log, AnchoringStrategy.none())
        shared = LearningTrace.from_log(log, AnchoringStrategy.fixed(100.0),
                                        reference=base)
        scratch = LearningTrace.from_log(log, AnchoringStrategy.fixed(100.0))
        assert shared.snapshot() == scratch.snapshot()

    @pytest.mark.parametrize("strategy", [
        AnchoringStrategy.none(), AnchoringStrategy.canonical(),
        AnchoringStrategy.fixed(100.0),
        AnchoringStrategy.fixed_with_look_ahead(100.0, 3)],
        ids=lambda s: s.spec_string())
    def test_anchored_reference_reuses_equal_anchors_only(self, strategy):
        spec = GeneratorSpec(truth=PowerLawCurve(300.0, 0.6, 96.0), levels=20,
                             noise_sd=0.005, seed=8)
        log = generate(spec)
        plain = LearningTrace.from_log(log, AnchoringStrategy.none())
        fixed = LearningTrace.from_log(log, AnchoringStrategy.fixed(100.0),
                                       reference=plain)
        # an anchored-fit skip at a level whose plain fit succeeded
        level = sorted(fixed.anchored_trends)[len(fixed.anchored_trends) // 2]
        assert level in plain.reference_trends
        del fixed.anchored_trends[level], fixed.anchors[level]
        fixed.skipped[level] = "no b in the profile scan gives a > 0"

        shared = LearningTrace.from_log(log, strategy, reference=fixed)
        expected = LearningTrace.from_log(log, strategy, reference=plain)
        assert shared.snapshot() == expected.snapshot()
        assert all(shared.reference_trends[lv] is fit
                   for lv, fit in plain.reference_trends.items())
        same = [lv for lv, anchor in shared.anchors.items()
                if fixed.anchors.get(lv) == anchor]
        assert all(shared.anchored_trends[lv] is fixed.anchored_trends[lv]
                   for lv in same)
        if strategy.kind in ("fixed", "fixed_look_ahead"):
            assert len(same) >= 3

    def test_plevel_sources(self):
        trace = build_trace(300.0, 0.6, 96.0, 14, AnchoringStrategy.fixed(100.0),
                            params=TraceParams(look_ahead=3))
        assert trace.plevel == trace.plevel_reference
        anchored_view = build_trace(300.0, 0.6, 96.0, 14,
                                    AnchoringStrategy.fixed(100.0),
                                    params=TraceParams(look_ahead=3,
                                                       plevel_source="anchored"))
        assert anchored_view.plevel == anchored_view.plevel_anchored

    def test_snapshot_round_trips_curves(self):
        import json
        trace = build_trace(2.0, 0.5, 95.0, 8, AnchoringStrategy.none())
        payload = json.loads(json.dumps(trace.snapshot()))
        for level, rec in payload["trends"].items():
            curve = trace.reference_trends[int(level)].curve
            assert rec["a"] == curve.a and rec["b"] == curve.b and rec["c"] == curve.c


class TestReferenceReuse:
    """A trace built with `reference=` takes over the fits the reference
    holds for the levels it replays; the levels it is extended by later
    are its own."""

    @staticmethod
    def stream(levels=20):
        return generate(GeneratorSpec(truth=PowerLawCurve(300.0, 0.6, 96.0),
                                      levels=levels, noise_sd=0.005, seed=8))

    def test_mismatched_reference_rejected(self):
        log = self.stream()
        ref = LearningTrace.from_log(ObservationLog(log.entries[:12]),
                                     AnchoringStrategy.fixed(100.0))
        fixed = AnchoringStrategy.fixed(100.0)
        with pytest.raises(ValueError):
            LearningTrace.from_log(ObservationLog(log.entries[:12]), fixed,
                                   TraceParams(look_ahead=3), reference=ref)
        moved = list(log.entries[:8])
        moved[5] = dataclasses.replace(moved[5], accuracy=moved[5].accuracy + 0.1)
        with pytest.raises(ValueError):
            LearningTrace.from_log(ObservationLog(moved), fixed, reference=ref)
        with pytest.raises(ValueError):    # longer than the reference
            LearningTrace.from_log(log, fixed, reference=ref)

    def test_diverging_extension_refits_from_there(self):
        log = self.stream()
        ref = LearningTrace.from_log(log, AnchoringStrategy.fixed(100.0))
        trace = LearningTrace.from_log(ObservationLog(log.entries[:10]),
                                       AnchoringStrategy.fixed(100.0),
                                       reference=ref)
        moved = dataclasses.replace(log.entries[10],
                                    accuracy=log.entries[10].accuracy + 0.2)
        # after the moved level, the reference's own observations again
        for obs in [moved] + log.entries[11:]:
            trace.extend(obs)
        for lv, fit in trace.reference_trends.items():
            assert (fit is ref.reference_trends[lv]) == (lv <= 10)
        for lv, fit in trace.anchored_trends.items():
            assert (fit is ref.anchored_trends[lv]) == (lv <= 10)
        scratch = LearningTrace.from_log(ObservationLog(trace.observations),
                                         AnchoringStrategy.fixed(100.0))
        assert trace.snapshot() == scratch.snapshot()

    @pytest.mark.parametrize("strategy", [
        AnchoringStrategy.canonical(), AnchoringStrategy.fixed(100.0),
        AnchoringStrategy.fixed_with_look_ahead(100.0, 3)],
        ids=lambda s: s.spec_string())
    @pytest.mark.parametrize("prefix", [0, 7, 14])
    def test_prefix_then_extend_equals_full_replay(self, strategy, prefix):
        log = self.stream()
        full = LearningTrace.from_log(log, strategy)
        # the reference covers 14 levels: the trace outruns it after that
        ref = LearningTrace.from_log(ObservationLog(log.entries[:14]),
                                     AnchoringStrategy.fixed(100.0))
        trace = LearningTrace.from_log(ObservationLog(log.entries[:prefix]),
                                       strategy, reference=ref)
        for obs in log.entries[prefix:]:
            trace.extend(obs)
        assert trace.snapshot() == full.snapshot()


class TestFitStore:
    """Every trace replayed on one log shares one store of fits, which lives
    only as long as a trace that uses it."""

    @staticmethod
    def stream():
        return generate(GeneratorSpec(
            truth=PowerLawCurve(2.0 * 5000.0 ** 0.85, 0.85, 99.3), levels=60,
            perturbations=drift_perturbations(60, 0.8, 0.15), seed=7))

    @staticmethod
    def fresh(log, strategy, params=TraceParams()):
        return LearningTrace.from_log(ObservationLog(log.entries, log.scheme),
                                      strategy, params).snapshot()

    def test_study_never_fits_a_problem_twice(self, monkeypatch, tmp_path):
        # on one CPU, and on two, where the helpers fit part of it
        fits = count_fits(monkeypatch, tmp_path)
        for cpus in (1, 2):
            log = self.stream()
            let_run_on(monkeypatch, cpus)
            before = len(fits())
            plain, tuning = study_sweep(log)
            study_frame(log, plain, study_strategies(tuning.look_ahead))
            keys = fits()[before:]
            assert len(keys) > len(log)
            assert len(keys) == len(set(keys))

    def test_store_dies_with_its_last_trace(self, monkeypatch, tmp_path):
        log = self.stream()
        fits = count_fits(monkeypatch, tmp_path)
        first = LearningTrace.from_log(log, AnchoringStrategy.fixed(100.0))
        snapshot = first.snapshot()     # a full view fits the deferred levels
        count = len(fits())
        again = LearningTrace.from_log(log, AnchoringStrategy.fixed(100.0))
        assert again.snapshot() == snapshot and len(fits()) == count
        del first, again
        LearningTrace.from_log(log, AnchoringStrategy.fixed(100.0)).snapshot()
        assert len(fits()) == 2 * count

    def test_horizon_takes_the_plain_trace_fit(self, monkeypatch):
        log = self.stream()
        plain = LearningTrace.from_log(log, AnchoringStrategy.none())
        trends = plain.reference_trends     # a view fits the deferred levels

        def no_fit(problem):
            raise AssertionError("the horizon refitted a stored problem")

        monkeypatch.setattr(traces, "fit", no_fit)
        assert Horizon.from_log(log).limit_trend is trends[60]
        assert Horizon.from_log(log, 30).limit_trend is trends[30]

    def test_horizon_on_a_stored_skip_still_raises(self):
        flat = ObservationLog.from_arrays([5000, 10000, 15000, 20000],
                                          [90.0] * 4)
        plain = LearningTrace.from_log(flat, AnchoringStrategy.none())
        assert sorted(plain.skipped) == [3, 4]
        with pytest.raises(DegenerateData):
            Horizon.from_log(flat)

    def test_anchor_weight_is_part_of_the_problem(self):
        log = self.stream()
        fixed = AnchoringStrategy.fixed(100.0)
        weights = [TraceParams(anchor_weight=w) for w in (1.0, 1.5)]
        shared = [LearningTrace.from_log(log, fixed, p) for p in weights]
        for trace, params in zip(shared, weights):
            assert trace.snapshot() == self.fresh(log, fixed, params)

    @pytest.mark.parametrize("how", ["differs", "outruns"])
    def test_leaving_the_log_keeps_its_store_clean(self, how):
        log = self.stream()
        fixed = AnchoringStrategy.fixed(100.0)
        if how == "differs":
            keeper = LearningTrace.from_log(log, AnchoringStrategy.none())
            trace = LearningTrace.from_log(ObservationLog(log.entries[:30]),
                                           fixed, reference=keeper)
            shared = log
        else:
            shared = ObservationLog(log.entries[:30])
            trace = LearningTrace.from_log(shared, fixed)
        for obs in log.entries[30:]:
            trace.extend(dataclasses.replace(obs, accuracy=obs.accuracy - 0.2))
        for obs in log.entries[len(shared):]:
            shared.append(obs)
        later = LearningTrace.from_log(shared, fixed)
        assert later.snapshot() == self.fresh(log, fixed)
        assert trace.snapshot() == self.fresh(trace.observations, fixed)


class TestDeferredReference:
    """Past the reference prediction level `extend` makes no fit, whatever
    the strategy; the deferred levels are fitted when a view reads them."""

    STRATEGIES = [AnchoringStrategy.none(), AnchoringStrategy.canonical(),
                  AnchoringStrategy.fixed(100.0),
                  AnchoringStrategy.fixed_with_look_ahead(100.0, 3)]

    @staticmethod
    def stream():
        return generate(GeneratorSpec(
            truth=PowerLawCurve(2.0 * 5000.0 ** 0.85, 0.85, 99.3), levels=60,
            noise_sd=0.05, perturbations=drift_perturbations(60, 0.8, 0.15),
            seed=3))

    def test_extend_fits_once_per_level(self, monkeypatch, tmp_path):
        fits = count_fits(monkeypatch, tmp_path)
        trace = LearningTrace(AnchoringStrategy.fixed(100.0))
        condition = ProximityCondition("absolute", 0.6)
        deferred = after = 0
        stop = None
        for obs in self.stream():
            resolved = trace.plevel_reference is not None
            before = len(fits())
            trace.extend(obs)
            if trace.wlevel is not None:
                decided, stop = stop, clevel(trace, condition)
                if decided is not None:
                    # the stop is final: no fit at all
                    assert stop == decided and fits()[before:] == []
                    after += 1
                elif resolved:
                    assert fits()[before:] == [(obs.level, 100.0, 1.0)]
                    deferred += 1
        assert deferred >= 20 and after >= 15
        trace.snapshot()
        # plain levels 3..60 and anchored levels wlevel+1..60, each once
        keys = fits()
        assert len(keys) == len(set(keys)) == 58 + 60 - trace.wlevel

    def test_plain_trace_defers_past_the_prediction_level(self, monkeypatch,
                                                          tmp_path):
        log = self.stream()
        online = LearningTrace(AnchoringStrategy.none())
        for obs in log:
            online.extend(obs)
            if online.plevel_reference is not None:
                break
        resolved = len(online.observations)     # the level that set it
        assert resolved < len(log) - 10
        fits = count_fits(monkeypatch, tmp_path)
        trace = LearningTrace.from_log(log, AnchoringStrategy.none())
        assert trace.plevel_reference == online.plevel_reference
        assert fits() == [(level, None, 1.0)
                          for level in range(3, resolved + 1)]
        trace.snapshot()
        # each level fitted once; the store records them in level order,
        # whichever process fitted them
        assert sorted(fits()) == [(level, None, 1.0)
                                  for level in range(3, len(log) + 1)]
        assert list(log._fit_store()) == [(level, None, None)
                                          for level in range(3, len(log) + 1)]

    @pytest.mark.parametrize("view", ["snapshot", "skipped", "anchors",
                                      "plevel_anchored"])
    @pytest.mark.parametrize("plevel_source", ["reference", "anchored"])
    @pytest.mark.parametrize("strategy", STRATEGIES[2:],
                             ids=lambda s: s.spec_string())
    def test_final_stop_defers_every_fit(self, monkeypatch, tmp_path,
                                         strategy, plevel_source, view):
        fits = count_fits(monkeypatch, tmp_path)
        params = TraceParams(plevel_source=plevel_source)
        condition = ProximityCondition("absolute", 0.6)
        trace = LearningTrace(strategy, params)
        stop = None
        after = 0
        for obs in self.stream():
            before = len(fits())
            trace.extend(obs)
            if stop is not None:
                assert clevel(trace, condition) == stop
                assert fits()[before:] == []
                after += 1
            elif trace.wlevel is not None:
                stop = clevel(trace, condition)
        assert after >= 15
        replay = LearningTrace.from_log(
            ObservationLog(trace.observations.entries), strategy, params)
        read = operator.attrgetter(view)
        if view == "snapshot":
            read = operator.methodcaller(view)
        assert read(trace) == read(replay)
        assert trace.snapshot() == replay.snapshot()
        assert trace.plevel == replay.plevel

    @pytest.mark.parametrize("strategy", STRATEGIES,
                             ids=lambda s: s.spec_string())
    def test_online_trace_equals_eager_one(self, strategy):
        log = self.stream()
        online, eager = LearningTrace(strategy), LearningTrace(strategy)
        for obs in log:
            online.extend(obs)
            eager.extend(obs)
            eager.skipped           # a full view after every observation
        assert online.plevel_reference is not None
        assert online.snapshot() == eager.snapshot()
        assert online.skipped == eager.skipped
        assert online.reference_trends == eager.reference_trends
        replay = LearningTrace.from_log(online.observations, strategy)
        replay.snapshot()
        assert replay.reference_trends.keys() == online.reference_trends.keys()
        assert all(replay.reference_trends[lv] is fit
                   for lv, fit in online.reference_trends.items())

    def test_degenerate_plain_fit_keeps_the_anchored_trend(self, monkeypatch):
        log = self.stream()
        fixed = AnchoringStrategy.fixed(100.0)
        base = LearningTrace.from_log(ObservationLog(log.entries), fixed)
        base.snapshot()                 # fit its deferred levels unpatched
        level = base.plevel_reference + 20
        real_fit = traces.fit

        def degenerate_at(problem):
            if len(problem.x) == level and problem.anchor is None:
                raise DegenerateData("no valid pattern here")
            return real_fit(problem)

        monkeypatch.setattr(traces, "fit", degenerate_at)
        trace = LearningTrace.from_log(log, fixed)
        assert base.skipped == {}
        assert trace.skipped == {level: "no valid pattern here"}
        assert level not in trace.reference_trends
        assert trace.anchored_trends == base.anchored_trends
        assert trace.anchors == base.anchors

    def test_replayed_levels_share_the_log_store(self):
        log = TestReferenceReuse.stream()
        fixed = AnchoringStrategy.fixed(100.0)
        ref = LearningTrace.from_log(log, fixed)
        trace = LearningTrace.from_log(ObservationLog(log.entries[:15]), fixed,
                                       reference=ref)
        assert trace.plevel_reference < 14
        moved = dataclasses.replace(log.entries[15],
                                    accuracy=log.entries[15].accuracy + 0.2)
        trace.extend(moved)
        for lv, fit in trace.reference_trends.items():
            assert (fit is ref.reference_trends[lv]) == (lv <= 15)


class TestParamsValidation:
    def test_ranges(self):
        with pytest.raises(ValueError):
            TraceParams(nu=0.0)
        with pytest.raises(ValueError):
            TraceParams(nu=1.0)
        with pytest.raises(ValueError):
            TraceParams(slowdown=0)
        with pytest.raises(ValueError):
            TraceParams(look_ahead=-1)
        with pytest.raises(ValueError):
            TraceParams(plevel_source="nowhere")
        for weight, message in [(float("nan"), "finite"),
                                (float("inf"), "finite"),
                                (0.0, "positive"), (-1.0, "positive")]:
            with pytest.raises(ValueError,
                               match=f"anchor_weight must be {message}"):
                TraceParams(anchor_weight=weight)


def test_degenerate_fit_skipped_not_raised(monkeypatch, tmp_path):
    # one plain fit and one anchored fit are degenerate; each level is
    # recorded as skipped with its reason and the replay carries on
    log = generate(GeneratorSpec(truth=PowerLawCurve(300.0, 0.6, 96.0),
                                 levels=15, noise_sd=0.005, seed=8))
    plain_level, anchored_level = 4, len(log)
    targets = {(plain_level, False), (anchored_level, True)}
    real_fit = traces.fit
    failed = SharedLog(tmp_path / "failed.log")    # a forked helper's too

    def degenerate_at(problem):
        key = (len(problem.x), problem.anchor is not None)
        if key in targets:
            failed.add(key)
            raise DegenerateData(f"degenerate {key}")
        return real_fit(problem)

    monkeypatch.setattr(traces, "fit", degenerate_at)
    trace = LearningTrace.from_log(log, AnchoringStrategy.fixed(100.0))
    skipped = trace.skipped     # a view fits the deferred levels
    assert set(failed.read()) == targets and len(failed.read()) == 2
    assert skipped == {plain_level: f"degenerate {(plain_level, False)}",
                       anchored_level: f"degenerate {(anchored_level, True)}"}
    assert plain_level not in trace.reference_trends
    assert anchored_level in trace.reference_trends
    assert anchored_level not in trace.anchored_trends
    assert anchored_level not in trace.anchors
    assert trace.wlevel is not None and trace.wlevel < anchored_level - 1
    assert anchored_level - 1 in trace.anchored_trends


def test_no_rising_basin_skips_the_level_by_name():
    # the study truth at noise sd 0.5: the first three accuracies rise and
    # fall (97.83, 99.08, 97.24), so no b in the scan gives a > 0; the
    # plain fit of level 3 is skipped by name, and the working, prediction
    # and convergence levels do not depend on it
    truth = PowerLawCurve(a=2.0 * 5000.0 ** 0.85, b=0.85, c=99.3)
    log = generate(GeneratorSpec(truth=truth, levels=120, noise_sd=0.5,
                                 seed=6))
    trace = LearningTrace.from_log(log, AnchoringStrategy.fixed(100.0))
    assert trace.skipped == {3: "no b in the profile scan gives a > 0"}
    assert 3 not in trace.reference_trends and 4 in trace.reference_trends
    assert (trace.wlevel, trace.plevel) == (26, 26)
    assert clevel(trace, ProximityCondition("absolute", 0.25)) == 56


def let_run_on(monkeypatch, count):
    """Let the process run on `count` CPUs, as `os.sched_getaffinity` says."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)))


def study_sweep(log, baseline=None):
    """The synthetic study's look-ahead sweep on `log`, after the study's
    fixed-anchor trace has read every level: (plain trace, TuningResult).
    The baseline clevel is the plain trace's stop, which needs a
    decreasing plain backbone, or else `baseline`."""
    params = TraceParams()
    plain = LearningTrace.from_log(log, AnchoringStrategy.none(), params)
    fixed = LearningTrace.from_log(log, AnchoringStrategy.fixed(100.0),
                                   params, reference=plain)
    records = epsilon_sequence(fixed)
    tau = records[int(len(records) * 0.3)].epsilon
    if baseline is None:
        baseline = clevel(plain, ProximityCondition("absolute", tau))
    return plain, find_optimal_look_ahead(log, params, tau, 100.0, baseline,
                                          reference=plain)


def study_strategies(look_ahead):
    """The strategies of the synthetic study's frame."""
    return (AnchoringStrategy.none(), AnchoringStrategy.canonical(),
            AnchoringStrategy.fixed(100.0),
            AnchoringStrategy.fixed_with_look_ahead(100.0, look_ahead))


def study_frame(log, plain, strategies):
    """The rows of a frame on `log` at the synthetic study's tau_r, read
    off the plain trace `plain`."""
    entries = plain.backbone()
    gaps = sorted(abs(cur.alpha - prev.alpha)
                  for prev, cur in zip(entries, entries[1:]))
    return build_frame(log, FrameSpec(tau_r=gaps[int(len(gaps) * 0.6)],
                                      strategies=strategies)).rows()


@pytest.fixture
def no_child_left():
    """After the test no child process is left, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="the helper is forked only where affinity is known")
@pytest.mark.usefixtures("no_child_left")
class TestTwoProcessFill:
    """A batch of pending fits is split between this process and one forked
    helper; the store records the same fits, in the same order, as when
    this process fits them all, and no helper outlives the call."""

    STRATEGIES = TestDeferredReference.STRATEGIES

    @staticmethod
    def cpus(monkeypatch, count):
        """Let the process run on `count` CPUs and count its forks."""
        let_run_on(monkeypatch, count)
        forks = []
        real_fork = os.fork

        def fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        return forks

    @staticmethod
    def replay(log, strategy):
        """The snapshot of a replay on a copy of `log`, and the `repr` of
        every fit in its store, in the order the store recorded them."""
        copy = ObservationLog(log.entries, log.scheme)
        snapshot = LearningTrace.from_log(copy, strategy).snapshot()
        return snapshot, [(key, repr(fit))
                          for key, fit in copy._fit_store().items()]

    @pytest.mark.parametrize("strategy", STRATEGIES,
                             ids=lambda s: s.spec_string())
    def test_helper_replay_equals_one_process(self, monkeypatch, strategy):
        log = TestDeferredReference.stream()
        forks = self.cpus(monkeypatch, 1)
        alone, alone_fits = self.replay(log, strategy)
        assert forks == []
        forks = self.cpus(monkeypatch, 2)
        shared, shared_fits = self.replay(log, strategy)
        # the plain levels past the prediction level are one batch, and
        # under fixed anchoring so are the anchored levels
        assert len(forks) == (2 if strategy.kind == "fixed" else 1)
        assert shared == alone
        assert shared_fits == alone_fits

    @pytest.mark.parametrize("half", ["helper", "caller"])
    def test_error_is_raised_at_its_level(self, monkeypatch, tmp_path, half):
        log = TestDeferredReference.stream()
        probe = LearningTrace.from_log(ObservationLog(log.entries),
                                       AnchoringStrategy.none())
        # from_log leaves the plain levels past this one to a view, which
        # fits them as one batch: the helper takes its odd positions, this
        # process the even ones
        first = probe._plain_level + 1
        level = first + 11 + (half == "caller")
        raised_on = SharedLog(tmp_path / "raised.log")
        real_fit = traces.fit

        def fails_at(problem):
            if len(problem.x) == level:
                raised_on.add(os.getpid())
                raise ValueError(f"injected at level {level}")
            return real_fit(problem)

        monkeypatch.setattr(traces, "fit", fails_at)
        stored = {}
        for cpus in (1, 2):
            self.cpus(monkeypatch, cpus)
            copy = ObservationLog(log.entries, log.scheme)
            trace = LearningTrace.from_log(copy, AnchoringStrategy.none())
            with pytest.raises(ValueError, match=f"at level {level}$"):
                trace.reference_trends
            stored[cpus] = [(key, repr(fit))
                            for key, fit in copy._fit_store().items()]
            assert [key for key, _ in stored[cpus]] == [
                (lv, None, None) for lv in range(3, level)]
            assert sorted(trace._reference_trends) == list(range(3, level))
        assert stored[1] == stored[2]
        pids = raised_on.read()
        assert pids[0] == os.getpid()
        assert (pids[1] != os.getpid()) == (half == "helper")

    @pytest.mark.parametrize("how", ["dies", "cannot start"])
    def test_failed_helper_gives_the_sequential_result(self, monkeypatch,
                                                       how):
        log = TestDeferredReference.stream()
        fixed = AnchoringStrategy.fixed(100.0)
        self.cpus(monkeypatch, 1)
        alone, alone_fits = self.replay(log, fixed)
        parent = os.getpid()
        real_fit = traces.fit

        def dies_in_helper(problem):
            if os.getpid() != parent:
                os._exit(1)
            return real_fit(problem)

        def no_process():
            forks.append(1)
            raise BlockingIOError(errno.EAGAIN, "no process to spare")

        monkeypatch.setattr(traces, "fit", dies_in_helper)
        forks = self.cpus(monkeypatch, 2)
        if how == "cannot start":
            monkeypatch.setattr(os, "fork", no_process)
        open_fds = len(os.listdir("/proc/self/fd"))
        shared, shared_fits = self.replay(log, fixed)
        assert len(os.listdir("/proc/self/fd")) == open_fds
        assert len(forks) == 2
        assert shared == alone and shared_fits == alone_fits

    @pytest.mark.parametrize("strategy", STRATEGIES,
                             ids=lambda s: s.spec_string())
    def test_monitor_never_forks(self, monkeypatch, strategy):
        forks = self.cpus(monkeypatch, 2)
        trace = LearningTrace(strategy)
        condition = ProximityCondition("absolute", 0.25)
        for obs in TestFitStore.stream():
            trace.extend(obs)
            if trace.wlevel is not None:
                clevel(trace, condition)
        assert trace.plevel_reference is not None
        assert forks == []


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="the helper is forked only where affinity is known")
@pytest.mark.usefixtures("no_child_left")
class TestWarmUp:
    """A sweep's candidates and a frame's strategies are jobs that this
    process shares with one forked helper, which warms the log's fit
    store; the answers are those of one process, bit for bit, and no
    helper outlives the call."""

    @staticmethod
    def stream(noise_sd):
        return generate(GeneratorSpec(
            truth=PowerLawCurve(2.0 * 5000.0 ** 0.85, 0.85, 99.3), levels=60,
            noise_sd=noise_sd, perturbations=drift_perturbations(60, 0.8, 0.15),
            seed=7))

    @staticmethod
    def cpus(monkeypatch, tmp_path, count):
        """Let the process run on `count` CPUs; the returned function reads
        back (pid, whether a warm-up ran) of each fork, by any process."""
        let_run_on(monkeypatch, count)
        made = SharedLog(tmp_path / f"forks-on-{count}.log")
        real_fork = os.fork

        def fork():
            made.add((os.getpid(), traces._warming))
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        return made.read

    @pytest.mark.parametrize("noise_sd", [0.0, 0.05], ids=["clean", "noisy"])
    def test_study_equals_one_process(self, monkeypatch, tmp_path, noise_sd):
        # noise makes the plain backbone rise, so the plain trace neither
        # stops nor normalises a frame's threshold: on the noisy stream the
        # sweep takes a given baseline and no frame is built
        clean = noise_sd == 0.0
        answers = {}
        for count in (1, 2):
            forks = self.cpus(monkeypatch, tmp_path, count)
            log = self.stream(noise_sd)
            plain, tuning = study_sweep(log, None if clean else 30)
            swept = forks()
            rows = (study_frame(log, plain, study_strategies(tuning.look_ahead))
                    if clean else None)
            # one fork per sweep and per frame, made by this process for
            # its warm-up; the batches the sweep reads first fork on their own
            warm = [] if count == 1 else [(os.getpid(), True)]
            assert [fork for fork in swept if fork[1]] == warm
            assert forks()[len(swept):] == (warm if clean else [])
            answers[count] = tuning, rows
        assert answers[1] == answers[2]

    def test_no_fork_while_a_warm_up_runs(self, monkeypatch, tmp_path):
        # on a new log the frame's fixed:100 run has a batch of anchored
        # fits to make, which a helper would split were it not warming up
        rows = {}
        for count in (1, 2):
            forks = self.cpus(monkeypatch, tmp_path, count)
            log = self.stream(0.0)
            plain = LearningTrace.from_log(log, AnchoringStrategy.none())
            rows[count] = study_frame(log, plain, study_strategies(3))
            assert forks() == ([] if count == 1 else
                               [(os.getpid(), False), (os.getpid(), True)])
        assert rows[1] == rows[2]

    @staticmethod
    def first_claim(monkeypatch, side):
        """Let `side` ("caller" or "helper") claim a warm-up's first jobs:
        the other side starts claiming once a fit is asked for while a
        warm-up runs.  Returns the pipe that signals it, to be closed."""
        go = os.pipe()
        real_fork, real_fit = os.fork, traces.fit

        def fork():
            pid = real_fork()
            if traces._warming and (pid == 0) == (side == "caller"):
                select.select([go[0]], [], [], 60)
            return pid

        def fit(problem):
            if traces._warming:
                os.write(go[1], b".")
            return real_fit(problem)

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(traces, "fit", fit)
        return go

    @pytest.mark.parametrize("side", ["helper", "caller"])
    @pytest.mark.parametrize("call", ["sweep", "frame"])
    def test_error_is_raised_as_one_process_raises(self, monkeypatch,
                                                   tmp_path, call, side):
        # the failing job is the first to fit: the sweep's smallest
        # look-ahead at its switch level, or the frame's canonical run (after
        # 'none', which fits nothing) past its working level; no other job
        # fits that level with an anchor other than beta
        log = self.stream(0.0)
        plain, tuning = study_sweep(log)
        if call == "sweep":
            look = next(c.look_ahead for c in tuning.candidates
                        if c.look_ahead is not None)
            level = plain.plevel + look + 1
        else:
            level = plain.wlevel + 5
        strategies = (AnchoringStrategy.none(), AnchoringStrategy.canonical(),
                      AnchoringStrategy.fixed(100.0))
        raised_on = SharedLog(tmp_path / "raised.log")
        real_fit = traces.fit

        def fails_at(problem):
            if len(problem.x) == level and problem.anchor not in (None, 100.0):
                raised_on.add(os.getpid())
                raise ValueError(f"injected at level {level}")
            return real_fit(problem)

        monkeypatch.setattr(traces, "fit", fails_at)
        go = self.first_claim(monkeypatch, side)
        raisers = {}
        try:
            for count in (1, 2):
                let_run_on(monkeypatch, count)
                copy = ObservationLog(log.entries, log.scheme)
                before = len(raised_on.read())
                with pytest.raises(ValueError, match=f"at level {level}$"):
                    if call == "sweep":
                        study_sweep(copy)
                    else:
                        study_frame(copy, LearningTrace.from_log(
                            copy, AnchoringStrategy.none()), strategies)
                raisers[count] = raised_on.read()[before:]
        finally:
            os.close(go[0])
            os.close(go[1])
        assert raisers[1] == [os.getpid()]
        # a helper that meets the error leaves its job to this process,
        # which meets it again in job order
        assert raisers[2][-1] == os.getpid()
        assert (len(raisers[2]) == 2) == (side == "helper")

    @pytest.mark.parametrize("how", ["dies", "cannot start"])
    def test_failed_helper_gives_the_one_process_result(self, monkeypatch,
                                                        how):
        log = self.stream(0.0)
        let_run_on(monkeypatch, 1)
        copy = ObservationLog(log.entries, log.scheme)
        plain, tuning = study_sweep(copy)
        alone = tuning, study_frame(copy, plain, study_strategies(3))
        copy = ObservationLog(log.entries, log.scheme)
        stored = LearningTrace.from_log(copy, AnchoringStrategy.fixed(100.0))
        stored.snapshot()       # the batches the sweep reads first
        parent = os.getpid()
        real_fit = traces.fit

        def dies_in_helper(problem):
            if os.getpid() != parent:
                os._exit(1)
            return real_fit(problem)

        def no_process():
            forks.append(1)
            raise BlockingIOError(errno.EAGAIN, "no process to spare")

        monkeypatch.setattr(traces, "fit", dies_in_helper)
        forks = TestTwoProcessFill.cpus(monkeypatch, 2)
        if how == "cannot start":
            monkeypatch.setattr(os, "fork", no_process)
        open_fds = len(os.listdir("/proc/self/fd"))
        plain, tuning = study_sweep(copy)
        shared = tuning, study_frame(copy, plain, study_strategies(3))
        assert len(os.listdir("/proc/self/fd")) == open_fds
        assert len(forks) == 2      # the sweep's warm-up and the frame's
        assert shared == alone
