import dataclasses
import errno
import operator
import os

import numpy as np
import pytest

from convergema import (AnchoringStrategy, BackboneEntry, DegenerateData,
                        FitProblem, FrameSpec, GeneratorSpec, Horizon,
                        LearningScheme, LearningTrace, Observation,
                        ObservationLog,
                        PowerLawCurve, ProximityCondition, TraceParams,
                        build_frame, clevel, convergence, drift_perturbations,
                        epsilon_sequence, find_optimal_look_ahead,
                        generate, prediction_level, traces,
                        verticality_threshold, working_level)
from tests.conftest import (SharedLog, build_trace, count_fits,
                            count_intersects, let_run_on,
                            watch_warm_ups)


def entries(levels, alphas, xs=None):
    xs = xs or [5000 * (i + 1) for i in range(len(levels))]
    return [BackboneEntry(level, alpha, x)
            for level, alpha, x in zip(levels, alphas, xs)]


class TestScheme:
    def test_uniform_positions(self):
        scheme = LearningScheme.uniform(5000, 5000)
        assert scheme.positions(4) == [5000, 10000, 15000, 20000]

    @pytest.mark.parametrize("kernel,step,name", [
        (0, 5000, "kernel"), (5000, 0, "step"), (-5000, 5000, "kernel"),
        (5000, -5000, "step")])
    def test_uniform_rejects_a_size_below_one(self, kernel, step, name):
        # refused as declared, not later as a step or a curve at x = 0
        with pytest.raises(ValueError, match=f"uniform scheme needs {name} >= 1"):
            LearningScheme.uniform(kernel, step)

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


    @pytest.mark.parametrize("sizes", [[1.5, 2.7, 3.9], [100, 200, 300.5],
                                       [100, 200, float("inf")],
                                       [100, float("nan"), 300]])
    def test_from_arrays_rejects_sizes_that_are_not_whole(self, sizes):
        with pytest.raises(ValueError, match="is not a whole number"):
            ObservationLog.from_arrays(sizes, [50.0, 55.0, 58.0])

    def test_from_arrays_rejects_arrays_of_unequal_length(self):
        with pytest.raises(ValueError, match="4 sizes but 3 accuracies"):
            ObservationLog.from_arrays([5000, 10000, 15000, 20000],
                                       [50.0, 55.0, 58.0])

    def test_from_arrays_takes_whole_float_sizes(self):
        log = ObservationLog.from_arrays(np.array([100.0, 200.0, 300.0]),
                                         [50.0, 55.0, 58.0])
        assert [o.x for o in log] == [100, 200, 300]
        assert all(type(o.x) is int for o in log)


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


    @pytest.mark.parametrize("nu,slowdown,look_ahead", [
        (0.0, 1, 5), (1.0, 1, 5), (2e-5, 0, 5), (2e-5, 1, -1)])
    def test_rejects_what_trace_params_reject(self, nu, slowdown, look_ahead):
        with pytest.raises(ValueError) as params:
            TraceParams(nu=nu, slowdown=slowdown, look_ahead=look_ahead)
        with pytest.raises(ValueError) as scan:
            working_level(entries(range(3, 12), [95.0] * 9), nu, slowdown,
                          look_ahead)
        assert str(scan.value) == str(params.value)


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
        del fixed._anchored_trends[level], fixed._anchors[level]
        fixed._skipped[level] = "no b in the profile scan gives a > 0"

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

    @pytest.mark.parametrize("strategy", ["none", "canonical", "fixed:100",
                                          "fixed:100+2", "fixed:101.5"])
    @pytest.mark.parametrize("plevel_source", ["reference", "anchored"])
    def test_plevel_anchored_is_the_first_anchored_level_under_the_ceiling(
            self, strategy, plevel_source):
        trace = build_trace(300.0, 0.6, 96.0, 14,
                            AnchoringStrategy.parse(strategy),
                            params=TraceParams(look_ahead=3,
                                               plevel_source=plevel_source))
        under = [lv for lv, fit in sorted(trace.anchored_trends.items())
                 if fit.curve.c <= 100.0]
        assert trace.plevel_anchored == (under[0] if under else None)

    def test_anchored_plevel_scans_each_level_once(self, monkeypatch):
        # a look-ahead anchor reads the anchored prediction level once per
        # level; on this noisy stream no anchored asymptote comes under the
        # ceiling, so each read finds none, yet a replay builds about as
        # many backbone entries as it has levels, not their square
        log = generate(GeneratorSpec(
            truth=PowerLawCurve(2.0 * 5000.0 ** 0.85, 0.85, 99.3), levels=180,
            perturbations=drift_perturbations(180, 0.8, 0.15), noise_sd=0.05,
            seed=7))
        built = []

        class Counted(BackboneEntry):
            def __init__(self, *args):
                built.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(traces, "BackboneEntry", Counted)
        strategy = AnchoringStrategy.fixed_with_look_ahead(105.0, 5)
        counts = {}
        for source in traces.PLEVEL_SOURCES:
            del built[:]
            trace = LearningTrace.from_log(log, strategy,
                                           TraceParams(plevel_source=source))
            anchored = trace.anchored_trends
            counts[source] = len(built)
        assert trace.plevel_anchored is None and len(anchored) > 150
        assert counts["anchored"] <= counts["reference"] + len(log)

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
        # the plain fits the replay read, up to the prediction level
        replayed = set(trace._reference_trends)
        assert replayed and max(replayed) < 10
        moved = dataclasses.replace(log.entries[10],
                                    accuracy=log.entries[10].accuracy + 0.2)
        # after the moved level, the reference's own observations again
        for obs in [moved] + log.entries[11:]:
            trace.extend(obs)
        # those are the reference's objects; every fit made after the
        # extension is the trace's own, equal to the reference's below the
        # moved level and to none above it
        for lv, fit in trace.reference_trends.items():
            assert (fit is ref.reference_trends[lv]) == (lv in replayed)
            assert (repr(fit) == repr(ref.reference_trends[lv])) == (lv <= 10)
        for lv, fit in trace.anchored_trends.items():
            assert fit is not ref.anchored_trends[lv]
            assert (repr(fit) == repr(ref.anchored_trends[lv])) == (lv <= 10)
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
        # the canonical backbone of this stream rises: no epsilon sequence
        folds = strategy.kind != "canonical"
        records = epsilon_sequence(full) if folds else None
        # a fold kept at the end of the replay resumes past it
        if folds and trace.wlevel is not None:
            assert epsilon_sequence(trace) == [
                rec for rec in records if rec.level <= prefix]
        for obs in log.entries[prefix:]:
            trace.extend(obs)
        assert trace.snapshot() == full.snapshot()
        if folds:
            assert epsilon_sequence(trace) == records


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

    def test_no_answer_reads_store_order(self):
        # on two CPUs a store holds the helper's entries after the caller's,
        # not in the order of one process; every answer looks its fits up
        # by key
        fixed = AnchoringStrategy.fixed(100.0)
        answers = {}
        for reverse in (False, True):
            log = self.stream()
            warm = study_sweep(log)
            study_frame(log, warm[0], study_strategies(warm[1].look_ahead))
            store = log._fit_store()
            entries = list(store.items())
            if reverse:
                store.clear()
                store.update(reversed(entries))
            plain, tuning = study_sweep(log)
            rows = study_frame(log, plain, study_strategies(tuning.look_ahead))
            snapshot = LearningTrace.from_log(log, fixed).snapshot()
            assert list(store.items()) == (list(reversed(entries)) if reverse
                                           else entries)
            answers[reverse] = tuning, rows, snapshot
        assert answers[True] == answers[False]


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
        # each level fitted once and stored under its key, whichever
        # process fitted it
        assert sorted(fits()) == [(level, None, 1.0)
                                  for level in range(3, len(log) + 1)]
        assert log._fit_store().keys() == {(level, None, None)
                                           for level in range(3, len(log) + 1)}

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

    @pytest.mark.parametrize("strategy", [
        AnchoringStrategy.fixed(100.0),
        AnchoringStrategy.fixed_with_look_ahead(100.0, 5)],
        ids=lambda s: s.spec_string())
    def test_replayed_stop_fits_up_to_its_stop(self, monkeypatch, tmp_path,
                                               strategy):
        # a replay fits no anchored level; each query fits the pending
        # anchored levels one at a time, up to its stop and no further
        trace = LearningTrace.from_log(self.stream(), strategy)
        fits = count_fits(monkeypatch, tmp_path)
        first = trace.wlevel + 1
        for tau in (0.6, 0.3):
            before = len(fits())
            stop = clevel(trace, ProximityCondition("absolute", tau))
            assert first < stop < len(trace.observations)
            made = fits()[before:]
            assert [key[0] for key in made] == list(range(first, stop + 1))
            first = stop + 1
        made = fits()
        anchors = trace.anchors     # a view fits the levels past the stop
        assert made == [(level, anchors[level], 1.0)
                        for level in range(trace.wlevel + 1, stop + 1)]

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
        # the replay reads the reference's fits up to the prediction level;
        # the deferred levels below the extension are fitted after it, in
        # the trace's own store: equal to the reference's, not its objects
        log = TestReferenceReuse.stream()
        fixed = AnchoringStrategy.fixed(100.0)
        ref = LearningTrace.from_log(log, fixed)
        trace = LearningTrace.from_log(ObservationLog(log.entries[:15]), fixed,
                                       reference=ref)
        assert trace.plevel_reference < 14
        replayed = set(trace._reference_trends)
        assert replayed and max(replayed) < 15
        moved = dataclasses.replace(log.entries[15],
                                    accuracy=log.entries[15].accuracy + 0.2)
        trace.extend(moved)
        assert trace._store is trace.observations._fit_store()
        theirs = ref.reference_trends
        for lv, fit in trace.reference_trends.items():
            assert (fit is theirs[lv]) == (lv in replayed)
            assert (repr(fit) == repr(theirs[lv])) == (lv <= 15)


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


def stored_reprs(log):
    """The `repr` of every fit in the store of `log`, by key."""
    return {key: repr(fit) for key, fit in log._fit_store().items()}


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
    """A batch of pending fits is one warm-up that this process shares with
    one forked helper; the store holds the same fit under each key as when
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
        every fit in its store, by key."""
        copy = ObservationLog(log.entries, log.scheme)
        snapshot = LearningTrace.from_log(copy, strategy).snapshot()
        return snapshot, stored_reprs(copy)

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

    def test_helper_fits_the_odd_jobs(self, monkeypatch, tmp_path):
        # the plain levels past the prediction level are one warm-up, one
        # job per level: this process fits jobs 0, 2, 4, ..., the helper
        # jobs 1, 3, 5, ..., and this process then finds the helper's fits
        # stored
        log = TestDeferredReference.stream()
        let_run_on(monkeypatch, 2)
        fits = count_fits(monkeypatch, tmp_path)
        trace = LearningTrace.from_log(log, AnchoringStrategy.none())
        jobs = [(level, None, 1.0)
                for level in range(trace._plain_level + 1, len(log) + 1)]
        helpers = []
        real_fork = os.fork

        def fork():
            helpers.append(real_fork())
            return helpers[-1]

        monkeypatch.setattr(os, "fork", fork)
        me, before = os.getpid(), len(fits())
        trace.reference_trends
        assert len(helpers) == 1 and len(jobs) >= 2
        assert fits(helpers[0]) == jobs[1::2]
        assert fits(me)[before:] == jobs[::2]

    @pytest.mark.parametrize("half", ["helper", "caller"])
    def test_error_is_raised_at_its_level(self, monkeypatch, tmp_path, half):
        log = TestDeferredReference.stream()
        probe = LearningTrace.from_log(ObservationLog(log.entries),
                                       AnchoringStrategy.none())
        # from_log leaves the plain levels past this one to a view, which
        # fits them as one warm-up, one job per level: the failing level's
        # job is odd (the helper's) or even (the caller's), and each side
        # fits its levels below it
        first = probe._plain_level + 1
        level = first + (11 if half == "helper" else 10)
        raised_on = SharedLog(tmp_path / "raised.log")
        real_fit = traces.fit

        def fails_at(problem):
            if len(problem.x) == level:
                raised_on.add(os.getpid())
                raise ValueError(f"injected at level {level}")
            return real_fit(problem)

        monkeypatch.setattr(traces, "fit", fails_at)
        stored, raisers = {}, {}
        for cpus in (1, 2):
            let_run_on(monkeypatch, cpus)
            copy = ObservationLog(log.entries, log.scheme)
            trace = LearningTrace.from_log(copy, AnchoringStrategy.none())
            before = len(raised_on.read())
            with pytest.raises(ValueError, match=f"at level {level}$"):
                trace.reference_trends
            raisers[cpus] = raised_on.read()[before:]
            stored[cpus] = stored_reprs(copy)
            assert (level, None, None) not in stored[cpus]
            assert sorted(trace._reference_trends) == list(range(3, level))
        # the levels below are stored with the one-process fits; the other
        # side has also stored its levels past the failing one
        below = {(lv, None, None) for lv in range(3, level)}
        assert stored[1].keys() == below
        assert {key: stored[2][key] for key in below} == stored[1]
        assert all(key[0] > level for key in stored[2].keys() - below)
        assert stored[2].keys() - below
        # the failing fit is made once in each process that meets it: on
        # two CPUs by the helper, then by the caller's walk in `run_jobs`,
        # or by the caller alone
        me = os.getpid()
        assert raisers[1] == [me]
        assert raisers[2][-1] == me
        assert len(raisers[2]) == (2 if half == "helper" else 1)
        assert (raisers[2][0] != me) == (half == "helper")

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

    def test_long_batch_is_shared(self, monkeypatch):
        # a batch of hundreds of pending levels is shared as one
        log = generate(GeneratorSpec(
            truth=PowerLawCurve(2.0 * 5000.0 ** 0.85, 0.85, 99.3), levels=300,
            seed=3))
        none = AnchoringStrategy.none()
        forks = self.cpus(monkeypatch, 1)
        alone, alone_fits = self.replay(log, none)
        forks = self.cpus(monkeypatch, 2)
        shared, shared_fits = self.replay(log, none)
        assert len(forks) == 1
        assert shared == alone
        assert shared_fits == alone_fits

    @pytest.mark.parametrize("strategy", STRATEGIES,
                             ids=lambda s: s.spec_string())
    def test_stored_batch_does_not_fork(self, monkeypatch, strategy):
        log = TestDeferredReference.stream()
        forks = self.cpus(monkeypatch, 2)
        kept = LearningTrace.from_log(log, strategy)   # keeps the store
        first = kept.snapshot()
        assert forks        # its batches were shared
        forks.clear()
        again = LearningTrace.from_log(log, strategy).snapshot()
        assert forks == []
        assert again == first

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

    @pytest.mark.parametrize("noise_sd", [0.0, 0.05], ids=["clean", "noisy"])
    def test_study_equals_one_process(self, monkeypatch, tmp_path, noise_sd):
        # noise makes the plain backbone rise, so the plain trace neither
        # stops nor normalises a frame's threshold: on the noisy stream the
        # sweep takes a given baseline and no frame is built
        clean = noise_sd == 0.0
        forks, _ = watch_warm_ups(monkeypatch, tmp_path)
        answers = {}
        for count in (1, 2):
            let_run_on(monkeypatch, count)
            before = len(forks())
            log = self.stream(noise_sd)
            plain, tuning = study_sweep(log, None if clean else 30)
            swept = forks()[before:]
            rows = (study_frame(log, plain, study_strategies(tuning.look_ahead))
                    if clean else None)
            # one fork per sweep and per frame, made by this process for
            # its warm-up; the batches the sweep reads first fork on their
            # own, and no warm-up forks inside another
            me = os.getpid()
            assert [fork for fork in swept if fork[1] != "batch"] == (
                [] if count == 1 else [(me, "sweep")])
            assert forks()[before + len(swept):] == (
                [(me, "frame")] if clean and count == 2 else [])
            answers[count] = tuning, rows
        assert answers[1] == answers[2]

    def test_study_store_equals_one_process(self, monkeypatch):
        stored = {}
        for count in (1, 2):
            let_run_on(monkeypatch, count)
            log = self.stream(0.0)
            plain, tuning = study_sweep(log)
            study_frame(log, plain, study_strategies(tuning.look_ahead))
            stored[count] = stored_reprs(log)
        assert stored[1] == stored[2]

    def test_no_fork_while_a_warm_up_runs(self, monkeypatch, tmp_path):
        # on a new log the frame's fixed:100 run has a batch of anchored
        # fits to make, which a helper would share were it not warming up
        forks, calls = watch_warm_ups(monkeypatch, tmp_path)
        rows = {}
        for count in (1, 2):
            let_run_on(monkeypatch, count)
            before = len(forks()), len(calls())
            log = self.stream(0.0)
            plain = LearningTrace.from_log(log, AnchoringStrategy.none())
            rows[count] = study_frame(log, plain, study_strategies(3))
            assert forks()[before[0]:] == ([] if count == 1 else
                                           [(os.getpid(), "batch"),
                                            (os.getpid(), "frame")])
            nested = [size for _, kind, size in calls()[before[1]:]
                      if kind == "nested"]
            assert (max(nested, default=0) >= 2) == (count == 2)
        assert rows[1] == rows[2]

    @pytest.mark.parametrize("side", ["helper", "caller"])
    @pytest.mark.parametrize("call", ["sweep", "frame"])
    def test_error_is_raised_as_one_process_raises(self, monkeypatch,
                                                   tmp_path, call, side):
        # the failing job is odd (the helper's) or even (the caller's): the
        # sweep's second or first look-ahead at its switch level, whose
        # anchor is the asymptote frozen at the level below, or the
        # frame's canonical run past its working level, after 'none' (which
        # fits nothing) and before or after fixed:100; no other job fits
        # that level with that anchor
        log = self.stream(0.0)
        plain, tuning = study_sweep(log)
        fixed = AnchoringStrategy.fixed(100.0)
        odd = side == "helper"
        if call == "sweep":
            looks = list(dict.fromkeys(c.look_ahead for c in tuning.candidates
                                       if c.look_ahead is not None))
            freeze = plain.plevel + looks[1 if odd else 0]
            level = freeze + 1
            frozen = LearningTrace.from_log(log, fixed).anchored_trends
            failing = lambda anchor: anchor == frozen[freeze].curve.c
        else:
            level = plain.wlevel + 5
            failing = lambda anchor: anchor not in (None, 100.0)
        strategies = ((AnchoringStrategy.none(), AnchoringStrategy.canonical(),
                       fixed) if odd else
                      (AnchoringStrategy.none(), fixed,
                       AnchoringStrategy.canonical()))
        raised_on = SharedLog(tmp_path / "raised.log")
        real_fit = traces.fit

        def fails_at(problem):
            if len(problem.x) == level and failing(problem.anchor):
                raised_on.add(os.getpid())
                raise ValueError(f"injected at level {level}")
            return real_fit(problem)

        monkeypatch.setattr(traces, "fit", fails_at)
        raisers = {}
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
        assert raisers[1] == [os.getpid()]
        # a helper that meets the error leaves its job to this process,
        # which meets it again in job order
        assert raisers[2][-1] == os.getpid()
        assert len(raisers[2]) == (2 if odd else 1)
        assert (raisers[2][0] != os.getpid()) == odd

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


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="the helper is forked only where affinity is known")
@pytest.mark.usefixtures("no_child_left")
class TestSharedCrossings:
    """The crossings a helper folds come back with its fits, so the two
    processes of a shared sweep or frame intersect each pair of curves once
    between them, and the crossings are those of one process."""

    @pytest.mark.parametrize("kind", ["sweep", "frame"])
    def test_processes_intersect_each_pair_once(self, monkeypatch, tmp_path,
                                                kind):
        counted = count_intersects(monkeypatch, tmp_path)
        mine = []       # the helper's appends stay in the helper
        shared_intersect = convergence.intersect

        def own(*args):
            mine.append(1)
            return shared_intersect(*args)

        monkeypatch.setattr(convergence, "intersect", own)
        # the helper runs the odd jobs of each warm-up, which the caller
        # then computes again from the store
        made, here, answers = {}, {}, {}
        for cpus in (1, 2):
            let_run_on(monkeypatch, cpus)
            log = TestWarmUp.stream(0.0)
            before, before_here = len(counted()), len(mine)
            plain, tuning = study_sweep(log)
            rows = (study_frame(log, plain,
                                study_strategies(tuning.look_ahead))
                    if kind == "frame" else None)
            made[cpus] = counted()[before:]
            here[cpus] = len(mine) - before_here
            answers[cpus] = tuning, rows
        assert answers[1] == answers[2]
        assert here[1] == len(made[1])
        assert len(set(made[2])) == len(made[2])
        assert sorted(made[2]) == sorted(made[1])
        assert here[2] < len(made[2])       # the helper intersected some
