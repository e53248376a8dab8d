import dataclasses

import numpy as np
import pytest

from convergema import (AnchoringStrategy, ConvergemaError, FrameSpec,
                        GeneratorSpec, Horizon, LearningTrace, Ordering,
                        PowerLawCurve, ProximityCondition, Run, TraceParams,
                        UnresolvedCLevel, accuracy, build_frame,
                        drift_perturbations, faster_than, MissingHorizon,
                        NotDecreasing, evaluation, generate, relative_cost)
from tests.conftest import (count_fits, let_run_on,
                            watch_warm_ups)


def make_run(clevel=None, strategy=None, trace=None, condition=None, tau=1.0):
    return Run(strategy=strategy or AnchoringStrategy.none(),
               condition=condition or ProximityCondition("absolute", tau),
               trace=trace, eval_tau=tau, clevel=clevel)


class TestRelativeCost:
    def test_table_rows(self):
        # printed two-decimal values from the published run tables
        assert round(relative_cost(make_run(100), make_run(58)), 2) == 1.72
        assert round(relative_cost(make_run(80), make_run(46)), 2) == 1.74
        assert relative_cost(make_run(58), make_run(58)) == 1.0

    def test_unresolved(self):
        with pytest.raises(UnresolvedCLevel):
            relative_cost(make_run(None), make_run(10))


class TestFasterThan:
    def test_orderings(self):
        a = [make_run(10), make_run(20)]
        b = [make_run(12), make_run(25)]
        assert faster_than(a, b) is Ordering.FASTER
        assert faster_than(b, a) is Ordering.SLOWER
        assert faster_than(a, a) is Ordering.EQUIVALENT
        mixed = [make_run(12), make_run(15)]
        assert faster_than(a, mixed) is None

    def test_reflexive_transitive(self):
        rng = np.random.default_rng(0)
        groups = [[make_run(int(v)) for v in rng.integers(5, 40, 4)]
                  for _ in range(5)]
        for g in groups:
            assert faster_than(g, g) is Ordering.EQUIVALENT
        for g1 in groups:
            for g2 in groups:
                for g3 in groups:
                    r12 = faster_than(g1, g2)
                    r23 = faster_than(g2, g3)
                    if r12 in (Ordering.FASTER, Ordering.EQUIVALENT) and \
                       r23 in (Ordering.FASTER, Ordering.EQUIVALENT):
                        assert faster_than(g1, g3) in (Ordering.FASTER,
                                                       Ordering.EQUIVALENT)


def synthetic_frame_log(levels=70, seed=5):
    pert = drift_perturbations(levels, 0.8, 0.15)
    spec = GeneratorSpec(truth=PowerLawCurve(2.0 * 5000.0 ** 0.85, 0.85, 99.3),
                         levels=levels, perturbations=pert, seed=seed)
    return generate(spec)


class TestAccuracy:
    def build(self):
        log = synthetic_frame_log()
        params = TraceParams()
        plain = LearningTrace.from_log(log, AnchoringStrategy.none(), params)
        horizon = Horizon.from_log(log)
        return log, params, plain, horizon

    def test_zero_when_any_divergence_exceeds_tau(self):
        log, params, plain, horizon = self.build()
        from convergema import epsilon_sequence
        records = epsilon_sequence(plain)
        tau = records[-1].epsilon * 1.5
        run = make_run(clevel=records[2].level, trace=plain, tau=tau)
        assert 0.0 < accuracy(run, horizon, "convergence") <= 100.0
        # an oracle whose asymptote lies a point higher: the asymptote pair
        # alone diverges by more than tau, in either mode
        limit = horizon.limit_trend
        lifted = Horizon(horizon.observations, dataclasses.replace(
            limit, curve=dataclasses.replace(limit.curve,
                                             c=limit.curve.c + 1.0)))
        assert abs(lifted.alpha_dinfty - plain.trends()[run.clevel].curve.c) > tau
        assert accuracy(run, lifted, "convergence") == 0.0
        assert accuracy(run, lifted, "error") == 0.0

    def test_ratio_form_and_modes(self):
        log, params, plain, horizon = self.build()
        from convergema import epsilon_sequence
        records = epsilon_sequence(plain)
        tau = records[len(records) // 2].epsilon
        stop = next(r.level for r in records if r.epsilon <= tau)
        run = make_run(clevel=stop, trace=plain, tau=tau)
        conv = accuracy(run, horizon, "convergence")
        err_raw = accuracy(run, horizon, "error", "raw")
        err_fit = accuracy(run, horizon, "error", "fitted")
        assert 0.0 <= conv <= 100.0
        assert 0.0 <= err_raw <= 100.0
        assert err_fit == pytest.approx(conv)  # fitted target == limit trend


class TestFrame:
    def test_build_and_rows(self):
        log = synthetic_frame_log()
        plain = LearningTrace.from_log(log, AnchoringStrategy.none(), TraceParams())
        entries = plain.backbone()
        gaps = sorted(abs(cur.alpha - prev.alpha)
                      for prev, cur in zip(entries, entries[1:]))
        tau_r = gaps[int(len(gaps) * 0.6)]
        spec = FrameSpec(tau_r=tau_r,
                         strategies=(AnchoringStrategy.none(),
                                     AnchoringStrategy.canonical(),
                                     AnchoringStrategy.fixed(100.0)),
                         conditions=("absolute", "relative"))
        frame = build_frame(log, spec)
        assert frame.baseline.strategy.kind == "none"
        assert frame.baseline.clevel is not None
        rows = frame.rows()
        assert len(rows) == 6
        by_key = {(r.strategy, r.condition): r for r in rows}
        base_row = by_key[(frame.baseline.strategy.spec_string(),
                           frame.baseline.condition.kind)]
        assert base_row.rc == 1.0
        for row in rows:
            if row.rc is not None:
                assert row.rc >= 1.0 - 1e-12
            if row.rp_c is not None:
                assert row.rp_c == pytest.approx(row.a_c / row.rc)
                assert 0.0 <= row.rp_c <= 100.0

    def test_single_baseline_run(self):
        log = synthetic_frame_log()
        plain = LearningTrace.from_log(log, AnchoringStrategy.none(), TraceParams())
        entries = plain.backbone()
        gaps = sorted(abs(cur.alpha - prev.alpha)
                      for prev, cur in zip(entries, entries[1:]))
        spec = FrameSpec(tau_r=gaps[int(len(gaps) * 0.6)],
                         strategies=(AnchoringStrategy.none(),),
                         conditions=("absolute",))
        frame = build_frame(log, spec)
        rows = frame.rows()
        assert len(rows) == 1
        assert rows[0].rc == 1.0
        assert rows[0].rp_c == rows[0].a_c

    def test_runs_keep_spec_order(self):
        # the two strategies anchored at beta 100 are one job of the frame,
        # and yet every run stands where the spec puts it, as it would in a
        # frame of its strategy alone
        log = synthetic_frame_log()
        texts = ("fixed:100+5", "none", "fixed:101", "canonical", "fixed:100")
        conditions = ("absolute", "relative")
        tau_r = 0.002
        rows = build_frame(log, FrameSpec(
            tau_r=tau_r, conditions=conditions,
            strategies=tuple(map(AnchoringStrategy.parse, texts)))).rows()
        assert [(r.strategy, r.condition) for r in rows] == [
            (text, kind) for text in texts for kind in conditions]
        for index, text in enumerate(texts):
            alone = build_frame(log, FrameSpec(
                tau_r=tau_r, conditions=conditions,
                strategies=(AnchoringStrategy.none(),
                            AnchoringStrategy.parse(text)))).rows()
            assert rows[2 * index:2 * index + 2] == alone[-2:]

    def test_run_that_raises_not_decreasing_is_noted(self, monkeypatch):
        # a canonical backbone that rises past omega + 1 (injected here)
        # makes the absolute run inapplicable: it stays in the frame, with
        # no stop and the reason in its note
        real = evaluation.clevel

        def clevel(trace, condition):
            if (trace.strategy.kind == "canonical"
                    and condition.kind == "absolute"):
                raise NotDecreasing("backbone rises at level 40")
            return real(trace, condition)

        monkeypatch.setattr(evaluation, "clevel", clevel)
        log = synthetic_frame_log()
        frame = build_frame(log, FrameSpec(
            tau_r=0.002, strategies=(AnchoringStrategy.none(),
                                     AnchoringStrategy.canonical())))
        rows = {(r.strategy, r.condition): r for r in frame.rows()}
        inapplicable = rows[("canonical", "absolute")]
        assert inapplicable.clevel is None
        assert inapplicable.note == "inapplicable: backbone rises at level 40"
        assert rows[("canonical", "relative")].note == ""
        assert frame.baseline.strategy.kind == "none"


def rising_log():
    """A stream whose anchor-free backbone rises at level 6."""
    return generate(GeneratorSpec(
        truth=PowerLawCurve(5 * 5000 ** 0.6, 0.6, 96.0), levels=60,
        perturbations=drift_perturbations(60, -1.0, 0.15), seed=0))


class TestRisingReference:
    """A frame whose anchor-free backbone rises has no absolute threshold:
    a relative-only frame, whose stops need none, is evaluated without
    one; a frame that asks for absolute runs raises as before."""

    STRATEGIES = (AnchoringStrategy.none(), AnchoringStrategy.fixed(100.0),
                  AnchoringStrategy.fixed_with_look_ahead(100.0, 5))

    def test_relative_runs_are_evaluated(self):
        frame = build_frame(rising_log(), FrameSpec(
            tau_r=0.0003, strategies=self.STRATEGIES,
            conditions=("relative",)))
        assert frame.tau_a is None
        assert [run.clevel for run in frame.runs] == [37, None, None]
        assert frame.baseline is frame.runs[0]
        rows = frame.rows()
        for row in rows:
            assert (row.condition, row.tau, row.note) == ("relative", 0.0003, "")
            assert row.a_c is row.a_e is row.rp_c is row.rp_e is None
            assert row.put is None
        assert rows[0].rc == 1.0 and rows[2].look_ahead == 5
        with pytest.raises(ConvergemaError, match="absolute threshold"):
            accuracy(frame.baseline, frame.horizon, "convergence")

    def test_absolute_runs_still_raise(self):
        with pytest.raises(NotDecreasing,
                           match="backbone rises by 1.787e-03 at level 6"):
            build_frame(rising_log(), FrameSpec(
                tau_r=0.0003, strategies=self.STRATEGIES))


class TestFrameFits:
    """`build_frame` checks its horizon before it fits anything, and fits
    each problem of its runs once."""

    # the evaluate frame of the study's 90 observations
    STRATEGIES = tuple(AnchoringStrategy.parse(text) for text in
                       ("none", "canonical", "fixed:100", "fixed:100+5"))

    def test_horizon_past_the_log_fits_nothing(self, monkeypatch, tmp_path):
        log = synthetic_frame_log(levels=90, seed=7)
        fits = count_fits(monkeypatch, tmp_path)
        with pytest.raises(MissingHorizon, match="length 1000 exceeds"):
            build_frame(log, FrameSpec(tau_r=0.0003,
                                       strategies=self.STRATEGIES,
                                       horizon_len=1000))
        assert fits() == []

    def test_frame_fits_each_problem_once(self, monkeypatch, tmp_path):
        # on one CPU, where no helper fits a problem this process fits too;
        # the horizon's fit is the plain trace's
        log = synthetic_frame_log(levels=90, seed=7)
        let_run_on(monkeypatch, 1)
        fits = count_fits(monkeypatch, tmp_path)
        build_frame(log, FrameSpec(tau_r=0.0003, strategies=self.STRATEGIES))
        assert len(fits()) == len(set(fits())) == 344

    @pytest.mark.parametrize("side", ["caller", "helper"])
    def test_frame_fits_each_problem_once_on_two_cpus(self, monkeypatch,
                                                      tmp_path, side):
        # the strategies anchored at beta are one job, the caller's (even)
        # or the helper's (odd); were fixed:100 and fixed:100+5 jobs of
        # their own, they would fall to both sides, and the second would fit
        # the beta levels below its switch again
        none, canonical, fixed, look_ahead = self.STRATEGIES
        strategies = (self.STRATEGIES if side == "caller" else
                      (none, fixed, look_ahead, canonical))
        log = synthetic_frame_log(levels=90, seed=7)
        let_run_on(monkeypatch, 2)
        fits = count_fits(monkeypatch, tmp_path)
        forks, _ = watch_warm_ups(monkeypatch, tmp_path)
        build_frame(log, FrameSpec(tau_r=0.0003, strategies=strategies))
        assert [kind for _, kind in forks()].count("frame") == 1
        assert len(fits()) == len(set(fits())) == 344


class TestFrameSpec:
    """A spec that a frame's runs would reject fails as it is built."""

    STRATEGIES = (AnchoringStrategy.none(), AnchoringStrategy.fixed(100.0))

    @pytest.mark.parametrize("conditions", [("bogus",),
                                            ("absolute", "Relative")])
    def test_unknown_condition_rejected(self, conditions):
        with pytest.raises(ValueError, match="condition kind must be"):
            FrameSpec(tau_r=0.1, strategies=self.STRATEGIES,
                      conditions=conditions)

    @pytest.mark.parametrize("tau_r", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_tau_r_rejected(self, tau_r):
        with pytest.raises(ValueError, match="tau must be finite and positive"):
            FrameSpec(tau_r=tau_r, strategies=self.STRATEGIES)

    def test_unknown_error_target_rejected(self):
        with pytest.raises(ValueError, match="error_target must be"):
            FrameSpec(tau_r=0.1, strategies=self.STRATEGIES,
                      error_target="bogus")

    def test_accepted_values_build(self):
        for target in ("raw", "fitted"):
            spec = FrameSpec(tau_r=0.1, strategies=self.STRATEGIES,
                             error_target=target)
            assert spec.conditions == ("absolute", "relative")


class TestHorizon:
    def test_limit_trend_and_alpha(self):
        log = synthetic_frame_log()
        horizon = Horizon.from_log(log, length=60)
        assert len(horizon.observations) == 60
        assert horizon.alpha_dinfty == horizon.limit_trend.curve.c

    def test_too_short(self):
        from convergema import MissingHorizon, ObservationLog, Observation
        log = ObservationLog([Observation(1, 100, 50.0), Observation(2, 200, 60.0)])
        with pytest.raises(MissingHorizon):
            Horizon.from_log(log)

    @pytest.mark.parametrize("length", [0, -5])
    def test_length_below_one_rejected(self, length):
        log = synthetic_frame_log()
        with pytest.raises(ValueError, match=f"at least 1, got {length}"):
            Horizon.from_log(log, length=length)

    def test_length_past_the_log_rejected(self):
        from convergema import MissingHorizon
        log = synthetic_frame_log()
        with pytest.raises(MissingHorizon,
                           match=f"length {len(log) + 1} exceeds the "
                                 f"{len(log)} observations"):
            Horizon.from_log(log, length=len(log) + 1)

    def test_full_length_is_the_whole_log(self):
        log = synthetic_frame_log()
        horizon = Horizon.from_log(log, length=len(log))
        whole = Horizon.from_log(log)
        assert horizon.observations.entries == whole.observations.entries
        assert horizon.limit_trend == whole.limit_trend
