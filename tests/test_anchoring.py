import numpy as np
import pytest

from convergema import (AnchoringStrategy, DegenerateData, MissingPLevel,
                        MissingWLevel, TraceParams, anchor_for_level,
                        drift_perturbations, traces, verify_sufficiency)
from tests.conftest import build_trace


class TestStrategyParsing:
    def test_grammar(self):
        assert AnchoringStrategy.parse("none").kind == "none"
        assert AnchoringStrategy.parse("canonical").kind == "canonical"
        fixed = AnchoringStrategy.parse("fixed:100")
        assert (fixed.kind, fixed.beta) == ("fixed", 100.0)
        look = AnchoringStrategy.parse("fixed:101.5+4")
        assert (look.kind, look.beta, look.look_ahead) == ("fixed_look_ahead", 101.5, 4)

    def test_round_trip(self):
        for text in ("none", "canonical", "fixed:100", "fixed:100.5+3"):
            assert AnchoringStrategy.parse(text).spec_string() == text

    def test_rejects(self):
        with pytest.raises(ValueError):
            AnchoringStrategy.parse("fixed:99")   # beta below the ceiling
        with pytest.raises(ValueError):
            AnchoringStrategy.parse("sticky")
        with pytest.raises(ValueError):
            AnchoringStrategy.fixed_with_look_ahead(100.0, -1)

    @pytest.mark.parametrize("text", ["fixed:nan", "fixed:inf",
                                      "fixed:1e400", "fixed:nan+3",
                                      "fixed:inf+3"])
    def test_rejects_non_finite_beta(self, text):
        with pytest.raises(ValueError, match="needs a finite beta"):
            AnchoringStrategy.parse(text)


class TestAnchorForLevel:
    def test_none_strategy(self):
        trace = build_trace(2.0, 0.5, 95.0, 10, AnchoringStrategy.none())
        assert anchor_for_level(AnchoringStrategy.none(), 7, trace) is None

    def test_fixed_constant(self):
        trace = build_trace(2.0, 0.5, 95.0, 12, AnchoringStrategy.fixed(100.0))
        for level in range(trace.wlevel + 1, 13):
            assert anchor_for_level(trace.strategy, level, trace) == 100.0
        assert anchor_for_level(trace.strategy, trace.wlevel, trace) is None

    def test_requires_wlevel(self):
        trace = build_trace(2.0, 0.5, 95.0, 4, AnchoringStrategy.fixed(100.0),
                            params=TraceParams(look_ahead=5))
        assert trace.wlevel is None
        with pytest.raises(MissingWLevel):
            anchor_for_level(trace.strategy, 4, trace)

    def test_canonical_seed_and_chain(self):
        trace = build_trace(300.0, 0.6, 96.0, 14, AnchoringStrategy.canonical())
        omega = trace.wlevel
        seed = trace.anchors[omega + 1]
        assert seed == pytest.approx(trace.reference_trends[omega].curve.c)
        for level in range(omega + 2, 15):
            assert trace.anchors[level] == pytest.approx(
                trace.anchored_trends[level - 1].curve.c)

    def test_look_ahead_switch(self):
        params = TraceParams(look_ahead=3)
        strategy = AnchoringStrategy.fixed_with_look_ahead(100.0, 2)
        trace = build_trace(300.0, 0.6, 96.0, 16, strategy, params=params)
        plevel = trace.plevel
        switch = plevel + 2 + 1
        frozen = trace.anchored_trends[plevel + 2].curve.c
        for level, anchor in trace.anchors.items():
            if level < switch:
                assert anchor == 100.0
            else:
                assert anchor == pytest.approx(frozen)

    def test_look_ahead_switch_past_the_trace_needs_the_plevel(self):
        # anchored at 150, no anchored asymptote is under the ceiling, so
        # the anchored prediction level stays unresolved: a level within
        # the trace keeps beta, one past it cannot be placed
        strategy = AnchoringStrategy.fixed_with_look_ahead(150.0, 2)
        trace = build_trace(300.0, 0.6, 96.0, 16, strategy,
                            params=TraceParams(plevel_source="anchored"))
        assert trace.wlevel is not None and trace.plevel is None
        assert anchor_for_level(strategy, 16, trace) == 150.0
        with pytest.raises(MissingPLevel, match="prediction level"):
            anchor_for_level(strategy, 17, trace)

    def test_degenerate_freeze_level_takes_the_latest_trend_below(
            self, monkeypatch):
        # the anchored fit at the freeze level plevel + L is degenerate
        # (injected), so the levels past the switch take the latest anchored
        # asymptote below it
        params = TraceParams(look_ahead=3)
        strategy = AnchoringStrategy.fixed_with_look_ahead(100.0, 2)
        base = build_trace(300.0, 0.6, 96.0, 16, strategy, params=params)
        freeze = base.plevel + 2
        unpatched = base.anchored_trends[freeze].curve.c
        real_fit = traces.fit

        def degenerate_at(problem):
            if len(problem.x) == freeze and problem.anchor is not None:
                raise DegenerateData("no valid pattern here")
            return real_fit(problem)

        monkeypatch.setattr(traces, "fit", degenerate_at)
        trace = build_trace(300.0, 0.6, 96.0, 16, strategy, params=params)
        assert trace.skipped == {freeze: "no valid pattern here"}
        assert freeze not in trace.anchored_trends
        below = max(lv for lv in trace.anchored_trends if lv < freeze)
        assert trace.wlevel < below == freeze - 1
        frozen = trace.anchored_trends[below].curve.c
        assert frozen != unpatched
        for level, anchor in trace.anchors.items():
            assert anchor == (100.0 if level <= freeze else frozen)
        assert min(trace.anchors) < freeze < max(trace.anchors)

    def test_null_look_ahead_matches_fixed_when_plevel_at_wlevel(self):
        # freeze level == wlevel has no anchored trend: the anchor keeps beta
        base = build_trace(300.0, 0.6, 96.0, 14, AnchoringStrategy.none())
        assert base.plevel_reference == base.wlevel
        fixed = build_trace(300.0, 0.6, 96.0, 14, AnchoringStrategy.fixed(100.0))
        null = build_trace(300.0, 0.6, 96.0, 14,
                           AnchoringStrategy.fixed_with_look_ahead(100.0, 0))
        assert fixed.snapshot()["backbone"] == null.snapshot()["backbone"]


class TestTheoremProperties:
    def test_fixed_backbone_monotone(self):
        rng = np.random.default_rng(11)
        for k in range(6):
            drop = rng.uniform(2, 25)
            b = rng.uniform(0.3, 0.9)
            c = rng.uniform(85, 99.3)
            trace = build_trace(drop * 5000.0 ** b, b, c, 22,
                                AnchoringStrategy.fixed(100.0),
                                noise_sd=rng.uniform(0, 1e-3),
                                seed=int(rng.integers(1 << 30)))
            values = [e.alpha for e in trace.backbone()]
            assert all(later - prior <= 1e-9
                       for prior, later in zip(values, values[1:]))

    def test_canonical_preserves_decreasing(self):
        pert = drift_perturbations(24, 2.0, 0.15)
        reference = build_trace(300.0, 0.6, 93.0, 24, AnchoringStrategy.none(),
                                perturbations=pert)
        ref_alphas = [e.alpha for e in reference.reference_backbone()]
        assert all(b - a <= 1e-9 for a, b in zip(ref_alphas, ref_alphas[1:]))
        canonical = build_trace(300.0, 0.6, 93.0, 24, AnchoringStrategy.canonical(),
                                perturbations=pert)
        values = {e.level: e.alpha for e in canonical.backbone()}
        ref = {e.level: e.alpha for e in canonical.reference_backbone()}
        ordered = [values[l] for l in sorted(values)]
        assert all(b - a <= 1e-9 for a, b in zip(ordered, ordered[1:]))
        assert all(values[l] >= ref[l] - 1e-9 for l in values)

    def test_residuals_at_infinity_nonnegative(self):
        trace = build_trace(300.0, 0.6, 96.0, 18, AnchoringStrategy.fixed(100.0),
                            noise_sd=5e-3, seed=3)
        for level, result in trace.anchored_trends.items():
            assert result.residual_at_infinity >= -1e-9


class TestVerifySufficiency:
    def test_fixed_all_pass(self):
        trace = build_trace(300.0, 0.6, 96.0, 18, AnchoringStrategy.fixed(100.0),
                            noise_sd=1e-3, seed=5)
        report = verify_sufficiency(trace)
        assert report.all_ok
        assert all(row.evolution_ok in (True, None) for row in report.rows)

    def test_canonical_on_decreasing_passes(self):
        pert = drift_perturbations(22, 1.5, 0.15)
        trace = build_trace(300.0, 0.6, 93.0, 22, AnchoringStrategy.canonical(),
                            perturbations=pert)
        assert verify_sufficiency(trace).all_ok

    def test_constructed_violation_fails(self):
        trace = build_trace(300.0, 0.6, 96.0, 18, AnchoringStrategy.fixed(100.0),
                            noise_sd=1e-3, seed=5)
        # push one anchor below the reference asymptote past plevel
        plevel = trace.plevel
        bad_level = max(trace.anchors)
        assert bad_level > plevel
        trace._anchors[bad_level] = trace.reference_trends[bad_level].curve.c - 1.0
        report = verify_sufficiency(trace)
        row = next(r for r in report.rows if r.level == bad_level)
        assert row.lower_required and row.lower_ok is False
        assert not report.all_ok

    def test_levels_before_plevel_reported_not_failed(self):
        pert = drift_perturbations(30, 15.0, 0.12)
        trace = build_trace(8 * 5000.0 ** 0.6, 0.6, 97.0, 30,
                            AnchoringStrategy.fixed(100.0), perturbations=pert)
        assert trace.plevel > trace.wlevel
        report = verify_sufficiency(trace)
        early = [r for r in report.rows
                 if trace.wlevel < r.level <= trace.plevel]
        assert early and all(not r.lower_required for r in early)
