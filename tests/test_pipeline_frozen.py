"""One frozen digest of the whole pipeline: trace snapshots, epsilon
records, the look-ahead tuning and the frame rows of a 60-level drift
stream, clean and noisy, under both prediction-level sources.

The digest was generated at commit 039ca00; a refactor that keeps every
output bit for bit keeps it.  When a change moves an output on purpose,
print `pipeline_repr(run_pipeline(...))` before and after it, diff the
two, and re-pin the digest with the reason in CHANGES.md.

The digest is compared only on the SIMD targets it was frozen on
(`pipeline_fixtures.FROZEN_ON`).  Everywhere, the values it covers are
compared with `pipeline_fixtures.VALUES` (`pipeline_values()` at commit
74c30bc): decisions, levels, counts and rupture flags exactly, every other
number within an allowance derived from the 1e-8 relative gate on an
asymptote (see CHANGES.md).
"""
import dataclasses
import hashlib
import math
import re

from convergema import (AnchoringStrategy, FrameSpec, GeneratorSpec,
                        LearningTrace, PowerLawCurve, TraceParams, build_frame,
                        drift_perturbations, epsilon_sequence,
                        find_optimal_look_ahead, generate)
from convergema.convergence import _epsilon_at
from convergema.curves import derivative
from convergema.errors import ConvergemaError
from tests import pipeline_fixtures
from tests.conftest import (BIT_PIN_NOTE, C_RTOL, assert_values_close,
                            bits_comparable, sse_allowance)

FROZEN_SHA256 = (
    "a9cc01a706493ac259882104aaa530009a93540cf18ad2558df2802221ee927a")

CONFIGS = [(noise_sd, source) for noise_sd in (0.0, 0.05)
           for source in ("reference", "anchored")]


@dataclasses.dataclass
class Pipeline:
    noise_sd: float
    plevel_source: str
    plain: LearningTrace
    fixed: LearningTrace
    records: list
    tau: float
    tuning: object
    frame: object           # the LocalTestingFrame, or the error it raised


def run_pipeline(noise_sd: float, plevel_source: str) -> Pipeline:
    log = generate(GeneratorSpec(
        truth=PowerLawCurve(2.0 * 5000.0 ** 0.85, 0.85, 99.3), levels=60,
        perturbations=drift_perturbations(60, 0.8, 0.15), noise_sd=noise_sd,
        seed=7))
    params = TraceParams(plevel_source=plevel_source)
    plain = LearningTrace.from_log(log, AnchoringStrategy.none(), params)
    fixed = LearningTrace.from_log(log, AnchoringStrategy.fixed(100.0), params,
                                   reference=plain)
    records = epsilon_sequence(fixed)
    tau = records[int(len(records) * 0.3)].epsilon
    tuning = find_optimal_look_ahead(log, params, tau, 100.0, 30,
                                     reference=plain)
    entries = plain.backbone()
    gaps = sorted(abs(cur.alpha - prev.alpha)
                  for prev, cur in zip(entries, entries[1:]))
    spec = FrameSpec(
        tau_r=gaps[int(len(gaps) * 0.6)],
        strategies=(AnchoringStrategy.none(), AnchoringStrategy.canonical(),
                    AnchoringStrategy.fixed(100.0),
                    AnchoringStrategy.fixed_with_look_ahead(
                        100.0, tuning.look_ahead)),
        params=params)
    try:
        frame = build_frame(log, spec)
    except ConvergemaError as exc:
        # the noisy plain backbone rises, so no absolute threshold can be
        # normalised on it; the error is the frame's output then
        frame = exc
    return Pipeline(noise_sd, plevel_source, plain, fixed, records, tau,
                    tuning, frame)


def pipeline_repr(run: Pipeline) -> str:
    if isinstance(run.frame, ConvergemaError):
        frame_out = repr(run.frame)
    else:
        # every strategy has two runs, one per condition, on one trace
        frame_out = ([r.trace.snapshot() for r in run.frame.runs[::2]],
                     run.frame.rows())
    return repr((run.fixed.snapshot(), run.records, run.tuning, frame_out))


class _Values(dict):
    """name -> (value, allowance), in the order first added; an allowance
    of None compares exactly.  A name added again must carry the same
    value: the fits and records two traces share are recorded once."""

    def add(self, name: str, value, allowance=None) -> None:
        if name in self:
            assert self[name][0] == value, name
        else:
            self[name] = (value, allowance)


def _asymptote_allowance(c: float) -> float:
    return C_RTOL * abs(c)


def _anchor_allowance(trace: LearningTrace, anchor: float) -> float:
    """beta itself is exact; any other anchor is a fitted asymptote."""
    return 0.0 if anchor == trace.strategy.beta else _asymptote_allowance(
        anchor)


def _add_trace(values: _Values, prefix: str, label: str,
               trace: LearningTrace) -> None:
    """A trace's levels exactly, and the asymptote and SSE of each fit.
    A fit is named by its problem where the anchor is exact, so the fits
    traces share are recorded once."""
    values.add(f"{label} levels", (trace.wlevel, trace.plevel_reference,
                                   trace.plevel_anchored))
    values.add(f"{label} skipped", dict(sorted(trace.skipped.items())))
    weight = trace.params.anchor_weight
    fits = [(level, None, fit)
            for level, fit in sorted(trace.reference_trends.items())]
    fits += [(level, trace.anchors[level], fit)
             for level, fit in sorted(trace.anchored_trends.items())]
    values.add(f"{label} fitted levels",
               (tuple(sorted(trace.reference_trends)),
                tuple(sorted(trace.anchored_trends))))
    ys = [obs.accuracy for obs in trace.observations]
    for level, anchor, fit in fits:
        if anchor is None:
            name = f"{prefix} L{level} plain"
        elif anchor == trace.strategy.beta:
            name = f"{prefix} L{level} anchor {anchor!r} weight {weight!r}"
        else:
            name = f"{label} L{level} anchored"
            values.add(f"{name} anchor", anchor,
                       _anchor_allowance(trace, anchor))
        c = fit.curve.c
        values.add(f"{name} c", c, _asymptote_allowance(c))
        anchor_allowance = (None if anchor is None
                            else _anchor_allowance(trace, anchor))
        values.add(f"{name} sse", fit.sse, sse_allowance(
            ys[:level], fit.sse, c, anchor, weight, anchor_allowance or 0.0))
        if anchor is not None:
            values.add(f"{name} residual at infinity",
                       fit.residual_at_infinity,
                       anchor_allowance + _asymptote_allowance(c))


def epsilon_allowances(trace: LearningTrace, records) -> dict:
    """epsilon -> (kappa_ref, dx, dy, allowance) of each record with a
    crossing q of the trace's trends c1 (the level below) and c2.

    Let each curve move by at most delta = 1e-8 * max(|c1|, |c2|), as its
    asymptote may.  The crossing then moves by dx <= 2 delta / |c1' - c2'|
    at q_x, and q_y = c1(q_x) by dy <= kappa_ref * delta, with kappa_ref =
    1 + 2 |c1'| / |c1' - c2'|; epsilon = |q_y - c2.c| moves by at most
    (kappa_ref + 1) * delta.  A record without a crossing carries an
    epsilon forward, so it is looked up by value."""
    trends = trace.trends()
    levels = sorted(trends)
    out = {}
    for rec in records:
        if rec.q is None:
            continue
        c1 = trends[levels[levels.index(rec.level) - 1]].curve
        c2 = trends[rec.level].curve
        slope = derivative(c1, rec.q[0])
        apart = abs(slope - derivative(c2, rec.q[0]))
        kappa = 1.0 + 2.0 * abs(slope) / apart
        delta = C_RTOL * max(abs(c1.c), abs(c2.c))
        out.setdefault(rec.epsilon, (kappa, 2.0 * delta / apart,
                                     kappa * delta, (kappa + 1.0) * delta))
    return out


def _epsilon_allowance(allowances: dict, epsilon: float) -> float:
    """The allowance of an epsilon; one carried from before the first
    crossing is the constant 0.0."""
    return allowances[epsilon][3] if epsilon else 0.0


def _put_allowance(put: float, records, allowances: dict, tau: float,
                   tau_allowance: float, level: int, plevel: int):
    """PUT = 100 (d - tau) / (d0 - tau), with d the epsilon at `level` and
    d0 the one at plevel + 2, to first order in the moves of d, d0 and
    tau; a PUT of 0.0 is a decision (d < tau, or d0 <= tau), kept exact."""
    if put == 0.0:
        return None
    here = _epsilon_at(records, level)
    base = _epsilon_at(records, plevel + 2)
    span = base - tau
    return (100.0 * (_epsilon_allowance(allowances, here) + tau_allowance)
            + put * (_epsilon_allowance(allowances, base) + tau_allowance)
            ) / span


def _add_rows(values: _Values, prefix: str, run: Pipeline,
              tau_r_allowance: float) -> None:
    """The frame's rows: every decision exactly; each threshold within the
    allowance of the epsilon or backbone gap it is; PUT as above; and each
    accuracy, 100 w / tau for the worst divergence w of two curves (or of
    one curve and an observation), within 100 (2 delta + A w / tau) / tau
    to first order, where A is tau's allowance."""
    frame = run.frame
    plain_records = epsilon_sequence(frame.runs[0].trace)
    tau_a_allowance = _epsilon_allowance(
        epsilon_allowances(frame.runs[0].trace, plain_records), frame.tau_a)
    limit = frame.horizon.limit_trend.curve.c
    for i, (row, r) in enumerate(zip(frame.rows(), frame.runs)):
        name = f"{prefix} row {i}"
        values.add(f"{name} decisions", (row.strategy, row.condition,
                                         row.plevel, row.clevel, row.rc,
                                         row.look_ahead, row.note))
        tau_allowance = (tau_a_allowance if row.condition == "absolute"
                         else tau_r_allowance)
        values.add(f"{name} tau", row.tau, tau_allowance)
        for field in ("a_c", "a_e"):
            got = getattr(row, field)
            allowance = None
            if got:
                trend = r.trace.trends()[r.clevel].curve.c
                delta = C_RTOL * max(abs(trend), abs(limit))
                allowance = 100.0 * (2.0 * delta + tau_a_allowance * got
                                     / 100.0) / frame.tau_a
            values.add(f"{name} {field}", got, allowance)
            rp = getattr(row, "rp" + field[1:])
            values.add(f"{name} rp{field[1:]}", rp,
                       None if allowance is None else allowance / row.rc)
        put = None
        if row.put is not None:
            records = epsilon_sequence(r.trace)
            put = _put_allowance(row.put, records,
                                 epsilon_allowances(r.trace, records),
                                 frame.tau_a, tau_a_allowance,
                                 r.plevel + row.look_ahead, r.plevel)
        values.add(f"{name} put", row.put, put)


def pipeline_values(runs) -> list:
    """(name, value, allowance) of the outputs `pipeline_repr` covers on
    each of `runs`.  The runs on one stream share their fits and the fixed
    trace's records, which are recorded once."""
    values = _Values()
    for run in runs:
        _add_run(values, run)
    return [(name, value, allowance)
            for name, (value, allowance) in values.items()]


def _add_run(values: _Values, run: Pipeline) -> None:
    prefix = f"noise {run.noise_sd!r}"
    config = f"{prefix} {run.plevel_source}"
    _add_trace(values, prefix, f"{config} fixed", run.fixed)
    allowances = epsilon_allowances(run.fixed, run.records)
    for rec in run.records:
        name = f"{prefix} epsilon L{rec.level}"
        values.add(f"{name} rupture, crossing", (rec.is_rupture,
                                                  rec.q is not None))
        values.add(name, rec.epsilon,
                   _epsilon_allowance(allowances, rec.epsilon))
        if rec.q is not None:
            kappa, dx, dy, _ = allowances[rec.epsilon]
            values.add(f"{name} kappa_ref", kappa, math.inf)
            values.add(f"{name} q_x", rec.q[0], dx)
            values.add(f"{name} q_y", rec.q[1], dy)

    tuning = run.tuning
    values.add(f"{config} tuning", (
        tuning.look_ahead, tuning.zeta, tuning.rc,
        tuple(dataclasses.astuple(c) for c in tuning.candidates)))
    plevel = run.fixed.plevel
    values.add(f"{config} tuning put_at_switch", tuning.put_at_switch,
               _put_allowance(tuning.put_at_switch, run.records, allowances,
                              run.tau, _epsilon_allowance(allowances, run.tau),
                              plevel + tuning.look_ahead, plevel))

    alphas = [entry.alpha for entry in run.plain.backbone()]
    # a backbone gap is the difference of two asymptotes
    gap_allowance = 2.0 * C_RTOL * max(map(abs, alphas))
    if isinstance(run.frame, ConvergemaError):
        # the message prints the rise, a backbone gap, to four digits
        text = repr(run.frame)
        rise = re.search(r"\d\.\d{3}e[-+]\d+", text)
        values.add(f"{config} frame error", text.replace(rise[0], "{rise}"))
        printed = float(rise[0])
        values.add(f"{config} frame error rise", printed, gap_allowance
                   + 10.0 ** (math.floor(math.log10(printed)) - 3))
    else:
        for r in run.frame.runs[::2]:
            _add_trace(values, prefix,
                       f"{config} frame {r.strategy.spec_string()}", r.trace)
        _add_rows(values, config, run, gap_allowance)


def test_pipeline_outputs_frozen():
    runs = [run_pipeline(noise_sd, source) for noise_sd, source in CONFIGS]
    text = "".join(pipeline_repr(run) for run in runs)
    assert_values_close(pipeline_values(runs), pipeline_fixtures.VALUES)
    if bits_comparable(pipeline_fixtures.FROZEN_ON):
        assert (hashlib.sha256(text.encode()).hexdigest()
                == FROZEN_SHA256), BIT_PIN_NOTE
