"""One frozen digest of the whole pipeline: trace snapshots, epsilon
records, the look-ahead tuning and the frame rows of a 60-level drift
stream, clean and noisy, under both prediction-level sources.

The digest was generated at commit 039ca00; a refactor that keeps every
output bit for bit keeps it.  When a change moves an output on purpose,
print `pipeline_repr()` before and after it, diff the two, and re-pin the
digest with the reason in CHANGES.md.
"""
import hashlib

from convergema import (AnchoringStrategy, FrameSpec, GeneratorSpec,
                        LearningTrace, PowerLawCurve, TraceParams, build_frame,
                        drift_perturbations, epsilon_sequence,
                        find_optimal_look_ahead, generate)
from convergema.errors import ConvergemaError
from tests.conftest import BIT_PIN_NOTE

FROZEN_SHA256 = (
    "a9cc01a706493ac259882104aaa530009a93540cf18ad2558df2802221ee927a")


def pipeline_repr(noise_sd: float, plevel_source: str) -> str:
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
        frame_out = repr(exc)
    else:
        # every strategy has two runs, one per condition, on one trace
        frame_out = ([run.trace.snapshot() for run in frame.runs[::2]],
                     frame.rows())
    return repr((fixed.snapshot(), records, tuning, frame_out))


def test_pipeline_outputs_frozen():
    text = "".join(pipeline_repr(noise_sd, source)
                   for noise_sd in (0.0, 0.05)
                   for source in ("reference", "anchored"))
    assert (hashlib.sha256(text.encode()).hexdigest()
            == FROZEN_SHA256), BIT_PIN_NOTE
