"""Inputs, bodies and output checks of the three benchmark workloads.

Every program call goes through a module attribute (``convergence.clevel``,
``traces.LearningTrace.extend``, ...) so that the tracer's wrappers, when
installed, see the calls the benchmark makes.

Each workload turns one repetition into a flat ``{key: value}`` dict of
checked outputs.  Decisions and integers compare exactly; floats compare
within the tolerances below.  A value ``"raised:<Type>"`` marks a layer call
that raised something other than a ConvergemaError; it always counts as a
failure.  ``"error:<Type>"`` is a ConvergemaError the API returns as a
decision (for example MissingWLevel before the working level resolves).
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
import traceback
from pathlib import Path
from time import perf_counter

from convergema import anchoring, convergence, evaluation, io, synth, traces
from convergema.curves import PowerLawCurve
from convergema.errors import ConvergemaError

DEFAULT_SEED = 7
SNAPSHOT = Path(__file__).with_name("snapshot.json")

# The synthetic-study truth of scripts/run_synthetic_study.py and its drift.
TRUTH = PowerLawCurve(a=2.0 * 5000.0 ** 0.85, b=0.85, c=99.3)
DRIFT = (0.8, 0.15)

MONITOR_LEVELS, MONITOR_NOISE = 180, 0.05
STUDY_LEVELS, STUDY_NOISE = 90, 0.0
CLI_LEVELS, CLI_NOISE = 120, 0.05
# A fixed threshold, not one read off the stream: a tau equal to one of the
# stream's own epsilons puts the decision on a rounding tie, and the monitor
# (x_max = 1e3 * last size so far) and a full replay then disagree on it.
MONITOR_TAU = CLI_TAU = 0.25
BETA = 100.0

# Float tolerances, from the refactor gate "c agrees to <= 1e-8 relative".
# Asymptotes are at most the 100-point accuracy ceiling, so a value in
# accuracy points built from two of them (epsilon = |q_y - c|, alpha,
# anchors, tau picked from an epsilon) may move by 2 * 1e-8 * 100.
POINTS_ATOL = 2e-6
# Percentages of a threshold (A^c, A^e, RP, PUT) are 100 * (points) / tau,
# with a points difference in the numerator and, for PUT, in the
# denominator too: 100 * 2 * POINTS_ATOL / tau, for the smallest tau the
# percentages of a workload are taken against (see _percent_tau).
RTOL = 1e-8
FIELD_KIND = {
    "epsilon": "points", "tau": "points", "tau_a": "points",
    "tau_r": "points", "alpha": "points", "anchor": "points",
    "a_c": "percent", "a_e": "percent", "rp_c": "percent",
    "rp_e": "percent", "put": "percent",
}


def stream(levels: int, noise_sd: float, seed: int):
    """The study's drift stream, optionally with Gaussian noise."""
    spec = synth.GeneratorSpec(
        truth=TRUTH, levels=levels, noise_sd=noise_sd, seed=seed,
        perturbations=synth.drift_perturbations(levels, *DRIFT))
    return synth.generate(spec)


def digest(log) -> str:
    text = "".join(f"{o.level},{o.x},{o.accuracy!r}\n" for o in log)
    return hashlib.sha256(text.encode()).hexdigest()


def prepare(workload: str, seed: int, workdir: Path):
    """Set-up: the corpus of one workload (for the CLI, its input CSV)."""
    if workload == "monitor-noisy-180":
        return stream(MONITOR_LEVELS, MONITOR_NOISE, seed)
    if workload == "study-drift-90":
        return stream(STUDY_LEVELS, STUDY_NOISE, seed)
    if workload == "cli-analyze-cold":
        log = stream(CLI_LEVELS, CLI_NOISE, seed)
        workdir.mkdir(parents=True, exist_ok=True)
        io.write_observations(log, workdir / "obs.csv")
        return log
    raise ValueError(f"unknown workload {workload!r}")


def _raised(exc: Exception) -> str:
    """Log a layer defect and return the output marker that counts it."""
    traceback.print_exc(limit=3, file=sys.stderr)
    return f"raised:{type(exc).__name__}"


# -- monitor-noisy-180 -------------------------------------------------------

def monitor_pass(log, decisions: list) -> dict:
    """Closed loop: one observation in, one stop decision out.

    ``decisions`` gets the (start, end) perf_counter times of each."""
    trace = traces.LearningTrace(anchoring.AnchoringStrategy.fixed(BETA))
    condition = convergence.ProximityCondition("absolute", MONITOR_TAU)
    out = {}
    for obs in log:
        start = perf_counter()
        try:
            trace.extend(obs)
            decision = convergence.clevel(trace, condition)
        except ConvergemaError as exc:
            decision = f"error:{type(exc).__name__}"
        except Exception as exc:    # a layer defect: count it, keep going
            decision = _raised(exc)
        decisions.append((start, perf_counter()))
        out[f"decision.{obs.level}"] = decision
    out["wlevel"] = trace.wlevel
    out["plevel"] = trace.plevel
    return out


def monitor_replay_outputs(log) -> dict:
    """Cross-check without a snapshot: the per-level decisions a from_log
    replay of the whole stream implies.  Level k has a decision once the
    working level is observable on the first k backbone entries; it is then
    the threshold level among the epsilon records up to k."""
    replay = traces.LearningTrace.from_log(
        log, anchoring.AnchoringStrategy.fixed(BETA))
    records = convergence.epsilon_sequence(replay)
    backbone = replay.reference_backbone()
    p = replay.params
    out = {}
    for obs in log:
        k = obs.level
        seen = [e for e in backbone if e.level <= k]
        if traces.working_level(seen, p.nu, p.slowdown, p.look_ahead) is None:
            out[f"decision.{k}"] = "error:MissingWLevel"
            continue
        out[f"decision.{k}"] = convergence.threshold_level(
            [r for r in records if r.level <= k], MONITOR_TAU, replay.wlevel)
    out["wlevel"] = replay.wlevel
    out["plevel"] = replay.plevel
    return out


# -- study-drift-90 ----------------------------------------------------------

def study_rep(log) -> dict:
    """scripts/run_synthetic_study.py at its defaults, without file writes."""
    out = {}
    step = "reference"
    try:
        params = traces.TraceParams()
        reference = traces.LearningTrace.from_log(
            log, anchoring.AnchoringStrategy.none(), params)
        out["reference.wlevel"] = reference.wlevel
        out["reference.plevel"] = reference.plevel_reference

        step = "fixed"
        fixed = traces.LearningTrace.from_log(
            log, anchoring.AnchoringStrategy.fixed(BETA), params,
            reference=reference)
        records = convergence.epsilon_sequence(fixed)
        for rec in records:
            out[f"eps.{rec.level}.epsilon"] = rec.epsilon
            out[f"eps.{rec.level}.rupture"] = rec.is_rupture

        step = "clevel"
        tau = records[int(len(records) * 0.3)].epsilon
        out["stop.tau"] = tau
        condition = convergence.ProximityCondition("absolute", tau)
        base_stop = convergence.clevel(reference, condition)
        out["stop.reference"] = base_stop
        out["stop.fixed"] = convergence.clevel(fixed, condition)

        step = "tuning"
        tuning = convergence.find_optimal_look_ahead(
            log, params, tau, BETA, base_stop, reference=reference)
        out["tuning.look_ahead"] = tuning.look_ahead
        out["tuning.zeta"] = tuning.zeta
        out["tuning.put"] = tuning.put_at_switch
        out["tuning.rc"] = tuning.rc
        for i, cand in enumerate(tuning.candidates):
            out[f"candidate.{i}.zeta"] = cand.zeta
            out[f"candidate.{i}.look_ahead"] = cand.look_ahead
            out[f"candidate.{i}.clevel"] = cand.clevel
            out[f"candidate.{i}.rc"] = cand.rc

        step = "frame"
        entries = reference.backbone()
        gaps = sorted(abs(cur.alpha - prev.alpha)
                      for prev, cur in zip(entries, entries[1:]))
        strategy = anchoring.AnchoringStrategy
        spec = evaluation.FrameSpec(
            tau_r=gaps[int(len(gaps) * 0.6)],
            strategies=(strategy.none(), strategy.canonical(),
                        strategy.fixed(BETA),
                        strategy.fixed_with_look_ahead(BETA, tuning.look_ahead)),
            conditions=("absolute", "relative"))
        frame = evaluation.build_frame(log, spec)
        out["frame.tau_r"] = spec.tau_r
        out["frame.tau_a"] = frame.tau_a
        out["frame.baseline_clevel"] = frame.baseline.clevel
        for i, row in enumerate(frame.rows()):
            for field, value in vars(row).items():
                out[f"row.{i}.{field}"] = value
    except Exception as exc:    # counted; the later steps are then missing
        out[f"raised.{step}"] = _raised(exc)
    return out


# -- cli-analyze-cold --------------------------------------------------------

def cli_args(workdir: Path) -> list[str]:
    return ["analyze", str(workdir / "obs.csv"), "--strategy", f"fixed:{BETA:g}",
            "--condition", "absolute", "--tau", repr(CLI_TAU),
            "--out", str(workdir / "report.json"),
            "--series", str(workdir / "series.csv")]


def cli_outputs(exit_code: int, workdir: Path) -> dict:
    """Checked outputs of one invocation: exit code, report and series."""
    out = {"exit_code": exit_code}
    try:
        report = json.loads((workdir / "report.json").read_text())
        with open(workdir / "series.csv", newline="") as handle:
            series = list(csv.DictReader(handle))
    except (OSError, ValueError) as exc:
        out["report"] = _raised(exc)
        return out
    snap = report["trace"]
    out.update({"clevel": report["clevel"], "error": report["error"],
                "wlevel": snap["wlevel"],
                "plevel_reference": snap["plevel_reference"],
                "plevel_anchored": snap["plevel_anchored"],
                "skipped": sorted(int(k) for k in snap["skipped"])})
    for entry in snap["backbone"]:
        out[f"backbone.{entry['level']}.alpha"] = entry["alpha"]
    for level, anchor in snap["anchors"].items():
        out[f"anchors.{level}.anchor"] = anchor
    for rec in report["epsilon"]:
        out[f"eps.{rec['level']}.epsilon"] = rec["epsilon"]
        out[f"eps.{rec['level']}.rupture"] = rec["is_rupture"]
    for row in series:
        out[f"series.{row['level']}.put"] = (float(row["put"]) if row["put"]
                                             else None)
    return out


def cli_replay_outputs(workdir: Path) -> dict:
    """Cross-check without a snapshot: the same analysis in-process."""
    log = io.read_observations(workdir / "obs.csv")
    trace = traces.LearningTrace.from_log(
        log, anchoring.AnchoringStrategy.fixed(BETA))
    condition = convergence.ProximityCondition("absolute", CLI_TAU)
    out = {}
    try:
        records = convergence.epsilon_sequence(trace)
        stop = convergence.clevel(trace, condition)
    except ConvergemaError:
        return {"exit_code": 1}
    out.update({"exit_code": 0 if stop is not None else 2, "clevel": stop,
                "error": None, "wlevel": trace.wlevel,
                "plevel_reference": trace.plevel_reference,
                "plevel_anchored": trace.plevel_anchored,
                "skipped": sorted(trace.skipped)})
    for entry in trace.backbone():
        out[f"backbone.{entry.level}.alpha"] = entry.alpha
    for level, anchor in trace.anchors.items():
        out[f"anchors.{level}.anchor"] = anchor
    for rec in records:
        out[f"eps.{rec.level}.epsilon"] = rec.epsilon
        out[f"eps.{rec.level}.rupture"] = rec.is_rupture
    return out


# -- reference outputs and checks --------------------------------------------

def load_snapshot(workload: str, log):
    """The frozen outputs for this input, or None if the input is not the
    frozen one (another seed)."""
    frozen = json.loads(SNAPSHOT.read_text())["workloads"].get(workload)
    if frozen is None or frozen["input_sha256"] != digest(log):
        return None
    return frozen["outputs"]


def expected_outputs(workload: str, log, workdir: Path):
    """(expected outputs, source) from the snapshot or the cross-check."""
    frozen = load_snapshot(workload, log)
    if frozen is not None:
        return frozen, "snapshot"
    try:
        if workload == "monitor-noisy-180":
            return monitor_replay_outputs(log), "replay"
        if workload == "cli-analyze-cold":
            return cli_replay_outputs(workdir), "replay"
    except Exception as exc:    # the cross-check itself hit a layer defect
        print(f"[perfbench] cross-check raised {exc!r}", file=sys.stderr)
    return {}, "raised-only"


def _percent_tau(expected: dict) -> float:
    """The smallest threshold a checked percentage is taken against: the
    study's stop tau and frame tau_a, else the CLI's tau."""
    taus = [expected[k] for k in ("stop.tau", "frame.tau_a")
            if isinstance(expected.get(k), float)]
    return min(taus, default=CLI_TAU)


def _same(key: str, got, want, pct_atol: float) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        kind = FIELD_KIND.get(key.rsplit(".", 1)[-1])
        atol = {"points": POINTS_ATOL, "percent": pct_atol}.get(kind, 0.0)
        return math.isclose(got, want, rel_tol=RTOL, abs_tol=atol)
    return type(got) is type(want) and got == want


def check(outputs: dict, expected: dict) -> tuple[int, int]:
    """(attempted, failed) over the union of produced and expected keys."""
    pct_atol = 100.0 * 2 * POINTS_ATOL / _percent_tau(expected)
    attempted = failed = 0
    for key in expected.keys() | outputs.keys():
        attempted += 1
        got = outputs.get(key, "missing")
        if isinstance(got, str) and got.startswith("raised:"):
            failed += 1
        elif key in expected and (key not in outputs
                                  or not _same(key, got, expected[key], pct_atol)):
            failed += 1
    return attempted, failed
