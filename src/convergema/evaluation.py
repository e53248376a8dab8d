"""Runs, local testing frames, and the RC / accuracy / RP metric suite.

A run is one (anchoring strategy, proximity condition) combination over a
shared observation stream.  Within a frame, the anchor-free run with the
fastest condition is the baseline; costs are convergence levels relative to
it, and accuracies measure how tightly the converging trend tracks an
oracle horizon from the threshold level onward.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Optional

from .anchoring import AnchoringStrategy
from .convergence import (ProximityCondition, clevel, normalize_threshold,
                          put)
from .curves import evaluate
from .errors import (ConvergemaError, DegenerateData, MissingHorizon,
                     NotDecreasing, NotReached, UnresolvedCLevel)
from .fitting import FitResult
from .traces import LearningTrace, ObservationLog, TraceParams, run_jobs


@dataclass(frozen=True)
class Horizon:
    """Oracle-provided long observation set and its limit trend."""

    observations: ObservationLog
    limit_trend: FitResult

    @property
    def alpha_dinfty(self) -> float:
        return self.limit_trend.curve.c

    @staticmethod
    def from_log(log: ObservationLog,
                 length: Optional[int] = None) -> "Horizon":
        """The first `length` observations of `log` (default: all of them)
        and their plain fit; a length past the log raises MissingHorizon,
        and a degenerate fit DegenerateData with its reason."""
        if length is None:
            length = len(log)
        elif length < 1:
            raise ValueError(f"horizon length must be at least 1, got {length}")
        elif length > len(log):
            raise MissingHorizon(f"horizon length {length} exceeds the "
                                 f"{len(log)} observations of the log")
        entries = log.entries[:length]
        if len(entries) < 3:
            raise MissingHorizon("horizon needs at least 3 observations")
        sub = ObservationLog(entries)
        # the plain fit of this prefix, shared with the log's traces
        limit = log._fit_store().lookup((len(sub), None, None),
                                        lambda: sub.problem(len(sub)))
        if isinstance(limit, str):
            raise DegenerateData(limit)
        return Horizon(observations=sub, limit_trend=limit)


@dataclass
class Run:
    """One testing round: a trace plus its stopping rule."""

    strategy: AnchoringStrategy
    condition: ProximityCondition
    trace: LearningTrace
    eval_tau: float                     # frame's absolute threshold
    clevel: Optional[int] = None
    note: str = ""

    @property
    def plevel(self) -> Optional[int]:
        return self.trace.plevel


class Ordering(Enum):
    FASTER = "faster"
    SLOWER = "slower"
    EQUIVALENT = "equivalent"


def relative_cost(run: Run, baseline: Run) -> float:
    """CLevel ratio against the frame's baseline; 1 for the baseline itself."""
    if run.clevel is None or baseline.clevel is None:
        raise UnresolvedCLevel("relative cost needs both convergence levels")
    return run.clevel / baseline.clevel


def _threshold_level_for(run: Run) -> int:
    """The absolute stop of the run's trace at the frame's threshold."""
    iota = clevel(run.trace, ProximityCondition("absolute", run.eval_tau))
    if iota is None:
        raise NotReached("threshold level for the evaluation tau not reached")
    return iota


def accuracy(run: Run, horizon: Optional[Horizon], mode: str,
             error_target: str = "raw") -> float:
    """Convergence/error accuracy in [0, 100]: zero when any divergence past
    the threshold level exceeds tau, else the largest one as a percentage
    of tau.

    Divergences are taken at horizon positions from the threshold level
    onward plus the asymptote pair; the error mode compares against the raw
    horizon observations (or the fitted limit trend with --error-target
    fitted), with the limit trend's asymptote at infinity in both modes.
    """
    if horizon is None:
        raise MissingHorizon("accuracy needs a horizon")
    if mode not in ("convergence", "error"):
        raise ValueError("mode must be 'convergence' or 'error'")
    if error_target not in ("raw", "fitted"):
        raise ValueError("error_target must be 'raw' or 'fitted'")
    if run.clevel is None:
        raise UnresolvedCLevel("accuracy is computed at the convergence level")
    iota = _threshold_level_for(run)
    trend = run.trace.trends()[run.clevel].curve
    tau = run.eval_tau

    divergences = []
    for obs in horizon.observations:
        if obs.level < iota:
            continue
        predicted = evaluate(trend, float(obs.x))
        if mode == "convergence" or error_target == "fitted":
            target = evaluate(horizon.limit_trend.curve, float(obs.x))
        else:
            target = obs.accuracy
        divergences.append(abs(target - predicted))
    divergences.append(abs(horizon.alpha_dinfty - trend.c))
    worst = max(divergences)
    if worst > tau:
        return 0.0
    return 100.0 * worst / tau


def relative_performance(run: Run, baseline: Run, horizon: Optional[Horizon],
                         mode: str, error_target: str = "raw") -> float:
    return accuracy(run, horizon, mode, error_target) / relative_cost(run, baseline)


def faster_than(runs_a: list[Run], runs_b: list[Run]) -> Optional[Ordering]:
    """Order two condition groups by paired CLevels; None when mixed."""
    if len(runs_a) != len(runs_b) or not runs_a:
        raise ValueError("need equal-length, non-empty run groups")
    a_le = all(ra.clevel is not None and rb.clevel is not None
               and ra.clevel <= rb.clevel for ra, rb in zip(runs_a, runs_b))
    b_le = all(ra.clevel is not None and rb.clevel is not None
               and rb.clevel <= ra.clevel for ra, rb in zip(runs_a, runs_b))
    if a_le and b_le:
        return Ordering.EQUIVALENT
    if a_le:
        return Ordering.FASTER
    if b_le:
        return Ordering.SLOWER
    return None


@dataclass(frozen=True)
class FrameSpec:
    """Declarative frame: which strategies and conditions to cross."""

    tau_r: float
    strategies: tuple[AnchoringStrategy, ...]
    conditions: tuple[str, ...] = ("absolute", "relative")
    params: TraceParams = field(default_factory=TraceParams)
    horizon_len: Optional[int] = None
    error_target: str = "raw"

    def __post_init__(self):
        # the baseline is the fastest anchor-free run, under some condition
        if not any(s.kind == "none" for s in self.strategies):
            raise ValueError("frame needs the anchor-free strategy 'none', "
                             "whose runs give the baseline")
        if not self.conditions:
            raise ValueError("frame needs at least one condition")


@dataclass
class FrameRow:
    strategy: str
    condition: str
    tau: float
    plevel: Optional[int]
    clevel: Optional[int]
    rc: Optional[float]
    a_c: Optional[float]
    a_e: Optional[float]
    rp_c: Optional[float]
    rp_e: Optional[float]
    put: Optional[float]
    look_ahead: Optional[int]
    note: str = ""


@dataclass
class LocalTestingFrame:
    spec: FrameSpec
    tau_a: float
    horizon: Horizon
    runs: list[Run]
    baseline: Run

    def rows(self) -> list[FrameRow]:
        out = []
        for run in self.runs:
            rc = a_c = a_e = rp_c = rp_e = put_val = None
            if run.clevel is not None:
                rc = relative_cost(run, self.baseline)
                try:
                    a_c = accuracy(run, self.horizon, "convergence",
                                   self.spec.error_target)
                    a_e = accuracy(run, self.horizon, "error",
                                   self.spec.error_target)
                    rp_c = a_c / rc
                    rp_e = a_e / rc
                except ConvergemaError:
                    pass
            # PUT at the look-ahead switch, where `put` defines it
            look = run.strategy.look_ahead
            if look is not None and run.plevel is not None:
                try:
                    put_val = put(run.trace,
                                  ProximityCondition("absolute", self.tau_a),
                                  run.plevel + look)
                except (ValueError, ConvergemaError):
                    pass
            out.append(FrameRow(strategy=run.strategy.spec_string(),
                                condition=run.condition.kind,
                                tau=run.condition.tau,
                                plevel=run.plevel, clevel=run.clevel,
                                rc=rc, a_c=a_c, a_e=a_e, rp_c=rp_c, rp_e=rp_e,
                                put=put_val, look_ahead=look, note=run.note))
        return out


def build_frame(log: ObservationLog, spec: FrameSpec) -> LocalTestingFrame:
    """Build all runs, normalise the absolute threshold from the relative
    one on the anchor-free reference, and pick the baseline (the anchor-free
    run of the fastest condition).

    The runs of one strategy depend on no other strategy's and replay the
    same log, so each strategy's runs are one job of `run_jobs`."""
    reference = LearningTrace.from_log(log, AnchoringStrategy.none(), spec.params)
    horizon = Horizon.from_log(log, spec.horizon_len)
    tau_a = normalize_threshold(reference, spec.tau_r)

    def strategy_runs(strategy: AnchoringStrategy) -> list[Run]:
        if strategy.kind == "none":
            trace = reference
        else:
            trace = LearningTrace.from_log(log, strategy, spec.params)
        runs = []
        for kind in spec.conditions:
            tau = tau_a if kind == "absolute" else spec.tau_r
            condition = ProximityCondition(kind, tau)
            run = Run(strategy=strategy, condition=condition, trace=trace,
                      eval_tau=tau_a)
            try:
                run.clevel = clevel(trace, condition)
            except NotDecreasing as exc:
                run.note = f"inapplicable: {exc}"
            runs.append(run)
        return runs

    runs = [run for part in run_jobs(
                log._fit_store(),
                [partial(strategy_runs, strategy)
                 for strategy in spec.strategies])
            for run in part]

    candidates = [r for r in runs if r.strategy.kind == "none"
                  and r.clevel is not None]
    if not candidates:
        raise UnresolvedCLevel("no anchor-free run converged; frame has no baseline")
    baseline = min(candidates, key=lambda r: r.clevel)
    return LocalTestingFrame(spec=spec, tau_a=tau_a, horizon=horizon,
                             runs=runs, baseline=baseline)
