"""Every stream gets a decision or a named error: a seeded property suite
for the public path.

The streams are drawn once from a generator whose seed and stream count
are fixed here, so every run meets the same streams: random power-law
truths, uniform and geometric schedules built with
`ObservationLog.from_arrays`, noise sd from 0 to 0.5 and 20 to 120 levels.
Each stream is replayed under every strategy and asked both conditions,
with warnings raised as errors: each run returns a decision (a level, or
None while the trace has not stopped) or raises a `ConvergemaError`.  One
trace per stream is also fed one observation at a time and asked both
decisions after each; it must end where the replay of the whole stream
ends.  A stream that fails is a case for the program: the seed stays.
"""
import numpy as np
import pytest

from convergema import (AnchoringStrategy, ConvergemaError, LearningScheme,
                        LearningTrace, ObservationLog, ProximityCondition,
                        clevel)

SEED = 13
STREAMS = 16

KERNEL = 5000
NOISE_SDS = (0.0, 0.01, 0.05, 0.2, 0.5)
STRATEGIES = ("none", "canonical", "fixed:100", "fixed:100+5")
CONDITIONS = (ProximityCondition("absolute", 0.25),
              ProximityCondition("relative", 0.05))


def draw_streams(seed: int, count: int) -> list[tuple[str, ObservationLog]]:
    """(name, log) of `count` streams drawn from `seed`: a truth
    c - a x^-b with b in [0.2, 1.5], c in [70, 99.5] and a drop of 2 to
    30 points at the kernel size; a uniform schedule, or a geometric one
    at ratio 1.02 to 1.25; one noise sd of `NOISE_SDS`; accuracies
    clipped to (0, 100] as `synth.generate` clips them."""
    rng = np.random.default_rng(seed)
    streams = []
    for index in range(count):
        b = rng.uniform(0.2, 1.5)
        c = rng.uniform(70.0, 99.5)
        a = rng.uniform(2.0, 30.0) * KERNEL ** b
        levels = int(rng.integers(20, 121))
        sd = float(rng.choice(NOISE_SDS))
        if rng.random() < 0.5:
            schedule = "uniform"
            scheme = LearningScheme.uniform(KERNEL, KERNEL)
            x = np.asarray(scheme.positions(levels), dtype=float)
        else:
            ratio = rng.uniform(1.02, 1.25)
            schedule = f"geometric{ratio:.3f}"
            scheme = None
            x = np.round(KERNEL * ratio ** np.arange(levels))
        y = c - a * x ** -b + rng.normal(0.0, sd, levels)
        log = ObservationLog.from_arrays(x, np.clip(y, 1e-6, 100.0),
                                         scheme=scheme)
        streams.append((f"{index}-{schedule}-{levels}-sd{sd:g}", log))
    return streams


DRAWN = draw_streams(SEED, STREAMS)


def decide(trace: LearningTrace, condition: ProximityCondition):
    """The trace's decision under `condition`, or the type of the
    `ConvergemaError` it raised; any other exception propagates."""
    try:
        return clevel(trace, condition)
    except ConvergemaError as exc:
        return type(exc)


def is_decision(outcome, levels: int) -> bool:
    if isinstance(outcome, type):
        return issubclass(outcome, ConvergemaError)
    return outcome is None or 3 <= outcome <= levels


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("index", range(STREAMS),
                         ids=[name for name, _ in DRAWN])
def test_every_run_decides_and_online_agrees(index):
    _, log = DRAWN[index]
    replays = {}
    for spec in STRATEGIES:
        trace = LearningTrace.from_log(log, AnchoringStrategy.parse(spec))
        outcomes = [decide(trace, cond) for cond in CONDITIONS]
        assert all(is_decision(outcome, len(log)) for outcome in outcomes)
        replays[spec] = trace, outcomes

    # one strategy per stream, in turn, is followed online
    spec = STRATEGIES[index % len(STRATEGIES)]
    online = LearningTrace(AnchoringStrategy.parse(spec), scheme=log.scheme)
    for obs in log:
        online.extend(obs)
        outcomes = [decide(online, cond) for cond in CONDITIONS]
        assert all(is_decision(outcome, len(log)) for outcome in outcomes)
    replay, want = replays[spec]
    assert outcomes == want
    assert online.snapshot() == replay.snapshot()
