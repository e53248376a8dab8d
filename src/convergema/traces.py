"""Observation log, learning scheme, and the incremental learning trace.

A trace holds one fitted trend per level (level = number of observations
consumed so far, starting at 3).  The sequence of trend asymptotes is the
asymptotic backbone; the working level marks where its level-to-level slopes
stay under the normalised verticality threshold for a full look-ahead
window, and the prediction level is the first level from there whose
asymptote does not exceed the 100% accuracy ceiling.

Anchored strategies re-fit levels past the working level with an extra
observation at infinity; the reference (plain) trends are kept, both
because the working/prediction levels are defined on them and because the
anchoring strategies draw their anchor values from them.  `extend` fits
a new level's plain problem only until the reference prediction level is
known; every other fit is made when a view reads it.

A fit lives in a store keyed by its problem.  A log only grows, so the
fits of its prefixes never go stale: the levels a trace replays from a log
use that log's store, shared by every trace replayed on it, and the levels
it is extended by later use the trace's own.

The fits of one view that do not depend on each other (the plain levels,
and the anchored levels under `fixed` anchoring) go to the store as one
batch.  Where the process may run on two CPUs and has no other thread, a
forked helper fits every other problem of a batch (`_fit_in_two`); the
store records the same fits in the same order either way.  Replays of one
log that do not depend on each other (a look-ahead sweep's candidates, a
frame's strategies) are jobs that this process shares with a forked
helper in the same way (`run_jobs`): the helper's fits warm the log's
store, and this process computes every answer from it.
"""
from __future__ import annotations

import os
import pickle
import signal
import threading
import weakref
from dataclasses import dataclass
from functools import partial
from itertools import groupby, islice
from typing import Callable, Iterable, Iterator, Optional

from .anchoring import AnchoringStrategy, anchor_for_level
from .errors import DegenerateData
from .fitting import FitProblem, FitResult, check_anchor_weight, fit

ACCURACY_CEILING = 100.0


@dataclass(frozen=True)
class Observation:
    level: int
    x: int
    accuracy: float


@dataclass(frozen=True)
class LearningScheme:
    """Kernel size plus step function generating training-set sizes."""

    kernel_size: int
    step: Callable[[int], int]

    def next_size(self, size: int, level: int) -> int:
        """The size at `level`, one step past `size` at the level before."""
        delta = self.step(level)
        if delta <= 0:
            raise ValueError("step function must be positive")
        return size + delta

    def positions(self, levels: int) -> list[int]:
        if levels < 1:
            return []
        out = [self.kernel_size]
        for i in range(2, levels + 1):
            out.append(self.next_size(out[-1], i))
        return out

    @staticmethod
    def uniform(kernel: int, step: int) -> "LearningScheme":
        return LearningScheme(kernel_size=kernel, step=lambda i: step)


class _FitStore(dict):
    """(level, anchor, anchor_weight) -> FitResult or skip reason, for
    prefixes of one log; a dict subclass so that the log can hold it
    weakly.  A plain problem is keyed (level, None, None): `fit` reads the
    anchor weight only when there is an anchor."""

    def record(self, items: list) -> Iterator["FitResult | str"]:
        """Yield the stored fit of each `(key, problem)` of `items` in
        order, recording first the fit of `problem()` under a missing key;
        a degenerate fit is recorded as its reason.  Any other exception is
        raised at its item, after the items before it are recorded.

        When `_helper_allowed`, a forked helper fits every other missing
        problem (`_fit_in_two`) before the first item is yielded; what it
        does not return is fitted here."""
        problems = {key: problem() for key, problem in items
                    if key not in self}
        done = (_fit_in_two(list(problems.items()))
                if _helper_allowed(len(problems)) else {})
        for key, _ in items:
            if key not in self:
                result = done[key] if key in done else _outcome(problems[key])
                if isinstance(result, Exception):
                    raise result
                self[key] = result
            yield self[key]

    def lookup(self, key: tuple,
               problem: Callable[[], FitProblem]) -> "FitResult | str":
        """The stored fit under `key`, or else the fit of `problem()`
        recorded there: the one-item case of `record`, read directly."""
        result = self.get(key)
        if result is None:
            result = self[key] = _outcome(problem())
        return result


def _outcome(problem: FitProblem) -> "FitResult | str":
    """The fit of `problem`, or the reason it is degenerate."""
    try:
        return fit(problem)
    except DegenerateData as exc:
        return str(exc)


# set while `run_jobs` shares its jobs with a helper: neither process
# forks again, so the two of them run on two CPUs, not three
_warming = False


def _helper_allowed(count: int) -> bool:
    """Whether `count` fits or jobs are shared with a forked helper: at
    least two, in a process that may run on two CPUs, has no other Python
    thread (a fork copies only the calling thread) and is not running a
    warm-up already."""
    return (count >= 2 and not _warming and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1)


def _fit_half(pending: list, first: int) -> dict:
    """key -> outcome of `pending[first::2]`, fitted in order until one
    raises other than `DegenerateData`; that exception is its outcome, to
    be raised at its item by `_FitStore.record`."""
    done = {}
    for key, problem in pending[first::2]:
        try:
            done[key] = _outcome(problem)
        except Exception as exc:
            done[key] = exc
            break
    return done


def _with_helper(helper_part: Callable, own_part: Callable) -> tuple:
    """(own_part(), helper_part() or None), the second run by a forked
    helper while this process runs the first.

    The helper runs the same code on the same process image, so what it
    computes is what this process would, bit for bit.  It sends its result
    pickled down a pipe and leaves by `os._exit`, so no exit handler or
    buffered output of this process runs in it.  It is always reaped
    before this returns, and killed first when `own_part` raises.  A
    helper that cannot start, dies or sends a short result gives None."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return own_part(), None
    if pid == 0:
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(helper_part(), pipe)
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            own = own_part()
            data = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)
    try:
        return own, pickle.loads(data)
    except Exception:
        # a helper that died sent a short result, or none: whatever went
        # wrong there, the caller does its part again and meets it itself
        return own, None


def _fit_in_two(pending: list) -> dict:
    """key -> outcome of the `(key, problem)` pairs of `pending`: this
    process fits the even positions and a forked helper the odd ones
    (`_with_helper`); what a failed helper does not return is missing."""
    done, theirs = _with_helper(partial(_fit_half, pending, 1),
                                partial(_fit_half, pending, 0))
    done.update(theirs or {})
    return done


def run_jobs(store: _FitStore, jobs: list[Callable]) -> list:
    """`[job() for job in jobs]`, for jobs whose only side effect is to
    fill `store`: the same results, and the first exception in job order
    raised as that loop raises it.

    When `_helper_allowed`, this process and a forked helper claim the
    jobs from a pipe of job indices, one byte per claim (so at most 256
    jobs are shared), and jobs of unequal size balance; neither process
    forks again meanwhile.  The helper sends back
    the store entries it added.  They are merged here, and this process
    then computes the helper's jobs itself, finding every fit stored."""
    global _warming
    if not _helper_allowed(len(jobs)) or len(jobs) > 256:
        return [job() for job in jobs]
    claims, fill = os.pipe()
    os.write(fill, bytes(range(len(jobs))))
    os.close(fill)
    known = len(store)

    def claimed() -> Iterator[int]:
        while claim := os.read(claims, 1):
            yield claim[0]

    def helper_part() -> list:
        for index in claimed():
            try:
                jobs[index]()
            except Exception:
                break       # this process meets it again, in job order
        return list(islice(store.items(), known, None))

    def own_part() -> tuple:
        done = {}
        for index in claimed():
            try:
                done[index] = jobs[index]()
            except Exception as exc:
                os.read(claims, len(jobs))      # no later job is needed
                return done, (index, exc)
        return done, None

    _warming = True
    try:
        (done, failed), entries = _with_helper(helper_part, own_part)
    finally:
        _warming = False
        os.close(claims)
    for key, result in entries or ():
        store.setdefault(key, result)
    out = []
    for index, job in enumerate(jobs):
        if failed is not None and failed[0] == index:
            raise failed[1]
        out.append(done[index] if index in done else job())
    return out


class ObservationLog:
    """Ordered (level, size, accuracy) samples, levels contiguous from 1.

    Sizes and accuracies are also kept as float columns, from which the
    fit problems of the log's prefixes are built."""

    def __init__(self, entries: Iterable[Observation] = (),
                 scheme: Optional[LearningScheme] = None):
        self.entries: list[Observation] = []
        self.scheme = scheme
        self._xs: list[float] = []
        self._ys: list[float] = []
        # the scheme's size at the last level, so a check takes one step
        self._position: Optional[int] = None
        self._store_ref: Optional[weakref.ref] = None
        for obs in entries:
            self.append(obs)

    def _fit_store(self) -> _FitStore:
        """The fits of this log's prefixes.  Only the traces that use the
        store keep it alive, so it dies with the last of them."""
        store = self._store_ref() if self._store_ref is not None else None
        if store is None:
            store = _FitStore()
            self._store_ref = weakref.ref(store)
        return store

    def append(self, obs: Observation) -> None:
        expected = len(self.entries) + 1
        if obs.level != expected:
            raise ValueError(f"expected level {expected}, got {obs.level}")
        if self.entries and obs.x <= self.entries[-1].x:
            raise ValueError("sizes must be strictly increasing")
        if obs.x <= 0:
            raise ValueError("size must be positive")
        if not (0.0 < obs.accuracy <= ACCURACY_CEILING):
            raise ValueError("accuracy must lie in (0, 100]")
        if self.scheme is not None:
            want = (self.scheme.kernel_size if self._position is None
                    else self.scheme.next_size(self._position, obs.level))
            if obs.x != want:
                raise ValueError(
                    f"size {obs.x} at level {obs.level} disagrees with the "
                    f"declared scheme (expected {want})")
            self._position = want
        self.entries.append(obs)
        self._xs.append(float(obs.x))
        self._ys.append(float(obs.accuracy))

    def problem(self, level: int, anchor: Optional[float] = None,
                anchor_weight: float = 1.0) -> FitProblem:
        """The fit problem of the first `level` observations."""
        return FitProblem(tuple(self._xs[:level]), tuple(self._ys[:level]),
                          anchor=None if anchor is None else float(anchor),
                          anchor_weight=float(anchor_weight))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @staticmethod
    def from_arrays(x, accuracy, scheme: Optional[LearningScheme] = None) -> "ObservationLog":
        log = ObservationLog(scheme=scheme)
        for i, (xi, yi) in enumerate(zip(x, accuracy), start=1):
            log.append(Observation(level=i, x=int(xi), accuracy=float(yi)))
        return log


@dataclass(frozen=True)
class BackboneEntry:
    level: int
    alpha: float
    x: int


@dataclass(frozen=True)
class TraceParams:
    """Verticality/look-ahead setting and anchor weight for one trace."""

    nu: float = 2e-5
    slowdown: int = 1
    look_ahead: int = 5
    anchor_weight: float = 1.0
    plevel_source: str = "reference"    # "reference" | "anchored"

    def __post_init__(self):
        if not (0.0 < self.nu < 1.0):
            raise ValueError("nu must lie in (0, 1)")
        if self.slowdown < 1:
            raise ValueError("slowdown must be >= 1")
        if self.look_ahead < 0:
            raise ValueError("look_ahead must be >= 0")
        check_anchor_weight(self.anchor_weight)
        if self.plevel_source not in ("reference", "anchored"):
            raise ValueError("plevel_source must be 'reference' or 'anchored'")


def normalized_slope(slope: float) -> float:
    """Map a slope in [0, inf) to [0, 1) via s / (s + 1).

    Chosen so that normalized_slope(s) < nu  iff  s < nu / (1 - nu).
    """
    if slope < 0.0:
        raise ValueError("slope must be nonnegative")
    return slope / (slope + 1.0)


def verticality_threshold(nu: float, slowdown: int) -> float:
    """Slope ceiling nu**(1/slowdown) / (1 - nu) used by the working level."""
    return nu ** (1.0 / slowdown) / (1.0 - nu)


def working_level(backbone: list[BackboneEntry], nu: float, slowdown: int,
                  look_ahead: int) -> Optional[int]:
    """Smallest level whose next look_ahead+1 backbone slopes all stay under
    the verticality threshold; None while the window is not yet observable.

    Slopes are taken between consecutive *present* entries, so gaps left by
    skipped levels are bridged by the previous successful level.
    """
    if not (0.0 < nu < 1.0):
        raise ValueError("nu must lie in (0, 1)")
    if slowdown < 1 or look_ahead < 0:
        raise ValueError("slowdown >= 1 and look_ahead >= 0 required")
    threshold = verticality_threshold(nu, slowdown)
    n = len(backbone)
    for start in range(n):
        if start + look_ahead + 1 >= n:
            return None
        window_ok = True
        for j in range(start, start + look_ahead + 1):
            rise = abs(backbone[j + 1].alpha - backbone[j].alpha)
            run = backbone[j + 1].x - backbone[j].x
            if rise / run > threshold:
                window_ok = False
                break
        if window_ok:
            return backbone[start].level
    return None


def prediction_level(backbone: list[BackboneEntry], omega: int) -> Optional[int]:
    """Smallest present level >= omega whose asymptote is <= 100."""
    for entry in backbone:
        if entry.level >= omega and entry.alpha <= ACCURACY_CEILING:
            return entry.level
    return None


class LearningTrace:
    """Single-writer incremental trace; snapshots are plain data.

    Whatever the strategy, `extend` fits the plain levels up to the
    reference prediction level and no anchored level; the other fits wait
    until a view reads them.  Reading `reference_trends` fits the deferred
    plain levels (`_settle`); reading `anchored_trends`, `anchors` or
    `plevel_anchored` fits the deferred anchored levels in level order
    (`_fit_anchored`); `trends()` fits those of the active backbone and
    `skipped` fits both.  A level's fit depends only on its prefix and on
    the levels below it, so every view holds what an eager trace holds.
    A level whose plain or anchored fit is degenerate is listed in
    `skipped` with its reason, and the other fit of that level stays.
    """

    def __init__(self, strategy: AnchoringStrategy,
                 params: TraceParams = TraceParams(),
                 scheme: Optional[LearningScheme] = None):
        self.strategy = strategy
        self.params = params
        self.observations = ObservationLog(scheme=scheme)
        self._reference_trends: dict[int, FitResult] = {}
        self._anchored_trends: dict[int, FitResult] = {}
        self._anchors: dict[int, float] = {}
        self._skipped: dict[int, str] = {}
        # the last level whose plain fit, and whose anchored fit, was made
        self._plain_level = 2
        self._anchored_level = 0
        # set while anchored levels are fitted: the views then show the
        # trace as it stands, which holds every level an anchor reads
        self._fitting = False
        self.wlevel: Optional[int] = None
        self.plevel_reference: Optional[int] = None
        self._plevel_anchored: Optional[int] = None
        # epsilon fold state kept by convergence._fold so that a query
        # resumes it: (level, FitResult) pairs, records, count, epsilon
        self._epsilon_fold: Optional[tuple] = None
        # tau -> the absolute stop of a fixed-anchoring trace, kept by
        # convergence._final_stop once found: such a stop is final
        self._stops: dict[float, int] = {}
        # the fits of the first `_replayed` levels live in the store of the
        # log they were replayed from, the others in the trace's own (_fits)
        self._replayed = 0
        self._own_store = self.observations._fit_store()
        self._log_store = self._own_store

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_log(log: ObservationLog, strategy: AnchoringStrategy,
                 params: TraceParams = TraceParams(),
                 reference: "LearningTrace | None" = None) -> "LearningTrace":
        """Build a trace by replaying the log through `extend`.

        A log only grows, so the fits of its prefixes never go stale: the
        replayed levels use the log's fit store, which every trace replayed
        on that log shares.  With `reference` (a trace with the same
        parameters whose observations start with the log's) they use the
        store the reference uses at level len(log) instead.  Levels the
        trace is extended by later go to its own store (see `_fits`).
        """
        trace = LearningTrace(strategy, params, scheme=log.scheme)
        if reference is None:
            store = log._fit_store()
        else:
            prefix = reference.observations.entries[:len(log)]
            if reference.params != params or log.entries != prefix:
                raise ValueError("reference trace does not match the log/params")
            store = reference._store_of(len(log))
        trace._replayed, trace._log_store = len(log), store
        for obs in log:
            trace.extend(obs)
        return trace

    def extend(self, obs: Observation) -> "LearningTrace":
        self.observations.append(obs)
        if len(self.observations) >= 3 and self.plevel_reference is None:
            self._settle()
            self._update_levels()
        return self

    # -- fitting ----------------------------------------------------------

    def _store_of(self, level: int) -> _FitStore:
        """The store that holds the fits of the first `level` observations."""
        return self._log_store if level <= self._replayed else self._own_store

    def _key(self, level: int, anchor: Optional[float]) -> tuple:
        """The store key of a level's problem: a plain problem is keyed
        (level, None, None), since `fit` reads the anchor weight only when
        there is an anchor."""
        return (level, anchor,
                None if anchor is None else self.params.anchor_weight)

    def _kept(self, level: int,
              result: "FitResult | str") -> Optional[FitResult]:
        """A stored fit of `level`, or None with its reason in `_skipped`."""
        if isinstance(result, str):
            self._skipped[level] = result
            return None
        return result

    def _fit(self, level: int, anchor: Optional[float]) -> Optional[FitResult]:
        """The fit of the first `level` observations with `anchor` (None:
        plain), or None with the reason recorded in `_skipped`.  It is
        looked up in the store of its level (`_store_of`), or else fitted
        and recorded there, so no trace sharing the store fits the same
        problem twice."""
        return self._kept(level, self._store_of(level).lookup(
            self._key(level, anchor),
            partial(self.observations.problem, level, anchor,
                    self.params.anchor_weight)))

    def _fits(self, levels: Iterable[int],
              anchors: Iterable[Optional[float]]
              ) -> Iterator[Optional[FitResult]]:
        """Yield `_fit` of each level with its anchor, in order; the
        levels of one store are passed to it as one batch
        (`_FitStore.record`)."""
        weight = self.params.anchor_weight
        pairs = zip(levels, anchors)
        for _, part in groupby(pairs, lambda pair: pair[0] <= self._replayed):
            part = list(part)
            items = [(self._key(level, anchor),
                      partial(self.observations.problem, level, anchor,
                              weight))
                     for level, anchor in part]
            results = self._store_of(part[0][0]).record(items)
            for (level, _), result in zip(part, results):
                yield self._kept(level, result)

    def _settle(self) -> None:
        """Fit the plain levels not yet fitted, more than one as a batch."""
        if self._fitting:
            return
        levels = range(self._plain_level + 1, len(self.observations) + 1)
        results = (self._fits(levels, [None] * len(levels)) if len(levels) > 1
                   else [self._fit(level, None) for level in levels])
        for level, result in zip(levels, results):
            if result is not None:
                self._reference_trends[level] = result
            self._plain_level = level

    def _fit_anchored(self, upto: Optional[int] = None) -> None:
        """Fit the anchored levels not yet fitted, in order, up to `upto`
        (default: the last observed level).  A level's anchor reads only
        the trace below that level (`anchor_for_level`), through views
        that fit nothing while this runs, so it is the anchor an eager
        trace would have used (`_anchored_fits`)."""
        if self._fitting or self.strategy.kind == "none" or self.wlevel is None:
            return
        if upto is None:
            upto = len(self.observations)
        self._fitting = True
        try:
            for level, anchor, result in self._anchored_fits(
                    range(max(self._anchored_level, self.wlevel) + 1,
                          upto + 1)):
                if result is not None:
                    self._anchored_trends[level] = result
                    self._anchors[level] = float(anchor)
                    if (self._plevel_anchored is None
                            and result.curve.c <= ACCURACY_CEILING):
                        self._plevel_anchored = level
                self._anchored_level = level
        finally:
            self._fitting = False

    def _anchored_fits(self, levels: range) -> Iterator[tuple]:
        """(level, anchor, fit or None) of `levels`, in order.  A `fixed`
        anchor is beta, so more than one are taken first and fitted as one
        batch; another strategy's anchor may read the fits below it, so it
        is taken only once the levels below it are recorded."""
        if self.strategy.kind == "fixed" and len(levels) > 1:
            anchors = [anchor_for_level(self.strategy, level, self)
                       for level in levels]
            yield from zip(levels, anchors, self._fits(levels, anchors))
            return
        for level in levels:
            anchor = anchor_for_level(self.strategy, level, self)
            yield level, anchor, self._fit(level, anchor)

    # -- levels -----------------------------------------------------------

    def _update_levels(self) -> None:
        backbone = self.reference_backbone()
        if self.wlevel is None:
            self.wlevel = working_level(backbone, self.params.nu,
                                        self.params.slowdown,
                                        self.params.look_ahead)
        if self.wlevel is not None:
            self.plevel_reference = prediction_level(backbone, self.wlevel)

    # -- views ------------------------------------------------------------

    @property
    def reference_trends(self) -> dict[int, FitResult]:
        self._settle()
        return self._reference_trends

    @property
    def anchored_trends(self) -> dict[int, FitResult]:
        self._fit_anchored()
        return self._anchored_trends

    @property
    def anchors(self) -> dict[int, float]:
        self._fit_anchored()
        return self._anchors

    @property
    def plevel_anchored(self) -> Optional[int]:
        self._fit_anchored()
        return self._plevel_anchored

    @property
    def skipped(self) -> dict[int, str]:
        self._settle()
        self._fit_anchored()
        return self._skipped

    def _backbone(self, trends: dict[int, FitResult]) -> list[BackboneEntry]:
        entries = self.observations.entries
        return [BackboneEntry(level, trends[level].curve.c, entries[level - 1].x)
                for level in sorted(trends)]

    def reference_backbone(self) -> list[BackboneEntry]:
        return self._backbone(self.reference_trends)

    def backbone(self) -> list[BackboneEntry]:
        """Active backbone: anchored trends when anchoring, else reference."""
        return self._backbone(self.trends())

    def trends(self) -> dict[int, FitResult]:
        if self.strategy.kind == "none":
            return dict(self.reference_trends)
        return dict(self.anchored_trends)

    @property
    def plevel(self) -> Optional[int]:
        """Prediction level per the configured source policy."""
        if self.strategy.kind == "none" or self.params.plevel_source == "reference":
            return self.plevel_reference
        return self.plevel_anchored

    # -- serialisation ----------------------------------------------------

    def snapshot(self) -> dict:
        trends = self.trends()
        return {
            "strategy": self.strategy.spec_string(),
            "params": {
                "nu": self.params.nu,
                "slowdown": self.params.slowdown,
                "look_ahead": self.params.look_ahead,
                "anchor_weight": self.params.anchor_weight,
                "plevel_source": self.params.plevel_source,
            },
            "observations": [
                {"level": o.level, "size": o.x, "accuracy": o.accuracy}
                for o in self.observations
            ],
            "wlevel": self.wlevel,
            "plevel_reference": self.plevel_reference,
            "plevel_anchored": self.plevel_anchored,
            "anchors": {str(k): v for k, v in sorted(self.anchors.items())},
            "skipped": {str(k): v for k, v in sorted(self.skipped.items())},
            "reference_backbone": [
                {"level": e.level, "alpha": e.alpha, "x": e.x}
                for e in self.reference_backbone()
            ],
            "backbone": [
                {"level": e.level, "alpha": e.alpha, "x": e.x}
                for e in self.backbone()
            ],
            "trends": {
                str(level): {"a": r.curve.a, "b": r.curve.b, "c": r.curve.c,
                             "sse": r.sse,
                             "residual_at_infinity": r.residual_at_infinity}
                for level, r in sorted(trends.items())
            },
        }
