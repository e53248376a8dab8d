"""Observation log, learning scheme, and the incremental learning trace.

A trace holds one fitted trend per level (level = number of observations
consumed so far, starting at 3).  The sequence of trend asymptotes is the
asymptotic backbone; the working level marks where its level-to-level slopes
stay under the normalised verticality threshold for a full look-ahead
window, and the prediction level is the first level from there whose
asymptote does not exceed the 100% accuracy ceiling.

Anchored strategies re-fit levels past the working level with an extra
observation at infinity; the reference (plain) trends are kept, both
because the working and reference prediction levels are defined on them
and because the anchoring strategies draw their anchor values from them.

A fit lives in a store keyed by its problem (`_FitStore.key`), and the
crossing of two stored curves beside it, keyed by the curves and x_min,
where the epsilon fold (`convergence._fold`) keeps it.  A log only grows,
so these store entries never go stale.  A trace has one store: a replayed
trace uses its log's store, shared by every trace replayed on it, until
it is extended past the log, and then the store of its own observations.
A trace reads every fit one way, in level order (`LearningTrace._fits`).

Work that does not depend on other work of its kind is shared with one
forked helper in one way (`run_jobs`): this process runs the even-indexed
jobs and the helper the odd-indexed ones, and the helper's store entries,
its fits and crossings, warm the store, under the keys one process would
store them.
The fits of one view that do not depend on each other (the plain levels,
and the anchored levels under `fixed` anchoring) are such jobs, one per
missing fit, run before the view reads them in order; so are the replays
of one log that a look-ahead sweep's candidates and a frame's strategies
make.
"""
from __future__ import annotations

import os
import pickle
import signal
import threading
import weakref
from dataclasses import dataclass
from functools import partial
from itertools import islice
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .anchoring import AnchoringStrategy, anchor_for_level
from .curves import ACCURACY_CEILING
from .errors import DegenerateData
from .fitting import FitProblem, FitResult, check_anchor_weight, fit

PLEVEL_SOURCES = ("reference", "anchored")      # of `LearningTrace.plevel`


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
        for name, value in (("kernel", kernel), ("step", step)):
            if value < 1:
                raise ValueError(f"uniform scheme needs {name} >= 1, got {value}")
        return LearningScheme(kernel_size=kernel, step=lambda i: step)


class _FitStore(dict):
    """The store entries of one log: (level, anchor, anchor_weight) ->
    FitResult or skip reason, for its prefixes, and (curve, curve, x_min)
    -> IntersectionSet, or None for coincident curves, for the crossings
    of stored curves; a dict subclass so that the log can hold it
    weakly."""

    @staticmethod
    def key(level: int, anchor: Optional[float], weight: float) -> tuple:
        """The key of a level's problem: a plain problem is keyed (level,
        None, None), since `fit` reads the anchor weight only when there is
        an anchor."""
        return level, anchor, None if anchor is None else weight

    def lookup(self, log: "ObservationLog", level: int,
               anchor: Optional[float] = None,
               weight: float = 1.0) -> "FitResult | str":
        """The stored fit of the first `level` observations of `log` with
        `anchor`, or else that fit made and recorded; a degenerate fit is
        recorded as its reason, and any other exception is raised with
        nothing recorded."""
        key = self.key(level, anchor, weight)
        if key not in self:
            try:
                self[key] = fit(log.problem(level, anchor, weight))
            except DegenerateData as exc:
                self[key] = str(exc)
        return self[key]


# set while `run_jobs` shares its jobs with a helper: neither process
# forks again, so the two of them run on two CPUs, not three
_warming = False


def _helper_allowed(count: int) -> bool:
    """Whether `count` jobs are shared with a forked helper: at least two,
    in a process that may run on two CPUs, has no other Python thread (a
    fork copies only the calling thread) and is not running a warm-up
    already."""
    return (count >= 2 and not _warming and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1)


def run_jobs(store: _FitStore, jobs: list[Callable]) -> list:
    """`[job() for job in jobs]`, for jobs whose only side effect is to
    fill `store`: the same results, the first exception in job order
    raised as that loop raises it, and every store entry (fit or
    crossing) that loop stores in `store` under its key.  Every reader of
    a store looks an entry up by its key, so the order of the entries is
    not kept; past a job that raises, `store` may also hold a later job's
    entries.

    When `_helper_allowed`, this process runs jobs 0, 2, 4, ... and a
    forked helper jobs 1, 3, 5, ..., each in order up to its own first job
    that raises; neither process forks again meanwhile.  The helper runs
    the same code on the same process image, so what it computes is what
    this process would, bit for bit.  It pickles the store entries it
    added down a pipe and leaves by `os._exit`, so no exit handler or
    buffered output of this process runs in it; this process adds each
    entry whose key it does not hold yet.  It then computes the helper's
    jobs itself, finding every fit and crossing stored, and runs a job the
    helper did not finish.  The helper is always reaped before this
    returns, and killed first when this process is interrupted.  A helper
    that cannot start leaves every job to this process, and one that dies
    or sends a short result leaves it the helper's jobs."""
    global _warming
    if not _helper_allowed(len(jobs)):
        return [job() for job in jobs]
    known = len(store)
    results, failed = {}, {}

    def run(indices: range) -> None:
        """Run the jobs at `indices` in order into `results`, up to the
        first that raises, whose exception goes into `failed`."""
        for index in indices:
            try:
                results[index] = jobs[index]()
            except Exception as exc:
                failed[index] = exc
                break

    read_fd, write_fd = os.pipe()
    _warming = True
    try:
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            return [job() for job in jobs]
        if pid == 0:
            try:
                os.close(read_fd)
                run(range(1, len(jobs), 2))
                with os.fdopen(write_fd, "wb") as pipe:
                    pickle.dump(list(islice(store.items(), known, None)), pipe)
            finally:
                os._exit(0)
        os.close(write_fd)
        try:
            with os.fdopen(read_fd, "rb") as pipe:
                run(range(0, len(jobs), 2))
                data = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            os.waitpid(pid, 0)
    finally:
        _warming = False
    try:
        theirs = pickle.loads(data)
    except Exception:
        # a helper that died sent a short result, or none: whatever went
        # wrong there, this process runs the helper's jobs and meets it
        theirs = ()
    for key, result in theirs:
        store.setdefault(key, result)
    # a job that raised in the helper is met again here, in job order
    out = []
    for index, job in enumerate(jobs):
        if index in failed:
            raise failed[index]
        out.append(results[index] if index in results else job())
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
        if len(x) != len(accuracy):
            raise ValueError(f"{len(x)} sizes but {len(accuracy)} accuracies")
        log = ObservationLog(scheme=scheme)
        for i, (xi, yi) in enumerate(zip(x, accuracy), start=1):
            if not float(xi).is_integer():      # NaN and inf too
                raise ValueError(f"size {xi!r} at level {i} is not a whole number")
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
    plevel_source: str = "reference"    # one of PLEVEL_SOURCES

    def __post_init__(self):
        if not (0.0 < self.nu < 1.0):
            raise ValueError("nu must lie in (0, 1)")
        if self.slowdown < 1:
            raise ValueError("slowdown must be >= 1")
        if self.look_ahead < 0:
            raise ValueError("look_ahead must be >= 0")
        check_anchor_weight(self.anchor_weight)
        if self.plevel_source not in PLEVEL_SOURCES:
            raise ValueError("plevel_source must be 'reference' or 'anchored'")


def verticality_threshold(nu: float, slowdown: int) -> float:
    """Slope ceiling nu**(1/slowdown) / (1 - nu) used by the working level;
    at slowdown 1 a slope s is under it iff s / (s + 1) is under nu."""
    return nu ** (1.0 / slowdown) / (1.0 - nu)


def working_level(backbone: list[BackboneEntry], nu: float, slowdown: int,
                  look_ahead: int) -> Optional[int]:
    """Smallest level whose next look_ahead+1 backbone slopes all stay under
    the verticality threshold; None while the window is not yet observable.

    Slopes are taken between consecutive *present* entries, so gaps left by
    skipped levels are bridged by the previous successful level.
    """
    TraceParams(nu=nu, slowdown=slowdown, look_ahead=look_ahead)  # checks them
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


def prediction_level(backbone: Iterable[BackboneEntry], omega: int) -> Optional[int]:
    """Smallest present level >= omega whose asymptote is at most the
    accuracy ceiling; the plain and the anchored backbone both use it."""
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
    The four views are read-only: only `_settle` and `_fit_anchored`
    write the dicts behind them, each adding levels past the last.
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
        # no anchored level up to this one is the anchored prediction level
        self._plevel_scanned = 0
        # set while anchored levels are fitted: the views then show the
        # trace as it stands, which holds every level an anchor reads
        self._fitting = False
        self.wlevel: Optional[int] = None
        self.plevel_reference: Optional[int] = None
        # epsilon fold state kept by convergence._fold so that a query
        # resumes it: trends folded, records, last count, last epsilon
        self._epsilon_fold: tuple = (0, (), None, None)
        # tau -> the absolute stop of a fixed-anchoring trace, kept by
        # convergence._final_stop once found: such a stop is final
        self._stops: dict[float, int] = {}
        # the length of the log whose store a replayed trace uses until it
        # is extended past it (`extend`)
        self._replayed = 0
        self._store = self.observations._fit_store()

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_log(log: ObservationLog, strategy: AnchoringStrategy,
                 params: TraceParams = TraceParams(),
                 reference: "LearningTrace | None" = None) -> "LearningTrace":
        """Build a trace by replaying the log through `extend`.

        A log only grows, so the fits of its prefixes never go stale: the
        trace uses the log's fit store, which every trace replayed on that
        log shares.  With `reference` (a trace with the same parameters
        whose observations start with the log's) it uses the reference's
        store instead.  Once the trace is extended past the log, any fit it
        still needs is made in the store of its own observations.
        """
        trace = LearningTrace(strategy, params, scheme=log.scheme)
        if reference is None:
            trace._store = log._fit_store()
        else:
            prefix = reference.observations.entries[:len(log)]
            if reference.params != params or log.entries != prefix:
                raise ValueError("reference trace does not match the log/params")
            trace._store = reference._store
        trace._replayed = len(log)
        for obs in log:
            trace.extend(obs)
        return trace

    def extend(self, obs: Observation) -> "LearningTrace":
        # a falsy `_replayed` first: the monitor's fresh trace reads no more
        if self._replayed and len(self.observations) == self._replayed:
            self._replayed = 0
            self._store = self.observations._fit_store()
        self.observations.append(obs)
        if len(self.observations) >= 3 and self.plevel_reference is None:
            self._settle()
            self._update_levels()
        return self

    # -- fitting ----------------------------------------------------------

    def _fits(self, levels: range, anchors) -> Iterator[tuple]:
        """(level, anchor, fit or None) of `levels` with `anchors`, in
        order; a degenerate fit is None, with its reason recorded in
        `_skipped`.  Each fit is looked up in the trace's store, or else
        made and recorded there, so no trace sharing the store fits the
        same problem twice.

        `anchors` is a list when every anchor is known before the first
        fit: the fits missing from the store are then made first, as the
        jobs of one warm-up (`run_jobs`).  A warm-up that raises has stored
        the fit of every job before the raising one, so that exception is
        raised at the first level whose fit is still missing, after the
        levels below it are recorded, and not fitted again.  Otherwise
        `anchors` is an iterator, whose next anchor may read the fits
        recorded below it."""
        store, weight = self._store, self.params.anchor_weight
        failed = None
        if isinstance(anchors, list) and len(levels) >= 2:
            try:
                run_jobs(store, [partial(store.lookup, self.observations,
                                         level, anchor, weight)
                                 for level, anchor in zip(levels, anchors)
                                 if store.key(level, anchor, weight)
                                 not in store])
            except Exception as exc:
                failed = exc
        for level, anchor in zip(levels, anchors):
            if failed and store.key(level, anchor, weight) not in store:
                raise failed
            result = store.lookup(self.observations, level, anchor, weight)
            if isinstance(result, str):
                self._skipped[level] = result
                result = None
            yield level, anchor, result

    def _settle(self) -> None:
        """Fit the plain levels not yet fitted."""
        if self._fitting:
            return
        levels = range(self._plain_level + 1, len(self.observations) + 1)
        for level, _, result in self._fits(levels, [None] * len(levels)):
            if result is not None:
                self._reference_trends[level] = result
            self._plain_level = level

    def _fit_anchored(self, upto: Optional[int] = None) -> None:
        """Fit the anchored levels not yet fitted, in order, up to `upto`
        (default: the last observed level).  A level's anchor reads only
        the trace below that level (`anchor_for_level`), through views
        that fit nothing while this runs, so it is the anchor an eager
        trace would have used.  A `fixed` anchor is beta, so those anchors
        are all taken before the first fit."""
        if self._fitting or self.strategy.kind == "none" or self.wlevel is None:
            return
        if upto is None:
            upto = len(self.observations)
        levels = range(max(self._anchored_level, self.wlevel) + 1, upto + 1)
        self._fitting = True
        try:
            anchors = (anchor_for_level(self.strategy, level, self)
                       for level in levels)
            if self.strategy.kind == "fixed":
                anchors = list(anchors)
            for level, anchor, result in self._fits(levels, anchors):
                if result is not None:
                    self._anchored_trends[level] = result
                    self._anchors[level] = float(anchor)
                self._anchored_level = level
        finally:
            self._fitting = False

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
    def reference_trends(self) -> Mapping[int, FitResult]:
        self._settle()
        return MappingProxyType(self._reference_trends)

    @property
    def anchored_trends(self) -> Mapping[int, FitResult]:
        self._fit_anchored()
        return MappingProxyType(self._anchored_trends)

    @property
    def anchors(self) -> Mapping[int, float]:
        self._fit_anchored()
        return MappingProxyType(self._anchors)

    @property
    def plevel_anchored(self) -> Optional[int]:
        """The prediction level of the anchored backbone (`prediction_level`).

        Anchored levels are only added, each past the last, so a level a
        read found wanting (no trend, or an asymptote over the ceiling)
        stays so, and the next read resumes past it (`_plevel_scanned`)."""
        trends = self.anchored_trends       # empty while wlevel is None
        if self.wlevel is None:
            return None
        found = prediction_level(
            self._backbone(trends, range(self._plevel_scanned + 1,
                                         self._anchored_level + 1)),
            self.wlevel)
        self._plevel_scanned = (self._anchored_level if found is None
                                else found - 1)
        return found

    @property
    def skipped(self) -> Mapping[int, str]:
        self._settle()
        self._fit_anchored()
        return MappingProxyType(self._skipped)

    def _backbone(self, trends: Mapping[int, FitResult],
                  levels: Optional[range] = None) -> Iterator[BackboneEntry]:
        """The entries of `trends` in level order, or those at `levels`,
        each made as it is read."""
        entries = self.observations.entries
        return (BackboneEntry(level, trends[level].curve.c, entries[level - 1].x)
                for level in (sorted(trends) if levels is None else levels)
                if level in trends)

    def reference_backbone(self) -> list[BackboneEntry]:
        return list(self._backbone(self.reference_trends))

    def backbone(self) -> list[BackboneEntry]:
        """Active backbone: anchored trends when anchoring, else reference."""
        return list(self._backbone(self.trends()))

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
            "params": dict(vars(self.params)),
            "observations": [
                {"level": o.level, "size": o.x, "accuracy": o.accuracy}
                for o in self.observations
            ],
            "wlevel": self.wlevel,
            "plevel_reference": self.plevel_reference,
            "plevel_anchored": self.plevel_anchored,
            "anchors": {str(k): v for k, v in sorted(self.anchors.items())},
            "skipped": {str(k): v for k, v in sorted(self.skipped.items())},
            "reference_backbone": [dict(vars(e))
                                   for e in self.reference_backbone()],
            "backbone": [dict(vars(e)) for e in self.backbone()],
            "trends": {
                str(level): {"a": r.curve.a, "b": r.curve.b, "c": r.curve.c,
                             "sse": r.sse,
                             "residual_at_infinity": r.residual_at_infinity}
                for level, r in sorted(trends.items())
            },
        }
