"""In-memory spans around the public functions of each convergema layer.

A span wraps a function at every module attribute its callers look it up
by (``convergema.traces.fit``, ``convergema.evaluation.epsilon_sequence``,
...), so the package itself is not edited: the wrappers are installed from
outside and removed again when the traced block ends.  Spans are kept in a
list and written out as JSONL by the caller when the run ends.
"""
from __future__ import annotations

import functools
import itertools
import statistics
import sys
import time
from contextlib import contextmanager

# (span name, module, attribute path inside that module)
TARGETS = (
    ("fitting.fit", "convergema.fitting", "fit"),
    ("traces.from_log", "convergema.traces", "LearningTrace.from_log"),
    ("traces.extend", "convergema.traces", "LearningTrace.extend"),
    ("anchoring.anchor_for_level", "convergema.anchoring", "anchor_for_level"),
    ("convergence.intersect", "convergema.convergence", "intersect"),
    ("convergence.epsilon_sequence", "convergema.convergence", "epsilon_sequence"),
    ("convergence.clevel", "convergema.convergence", "clevel"),
    ("convergence.find_optimal_look_ahead", "convergema.convergence",
     "find_optimal_look_ahead"),
    ("evaluation.build_frame", "convergema.evaluation", "build_frame"),
    ("evaluation.rows", "convergema.evaluation", "LocalTestingFrame.rows"),
    ("evaluation.accuracy", "convergema.evaluation", "accuracy"),
    ("synth.generate", "convergema.synth", "generate"),
    ("io.read_observations", "convergema.io", "read_observations"),
    ("io.write_json", "convergema.io", "write_json"),
    ("io.write_series_csv", "convergema.io", "write_series_csv"),
    ("cli.analyze", "convergema.cli", "analyze.callback"),
)

# Per-layer metrics in the result line of every traced run.  Counts may be
# 0 where a workload never enters a span; a time is listed only if every
# workload enters its span.  The other times (from_log, the tuning sweep,
# evaluation, io and cli) are printed for the workloads that call them.
COUNT_METRICS = (
    "fitting.fit.calls", "fitting.fit.raised", "traces.from_log.calls",
    "traces.extend.calls", "traces.skipped", "anchoring.anchor_for_level.calls",
    "convergence.intersect.calls", "convergence.intersect.raised",
    "convergence.epsilon_sequence.calls", "convergence.clevel.calls",
    "convergence.ruptures", "evaluation.accuracy.calls",
)
TIME_METRICS = (
    "fitting.fit.self_s", "fitting.fit.p50_us", "traces.extend.self_s",
    "anchoring.anchor_for_level.self_s", "convergence.intersect.self_s",
    "convergence.intersect.p50_us", "convergence.epsilon_sequence.self_s",
    "synth.generate.self_s",
)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "convergema"
                                  or name.startswith("convergema."))]


class Tracer:
    """Records (id, parent, name, start, end, raised) per span."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self.traces: dict[int, object] = {}   # LearningTrace objects seen
        self.counts = {"traces.skipped": 0, "convergence.ruptures": 0}

    # -- spans --------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        raised = None
        start = time.perf_counter()
        try:
            yield sid
        except BaseException as exc:
            raised = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end, raised))

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._observe(name, result)
            return result
        return traced

    def _observe(self, name: str, result) -> None:
        if name in ("traces.from_log", "traces.extend"):
            self.traces[id(result)] = result
        elif name == "convergence.epsilon_sequence":
            self.counts["convergence.ruptures"] += sum(
                1 for rec in result if rec.is_rupture)

    def finish(self) -> None:
        """Count the levels skipped by every trace seen, then let go of
        the traces."""
        self.counts["traces.skipped"] = sum(len(t.skipped)
                                            for t in self.traces.values())
        self.traces.clear()

    @contextmanager
    def installed(self):
        """Wrap every target at every package attribute bound to it."""
        restore = []
        try:
            for name, module_name, path in TARGETS:
                module = sys.modules.get(module_name)
                if module is None:
                    continue    # convergema.cli: only the CLI child loads it
                owner_path, _, attr = path.rpartition(".")
                owner = module
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                if isinstance(owner, type):
                    raw = owner.__dict__[attr]
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    wrapped = self._wrap(name, fn)
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(wrapped)
                    setattr(owner, attr, wrapped)
                    restore.append((owner, attr, raw))
                    continue
                original = getattr(owner, attr)
                wrapped = self._wrap(name, original)
                if owner is module:
                    for mod in _package_modules():
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, wrapped)
                                restore.append((mod, key, original))
                else:
                    setattr(owner, attr, wrapped)
                    restore.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, value in reversed(restore):
                setattr(owner, attr, value)


def aggregate(spans) -> dict:
    """Per span name: calls, raised, self time and call durations."""
    child_time: dict[int, float] = {}
    for sid, parent, name, start, end, raised in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: dict[str, dict] = {}
    for sid, parent, name, start, end, raised in spans:
        entry = out.setdefault(name, {"calls": 0, "raised": 0, "self_s": 0.0,
                                      "durations": []})
        entry["calls"] += 1
        entry["raised"] += raised is not None
        entry["self_s"] += (end - start) - child_time.get(sid, 0.0)
        entry["durations"].append(end - start)
    return out


def covered_s(spans, root_name: str = "rep") -> float:
    """Time the direct children of the root spans cover."""
    roots = {sid for sid, _, name, *_ in spans if name == root_name}
    return sum(end - start for _, parent, _, start, end, _ in spans
               if parent in roots)


def layer_metrics(tracer: Tracer) -> dict:
    """Flat per-layer metrics of one traced repetition."""
    agg = aggregate(tracer.spans)
    metrics = dict(tracer.counts)
    for name, *_ in TARGETS:
        entry = agg.get(name)
        metrics[f"{name}.calls"] = entry["calls"] if entry else 0
        metrics[f"{name}.raised"] = entry["raised"] if entry else 0
        if entry:
            metrics[f"{name}.self_s"] = entry["self_s"]
            metrics[f"{name}.p50_us"] = statistics.median(entry["durations"]) * 1e6
    return metrics
