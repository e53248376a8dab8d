"""Shared fixtures and the acceptance pass/fail reporter."""
import ast
import math
import os
import sys

import numpy as np
import pytest

from convergema import (GeneratorSpec, LearningTrace, PowerLawCurve,
                        TraceParams, convergence, evaluation, generate, traces)

KERNEL = 5000
STEP = 5000


def positions(levels: int) -> np.ndarray:
    return KERNEL + STEP * np.arange(levels, dtype=float)


def power_law_samples(a, b, c, levels):
    x = positions(levels)
    return x, -a * np.power(x, -b) + c


def healthy_params(rng):
    """Curves with a visible accuracy climb across the sampled range."""
    drop = rng.uniform(2.0, 30.0)
    b = rng.uniform(0.25, 1.0)
    c = rng.uniform(80.0, 99.5)
    return drop * KERNEL ** b, b, c


def saturated_params(rng):
    """Nearly saturated curves: the trace closes most of the remaining gap."""
    drop = rng.uniform(0.8, 1.6)
    b = rng.uniform(1.0, 1.25)
    c = rng.uniform(99.7, 99.92)
    return drop * KERNEL ** b, b, c


def build_trace(a, b, c, levels, strategy, noise_sd=0.0, seed=0,
                perturbations=(), params=None, reference=None):
    spec = GeneratorSpec(truth=PowerLawCurve(a=a, b=b, c=c), levels=levels,
                         noise_sd=noise_sd, seed=seed,
                         perturbations=tuple(perturbations))
    log = generate(spec)
    return LearningTrace.from_log(log, strategy, params or TraceParams(),
                                  reference=reference)


class SharedLog:
    """Lines appended by this process and by any process forked from it
    (a file opened with O_APPEND takes each write whole), read back as the
    Python literals they were written as."""

    def __init__(self, path):
        self.path = path
        path.touch()

    def add(self, item) -> None:
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, (repr(item) + "\n").encode())
        finally:
            os.close(fd)

    def read(self) -> list:
        return [ast.literal_eval(line)
                for line in self.path.read_text().splitlines()]


def count_fits(monkeypatch, tmp_path):
    """Record the (level, anchor, anchor_weight) of every fit made, by this
    process or a forked helper; the returned function reads them back, each
    process's fits in the order that process made them, or with a `pid`
    only the fits of that process."""
    keys = SharedLog(tmp_path / "fits.log")
    real_fit = traces.fit

    def counted(problem):
        keys.add((os.getpid(),
                  (len(problem.x), problem.anchor, problem.anchor_weight)))
        return real_fit(problem)

    def read(pid=None):
        return [key for maker, key in keys.read() if pid in (None, maker)]

    monkeypatch.setattr(traces, "fit", counted)
    return read


def count_intersects(monkeypatch, tmp_path):
    """Record the (c1, c2, x_min) of every intersection made, by this
    process or a forked helper, each curve as its (a, b, c); the returned
    function reads them back, each process's in the order it made them."""
    keys = SharedLog(tmp_path / "intersects.log")
    real_intersect = convergence.intersect

    def counted(c1, c2, x_min):
        keys.add(((c1.a, c1.b, c1.c), (c2.a, c2.b, c2.c), x_min))
        return real_intersect(c1, c2, x_min)

    monkeypatch.setattr(convergence, "intersect", counted)
    return keys.read


def let_run_on(monkeypatch, count):
    """Let the process run on `count` CPUs, as `os.sched_getaffinity` says."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)))


def watch_warm_ups(monkeypatch, tmp_path):
    """Wrap `os.fork` and `run_jobs` where a look-ahead sweep ("sweep"), a
    frame ("frame") and a view's batch of fits ("batch") call it; a call
    entered while a warm-up runs (`traces._warming`) is "nested".  Returns
    two readers of what any process did: (pid, the innermost warm-up
    running there) of each fork, and (pid, warm-up, number of jobs) of
    each `run_jobs` call.  The pid of a fork is the caller's, which runs
    the warm-up's even-indexed jobs; the helper it forks runs the
    odd-indexed ones."""
    forks = SharedLog(tmp_path / "forks.log")
    calls = SharedLog(tmp_path / "warm-ups.log")
    running = []
    for module, kind in ((convergence, "sweep"), (evaluation, "frame"),
                         (traces, "batch")):
        def run_jobs(store, jobs, real=module.run_jobs, kind=kind):
            running.append("nested" if traces._warming else kind)
            calls.add((os.getpid(), running[-1], len(jobs)))
            try:
                return real(store, jobs)
            finally:
                running.pop()

        monkeypatch.setattr(module, "run_jobs", run_jobs)
    real_fork = os.fork

    def fork():
        forks.add((os.getpid(), running[-1] if running else None))
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks.read, calls.read


# -- numpy SIMD target ----------------------------------------------------

def simd_targets() -> tuple[list[str], list[str]]:
    """numpy's compiled-in SIMD baseline, and the dispatch targets of its
    vectorised kernels that this host supports."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:                 # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    found = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return list(umath.__cpu_baseline__), found


def bits_comparable(frozen_on) -> bool:
    """Whether this host's SIMD targets are those a fixture was frozen on
    (`simd_targets()` there).  Only then are its bits compared: another
    target rounds some numpy kernels differently, and there the fixture's
    values are compared within the allowances below."""
    return tuple(simd_targets()) == tuple(frozen_on)


BIT_PIN_NOTE = ("bits frozen on the SIMD targets this host dispatches to "
                f"({' '.join(simd_targets()[1]) or 'its baseline only'}): "
                "a moved bit is a change of the program or of numpy")


# -- value allowances (derived in CHANGES.md) -----------------------------

# an asymptote, or anything the fit fixes only as well as it fixes c: the
# refactor gate, relative
C_RTOL = 1e-8


def value_delta(*scales: float) -> float:
    """What another SIMD target may move a value c - a*x**-b, or a residual
    y minus it, whose terms are at most the largest of `scales` in size:
    with the power faithfully rounded, each target is within 4 ulp of it."""
    return 8.0 * math.ulp(max(abs(s) for s in scales))


def sse_allowance(y, sse: float, c: float, anchor=None, weight: float = 1.0,
                  anchor_allowance: float = 0.0) -> float:
    """How far another SIMD target may move the SSE of a fit to `y` (with
    `anchor` at infinity, itself known within `anchor_allowance`): each
    residual moves by at most `value_delta`, the sum of n squares is
    rounded in another order, and the fit's SSE moves with its anchor at
    the rate 2*weight*(anchor - c)."""
    rows = len(y) + (weight if anchor is not None else 0.0)
    delta = value_delta(*y, c, *(() if anchor is None else (anchor,)))
    out = (2.0 * math.sqrt(rows * sse) * delta + rows * delta * delta
           + rows * sys.float_info.epsilon * sse)
    if anchor is not None:
        out += 2.0 * weight * abs(anchor - c) * anchor_allowance
    return out


def assert_values_close(got, frozen) -> None:
    """`got` and `frozen` are lists of (name, value, allowance); the names
    and the exact values (allowance None) match, and every other value of
    `got` lies within the frozen allowance of the frozen value."""
    assert [name for name, _, _ in got] == [name for name, _, _ in frozen]
    for (name, value, _), (_, want, allowance) in zip(got, frozen):
        if allowance is None:
            assert value == want, name
        else:
            assert abs(value - want) <= allowance, (name, value, want,
                                                    allowance)


def pytest_report_header(config):
    baseline, found = simd_targets()
    return (f"numpy {np.__version__} SIMD: baseline {' '.join(baseline)}; "
            f"dispatched {' '.join(found) or 'none'}")


# -- acceptance criterion reporting --------------------------------------

_CRITERION_RESULTS = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, title): acceptance criterion metadata")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker and report.when == "call":
        num = marker.args[0]
        title = marker.args[1] if len(marker.args) > 1 else item.name
        _CRITERION_RESULTS[num] = (title, report.passed)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_CRITERION_RESULTS):
        title, passed = _CRITERION_RESULTS[num]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {num:>2} [{verdict}] {title}")
