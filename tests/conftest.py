"""Shared fixtures and the acceptance pass/fail reporter."""
import numpy as np
import pytest

from convergema import (GeneratorSpec, LearningTrace, PowerLawCurve,
                        TraceParams, generate)

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


# The bit pins compare float.hex output frozen where numpy dispatches to
# AVX-512; another SIMD target rounds some kernels differently, so there a
# failure need not be a fault.
BIT_PIN_NOTE = ("bits frozen where numpy dispatches to AVX-512 (ROADMAP, "
                "Known defects); this host dispatches to "
                f"{' '.join(simd_targets()[1]) or 'its baseline only'}")


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
