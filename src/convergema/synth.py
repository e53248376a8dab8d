"""Seeded synthetic observation streams with controlled ground truth.

Stands in for real training corpora: a known power-law truth plus optional
Gaussian noise and per-level perturbation deltas, so the anchoring and
convergence guarantees can be exercised against a known final accuracy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import ACCURACY_CEILING, PowerLawCurve, evaluate
from .traces import LearningScheme, ObservationLog

_FLOOR = 1e-6


def default_scheme() -> LearningScheme:
    """Kernel 5000, uniform step 5000."""
    return LearningScheme.uniform(5000, 5000)


@dataclass(frozen=True)
class GeneratorSpec:
    truth: PowerLawCurve
    levels: int
    scheme: LearningScheme = field(default_factory=default_scheme)
    noise_sd: float = 0.0
    perturbations: tuple[tuple[int, float], ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if not 0.0 <= self.noise_sd < math.inf:
            raise ValueError("noise_sd must be finite and nonnegative")
        for level, _ in self.perturbations:
            if not (1 <= level <= self.levels):
                raise ValueError(f"perturbation level {level} outside 1..{self.levels}")


def generate(spec: GeneratorSpec) -> ObservationLog:
    """Deterministic for a given seed; accuracies clamped to (0, 100]."""
    xs = np.asarray(spec.scheme.positions(spec.levels), dtype=float)
    ys = evaluate(spec.truth, xs)
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if spec.noise_sd > 0.0:
        rng = np.random.default_rng(spec.seed)
        ys = ys + rng.normal(0.0, spec.noise_sd, size=spec.levels)
    for level, delta in spec.perturbations:
        ys[level - 1] += delta
    return ObservationLog.from_arrays(xs, np.clip(ys, _FLOOR, ACCURACY_CEILING),
                                      scheme=spec.scheme)


def drift_perturbations(spec_levels: int, scale: float, decay: float,
                        scheme: LearningScheme | None = None
                        ) -> tuple[tuple[int, float], ...]:
    """Per-level deltas scale * x**(-decay): a slowly vanishing offset.

    Positive scale lifts early observations above the truth curve (plain
    backbones then overestimate the asymptote and decrease); negative scale
    depresses them (backbones increase toward the truth).
    """
    scheme = scheme or default_scheme()
    xs = scheme.positions(spec_levels)
    return tuple((i + 1, scale * float(x) ** (-decay)) for i, x in enumerate(xs))
