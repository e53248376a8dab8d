"""Learner-agnostic convergence thresholds for non-active adaptive sampling.

The toolkit consumes incremental (training-size, accuracy) observations,
fits anchored power-law trends and decides, in absolute terms, when further
training can no longer move model quality by more than a user-chosen
tolerance.

Each public name loads its submodule on first access (PEP 562).
"""
import importlib

_EXPORTS = {
    "anchoring": ("AnchoringStrategy", "anchor_for_level", "verify_sufficiency"),
    "convergence": ("EpsilonRecord", "IntersectionSet", "ProximityCondition",
                    "clevel", "epsilon_sequence", "find_optimal_look_ahead",
                    "intersect", "minimal_look_ahead", "normalize_threshold",
                    "put", "threshold_level"),
    "curves": ("PowerLawCurve", "derivative", "evaluate"),
    "errors": ("CoincidentCurves", "ConvergemaError", "DegenerateData",
               "MissingHorizon", "MissingPLevel", "MissingWLevel",
               "NotDecreasing", "NotReached", "UnresolvedCLevel"),
    "evaluation": ("FrameSpec", "Horizon", "LocalTestingFrame", "Ordering",
                   "Run", "accuracy", "build_frame", "faster_than",
                   "relative_cost"),
    "fitting": ("FitProblem", "FitResult", "fit"),
    "synth": ("GeneratorSpec", "drift_perturbations", "generate"),
    "traces": ("BackboneEntry", "LearningScheme", "LearningTrace",
               "Observation", "ObservationLog", "TraceParams",
               "prediction_level", "verticality_threshold", "working_level"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNER)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
