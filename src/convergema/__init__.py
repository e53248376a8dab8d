"""Learner-agnostic convergence thresholds for non-active adaptive sampling.

The toolkit consumes incremental (training-size, accuracy) observations,
fits anchored power-law trends and decides, in absolute terms, when further
training can no longer move model quality by more than a user-chosen
tolerance.
"""

from .anchoring import AnchoringStrategy, anchor_for_level, verify_sufficiency
from .convergence import (
    EpsilonRecord,
    IntersectionSet,
    ProximityCondition,
    clevel,
    epsilon_sequence,
    find_optimal_look_ahead,
    intersect,
    minimal_look_ahead,
    normalize_threshold,
    put,
    threshold_level,
)
from .curves import PowerLawCurve, derivative, evaluate
from .errors import (
    CoincidentCurves,
    ConvergemaError,
    DegenerateData,
    MissingHorizon,
    MissingPLevel,
    MissingWLevel,
    NotDecreasing,
    NotReached,
    UnresolvedCLevel,
)
from .evaluation import (
    FrameSpec,
    Horizon,
    LocalTestingFrame,
    Ordering,
    Run,
    accuracy,
    build_frame,
    faster_than,
    relative_cost,
)
from .fitting import FitProblem, FitResult, fit
from .synth import GeneratorSpec, drift_perturbations, generate
from .traces import (
    BackboneEntry,
    LearningScheme,
    LearningTrace,
    Observation,
    ObservationLog,
    TraceParams,
    prediction_level,
    verticality_threshold,
    working_level,
)

__version__ = "0.1.0"
