"""Exception types shared across the toolkit."""


class ConvergemaError(Exception):
    """Base class for all toolkit errors."""


class DegenerateData(ConvergemaError):
    """No valid pattern (a > 0, b > 0) fits the observations; the message
    names why: all observed accuracies are identical (the flat limit
    a -> 0 lies outside the family), or no b in the profile scan gives
    a > 0 (the least-squares trend of every basin is flat or falling)."""


class CoincidentCurves(ConvergemaError):
    """Two curves are numerically indistinguishable on [x_min, inf)."""


class NotDecreasing(ConvergemaError):
    """Asymptotic backbone increases beyond tolerance, so absolute
    thresholds are not applicable to this trace."""


class MissingWLevel(ConvergemaError):
    """Anchors requested before the working level is resolved."""


class MissingPLevel(ConvergemaError):
    """Look-ahead anchor switch requested before the prediction level is
    resolved."""


class UnresolvedCLevel(ConvergemaError):
    """A metric needs a convergence level that the run never reached."""


class MissingHorizon(ConvergemaError):
    """Accuracy metrics need horizon observations that were not supplied."""


class NotReached(ConvergemaError):
    """No level qualifies for the requested threshold within the trace."""
