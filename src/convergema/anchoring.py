"""Anchor schedules and the sufficient conditions for decreasing backbones.

Four strategies are supported.  Anchors only exist for levels past the
working level of the reference trace:

* none:              no anchor at any level.
* canonical:         the asymptote of the previous anchored trend, seeded
                     with the reference asymptote at the working level.
* fixed(beta):       the constant beta >= 100 at every level.
* fixed(beta)+L:     beta until the prediction level has been exceeded by L
                     levels, then frozen at the asymptote the anchored trace
                     reached there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .curves import ACCURACY_CEILING
from .errors import MissingPLevel, MissingWLevel

if TYPE_CHECKING:
    from .traces import LearningTrace

# margin below zero still read as met by verify_sufficiency (rounding)
_SUFFICIENCY_TOL = 1e-9


@dataclass(frozen=True)
class AnchoringStrategy:
    kind: str                       # none | canonical | fixed | fixed_look_ahead
    beta: Optional[float] = None
    look_ahead: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("none", "canonical", "fixed", "fixed_look_ahead"):
            raise ValueError(f"unknown anchoring kind {self.kind!r}")
        if self.kind in ("fixed", "fixed_look_ahead"):
            if self.beta is None or not ACCURACY_CEILING <= self.beta < math.inf:
                raise ValueError("fixed anchoring needs a finite beta >= 100")
        if self.kind == "fixed_look_ahead":
            if self.look_ahead is None or self.look_ahead < 0:
                raise ValueError("fixed_look_ahead needs a nonnegative look-ahead")

    @staticmethod
    def none() -> "AnchoringStrategy":
        return AnchoringStrategy("none")

    @staticmethod
    def canonical() -> "AnchoringStrategy":
        return AnchoringStrategy("canonical")

    @staticmethod
    def fixed(beta: float) -> "AnchoringStrategy":
        return AnchoringStrategy("fixed", beta=float(beta))

    @staticmethod
    def fixed_with_look_ahead(beta: float, look_ahead: int) -> "AnchoringStrategy":
        return AnchoringStrategy("fixed_look_ahead", beta=float(beta),
                                 look_ahead=int(look_ahead))

    @staticmethod
    def parse(text: str) -> "AnchoringStrategy":
        """Grammar: none | canonical | fixed:<beta> | fixed:<beta>+<lookahead>."""
        text = text.strip()
        if text == "none":
            return AnchoringStrategy.none()
        if text == "canonical":
            return AnchoringStrategy.canonical()
        if text.startswith("fixed:"):
            beta, plus, look = text[len("fixed:"):].partition("+")
            try:
                beta, look = float(beta), int(look) if plus else None
            except ValueError:      # the range checks keep their messages
                pass
            else:
                return (AnchoringStrategy.fixed_with_look_ahead(beta, look)
                        if plus else AnchoringStrategy.fixed(beta))
        raise ValueError(f"cannot parse anchoring strategy {text!r}")

    def spec_string(self) -> str:
        if self.kind == "none":
            return "none"
        if self.kind == "canonical":
            return "canonical"
        if self.kind == "fixed":
            return f"fixed:{self.beta:g}"
        return f"fixed:{self.beta:g}+{self.look_ahead}"


def anchor_for_level(strategy: AnchoringStrategy, level: int,
                     trace: "LearningTrace") -> Optional[float]:
    """Anchor value the strategy dictates for `level` on `trace`.

    Anchors exist only past the working level; for the look-ahead strategy,
    the switch needs the prediction level (per the trace's plevel_source
    policy).  On gaps the canonical chain reuses the last successful
    anchored asymptote.
    """
    if strategy.kind == "none":
        return None
    omega = trace.wlevel
    if omega is None:
        raise MissingWLevel("anchors only apply once the working level is resolved")
    if level <= omega:
        return None

    if strategy.kind == "fixed":
        return strategy.beta

    if strategy.kind == "canonical":
        last = _last_anchored_asymptote(trace, level)
        return trace.reference_trends[omega].curve.c if last is None else last

    # fixed with look-ahead
    plevel = trace.plevel
    if plevel is None:
        # The switch level cannot have been reached yet: the prediction
        # level, once found, will be at least the current trace length.
        if level <= len(trace.observations):
            return strategy.beta
        raise MissingPLevel("look-ahead switch undetermined until the "
                            "prediction level resolves")
    switch = plevel + strategy.look_ahead + 1
    if level < switch:
        return strategy.beta
    # Frozen at the last anchored asymptote up to the freeze level,
    # switch - 1; with none (the freeze level falls at or below the working
    # level, where anchors do not exist) the anchor keeps beta, which makes
    # a null look-ahead coincide with plain fixed anchoring.
    last = _last_anchored_asymptote(trace, switch)
    return strategy.beta if last is None else last


def _last_anchored_asymptote(trace: "LearningTrace",
                             level: int) -> Optional[float]:
    """The asymptote of the last anchored trend below `level`, or None."""
    trends = trace.anchored_trends
    below = [lv for lv in trends if lv < level]
    return trends[max(below)].curve.c if below else None


@dataclass(frozen=True)
class SufficiencyRow:
    level: int
    anchor: float
    lower_margin: Optional[float]   # anchor - reference alpha; gated past plevel
    lower_required: bool
    lower_ok: Optional[bool]
    evolution_margin: Optional[float]  # (A_i - A_{i+1}) - (rho_i - rho_{i+1})
    evolution_ok: Optional[bool]


@dataclass(frozen=True)
class SufficiencyReport:
    rows: tuple[SufficiencyRow, ...]
    all_ok: bool


def verify_sufficiency(trace: "LearningTrace") -> SufficiencyReport:
    """Check, per level, the two anchor conditions that force a decreasing
    anchored backbone: anchors never below the reference asymptote past the
    prediction level, and anchor decrements at least matching the decrements
    of the residuals at infinity.

    Levels between the working and prediction level are reported but not
    failed on the first condition; fails there carry no verdict.
    """
    anchors = trace.anchors
    levels = sorted(anchors)
    plevel = trace.plevel
    rows = []
    ok = True
    for idx, level in enumerate(levels):
        anchor = anchors[level]
        lower_required = plevel is not None and level > plevel
        lower_margin = None
        lower_ok: Optional[bool] = None
        if level in trace.reference_trends:
            lower_margin = anchor - trace.reference_trends[level].curve.c
            if lower_required:
                lower_ok = lower_margin >= -_SUFFICIENCY_TOL
                ok = ok and lower_ok
        evolution_margin = None
        evolution_ok: Optional[bool] = None
        if idx + 1 < len(levels):
            nxt = levels[idx + 1]
            rho_i = trace.anchored_trends[level].residual_at_infinity
            rho_n = trace.anchored_trends[nxt].residual_at_infinity
            evolution_margin = (anchor - anchors[nxt]) - (rho_i - rho_n)
            evolution_ok = evolution_margin >= -_SUFFICIENCY_TOL
            ok = ok and evolution_ok
        rows.append(SufficiencyRow(level=level, anchor=anchor,
                                   lower_margin=lower_margin,
                                   lower_required=lower_required,
                                   lower_ok=lower_ok,
                                   evolution_margin=evolution_margin,
                                   evolution_ok=evolution_ok))
    return SufficiencyReport(rows=tuple(rows), all_ok=ok)
