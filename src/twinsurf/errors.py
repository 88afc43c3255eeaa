"""Structured errors shared by every module.

Each error carries a stable code name (used by the CLI exit-code contract)
and, where it makes sense, the offending grid node indices.
"""

from __future__ import annotations

import numpy as np


class TwinsurfError(Exception):
    """Base class; ``code`` is the stable machine-readable name."""

    code = "ERROR"

    def __init__(self, message: str = "", nodes=None):
        self.nodes = None if nodes is None else np.asarray(nodes)
        text = message or self.code
        if self.nodes is not None and len(self.nodes):
            shown = self.nodes[:8].tolist()
            text += f" (first offending nodes (iy, ix): {shown})"
        super().__init__(text)


class ValidationError(TwinsurfError):
    code = "VALIDATION"


class AreaAngleViolation(TwinsurfError):
    code = "AREA_ANGLE_VIOLATION"


class NotClosed(TwinsurfError):
    code = "NOT_CLOSED"


class NotMinimal(TwinsurfError):
    code = "NOT_MINIMAL"


class NotSpacelike(TwinsurfError):
    code = "NOT_SPACELIKE"


class ParamConstraintViolation(TwinsurfError):
    code = "PARAM_CONSTRAINT_VIOLATION"


class DenominatorVanishes(TwinsurfError):
    code = "DENOMINATOR_VANISHES"


class PhiOutOfRange(TwinsurfError):
    code = "PHI_OUT_OF_RANGE"


class NotUnimodular(TwinsurfError):
    code = "NOT_UNIMODULAR"


class SignChange(TwinsurfError):
    code = "SIGN_CHANGE"


class DegenerateFit(TwinsurfError):
    code = "DEGENERATE_FIT"


class NewtonDiverged(TwinsurfError):
    code = "NEWTON_DIVERGED"


class TargetOutsideImage(TwinsurfError):
    code = "TARGET_OUTSIDE_IMAGE"


class MaxIterations(TwinsurfError):
    code = "MAX_ITERATIONS"


class Diverged(TwinsurfError):
    code = "DIVERGED"


class SpacelikeUnreachable(TwinsurfError):
    code = "SPACELIKE_UNREACHABLE"


class DomainNotAdmissible(TwinsurfError):
    code = "DOMAIN_NOT_ADMISSIBLE"
