"""Exception types used across the toolkit."""

__all__ = [
    "DqoptError",
    "NegativeStandardPart",
    "InfinitesimalSqrt",
    "NotAppreciable",
    "UnitValidationError",
    "NonUnitAxis",
    "NonUnitRotation",
    "NonImaginaryTranslation",
    "NonUnitValue",
    "ArityMismatch",
    "NonStandardProblem",
    "Infeasible",
    "InvalidPose",
    "TooFewMotions",
    "NoGroundTruth",
    "DisconnectedGraph",
    "NonUnitMeasurement",
    "ParseError",
]


class DqoptError(Exception):
    """Base class for every error raised by this package."""


class NegativeStandardPart(DqoptError):
    """Square root requested for a dual number with negative standard part."""


class InfinitesimalSqrt(DqoptError):
    """No dual number squares to a nonzero pure-infinitesimal value."""


class NotAppreciable(DqoptError):
    """The operation needs a value with a nonzero standard part."""


class UnitValidationError(DqoptError):
    """Value does not satisfy the unit conditions within tolerance."""


class NonUnitAxis(DqoptError):
    """Rotation axis must be an imaginary quaternion of unit length."""


class NonUnitRotation(DqoptError):
    """Rotation quaternion must have unit magnitude."""


class NonImaginaryTranslation(DqoptError):
    """Translations must be imaginary quaternions (zero real part)."""


class NonUnitValue(DqoptError):
    """A sampled function value failed unit validation."""


class ArityMismatch(DqoptError):
    """Functions being combined take different numbers of variables."""


class NonStandardProblem(DqoptError):
    """A function of the problem does not declare standard structure."""


class Infeasible(DqoptError):
    """No restart produced a point satisfying the constraints."""


class InvalidPose(DqoptError):
    """Pose data is not a rigid transform within tolerance."""


class TooFewMotions(DqoptError):
    """The dataset has too few measurements to pose the problem."""


class NoGroundTruth(DqoptError):
    """The dataset carries no ground truth to evaluate against."""


class DisconnectedGraph(DqoptError):
    """The pose graph is not weakly connected."""


class NonUnitMeasurement(DqoptError):
    """An edge measurement is not a unit dual quaternion within tolerance."""


class ParseError(DqoptError):
    """A text record could not be parsed."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason
