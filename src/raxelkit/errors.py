"""Exception types shared across the toolkit."""


class RaxelkitError(Exception):
    """Base class for all raxelkit errors."""


class ShapeMismatchError(RaxelkitError):
    """Inputs that must agree in shape or length do not."""


class DegenerateGeometryError(RaxelkitError):
    """Point geometry too degenerate to constrain a rigid transform."""


class NonFiniteInputError(RaxelkitError, ValueError):
    """Input coordinates contain NaN or infinity."""


class InsufficientInliersError(RaxelkitError):
    """Too few usable pixels for focal-length estimation."""


class DegenerateDirectionError(RaxelkitError):
    """Cosine-loss gradient requested at a (near-)zero-norm vector."""


class InvalidFrameCountError(RaxelkitError):
    """Frame count incompatible with the 4x temporal compression rule."""


class LengthMismatchError(RaxelkitError):
    """Trajectories being compared have different frame counts."""


class ReferenceMismatchError(RaxelkitError):
    """Trajectories being compared use different reference indices."""


class TooFewFramesError(RaxelkitError):
    """Pairwise metrics need at least two frames."""


class TrajectoryParseError(RaxelkitError):
    """Trajectory text file is malformed; carries the offending line number."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class RaxelFileError(RaxelkitError):
    """Binary ray-grid file is truncated or has a bad magic/header."""
