"""Exception types and warning categories shared across the package."""


class ThinspecError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ThinspecError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class OffsetTooDeep(ThinspecError):
    """Coating thickness reaches or exceeds the curvature reach of the curve."""


class MeshFailure(ThinspecError):
    """Mesh generation produced a degenerate or inverted triangle."""


class ConvergenceFailure(ThinspecError):
    """Iterative eigensolver exhausted its iteration budget."""


class SolveSingular(ThinspecError):
    """Augmented (constrained) linear system is numerically singular."""


class NoRootInBracket(ThinspecError):
    """Determinant sign scan found no root in the search interval."""


class NoRootFound(ThinspecError):
    """Pencil solve found no real eigenvalue in its search window."""


class MissingLayer(ThinspecError):
    """Operation requires a mesh with a coating region."""


class NearDegenerate(ThinspecError):
    """Leading Dirichlet eigenvalue is not numerically simple."""


class BelowLambda0(ThinspecError):
    """Measured eigenvalue lies below the leading Dirichlet eigenvalue."""


class InsufficientData(ThinspecError):
    """Not enough points for a least-squares order fit."""


class ConfigError(ThinspecError):
    """Run configuration failed validation; carries field diagnostics."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class MagnitudeWarning(UserWarning):
    """Requested value is near a singularity and loses relative accuracy."""
