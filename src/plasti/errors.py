"""Exception hierarchy shared by all modules.

Every error that a caller is expected to catch derives from PlastiError.
Parse-time and usage errors are kept apart from check failures on purpose:
check failures are report content, never exceptions.
"""


class PlastiError(Exception):
    """Base class for all toolkit errors."""


class SpaceError(PlastiError):
    """Invalid subspace description or an operation misuse on one."""


class EmptyWindow(SpaceError):
    """The window contains no point of the space."""


class RuleDivergence(SpaceError):
    """A gap rule could not enumerate the window within the step cap."""


class NotDiscrete(SpaceError):
    """Gap spectra are only defined for spaces without interval parts."""


class WindowTooSmall(SpaceError):
    """An exact census would be truncated by the window or an accumulation point."""


class MapError(PlastiError):
    """Invalid map description or evaluation failure."""


class OutsideDomain(MapError):
    """The evaluated point is not a member of the space."""


class AmbiguousPiece(MapError):
    """Two pieces of a piecewise rule claim the same point."""


class NoPieceApplies(MapError):
    """No piece of the map covers a member of the space (coverage violation)."""


class InverseMissing(MapError):
    """The operation requires a declared inverse and none is present."""


class NoAdjacentPoint(MapError):
    """An index shift ran off the end of the point sequence."""


class CapExceeded(PlastiError):
    """An enumeration exceeded its configured cap or hard ceiling."""


class MetadataUnvalidated(PlastiError):
    """classify() refuses to run while declared metadata fails validation."""


class InvalidMatrix(PlastiError):
    """Distance matrix violates shape or basic axioms required as input."""


class OuterMetricInvalid(InvalidMatrix):
    """The supplied outer metric fails the metric axioms."""


class ParseError(PlastiError):
    """Description-file syntax error, carrying position information."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class UnknownGalleryId(PlastiError):
    """No gallery entry under the requested identifier."""
