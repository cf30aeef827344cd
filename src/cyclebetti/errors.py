"""Exception types shared across the package."""


class DomainError(ValueError):
    """A parameter lies outside the range an operation supports."""


class InvalidCycleError(DomainError):
    """Cycle graphs need at least three vertices."""


class VertexRangeError(ValueError):
    """A vertex label falls outside {1, ..., n}."""


class UndefinedMarkerError(ValueError):
    """Marker sets exist only for proper nonempty vertex subsets."""


class TableauParseError(ValueError):
    """Tableau text does not match the rows-of-integers grammar."""


class TableauValidationError(ValueError):
    """A filling violates a standard-tableau invariant; the message names it."""


class InvalidMarkedSubsetError(ValueError):
    """A (vertices, marker) pair is not a valid marked subset."""


class ImpossibleBranchError(RuntimeError):
    """Internal inconsistency: a branch that standardness rules out was reached."""
