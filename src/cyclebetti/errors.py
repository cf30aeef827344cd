"""Exception types, the cycle-size cap and the immutable value base Record, shared across the package."""

# The range the tests verify: every table up to this size is checked
# against its Hilbert series, its Gorenstein symmetry and the closed forms
# of its corners and linear strand.  Larger cycles would run, unchecked.
MAX_CYCLE_SIZE = 100


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


class Record:
    """An immutable value held in __slots__, whose fields are the slot names in order.

    Equality, hash, repr and pickling go by the fields, and a value of another
    class compares unequal.  A subclass's __init__ sets each field with
    object.__setattr__, then calls self.__post_init__() if the class validates,
    so a copy or an unpickled value passes the same checks.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other: object) -> bool:
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._fields()  # unpickled and copied through __init__

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError  # imported only when raised
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")
