"""Hook-plus-column shapes, their standard Young tableaux, and the text format.

Tableaux are drawn in English orientation: the longest row on top, rows
numbered downward, columns rightward, and cells addressed 1-based.  The
text format writes rows separated by ';' and entries by ',', so the
5-cell filling with rows (1, 2), (3, 4), (5) reads "1,2;3,4;5".
"""

from __future__ import annotations

from bisect import bisect
from collections.abc import Iterable
from itertools import chain, combinations
from math import factorial
from operator import attrgetter, countOf, itemgetter, lt

from .errors import (
    DomainError,
    ImpossibleBranchError,
    Record,
    TableauParseError,
    TableauValidationError,
)


class Shape(Record):
    """A hook-plus-column partition (j, 2, 1, ..., 1) with j >= 2, the only shapes served."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]) -> None:
        object.__setattr__(self, "parts", parts)
        self.__post_init__()

    def __post_init__(self) -> None:
        try:
            parts = tuple(self.parts)
        except TypeError:  # not an iterable of parts: rejected below, as given
            parts = self.parts
        object.__setattr__(self, "parts", parts)
        if type(parts) is not tuple or countOf(map(type, parts), int) != len(parts) or parts[:1] < (2,) or (
            parts[1:] != (2,) + (1,) * (len(parts) - 2)
        ):
            raise DomainError(
                f"shapes must be hook-plus-column (j, 2, 1, ..., 1) with j >= 2, got {parts}"
            )

    @property
    def size(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Shape":
        """The reflected shape: (j, 2, 1, ..., 1) on n cells becomes (n - j, 2, 1, ..., 1)."""
        return hook_shape(self.size, self.size - self.parts[0])


def hook_shape(n: int, j: int) -> Shape:
    """The hook-plus-column partition (j, 2, 1, ..., 1) of n.

    The first row has length j and the remaining n - j cells hang below it
    in the first column, except for one cell widening the second row.
    Needs ints n >= 4 and 2 <= j <= n - 2 so that both the row and the column
    are genuinely there.
    """
    if type(n) is not int or type(j) is not int or n < 4 or not 2 <= j <= n - 2:
        raise DomainError(f"hook shapes need n >= 4 and 2 <= j <= n-2, got n={n}, j={j}")
    return Shape((j, 2) + (1,) * (n - j - 2))


Hook = tuple[tuple[int, ...], tuple[int, ...], int]  # (first row, first column, corner)
_transposed_hook = itemgetter(1, 0, 2)  # a reflection's hook: row and column trade places


def _hook_rows(hook: Hook) -> tuple[tuple[int, ...], ...]:
    """A hook's rows top down, also for a raw hook: row 1, (column[1], corner), then one cell each."""
    row, column, corner = hook
    return (row, (*column[1:2], corner), *zip(column[2:]))


class Tableau(Record):
    """A standard filling of a hook-plus-column shape (j, 2, 1, ..., 1) with j >= 2.

    Entries are 1..n, and rows and columns strictly increase.  Every cell is
    on the hook, so a tableau is its first row and first column (both from the
    (1, 1) entry, always 1) and its (2, 2) entry: Tableau(row, column, corner),
    by position or keyword, validates them at construction, so every Tableau
    in existence is standard and of such a shape.  from_rows reads the hook off
    the rows.
    """

    __slots__ = ("row", "column", "corner")

    def __init__(self, row: tuple[int, ...], column: tuple[int, ...], corner: int) -> None:
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "column", column)
        object.__setattr__(self, "corner", corner)
        self.__post_init__()

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> Tableau:
        """The tableau with these rows, once they have a hook-plus-column shape."""
        try:
            rows = tuple(map(tuple, rows))
        except TypeError:
            raise TableauValidationError(f"rows must be iterables of entries, got {rows!r}") from None
        # the rows under row 2 hold one cell each: as many cells as rows, none empty
        below = tuple(chain.from_iterable(rows[2:]))
        if not (
            len(rows) > 1 and len(rows[0]) > 1 and len(rows[1]) == 2
            and len(below) == len(rows) - 2 and all(rows[2:])
        ):
            raise TableauValidationError(
                f"tableaux must have a hook-plus-column shape (j, 2, 1, ..., 1) with j >= 2, "
                f"got row lengths {tuple(map(len, rows))}"
            )
        return cls(rows[0], rows[0][:1] + rows[1][:1] + below, rows[1][1])

    def __post_init__(self) -> None:
        row, column, corner = self.row, self.column, self.corner
        if type(row) is not tuple or type(column) is not tuple:  # held as given: a list is unhashable
            raise TableauValidationError(
                f"row and column must be tuples, got {type(row).__name__} and {type(column).__name__}"
            )
        if len(row) < 2 or len(column) < 2:
            raise TableauValidationError(f"hooks need 2 cells each way, got {len(row)} and {len(column)}")
        n = len(row) + len(column)
        # typed before any comparison, by counting exact ints; (1, 1) is in both lines, so their n - 1
        # cells differ when their set has n - 1 members, and then n distinct ints in 1..n are exactly 1..n
        if typed := type(corner) is int and countOf(map(type, row), int) + countOf(map(type, column), int) == n:
            srow, scol, cells = sorted(row), sorted(column), {*row, *column}
        if not (typed and row[0] == column[0] and len(cells) == n - 1 and 0 < srow[0] and 0 < scol[0]
                and srow[-1] <= n and scol[-1] <= n and 0 < corner <= n and corner not in cells):
            raise TableauValidationError(f"entries must be exactly 1..{n}, each once")
        if srow != list(row):  # the entries differ, so in order means strictly increasing
            raise TableauValidationError(f"row 1 is not strictly increasing: {row}")
        if column[1] >= corner:
            raise TableauValidationError(f"row 2 is not strictly increasing: {(column[1], corner)}")
        if corner < row[1] or scol != list(column):
            # the first cell below row 1 under a larger one: (2, 1), (2, 2), (3, 1), (4, 1), ...
            i = [column[1] < column[0], corner < row[1], *map(lt, column[2:], column[1:])].index(True)
            raise TableauValidationError(
                f"column {2 if i == 1 else 1} is not strictly increasing at row {max(i, 1) + 1}"
            )

    hook = property(attrgetter("row", "column", "corner"), doc="The fields, as one exact key.")

    rows = property(lambda self: _hook_rows(self.hook), doc="The rows top down, built from the hook.")

    @property
    def n(self) -> int:
        return len(self.row) + len(self.column)  # (1, 1) is in both, (2, 2) in neither


def transpose(tableau: Tableau) -> Tableau:
    """Reflect across the main diagonal; the shape becomes its conjugate."""
    return Tableau(*_transposed_hook(tableau.hook))


def enumerate_standard_tableaux(shape: Shape) -> list[Tableau]:
    """All standard tableaux of a hook-plus-column shape (j, 2, 1, ..., 1), sorted by reading word.

    First rows are 1 and j - 1 of 2..n, in lexicographic order.  The smallest
    entry left out sits at (2, 1), each one above the entry at (1, 2) in turn
    at (2, 2), and the rest in the column below.  Each tableau is validated as
    it is built.
    """
    if not isinstance(shape, Shape):
        raise DomainError(f"expected a Shape, got {shape!r}")
    n, j = shape.size, shape.parts[0]
    entries, found = set(range(2, n + 1)), []
    for rest in combinations(range(2, n + 1), j - 1):
        row, (low, *others) = (1, *rest), sorted(entries.difference(rest))
        for i in range(bisect(others, rest[0]), len(others)):
            found.append(Tableau(row, (1, low, *others[:i], *others[i + 1 :]), others[i]))
    return found


def hook_length_count(shape: Shape) -> int:
    """Number of standard tableaux of a shape, by the hook length formula.

    The hook of a cell covers the cell, everything to its right, and
    everything below; the count is n! divided by the product of all hook
    lengths.  On (j, 2, 1, ..., 1) the hooks are n - 1 at (1, 1), j at (1, 2)
    and n - j at (2, 1), then j - 2, ..., 1 along the rest of row 1, 1 at
    (2, 2) and n - j - 2, ..., 1 down the rest of column 1.  Serves as the
    closed-form cross-check for the enumeration.
    """
    if not isinstance(shape, Shape):
        raise DomainError(f"expected a Shape, got {shape!r}")
    n, j = shape.size, shape.parts[0]
    product = (n - 1) * j * factorial(j - 2) * (n - j) * factorial(n - j - 2)
    total = factorial(n)
    if total % product:
        raise ImpossibleBranchError(f"hook product {product} does not divide {n}!")
    return total // product


def parse_tableau(text: str) -> Tableau:
    """Parse "1,2;3,4;5" style text into a validated tableau.

    Whitespace around entries is tolerated.  Malformed text raises a parse
    error; syntactically fine text with a non-standard filling, or rows
    outside the hook-plus-column shapes, raises a validation error naming
    the broken invariant.
    """
    rows = []
    for row_text in text.split(";"):
        cells = [cell.strip() for cell in row_text.split(",")]
        if any(not cell for cell in cells):
            raise TableauParseError(f"empty entry in row {row_text!r}")
        try:
            rows.append(tuple(int(cell) for cell in cells))
        except ValueError as exc:
            raise TableauParseError(f"non-integer entry in row {row_text!r}") from exc
    return Tableau.from_rows(rows)


def format_tableau(tableau: Tableau) -> str:
    """Render a tableau in the "1,2;3,4;5" text format."""
    return _hook_text(tableau.hook)


def _hook_text(hook: Hook) -> str:
    """A hook, also a raw one, in the text format of format_tableau and parse_tableau."""
    return ";".join(",".join(map(str, row)) for row in _hook_rows(hook))
