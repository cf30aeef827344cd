"""Hook-plus-column shapes, their standard Young tableaux, and the text format.

Tableaux are drawn in English orientation: the longest row on top, rows
numbered downward, columns rightward, and cells addressed 1-based.  The
text format writes rows separated by ';' and entries by ',', so the
5-cell filling with rows (1, 2), (3, 4), (5) reads "1,2;3,4;5".
"""

from __future__ import annotations

from dataclasses import dataclass
from bisect import bisect
from itertools import chain, combinations
from math import factorial
from operator import ge, itemgetter, lt

from .errors import (
    DomainError,
    ImpossibleBranchError,
    TableauParseError,
    TableauValidationError,
)


@dataclass(frozen=True)
class Shape:
    """A hook-plus-column partition (j, 2, 1, ..., 1) with j >= 2, the only shapes served."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if set(map(type, parts)) != {int} or not _is_hook(parts):
            raise DomainError(
                f"shapes must be hook-plus-column (j, 2, 1, ..., 1) with j >= 2, got {parts}"
            )

    @property
    def size(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Shape":
        """The reflected shape: (j, 2, 1, ..., 1) on n cells becomes (n - j, 2, 1, ..., 1)."""
        return hook_shape(self.size, self.size - self.parts[0])


def _is_hook(parts: tuple[int, ...]) -> bool:
    """Whether parts are (j, 2, 1, ..., 1) with j >= 2."""
    return parts[:1] >= (2,) and parts[1:] == (2,) + (1,) * (len(parts) - 2)


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


@dataclass(frozen=True)
class Tableau:
    """A standard filling of a hook-plus-column shape (j, 2, 1, ..., 1) with j >= 2.

    Entries are 1..n, and rows and columns strictly increase.  Validation
    happens at construction, so every Tableau in existence is standard and
    of such a shape.  Note the smallest entry is forced into the top-left
    cell by the increase constraints, so entry(1, 1) == 1 always holds.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(map(tuple, self.rows))
        object.__setattr__(self, "rows", rows)
        lengths = tuple(map(len, rows))
        if not _is_hook(lengths):
            raise TableauValidationError(
                f"tableaux must have a hook-plus-column shape (j, 2, 1, ..., 1) with j >= 2, "
                f"got row lengths {lengths}"
            )
        n = sum(lengths)
        entries = list(chain.from_iterable(rows))  # typed before sorting, so sorted() never raises
        if set(map(type, entries)) != {int} or sorted(entries) != list(range(1, n + 1)):
            raise TableauValidationError(f"entries must be exactly 1..{n}, each once")
        first, second = rows[0], rows[1]
        for i, row in ((1, first), (2, second)):
            if any(map(ge, row, row[1:])):
                raise TableauValidationError(f"row {i} is not strictly increasing: {row}")
        # the cells below row 1 in row-major order, each against the cell above it:
        # (2, 1), (2, 2), then (3, 1), (4, 1), ...
        column = tuple(map(itemgetter(0), rows))
        falls = [second[0] < first[0], second[1] < first[1], *map(lt, column[2:], column[1:])]
        if True in falls:
            i = falls.index(True)
            raise TableauValidationError(
                f"column {2 if i == 1 else 1} is not strictly increasing at row {max(i, 1) + 1}"
            )

    @property
    def shape(self) -> Shape:
        return Shape(tuple(map(len, self.rows)))

    @property
    def n(self) -> int:
        return sum(map(len, self.rows))

    @property
    def reading_word(self) -> tuple[int, ...]:
        """All entries in row-major order; the canonical sort key."""
        return tuple(chain.from_iterable(self.rows))

    def entry(self, i: int, j: int) -> int:
        """The entry in row i, column j (1-based)."""
        if not (1 <= i <= len(self.rows) and 1 <= j <= len(self.rows[i - 1])):
            raise ValueError(f"no cell at ({i}, {j})")
        return self.rows[i - 1][j - 1]

    def position_of(self, value: int) -> tuple[int, int]:
        """The (row, column) cell holding a value, 1-based."""
        for i, row in enumerate(self.rows):
            if value in row:
                return i + 1, row.index(value) + 1
        raise ValueError(f"{value} does not appear in the tableau")

    def __str__(self) -> str:
        return format_tableau(self)


def transpose(tableau: Tableau) -> Tableau:
    """Reflect across the main diagonal; the shape becomes its conjugate."""
    return Tableau(_transposed_rows(tableau.rows))


def _transposed_rows(rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The columns of hook-plus-column rows, as the rows of the reflection.

    Column 1, then column 2, then one row per later cell of row 1.
    """
    return (tuple(map(itemgetter(0), rows)), (rows[0][1], rows[1][1]), *zip(rows[0][2:]))


def enumerate_standard_tableaux(shape: Shape) -> list[Tableau]:
    """All standard tableaux of a hook-plus-column shape (j, 2, 1, ..., 1), sorted by reading word.

    First rows are 1 and j - 1 of 2..n, in lexicographic order.  The smallest
    entry left out sits at (2, 1), each one above the entry at (1, 2) in turn
    at (2, 2), and the rest in the column below.  Each tableau is validated as
    it is built.
    """
    n, j = shape.size, shape.parts[0]
    entries, found = set(range(2, n + 1)), []
    for rest in combinations(range(2, n + 1), j - 1):
        low, *others = sorted(entries.difference(rest))
        for i in range(bisect(others, rest[0]), len(others)):
            column = zip(others[:i] + others[i + 1 :])
            found.append(Tableau(((1, *rest), (low, others[i]), *column)))
    return found


def hook_length_count(shape: Shape) -> int:
    """Number of standard tableaux of a shape, by the hook length formula.

    The hook of a cell covers the cell, everything to its right, and
    everything below; the count is n! divided by the product of all hook
    lengths.  Serves as the closed-form cross-check for the enumeration.
    """
    parts = shape.parts
    cols = shape.conjugate().parts
    product = 1
    for i, part in enumerate(parts):
        for c in range(part):
            product *= (part - c) + (cols[c] - i) - 1
    total = factorial(shape.size)
    if total % product:
        raise ImpossibleBranchError(f"hook product {product} does not divide {shape.size}!")
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
    return Tableau(tuple(rows))


def format_tableau(tableau: Tableau) -> str:
    """Render a tableau in the "1,2;3,4;5" text format."""
    return ";".join(",".join(str(v) for v in row) for row in tableau.rows)
