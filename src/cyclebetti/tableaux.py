"""Integer partitions, standard Young tableaux, and their text format.

Tableaux are drawn in English orientation: the longest row on top, rows
numbered downward, columns rightward, and cells addressed 1-based.  The
text format writes rows separated by ';' and entries by ',', so the
5-cell filling with rows (1, 2), (3, 4), (5) reads "1,2;3,4;5".
"""

from __future__ import annotations

from dataclasses import dataclass
from bisect import bisect
from itertools import accumulate, chain, combinations, groupby
from math import factorial
from operator import ge, itemgetter, le, lt, sub
from typing import Iterator

from .errors import (
    DomainError,
    ImpossibleBranchError,
    TableauParseError,
    TableauValidationError,
)


@dataclass(frozen=True)
class Shape:
    """An integer partition: weakly decreasing positive row lengths."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise DomainError("partitions need at least one part")
        if set(map(type, parts)) != {int} or min(parts) < 1:
            raise DomainError(f"parts must be positive integers, got {parts}")
        if any(map(lt, parts, parts[1:])):
            raise DomainError(f"parts must be weakly decreasing, got {parts}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Shape":
        """The reflected partition: column lengths become row lengths."""
        return Shape(_column_lengths(self.parts))


def _column_lengths(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Column lengths of a partition, one block of equal lengths per distinct part."""
    cols: list[int] = []
    for start, end, k in _column_blocks(parts):
        cols += [k] * (end - start)
    return tuple(cols)


def _column_blocks(parts: tuple[int, ...]) -> Iterator[tuple[int, int, int]]:
    """(start, end, k) per distinct part, shortest first: columns start..end-1 hold k cells.

    Column c holds one cell per part longer than c, so the columns between
    two consecutive distinct parts share a length.
    """
    k, start = len(parts), 0
    for part, run in groupby(reversed(parts)):
        yield start, part, k
        k -= len(tuple(run))
        start = part


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
    """A standard filling: entries 1..n, rows and columns strictly increasing.

    Validation happens at construction, so every Tableau in existence is
    standard.  Note the smallest entry is forced into the top-left cell by
    the increase constraints, so entry(1, 1) == 1 always holds.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(map(tuple, self.rows))
        object.__setattr__(self, "rows", rows)
        lengths = tuple(map(len, rows))
        if not rows or min(lengths) == 0:
            raise TableauValidationError("tableaux need at least one entry in every row")
        if any(map(lt, lengths, lengths[1:])):
            raise TableauValidationError(f"row lengths must be weakly decreasing, got {lengths}")
        n = sum(lengths)
        entries = list(chain.from_iterable(rows))  # typed before sorting, so sorted() never raises
        if set(map(type, entries)) != {int} or sorted(entries) != list(range(1, n + 1)):
            raise TableauValidationError(f"entries must be exactly 1..{n}, each once")
        k = len(rows) - lengths.count(1)  # rows of one cell come last
        for i, row in enumerate(rows[:k]):
            if any(map(ge, row, row[1:])):
                raise TableauValidationError(f"row {i + 1} is not strictly increasing: {row}")
        for i, (above, below) in enumerate(zip(rows, rows[1 : k + 1]), start=2):
            if any(map(le, below, above)):
                c = list(map(le, below, above)).index(True)
                raise TableauValidationError(
                    f"column {c + 1} is not strictly increasing at row {i}"
                )
        column = tuple(chain.from_iterable(rows[k:]))  # column 1 from row k + 1 down
        if any(map(le, column[1:], column)):
            i = k + 2 + list(map(le, column[1:], column)).index(True)
            raise TableauValidationError(f"column 1 is not strictly increasing at row {i}")

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
    """The columns of rows whose lengths form a partition, as the rows of the reflection.

    Each block of equal-length columns is one zip over the slices of the rows reaching it.
    """
    blocks = _column_blocks(tuple(map(len, rows)))
    columns = (zip(*map(itemgetter(slice(start, end)), rows[:k])) for start, end, k in blocks)
    return tuple(chain.from_iterable(columns))


def _word_transposer(parts: tuple[int, ...]) -> itemgetter:
    """One itemgetter taking reading words of shape parts (two cells or more) to their transposes'.

    It is _transposed_rows, applied once to the filling of each cell's own position.
    """
    ends = tuple(accumulate(parts))
    positions = tuple(map(range, map(sub, ends, parts), ends))
    return itemgetter(*chain.from_iterable(_transposed_rows(positions)))


def enumerate_standard_tableaux(shape: Shape) -> list[Tableau]:
    """All standard tableaux of a hook-plus-column shape (j, 2, 1, ..., 1), sorted by reading word.

    First rows are 1 and j - 1 of 2..n, in lexicographic order.  The smallest
    entry left out sits at (2, 1), each one above the entry at (1, 2) in turn
    at (2, 2), and the rest in the column below.  Each tableau is validated as
    it is built.  Other shapes raise DomainError.
    """
    n, j = shape.size, shape.parts[0]
    if shape != hook_shape(n, j):
        raise DomainError(f"only hook-plus-column shapes are enumerated, got {shape.parts}")
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
    error; syntactically fine text with a non-standard filling raises a
    validation error naming the broken invariant.
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
