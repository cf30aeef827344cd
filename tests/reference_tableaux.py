"""Row-based references for the tests: the generic tableau enumerator, which knows no shape
family, and the transpose and hook of hook-plus-column rows.  Also the sorting validators:
Tableau's, which sorts all n entries, and vertex_set's and MarkedSubset's, which read the range
by min and max, and which type every label as given.  The library's checks must give the same
verdict, rejection by rejection."""

from itertools import chain
from numbers import Real
from operator import ge, lt

from cyclebetti.cycle import admissible_markers
from cyclebetti.errors import (
    InvalidCycleError,
    InvalidMarkedSubsetError,
    TableauValidationError,
    UndefinedMarkerError,
    VertexRangeError,
)
from cyclebetti.tableaux import Shape, Tableau


def reference_standard_tableaux(shape: Shape) -> list[Tableau]:
    """All standard tableaux of a shape, sorted by reading word.

    Entries 1..n are placed in increasing order; at each step a value may
    extend any row that is still short of its part and no longer than the
    row above, which is exactly the condition keeping the filling standard.
    """
    parts = shape.parts
    n = shape.size
    rows: list[list[int]] = [[] for _ in parts]
    found: list[Tableau] = []

    def place(value: int) -> None:
        if value > n:
            found.append(Tableau.from_rows(rows))
            return
        for r, part in enumerate(parts):
            filled = len(rows[r])
            if filled < part and (r == 0 or len(rows[r - 1]) > filled):
                rows[r].append(value)
                place(value + 1)
                rows[r].pop()

    place(1)
    found.sort(key=reading_word)
    return found


def reading_word(t: Tableau) -> tuple[int, ...]:
    """All entries of a tableau in row-major order, read off its rows; the canonical sort key."""
    return tuple(chain.from_iterable(t.rows))


def hook_parts(n):
    """Every hook-plus-column shape (j, 2, 1, ..., 1) on n cells, j = 2..n-2."""
    return [(j, 2) + (1,) * (n - j - 2) for j in range(2, n - 1)]


def laid_out(parts, word):
    """Rows of the given lengths holding the word in reading order."""
    values = iter(word)
    return tuple(tuple(next(values) for _ in range(part)) for part in parts)


def transposed_rows(rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The columns of hook-plus-column rows, as the rows of the reflection.

    Column 1, then column 2, then one row per later cell of row 1.
    """
    return (tuple(row[0] for row in rows), (rows[0][1], rows[1][1]), *zip(rows[0][2:]))


def hook_of(rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(first row, first column, entry at (2, 2)) of hook-plus-column rows, unchecked."""
    return rows[0], tuple(row[0] for row in rows), rows[1][1]


def reference_tableau_rows(rows):
    """The hook that Tableau.from_rows(rows) holds, checked in the sorting validator's order."""
    rows = tuple(map(tuple, rows))
    below = tuple(chain.from_iterable(rows[2:]))
    if not (
        len(rows) > 1 and len(rows[0]) > 1 and len(rows[1]) == 2
        and len(below) == len(rows) - 2 and all(rows[2:])
    ):
        raise TableauValidationError(
            f"tableaux must have a hook-plus-column shape (j, 2, 1, ..., 1) with j >= 2, "
            f"got row lengths {tuple(map(len, rows))}"
        )
    return reference_tableau_hook(rows[0], rows[0][:1] + rows[1][:1] + below, rows[1][1])


def reference_tableau_hook(row, column, corner):
    """The hook, once the sorting validator accepts it."""
    if len(row) < 2 or len(column) < 2:
        raise TableauValidationError(f"hooks need 2 cells each way, got {len(row)} and {len(column)}")
    n = len(row) + len(column)
    # (1, 1) is in both row and column; typed before sorting, so sorted() never raises
    entries, types = row + column[1:] + (corner,), {*map(type, row + column), type(corner)}
    if types != {int} or sorted(entries) != list(range(1, n + 1)) or column[0] != row[0]:
        raise TableauValidationError(f"entries must be exactly 1..{n}, each once")
    if any(map(ge, row, row[1:])):
        raise TableauValidationError(f"row 1 is not strictly increasing: {row}")
    if column[1] >= corner:
        raise TableauValidationError(f"row 2 is not strictly increasing: {(column[1], corner)}")
    if corner < row[1] or any(map(lt, column[1:], column)):
        # the first cell below row 1 under a larger one: (2, 1), (2, 2), (3, 1), (4, 1), ...
        i = [column[1] < column[0], corner < row[1], *map(lt, column[2:], column[1:])].index(True)
        raise TableauValidationError(
            f"column {2 if i == 1 else 1} is not strictly increasing at row {max(i, 1) + 1}"
        )
    return row, column, corner


def reference_vertex_set(n, vertices=()):
    """vertex_set, with its range read by min and max.

    Every label is typed as given: an equal float or bool beside an int (1.0 or True beside 1)
    is rejected in either order, before the frozenset would merge it with the int.  A
    non-iterable or unhashable argument is named before n is checked.
    """
    try:
        labels = list(vertices)
        vs = frozenset(labels)
    except TypeError:
        raise VertexRangeError(f"vertices must be an iterable of labels, got {vertices!r}") from None
    if type(n) is not int or n < 3:
        raise InvalidCycleError(f"cycle graphs need n >= 3, got n={n}")
    if any(type(v) is not int for v in labels) or (vs and (min(vs) < 1 or max(vs) > n)):
        bad = []
        for v in labels:  # each once, where an int and an equal float or bool are two labels
            if (type(v) is not int or not 1 <= v <= n) and not any(
                type(b) is type(v) and (b is v or b == v) for b in bad
            ):
                bad.append(v)
        # numbers first, ties between equal numbers by repr; never raises
        bad.sort(key=lambda v: (0, v, repr(v)) if isinstance(v, Real) else (1, repr(v)))
        raise VertexRangeError(f"vertices {bad} fall outside 1..{n}")
    return vs


def reference_marked_subset(n, vertices, marker):
    """(n, vertices, marker) of MarkedSubset(n, vertices, marker), checked in the same order."""
    try:
        vs = reference_vertex_set(n, vertices)
        if not vs or len(vs) == n:
            raise UndefinedMarkerError(
                f"markers need a proper nonempty subset of 1..{n}, got {sorted(vs)}"
            )
    except (InvalidCycleError, VertexRangeError, UndefinedMarkerError) as exc:
        raise InvalidMarkedSubsetError(str(exc)) from None
    m, has_one = marker, 1 in vs
    side_misses = vs.issuperset if has_one else vs.isdisjoint
    if type(m) is not int or not (
        m <= n and (m in vs) != has_one and (m - 1 in vs) == has_one
        and not side_misses(range(1, m))
    ):
        raise InvalidMarkedSubsetError(
            f"marker {m} is not admissible for {sorted(vs)} "
            f"on the {n}-cycle (admissible: {sorted(admissible_markers(n, vs))})"
        )
    return n, vs, marker
