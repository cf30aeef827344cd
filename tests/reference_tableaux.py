"""Row-based references for the tests: the generic tableau enumerator, which knows no shape
family, and the transpose and hook of hook-plus-column rows."""

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
            found.append(Tableau(tuple(map(tuple, rows))))
            return
        for r, part in enumerate(parts):
            filled = len(rows[r])
            if filled < part and (r == 0 or len(rows[r - 1]) > filled):
                rows[r].append(value)
                place(value + 1)
                rows[r].pop()

    place(1)
    found.sort(key=lambda t: t.reading_word)
    return found


def transposed_rows(rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The columns of hook-plus-column rows, as the rows of the reflection.

    Column 1, then column 2, then one row per later cell of row 1.
    """
    return (tuple(row[0] for row in rows), (rows[0][1], rows[1][1]), *zip(rows[0][2:]))


def hook_of(rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(first row, first column, entry at (2, 2)) of hook-plus-column rows, unchecked."""
    return rows[0], tuple(row[0] for row in rows), rows[1][1]
