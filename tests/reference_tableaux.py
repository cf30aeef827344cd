"""The generic tableau enumerator, kept for the tests as the reference: it knows no shape family."""

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
