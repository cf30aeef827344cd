"""Matrix checks used only by the tests: boundary maps compose to zero, and sparse columns as matrices."""

from cyclebetti.homology import IntMatrix


def composes_to_zero(left: IntMatrix, right: IntMatrix) -> bool:
    """Whether the product left * right exists and is the zero matrix."""
    if left.ncols != right.nrows:
        raise ValueError(f"cannot multiply {left.nrows}x{left.ncols} by {right.nrows}x{right.ncols}")
    return all(
        sum(row[k] * right.rows[k][c] for k in range(left.ncols)) == 0
        for row in left.rows
        for c in range(right.ncols)
    )


def column_shape(columns: list[dict[int, int]]) -> tuple[int, int]:
    """The rows that sparse {row: entry} columns span, up to the last nonzero one, and the column count."""
    return max((max(column) + 1 for column in columns if column), default=0), len(columns)


def dense(columns: list[dict[int, int]]) -> IntMatrix:
    """Sparse {row: entry} columns as a matrix of the rows they span."""
    nrows, ncols = column_shape(columns)
    return IntMatrix(nrows, ncols, tuple(tuple(column.get(r, 0) for column in columns) for r in range(nrows)))


def sparse(matrix: IntMatrix) -> list[dict[int, int]]:
    """A matrix's columns as {row: entry} maps of their nonzero entries, one per column."""
    return [{r: row[c] for r, row in enumerate(matrix.rows) if row[c]} for c in range(matrix.ncols)]
