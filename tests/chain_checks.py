"""Matrix checks used only by the tests: boundary maps compose to zero."""

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
