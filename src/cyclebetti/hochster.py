"""Graded Betti numbers of cycle graphs via Hochster's formula.

The Betti number in homological degree i and internal degree j is the sum,
over all vertex subsets W of size j, of the dimension of reduced homology
in degree j - i - 1 of the restriction to W.  A proper nonempty W restricts
to disjoint paths, so its homology depends only on its arc type: the
partition of j formed by the arc lengths.  Every sum runs over one subset
per arc type, weighted by the number of j-subsets of that type.  Every
dimension is computed from boundary matrices; no vanishing is assumed
anywhere, and the familiar shape of the answer (two corner entries and one
linear strand) is something the test suite checks, never an input.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, prod
from typing import Iterator

from .cycle import restrict
from .errors import DomainError
from .homology import cycle_reduced_homology

# The range the tests verify: every table up to this size is checked
# against the closed forms of its corners and linear strand, and the arc
# type counts against the binomials.  Larger cycles would run, unchecked.
MAX_CYCLE_SIZE = 20


def _check_size(n: int, minimum: int) -> None:
    if type(n) is not int or not minimum <= n <= MAX_CYCLE_SIZE:
        raise DomainError(f"supported cycle sizes are {minimum}..{MAX_CYCLE_SIZE}, got n={n}")


def _partitions(total: int, largest: int, max_parts: int) -> Iterator[tuple[int, ...]]:
    """Partitions of total into at most max_parts parts of size at most largest."""
    if not total:
        yield ()
    elif max_parts:
        for part in range(min(total, largest), 0, -1):
            for rest in _partitions(total - part, part, max_parts - 1):
                yield (part, *rest)


def _arc_types(n: int, j: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """One j-subset of the n-cycle per arc type, with the number of j-subsets of that type.

    The arc types of a proper nonempty j-subset are the partitions of j into
    c <= n - j parts, and the representative lays its arcs out in order with
    one-vertex gaps.  A starting vertex, one of the perms distinct orderings
    of the arcs and a composition of the n - j gap vertices into c parts
    give each subset of the type once per choice of its first arc, so the
    type has n * perms * C(n-j-1, c-1) / c subsets.  The empty subset and
    the whole cycle are types of their own.
    """
    if j in (0, n):
        yield tuple(range(1, j + 1)), 1
        return
    for arcs in _partitions(j, j, n - j):
        subset, start = [], 1
        for length in arcs:
            subset.extend(range(start, start + length))
            start += length + 1
        c = len(arcs)
        orderings = factorial(c) // prod(factorial(arcs.count(a)) for a in set(arcs))
        yield tuple(subset), n * orderings * comb(n - j - 1, c - 1) // c


def _column(n: int, j: int) -> list[int]:
    """Hochster's sums for internal degree j; entry k is the Betti number (j - k, j)."""
    column = [0] * (j + 1)
    for subset, count in _arc_types(n, j):
        for k, dim in enumerate(cycle_reduced_homology(n, subset)):
            column[k] += count * dim
    return column


def betti(n: int, i: int, j: int) -> int:
    """One graded Betti number of the n-cycle, summed over the arc types of size j."""
    _check_size(n, minimum=3)
    if type(i) is not int or type(j) is not int or not 0 <= i <= j <= n:
        raise DomainError(f"need 0 <= i <= j <= n, got i={i}, j={j}, n={n}")
    return _column(n, j)[j - i]


@dataclass
class BettiTable:
    """Every graded Betti number of one cycle, indexed by (i, j)."""

    n: int
    entries: dict[tuple[int, int], int]

    def __getitem__(self, key: tuple[int, int]) -> int:
        return self.entries[key]

    def nonzero(self) -> dict[tuple[int, int], int]:
        """The nonzero cells in (i, j) order."""
        return {key: value for key, value in sorted(self.entries.items()) if value}


def betti_table(n: int) -> BettiTable:
    """The full table for 0 <= i <= j <= n, one Hochster column per internal degree j."""
    _check_size(n, minimum=4)
    columns = [_column(n, j) for j in range(n + 1)]
    return BettiTable(n, {(i, j): columns[j][j - i] for j in range(n + 1) for i in range(j + 1)})


def linear_strand(n: int, j: int) -> int:
    """The strand entry at (j - 1, j) by component counting alone.

    Disconnected restrictions contribute their component count minus one,
    and connected ones contribute nothing, so no homology machinery is
    needed.  This is the fast, independent route to the numbers the
    homology sum produces on the strand.
    """
    _check_size(n, minimum=4)
    if type(j) is not int or not 2 <= j <= n - 2:
        raise DomainError(f"the linear strand covers 2 <= j <= n-2, got j={j}, n={n}")
    return sum(
        count * (restrict(n, subset).component_count - 1) for subset, count in _arc_types(n, j)
    )
