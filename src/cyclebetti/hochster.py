"""Graded Betti numbers of cycle graphs via Hochster's formula.

The Betti number in homological degree i and internal degree j is the sum,
over all vertex subsets W of size j, of the dimension of reduced homology
in degree j - i - 1 of the restriction to W.  One sparse reduction of the
cycle's two boundary maps ranks every path (a column prefix) and the whole
cycle, and homology is computed from those ranks for every path, the
empty subset and the whole cycle.  Once every path is acyclic, a proper
nonempty W, c disjoint paths, has homology c - 1 in degree 0 only, and the
sum of c - 1 over the j-subsets is counted in closed form, each arc by its
first vertex.  No vanishing is assumed:
every zero follows from computed ranks, and the shape of the answer (two
corners and one linear strand) is something the test suite checks.
"""

from __future__ import annotations

from math import comb

from .errors import DomainError, ImpossibleBranchError, Record
from .homology import _cycle_ranks, _graph_homology

# The range the tests verify: every table up to this size is checked
# against its Hilbert series, its Gorenstein symmetry and the closed forms
# of its corners and linear strand.  Larger cycles would run, unchecked.
MAX_CYCLE_SIZE = 100


def _check_size(n: int, minimum: int) -> None:
    if type(n) is not int or not minimum <= n <= MAX_CYCLE_SIZE:
        raise DomainError(f"supported cycle sizes are {minimum}..{MAX_CYCLE_SIZE}, got n={n}")


def _strand(n: int, j: int) -> int:
    """The one nonzero entry of a column 0 < j < n: c - 1 summed over the j-subsets W, c the arcs of W.

    Count each arc once, by its first vertex: v starts an arc of W when v is
    in W and its predecessor is not.  The other j - 1 members of W then lie
    among the other n - 2 vertices, so the j-subsets have n * C(n - 2, j - 1)
    arcs in all, and the sum is that minus one per subset, C(n, j).
    """
    return n * comb(n - 2, j - 1) - comb(n, j)


def _columns(n: int, degrees: range) -> list[list[int]]:
    """Hochster's sums by internal degree j; entry k of a column is the Betti number (j - k, j).

    One elimination ranks every path and the whole cycle.  Every path on
    1..n-1 vertices must come out acyclic, or no table is summed; a proper
    nonempty j-subset is then c disjoint acyclic paths, with reduced
    homology c - 1 in degree 0 only, so column j holds the strand's closed
    form at k = 1.  The empty subset and the whole cycle, as many edges as
    vertices, go through the homology rule on their own ranks instead, and
    stay off the strand's count, which holds for 0 < j < n only.  A column
    keeps the degrees up to j - 1; those dropped, for j <= 1, count no faces.
    """
    augmentation, incidence = _cycle_ranks(n)
    for m in range(1, n):
        if any(path := _graph_homology(m, m - 1, augmentation[m], incidence[m - 1])):
            raise ImpossibleBranchError(f"the path on {m} vertices is not acyclic: reduced homology {path}")
    ends = {j: _graph_homology(j, j, augmentation[j], incidence[j]) for j in (0, n)}
    return [((ends[j] if j in ends else [0, _strand(n, j), 0]) + [0] * j)[: j + 1] for j in degrees]


def betti(n: int, i: int, j: int) -> int:
    """One graded Betti number of the n-cycle, summed over the subsets of size j."""
    _check_size(n, minimum=3)
    if type(i) is not int or type(j) is not int or not 0 <= i <= j <= n:
        raise DomainError(f"need 0 <= i <= j <= n, got i={i}, j={j}, n={n}")
    return _columns(n, range(j, j + 1))[0][j - i]


class BettiTable(Record):
    """Every graded Betti number of one cycle, indexed by (i, j)."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: dict[tuple[int, int], int]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)

    def __getitem__(self, key: tuple[int, int]) -> int:
        return self.entries[key]

    def nonzero(self) -> dict[tuple[int, int], int]:
        """The nonzero cells in (i, j) order."""
        return {key: value for key, value in sorted(self.entries.items()) if value}


def betti_table(n: int) -> BettiTable:
    """The full table for 0 <= i <= j <= n, one Hochster column per internal degree j."""
    _check_size(n, minimum=4)
    columns = _columns(n, range(n + 1))
    return BettiTable(n, {(i, j): columns[j][j - i] for j in range(n + 1) for i in range(j + 1)})


def linear_strand(n: int, j: int) -> int:
    """The strand entry at (j - 1, j) by component counting alone.

    It is the closed form the table writes at (j - 1, j), the j-subsets'
    arcs counted by their first vertices, with no elimination.
    """
    _check_size(n, minimum=4)
    if type(j) is not int or not 2 <= j <= n - 2:
        raise DomainError(f"the linear strand covers 2 <= j <= n-2, got j={j}, n={n}")
    return _strand(n, j)
