"""Graded Betti numbers of cycle graphs via Hochster's formula.

The Betti number in homological degree i and internal degree j is the sum,
over all vertex subsets W of size j, of the dimension of reduced homology
in degree j - i - 1 of the restriction to W.  A proper nonempty W restricts
to c disjoint paths, and the j-subsets with c arcs are counted in closed
form, so every sum runs over arc counts; the empty subset and the whole
cycle are one class each.  Every rank comes from one sparse reduction of
the cycle's two boundary maps, whose column prefixes are the paths, and a
table is summed only once every path has come out acyclic: no vanishing
is assumed anywhere, and the familiar shape of the answer (two corner
entries and one linear strand) is something the test suite checks, never
an input.
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


def _arc_counts(n: int, j: int) -> dict[int, int]:
    """For 0 < j < n, the j-subsets of the n-cycle by arc count c, for c = 1..min(j, n - j).

    A starting vertex, one of the C(j-1, c-1) compositions of j into c arc
    lengths and one of the C(n-j-1, c-1) compositions of the n - j gap
    vertices into c gaps give each subset once per choice of its first arc
    (Kaplansky, Bull. AMS 1943).
    """
    return {c: n * comb(j - 1, c - 1) * comb(n - j - 1, c - 1) // c for c in range(1, min(j, n - j) + 1)}


def _columns(n: int, degrees: range) -> list[list[int]]:
    """Hochster's sums by internal degree j; entry k of a column is the Betti number (j - k, j).

    One elimination ranks every path and the whole cycle.  Every path on
    1..n-1 vertices must come out acyclic, or no table is summed; then the
    c arcs of a j-subset have incidence rank sum j - c, the rank of the
    cycle's first j - c edges, and each arc-count class of a column goes
    through the homology rule once.  The empty subset and the whole cycle
    contain no arc, c = 0: as many edges as vertices.  A column keeps the
    degrees up to j - 1; the ones it drops, for j <= 1, count no faces.
    """
    augmentation, incidence = _cycle_ranks(n)
    for m in range(1, n):
        if any(path := _graph_homology(m, m - 1, augmentation[m], incidence[m - 1])):
            raise ImpossibleBranchError(f"the path on {m} vertices is not acyclic: reduced homology {path}")
    columns = []
    for j in degrees:
        columns.append([0] * (j + 1))
        for c, subsets in (_arc_counts(n, j) if 0 < j < n else {0: 1}).items():
            for k, dim in enumerate(_graph_homology(j, j - c, augmentation[j], incidence[j - c])[: j + 1]):
                columns[-1][k] += subsets * dim
    return columns


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

    A j-subset with c arcs contributes c - 1, so this sums c - 1 over the
    closed count of the j-subsets by arc count, and no homology machinery
    is needed.
    This is the fast, independent route to the numbers the homology sum
    produces on the strand.
    """
    _check_size(n, minimum=4)
    if type(j) is not int or not 2 <= j <= n - 2:
        raise DomainError(f"the linear strand covers 2 <= j <= n-2, got j={j}, n={n}")
    return sum((c - 1) * subsets for c, subsets in _arc_counts(n, j).items())
