"""Graded Betti numbers of cycle graphs via Hochster's formula.

The Betti number in homological degree i and internal degree j is the sum,
over all vertex subsets W of size j, of the dimension of reduced homology
in degree j - i - 1 of the restriction to W.  A proper nonempty W restricts
to c disjoint paths, so its homology depends only on j, c and the sum of
its paths' incidence ranks, and every sum runs over those classes; the
empty subset and the whole cycle are one class each.  Every rank comes
from one elimination of the cycle's two boundary matrices, whose column
prefixes are the paths; no vanishing is assumed anywhere, and
the familiar shape of the answer (two corner entries and one linear
strand) is something the test suite checks, never an input.
"""

from __future__ import annotations

from collections import Counter
from math import comb

from .errors import DomainError, Record
from .homology import _cycle_ranks, _graph_homology

# The range the tests verify: every table up to this size is checked
# against its Hilbert series, its Gorenstein symmetry and the closed forms
# of its corners and linear strand.  Larger cycles would run, unchecked.
MAX_CYCLE_SIZE = 100


def _check_size(n: int, minimum: int) -> None:
    if type(n) is not int or not minimum <= n <= MAX_CYCLE_SIZE:
        raise DomainError(f"supported cycle sizes are {minimum}..{MAX_CYCLE_SIZE}, got n={n}")


def _subset_counts(n: int, weights: dict[int, int]) -> dict[int, Counter[tuple[int, int]]]:
    """For j = 1..len(weights) < n, the j-subsets of the n-cycle by arc count c and arc weight w.

    A recurrence on j counts the ordered compositions of j into c arc
    lengths L by the sum w of weights[L].  A starting vertex, a composition
    and one of the C(n-j-1, c-1) compositions of the n - j gap vertices into
    c parts give each subset once per choice of its first arc.
    """
    ordered, counts = [Counter({(0, 0): 1})], {}
    for j in weights:
        ordered.append(Counter())
        for length in range(1, j + 1):
            for (c, w), k in ordered[j - length].items():
                ordered[j][c + 1, w + weights[length]] += k
        layouts = {c: n * comb(n - j - 1, c - 1) for c in range(1, n - j + 1)}
        counts[j] = Counter({(c, w): layouts[c] * k // c for (c, w), k in ordered[j].items() if c in layouts})
    return counts


def _columns(n: int, degrees: range) -> list[list[int]]:
    """Hochster's sums by internal degree j; entry k of a column is the Betti number (j - k, j).

    One elimination ranks every path and the whole cycle, and each
    (c, rank sum) class of a column goes through the homology rule once.
    The empty subset and the whole cycle contain no arc, c = 0: as many
    edges as vertices.
    """
    augmentation, incidence = _cycle_ranks(n)
    longest = max(j % n for j in degrees)  # j = n is the whole cycle
    counts = _subset_counts(n, {m: incidence[m - 1] for m in range(1, longest + 1)})
    counts[0], counts[n] = Counter({(0, incidence[0]): 1}), Counter({(0, incidence[n]): 1})
    columns = []
    for j in degrees:
        columns.append([0] * (j + 1))
        for (c, rank_sum), subsets in counts[j].items():
            for k, dim in enumerate(_graph_homology(j, j - c, augmentation[j], rank_sum)):
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
    j-subsets counted by arc count, and no homology machinery is needed.
    This is the fast, independent route to the numbers the homology sum
    produces on the strand.
    """
    _check_size(n, minimum=4)
    if type(j) is not int or not 2 <= j <= n - 2:
        raise DomainError(f"the linear strand covers 2 <= j <= n-2, got j={j}, n={n}")
    counts = _subset_counts(n, dict.fromkeys(range(1, j + 1), 0))[j]
    return sum((c - 1) * subsets for (c, _), subsets in counts.items())
