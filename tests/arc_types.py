"""The arc-type route to Hochster's sums, kept for the tests as the reference.

A proper nonempty j-subset of the n-cycle splits into arcs, and its arc
type is the partition of j formed by their lengths.  This route ranks one
representative subset per arc type through the graph-counting oracle,
which builds no matrix, and weights it by the number of j-subsets of that
type, and it walks the arcs of each representative for the linear strand.
The j-subsets by arc count alone are counted here by a recurrence on
compositions, the classes the library's closed form for the strand is
checked against.
"""

from collections import Counter
from functools import lru_cache
from math import comb, factorial, prod
from typing import Iterator

from graph_oracle import graph_homology_oracle

from cyclebetti.cycle import restrict


def partitions(total: int, largest: int, max_parts: int) -> Iterator[tuple[int, ...]]:
    """Partitions of total into at most max_parts parts of size at most largest."""
    if not total:
        yield ()
    elif max_parts:
        for part in range(min(total, largest), 0, -1):
            for rest in partitions(total - part, part, max_parts - 1):
                yield (part, *rest)


def arc_types(n: int, j: int) -> Iterator[tuple[tuple[int, ...], int]]:
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
    for arcs in partitions(j, j, n - j):
        subset, start = [], 1
        for length in arcs:
            subset.extend(range(start, start + length))
            start += length + 1
        c = len(arcs)
        orderings = factorial(c) // prod(factorial(arcs.count(a)) for a in set(arcs))
        yield tuple(subset), n * orderings * comb(n - j - 1, c - 1) // c


def column(n: int, j: int) -> list[int]:
    """Hochster's sums for internal degree j; entry k is the Betti number (j - k, j).

    A graph has no homology above degree 1, so the oracle's degrees -1, 0 and 1,
    zero-padded, are a representative's homology in degrees -1..j-1.
    """
    sums = [0] * (j + 1)
    for subset, count in arc_types(n, j):
        for k, dim in enumerate((*graph_homology_oracle(n, subset), *(0,) * j)[: j + 1]):
            sums[k] += count * dim
    return sums


def linear_strand(n: int, j: int) -> int:
    """The strand entry at (j - 1, j): each representative's component count minus one, weighted."""
    return sum(count * (len(restrict(n, subset).components) - 1) for subset, count in arc_types(n, j))


@lru_cache(maxsize=None)
def compositions(total: int) -> Counter:
    """The compositions of total into positive parts, by number of parts: a first part, then the rest."""
    counts = Counter({0: 1} if total == 0 else {})
    for first in range(1, total + 1):
        for parts, k in compositions(total - first).items():
            counts[parts + 1] += k
    return counts


def arc_counts(n: int, j: int) -> dict[int, int]:
    """The j-subsets of the n-cycle, 0 < j < n, by arc count c, from two composition recurrences.

    A starting vertex, a composition of j into c arc lengths and one of the n - j gap vertices
    into c gaps give each subset once per choice of its first arc; no binomial is used.
    """
    arcs, gaps = compositions(j), compositions(n - j)
    return {c: n * arcs[c] * gaps[c] // c for c in arcs if gaps[c]}
