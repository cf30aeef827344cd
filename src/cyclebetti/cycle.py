"""Cycle graphs, vertex-subset restrictions, and marked subsets.

The cycle graph on n >= 3 vertices has vertex set {1, ..., n} and an edge
between i and j exactly when i - j is congruent to +-1 mod n.  Restricting
to a vertex subset W splits W into maximal cyclically contiguous arcs.  The
arc minima of W, or of its complement when vertex 1 lies in W, are the
markers; choosing one marker other than the smallest yields a marked
subset, and those pairs are what the linear strand of the Betti table
counts.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from operator import countOf

from .errors import (
    DomainError,
    InvalidCycleError,
    InvalidMarkedSubsetError,
    Record,
    UndefinedMarkerError,
    VertexRangeError,
)


def vertex_set(n: int, vertices: Iterable[int]) -> frozenset[int]:
    """The vertex subset as a frozenset, once n and every label are checked.

    This is the one input rule for a subset of the n-cycle: the vertices
    are an iterable of hashable labels, n is an int >= 3, and every vertex
    is an int in 1..n (never a float or a bool).  The labels are typed as
    given, before the frozenset merges equal ones (1, 1.0 and True), so
    their order never matters.
    """
    try:  # only reading or freezing the labels raises TypeError
        labels = vertices if hasattr(vertices, "__len__") else tuple(vertices)  # an iterator runs once
        vs = frozenset(labels)
    except TypeError:
        raise VertexRangeError(f"vertices must be an iterable of labels, got {vertices!r}") from None
    if type(n) is not int or n < 3:
        raise InvalidCycleError(f"cycle graphs need n >= 3, got n={n}")
    # with no label repeated, none was merged into vs, and typing vs (the cheaper pass) types them all
    typed = vs if len(vs) == len(labels) else labels
    if vs and (countOf(map(type, typed), int) != len(typed) or (ends := sorted(vs))[0] < 1 or ends[-1] > n):
        from numbers import Real  # only a rejection sorts by it
        # each bad label once, numbers first; an equal float, bool or int stays apart
        bad = {(type(v), v): v for v in labels if type(v) is not int or not 1 <= v <= n}.values()
        bad = sorted(bad, key=lambda v: (0, v, repr(v)) if isinstance(v, Real) else (1, repr(v)))
        raise VertexRangeError(f"vertices {bad} fall outside 1..{n}")
    return vs


class CycleRestriction(Record):
    """A vertex subset of a cycle, decomposed into contiguous arcs.

    components holds the maximal arcs of the induced subgraph.  Each arc is
    listed in walk order, so consecutive entries are adjacent on the cycle
    (an arc may wrap past n back to 1), and the arcs themselves are sorted
    by their minimum element.
    """

    __slots__ = ("n", "vertices", "components")

    def __init__(self, n: int, vertices: frozenset[int], components: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "components", components)


def restrict(n: int, vertices: Iterable[int]) -> CycleRestriction:
    """Decompose the subgraph of the n-cycle induced on a vertex subset."""
    vs = vertex_set(n, vertices)
    if len(vs) == n:
        # The whole cycle is one component; walk it once from vertex 1.
        return CycleRestriction(n, vs, (tuple(range(1, n + 1)),))
    arcs = []
    for start in sorted(vs):
        if (start - 2) % n + 1 in vs:
            continue  # predecessor present, not the start of an arc
        arc = [start]
        while arc[-1] % n + 1 in vs:
            arc.append(arc[-1] % n + 1)
        arcs.append(tuple(arc))
    arcs.sort(key=min)
    return CycleRestriction(n, vs, tuple(arcs))


def _proper_subset(n: int, vs: frozenset[int]) -> frozenset[int]:
    """A checked vertex set, once it is proper and nonempty, as it must be to have markers."""
    if not vs or len(vs) == n:
        raise UndefinedMarkerError(
            f"markers need a proper nonempty subset of 1..{n}, got {sorted(vs)}"
        )
    return vs


def admissible_markers(n: int, vertices: Iterable[int]) -> frozenset[int]:
    """Markers other than the smallest; the valid choices for a marked subset.

    The markers are the arc minima on the side avoiding vertex 1: a proper
    nonempty subset W, or its complement when 1 is in W.  Both sides split
    into as many arcs, so either way there is one marker per component.
    """
    return frozenset(_admissible(n, _proper_subset(n, vertex_set(n, vertices))))


def _admissible(n: int, vs: frozenset[int]) -> list[int]:
    """admissible_markers of a checked subset, ascending."""
    # The side avoids 1, so no arc wraps past n and the arcs start where the side starts after a
    # gap: at a vertex of vs right after a non-member, or, when 1 is in vs and the side is its
    # complement, at a non-member up to n right after a vertex of vs.
    if 1 in vs:
        return sorted(v + 1 for v in vs if v < n and v + 1 not in vs)[1:]
    return sorted(vs.difference(map((1).__add__, vs)))[1:]


class MarkedSubset(Record):
    """A vertex subset together with a distinguished non-minimal marker.

    The marker must be admissible for the subset, which forces the induced
    restriction into at least two components and pins down the containment
    law: vertex 1 lies in the subset exactly when the marker does not.
    Admissibility is tested by membership, without building the marker set:
    the marker must lie on the side avoiding vertex 1, its predecessor must
    not, and it must not be that side's minimum.  The admissible markers are
    listed only to word a rejection.
    """

    __slots__ = ("n", "vertices", "marker")

    def __init__(self, n: int, vertices: Iterable[int], marker: int) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "marker", marker)
        self.__post_init__()

    def __post_init__(self) -> None:
        try:
            vs = _proper_subset(self.n, vertex_set(self.n, self.vertices))
        except (InvalidCycleError, VertexRangeError, UndefinedMarkerError) as exc:
            raise InvalidMarkedSubsetError(str(exc)) from None  # the same text; a chain only repeats it
        object.__setattr__(self, "vertices", vs)
        n, m, has_one = self.n, self.marker, 1 in vs
        # the side avoiding vertex 1 is vs, or its complement when 1 is in vs; m is that
        # side's minimum when none of 1..m-1 lies on it (the scan stops at the first that does)
        side_misses = vs.issuperset if has_one else vs.isdisjoint
        if type(m) is not int or not (
            m <= n and (m in vs) != has_one and (m - 1 in vs) == has_one
            and not side_misses(range(1, m))
        ):
            raise InvalidMarkedSubsetError(
                f"marker {m} is not admissible for {sorted(vs)} "
                f"on the {n}-cycle (admissible: {_admissible(n, vs)})"
            )

    @property
    def size(self) -> int:
        return len(self.vertices)


def marked_subsets(n: int, j: int) -> list[MarkedSubset]:
    """All marked subsets of size j, in lexicographic subset order.

    Pairs sharing a subset are listed with markers ascending.  A size j
    outside 2..n-2 admits no marked subsets and raises DomainError.
    """
    if type(n) is not int or type(j) is not int or not 2 <= j <= n - 2:
        raise DomainError(f"no marked subsets of size {j} on the {n}-cycle (need 2 <= j <= n-2)")
    return [
        MarkedSubset(n, vs, marker)  # only MarkedSubset checks vs
        for vs in map(frozenset, itertools.combinations(range(1, n + 1), j))
        for marker in _admissible(n, vs)
    ]
