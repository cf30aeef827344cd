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
from dataclasses import dataclass
from numbers import Real
from typing import Iterable

from .errors import (
    DomainError,
    InvalidCycleError,
    InvalidMarkedSubsetError,
    UndefinedMarkerError,
    VertexRangeError,
)


def vertex_set(n: int, vertices: Iterable[int] = ()) -> frozenset[int]:
    """The vertex subset as a frozenset, once n and every label are checked.

    This is the one input rule for a subset of the n-cycle: n is an int
    >= 3, and every vertex is an int in 1..n (never a float or a bool).
    """
    if type(n) is not int or n < 3:
        raise InvalidCycleError(f"cycle graphs need n >= 3, got n={n}")
    vs = frozenset(vertices)
    if vs and (set(map(type, vs)) != {int} or min(vs) < 1 or max(vs) > n):
        bad = [v for v in vs if type(v) is not int or not 1 <= v <= n]
        bad.sort(key=lambda v: (0, v) if isinstance(v, Real) else (1, repr(v)))  # never raises
        raise VertexRangeError(f"vertices {bad} fall outside 1..{n}")
    return vs


def cycle_edges(n: int) -> set[frozenset[int]]:
    """Edge set of the cycle graph on vertices 1..n, as unordered pairs."""
    vertex_set(n)
    return {frozenset((i, i % n + 1)) for i in range(1, n + 1)}


@dataclass(frozen=True)
class CycleRestriction:
    """A vertex subset of a cycle, decomposed into contiguous arcs.

    components holds the maximal arcs of the induced subgraph.  Each arc is
    listed in walk order, so consecutive entries are adjacent on the cycle
    (an arc may wrap past n back to 1), and the arcs themselves are sorted
    by their minimum element.
    """

    n: int
    vertices: frozenset[int]
    components: tuple[tuple[int, ...], ...]

    @property
    def component_count(self) -> int:
        return len(self.components)


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


def marker_set(n: int, vertices: Iterable[int]) -> frozenset[int]:
    """Arc minima of the restriction, taken on the side avoiding vertex 1.

    For a proper nonempty subset W this is the set of component minima of
    the restriction to W when 1 is not in W, and of the restriction to the
    complement of W when 1 is in W.  Both sides split into the same number
    of arcs, so either way there is one marker per component.
    """
    vs = _proper_subset(n, vertices)
    side = vs if 1 not in vs else frozenset(range(1, n + 1)) - vs
    # The side avoids 1, so no arc wraps past n and each arc starts at its minimum.
    return side.difference(map((1).__add__, side))


def _proper_subset(n: int, vertices: Iterable[int]) -> frozenset[int]:
    """vertex_set, for a subset that must be proper and nonempty to have markers."""
    vs = vertex_set(n, vertices)
    if not vs or len(vs) == n:
        raise UndefinedMarkerError(
            f"markers need a proper nonempty subset of 1..{n}, got {sorted(vs)}"
        )
    return vs


def admissible_markers(n: int, vertices: Iterable[int]) -> frozenset[int]:
    """Markers other than the smallest; the valid choices for a marked subset."""
    markers = marker_set(n, vertices)
    return markers - {min(markers)}


@dataclass(frozen=True)
class MarkedSubset:
    """A vertex subset together with a distinguished non-minimal marker.

    The marker must be admissible for the subset, which forces the induced
    restriction into at least two components and pins down the containment
    law: vertex 1 lies in the subset exactly when the marker does not.
    Admissibility is tested by membership, without building the marker set:
    the marker must lie on the side avoiding vertex 1, its predecessor must
    not, and it must not be that side's minimum.  The admissible markers are
    listed only to word a rejection.
    """

    n: int
    vertices: frozenset[int]
    marker: int

    def __post_init__(self) -> None:
        vs = frozenset(self.vertices)
        object.__setattr__(self, "vertices", vs)
        try:
            _proper_subset(self.n, vs)  # its frozenset(vs) is vs itself: frozen once
        except (InvalidCycleError, VertexRangeError, UndefinedMarkerError) as exc:
            raise InvalidMarkedSubsetError(str(exc)) from exc
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
                f"on the {n}-cycle (admissible: {sorted(admissible_markers(n, vs))})"
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
    everything, out = frozenset(range(1, n + 1)), []
    for combo in itertools.combinations(range(1, n + 1), j):
        vs = frozenset(combo)
        side = vs if 1 not in vs else everything - vs
        # marker_set's arc starts, minimum dropped; only MarkedSubset checks vs
        for marker in sorted(side.difference(map((1).__add__, side)))[1:]:
            out.append(MarkedSubset(n, vs, marker))
    return out
