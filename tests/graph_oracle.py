"""The graph-counting homology oracle, kept for the tests as an independent check."""

from typing import Iterable

from cyclebetti.cycle import restrict


def graph_homology_oracle(n: int, vertices: Iterable[int]) -> tuple[int, int, int]:
    """Reduced homology of a cycle restriction in degrees -1, 0, 1, by counting.

    A graph has no homology above degree 1, so counting components c,
    vertices v, and edges e settles everything: a nonempty restriction has
    (0, c - 1, e - v + c), and the empty one is the irrelevant complex with
    (1, 0, 0).  The components are the arcs cycle.restrict splits the subset
    into.  This path never builds a matrix, which keeps it independent of
    the boundary-operator computation it cross-checks.
    """
    restriction = restrict(n, vertices)
    vs, components = restriction.vertices, len(restriction.components)
    if not vs:
        return (1, 0, 0)
    edge_count = sum(1 for v in vs if v % n + 1 in vs)
    return (0, components - 1, edge_count - len(vs) + components)
