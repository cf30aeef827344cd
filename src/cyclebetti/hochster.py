"""Graded Betti numbers of cycle graphs via Hochster's formula.

The Betti number in homological degree i and internal degree j is the sum,
over all vertex subsets W of size j, of the dimension of reduced homology
in degree j - i - 1 of the restriction to W.  One sparse reduction of the
cycle's two boundary maps ranks every path (a column prefix) and the whole
cycle, and homology is computed from those ranks for every path, the
empty subset and the whole cycle.  Once every path is acyclic, a proper
nonempty W, c disjoint paths, has homology c - 1 in degree 0 only, and the
sum of c - 1 over the j-subsets is counted in closed form, each arc by its
first vertex.  No vanishing is assumed: every zero follows from computed
ranks, and the shape of the answer (two corners and one linear strand) is
something the test suite checks.

Cycle restrictions are graphs, so only two of their boundary maps have
faces on both sides: the augmentation row and the vertex-edge incidence;
every other map has an empty side and rank 0, and _graph_homology gives
the three degrees -1, 0 and 1 that have faces.  A proper restriction is a
union of paths, and _cycle_ranks reads the ranks of every path and of the
whole cycle off the rank profiles of the cycle's two maps, passed as
sparse columns, so no dense matrix is built.  Every rank comes from one
exact sparse column reduction on arbitrary-precision integers,
_rank_profile, which homology's dense matrix_rank and generic reference
route import from here; this module imports nothing from homology.
"""

from __future__ import annotations

from math import comb, gcd

from .errors import MAX_CYCLE_SIZE, DomainError, ImpossibleBranchError, Record


def _rank_profile(columns: list[dict[int, int]]) -> list[int]:
    """Entry k is the rank of the first k columns, k = 0..len(columns), by exact sparse column reduction.

    A column maps rows to nonzero ints, and each kept column is keyed by its
    last row.  While a new column's last row keys a kept one, the two are
    cross-multiplied so that entry cancels, and the result is divided by the
    gcd of its entries so they stay small.  Each step lowers the last row, and
    a column that stays nonzero is independent of all before it, so the number
    kept after it is the rank of its prefix (Zomorodian and Carlsson, DCG 2005).
    """
    kept: dict[int, dict[int, int]] = {}
    profile = [0]
    for column in columns:
        while (last := max(column, default=None)) in kept:
            pivot = kept[last]
            a, b = pivot[last], column[last]
            column = {r: v for r in {*column, *pivot} if (v := a * column.get(r, 0) - b * pivot.get(r, 0))}
            divisor = gcd(*column.values())
            column = {r: v // divisor for r, v in column.items()}
        if column:
            kept[last] = column
        profile.append(len(kept))
    return profile


def _homology_dim(kernel: int, image: int) -> int:
    if image > kernel:
        raise ImpossibleBranchError(
            f"boundary image (rank {image}) escapes the kernel (dimension {kernel})"
        )
    return kernel - image


def _graph_homology(vertices: int, edges: int, augmentation_rank: int, incidence_rank: int) -> list[int]:
    """Reduced homology of a graph in -1, 0 and 1, the only degrees with faces: each nullity minus the next rank."""
    # by degree d = -1..2, at index d + 1: the number of d-faces and the rank of the d-th map
    faces = (1, vertices, edges)
    ranks = (0, augmentation_rank, incidence_rank, 0)
    return [_homology_dim(faces[k] - ranks[k], ranks[k + 1]) for k in range(3)]


def _cycle_ranks(n: int) -> tuple[list[int], list[int]]:
    """The rank profiles of the n-cycle's augmentation row and its incidence, edges in path order.

    Edge k joins vertices k and k + 1 for k < n, and edge n closes the cycle;
    each is a sparse column, rows from 0, with -1 at its smaller vertex and +1
    at its larger, as in boundary_matrix.  The first m - 1 edges touch only the
    first m rows, so with the profiles aug and inc, the path on m vertices,
    which every m-vertex arc is up to the order and signs of its rows and
    columns, has the ranks (aug[m], inc[m - 1]), the whole cycle
    (aug[n], inc[n]) and the empty subset (aug[0], inc[0]) = (0, 0).
    """
    edges = [{k: -1, k + 1: 1} for k in range(n - 1)] + [{0: -1, n - 1: 1}]
    return _rank_profile([{0: 1}] * n), _rank_profile(edges)


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
