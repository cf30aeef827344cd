"""Simplicial complexes and exact reduced-homology dimensions.

All linear algebra here is exact over the rationals, on arbitrary-precision
integers, and every rank comes from one sparse column reduction; nothing
touches floating point.  The complexes that matter downstream are
restrictions of cycle graphs, which are at most one-dimensional and
torsion-free, so these dimensions do not depend on the field.

Conventions.  A complex is a downward-closed family of faces; a nonempty
complex always contains the empty face, whose dimension is -1.  The void
complex (no faces at all) is distinct from the irrelevant complex (only
the empty face): reduced homology separates them in degree -1.

Cycle restrictions, the only complexes the Betti computations need, are
graphs, so only two of their boundary maps have faces on both sides: the
augmentation row and the vertex-edge incidence; every other map has an
empty side and rank 0, and _graph_homology gives the three degrees -1, 0
and 1 that have faces.  A proper restriction is a union of paths, and
_cycle_ranks reads the ranks of every path and of the whole cycle off the
rank profiles of the cycle's two maps, passed as sparse columns, so no
dense matrix is built.  The generic route (SimplicialComplex,
boundary_matrix, reduced_betti_dim, restriction_complex) is not exported:
it stays here only as the reference the cycle route is tested against.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from math import gcd

from . import cycle  # lazy: only the reference route below runs it
from .errors import ImpossibleBranchError, Record, VertexRangeError


class IntMatrix(Record):
    """Dense integer matrix carrying its shape explicitly.

    Zero-row and zero-column matrices come up as boundary maps (the empty
    restriction has no vertices), so the shape cannot be inferred from the
    data.  Rows are stored as given, so they must be a tuple of tuples of
    ints: elimination is exact on ints only, and the value stays hashable.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", rows)
        self.__post_init__()

    def __post_init__(self) -> None:
        nrows, ncols, rows = self.nrows, self.ncols, self.rows
        if type(nrows) is not int or type(ncols) is not int or nrows < 0 or ncols < 0:
            raise ValueError(f"nrows and ncols must be ints >= 0 (no bools or floats), got {nrows!r}, {ncols!r}")
        tuples = type(rows) is tuple and {*map(type, rows)} <= {tuple}
        if not tuples or not {*map(type, itertools.chain.from_iterable(rows))} <= {int}:
            raise ValueError(f"rows must be a tuple of tuples of ints (no bools or floats), got {rows!r}")
        if len(rows) != nrows or any(len(row) != ncols for row in rows):
            raise ValueError(f"row data does not match declared shape {nrows}x{ncols}")


def matrix_rank(matrix: IntMatrix) -> int:
    """Rank over the rationals: the last entry of the rank profile of the matrix's columns."""
    return _rank_profile([{r: v for r, v in enumerate(column) if v} for column in zip(*matrix.rows)])[-1]


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


def _face_labels(faces: Iterable[Iterable[int]]) -> list[tuple]:
    """Each face's labels once each, as typed (1, 1.0 and True stay apart), checked to be iterables."""
    try:  # only reading the faces raises TypeError
        return [tuple({repr(v): v for v in face}.values()) for face in faces]
    except TypeError:
        raise VertexRangeError(f"faces must be an iterable of iterables of labels, got {faces!r}") from None


class SimplicialComplex(Record):
    """Downward-closed family of faces on labelled vertices 1..vertex_count.

    Construction validates closure, so instances are complexes by the time
    they exist.  Use from_faces to close a family of generators downward.
    """

    __slots__ = ("vertex_count", "faces")

    def __init__(self, vertex_count: int, faces: Iterable[Iterable[int]]) -> None:
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "faces", faces)
        self.__post_init__()

    def __post_init__(self) -> None:
        n, faces = self.vertex_count, _face_labels(self.faces)
        if type(n) is not int or n < 0:
            raise ValueError(f"vertex_count must be an int >= 0 (no bools or floats), got {n!r}")
        # each label typed as given, before a frozenset merges 1, 1.0 and True
        bad = {repr(v): v for face in faces for v in face if type(v) is not int or not 1 <= v <= n}
        if bad:
            bad = sorted(bad.values(), key=lambda v: (type(v) is not int, v if type(v) is int else repr(v)))
            raise VertexRangeError(f"face vertices {bad} fall outside 1..{n}")
        faces = frozenset(map(frozenset, faces))
        object.__setattr__(self, "faces", faces)
        for face in faces:
            for v in face:
                if face - {v} not in faces:
                    raise ValueError(
                        f"not downward closed: {sorted(face)} present but {sorted(face - {v})} missing"
                    )

    @classmethod
    def from_faces(
        cls, vertex_count: int, generators: Iterable[Iterable[int]]
    ) -> "SimplicialComplex":
        """The smallest complex containing every generator face, each label checked as given."""
        generators = _face_labels(generators)
        faces = (itertools.combinations(gen, k) for gen in generators for k in range(len(gen) + 1))
        return cls(vertex_count, itertools.chain.from_iterable(faces))

    def faces_of_dim(self, d: int) -> list[tuple[int, ...]]:
        """The d-dimensional faces as sorted tuples, in lexicographic order."""
        return sorted(tuple(sorted(face)) for face in self.faces if len(face) == d + 1)


def boundary_matrix(complex_: SimplicialComplex, d: int) -> IntMatrix:
    """Boundary operator from d-faces to (d-1)-faces as an integer matrix.

    Rows are the (d-1)-faces and columns the d-faces, each in lexicographic
    order of the sorted vertex tuple.  The column of a d-face has entry
    (-1)^p at the face obtained by deleting its p-th smallest vertex.  For
    d = 0 this is the augmentation map sending every vertex to the empty
    face with weight +1.  Any d works; out-of-range degrees simply have no
    faces on one side and yield a zero-by-k matrix of the right shape.
    """
    row_faces = complex_.faces_of_dim(d - 1)
    col_faces = complex_.faces_of_dim(d)
    index = {face: r for r, face in enumerate(row_faces)}
    entries = [[0] * len(col_faces) for _ in row_faces]
    for c, face in enumerate(col_faces):
        for p in range(len(face)):
            entries[index[face[:p] + face[p + 1 :]]][c] = (-1) ** p
    return IntMatrix(len(row_faces), len(col_faces), tuple(tuple(row) for row in entries))


def reduced_betti_dim(complex_: SimplicialComplex, d: int) -> int:
    """Dimension of the degree-d reduced homology over the rationals.

    Computed as nullity (columns minus rank) of the d-th boundary map minus
    rank of the (d+1)-st.  The irrelevant complex has dimension 1 in degree
    -1 and 0 elsewhere; the void complex vanishes in every degree.
    """
    boundary = boundary_matrix(complex_, d)
    kernel = boundary.ncols - matrix_rank(boundary)
    image = matrix_rank(boundary_matrix(complex_, d + 1))
    return _homology_dim(kernel, image)


def _homology_dim(kernel: int, image: int) -> int:
    if image > kernel:
        raise ImpossibleBranchError(
            f"boundary image (rank {image}) escapes the kernel (dimension {kernel})"
        )
    return kernel - image


def restriction_complex(n: int, vertices: Iterable[int]) -> SimplicialComplex:
    """Faces of the n-cycle contained in the given vertex subset.

    The cycle's edges are the n pairs {i, i mod n + 1}; those inside the
    subset are kept.  The empty face is always included, so the empty subset
    yields the irrelevant complex rather than the void complex.
    """
    vs = cycle.vertex_set(n, vertices)
    generators: list[frozenset[int]] = [frozenset()]
    generators.extend(frozenset((v,)) for v in vs)
    generators.extend(edge for i in range(1, n + 1) if (edge := frozenset((i, i % n + 1))) <= vs)
    return SimplicialComplex.from_faces(n, generators)


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
