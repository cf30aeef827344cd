import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
from chain_checks import column_shape, composes_to_zero, dense, sparse
from graph_oracle import graph_homology_oracle
from hypothesis import strategies as st

import cyclebetti.hochster as hochster
import cyclebetti.homology as homology
from cyclebetti.cycle import restrict
from cyclebetti.errors import ImpossibleBranchError, VertexRangeError
from cyclebetti.hochster import betti, betti_table
from cyclebetti.homology import (
    IntMatrix,
    SimplicialComplex,
    boundary_matrix,
    matrix_rank,
    reduced_betti_dim,
    restriction_complex,
)


def cycle_complex(n):
    """The n-cycle as a one-dimensional simplicial complex."""
    return SimplicialComplex.from_faces(n, [(i, i % n + 1) for i in range(1, n + 1)])


def cycle_matrices(n):
    """The augmentation row and the incidence of the n-cycle, as _cycle_ranks(n) ranks them.

    _cycle_ranks passes sparse columns; each map is read back as the matrix of the rows they span.
    """
    matrices = []
    with mock.patch.object(hochster, "_rank_profile", lambda m: matrices.append(dense(m)) or [0] * (len(m) + 1)):
        hochster._cycle_ranks(n)
    return matrices


def block(matrix, nrows, ncols):
    """The top-left nrows x ncols block of a matrix."""
    return IntMatrix(nrows, ncols, tuple(row[:ncols] for row in matrix.rows[:nrows]))


def path_ranks(longest):
    """By m = 1..longest, the ranks of the augmentation row and the incidence of the path on 1..m.

    The per-length route that one elimination of the cycle replaced, kept as the reference for its
    prefix ranks: each path's two maps are built and ranked as matrices of their own.
    """
    ranks = {}
    for m in range(1, longest + 1):
        entries = [[0] * (m - 1) for _ in range(m)]
        for c in range(m - 1):
            entries[c][c], entries[c + 1][c] = -1, 1
        incidence = IntMatrix(m, m - 1, tuple(map(tuple, entries)))
        ranks[m] = (matrix_rank(IntMatrix(1, m, ((1,) * m,))), matrix_rank(incidence))
    return ranks


def subset_homology(n, vertices):
    """Reduced homology of a cycle restriction in degrees -1, 0 and 1, as the table route reads it.

    The graph rule on the ranks of one elimination: the whole cycle's, or the augmentation prefix
    of the subset's size and the incidence prefixes of the paths its arcs are.
    """
    restriction = restrict(n, vertices)
    j, arcs = len(restriction.vertices), restriction.components
    augmentation, incidence = hochster._cycle_ranks(n)
    if j == n:
        return hochster._graph_homology(n, n, augmentation[n], incidence[n])
    rank_sum = sum(incidence[len(arc) - 1] for arc in arcs)
    return hochster._graph_homology(j, j - len(arcs), augmentation[j], rank_sum)


def rank_by_rational_elimination(matrix):
    # independent oracle: plain Gauss-Jordan over exact fractions
    rows = [[Fraction(x) for x in row] for row in matrix.rows]
    rank = 0
    for col in range(matrix.ncols):
        pivot = next((r for r in range(rank, matrix.nrows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank]
        for r in range(matrix.nrows):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / lead[col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], lead)]
        rank += 1
    return rank


def all_subsets(n):
    for k in range(n + 1):
        yield from (frozenset(c) for c in itertools.combinations(range(1, n + 1), k))


@st.composite
def int_matrices(draw):
    nrows = draw(st.integers(0, 5))
    ncols = draw(st.integers(0, 5))
    rows = tuple(
        tuple(draw(st.integers(-9, 9)) for _ in range(ncols)) for _ in range(nrows)
    )
    return IntMatrix(nrows, ncols, rows)


@st.composite
def sparse_columns(draw):
    """Sparse {row: nonzero entry} columns on rows anywhere in 0..40, some empty, some multiples of earlier ones."""
    entries = st.integers(-9, 9).filter(bool)
    columns = []
    for _ in range(draw(st.integers(0, 7))):
        if columns and draw(st.booleans()):
            scale = draw(entries)
            columns.append({r: scale * v for r, v in draw(st.sampled_from(columns)).items()})
        else:
            columns.append(draw(st.dictionaries(st.integers(0, 40), entries, max_size=5)))
    return columns


def seeded_dense_matrix(seed, size, dependent=0):
    """A size x size matrix of entries in -9..9 whose last `dependent` rows are sums of two rows above."""
    rng = random.Random(seed)
    rows = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size - dependent)]
    for _ in range(dependent):
        first, second = rng.sample(rows, 2)
        rows.append([a + b for a, b in zip(first, second)])
    return IntMatrix(size, size, tuple(map(tuple, rows)))


class TestMatrixRank:
    def test_known_ranks(self):
        assert matrix_rank(IntMatrix(2, 2, ((1, 0), (0, 1)))) == 2
        assert matrix_rank(IntMatrix(3, 4, tuple((0,) * 4 for _ in range(3)))) == 0
        assert matrix_rank(IntMatrix(2, 2, ((2, 4), (1, 2)))) == 1
        assert matrix_rank(IntMatrix(0, 3, ())) == 0
        assert matrix_rank(IntMatrix(3, 0, ((), (), ()))) == 0

    def test_one_entry_column_is_reduced_against_a_kept_column(self):
        # a single entry on a kept column's last row cancels that row, and what is left is kept
        # under a lower one
        assert hochster._rank_profile([{0: 1, 1: 1}, {1: 1}]) == [0, 1, 2]
        assert matrix_rank(IntMatrix(2, 2, ((1, 0), (1, 1)))) == 2

    @given(int_matrices())
    def test_matches_rational_elimination(self, matrix):
        assert matrix_rank(matrix) == rank_by_rational_elimination(matrix)

    @given(int_matrices())
    def test_profile_ranks_each_column_prefix(self, matrix):
        # entry k of the profile is the rank of the first k columns, zero-row and zero-column
        # shapes included
        prefixes = [block(matrix, matrix.nrows, k) for k in range(matrix.ncols + 1)]
        profile = hochster._rank_profile(sparse(matrix))
        assert profile == [matrix_rank(prefix) for prefix in prefixes]
        assert profile == [rank_by_rational_elimination(prefix) for prefix in prefixes]

    @given(sparse_columns())
    def test_profile_of_sparse_columns_matches_rational_elimination(self, columns):
        # the form _cycle_ranks passes: rows need not start at 0 or be contiguous, a column may be
        # empty or repeat an earlier one up to scale, and no column is changed in place
        before = [dict(column) for column in columns]
        profile = hochster._rank_profile(columns)
        assert profile == [rank_by_rational_elimination(dense(columns[:k])) for k in range(len(columns) + 1)]
        assert columns == before

    @pytest.mark.parametrize("dependent,rank", [(0, 20), (3, 17)])
    def test_dense_matrix(self, dependent, rank):
        # every reduction step fills a column in, where dividing by the gcd keeps the entries small
        matrix = seeded_dense_matrix(20, 20, dependent)
        assert matrix_rank(matrix) == rank_by_rational_elimination(matrix) == rank

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, ((1, 2),))

    @pytest.mark.parametrize(
        "nrows,ncols,rows",
        [
            # of rank 3, which floor division by float pivots would read as 2
            (3, 3, ((1.5, 1, -1), (2, -1, -1), (2, 3, -1))),
            (2, 2, ((1, 0), (0, True))),
            # lists would leave a frozen value that cannot be hashed
            (1, 1, [[1]]),
            (1, 1, ([1],)),
            (0, 0, []),
        ],
    )
    def test_rows_must_be_tuples_of_ints(self, nrows, ncols, rows):
        with pytest.raises(ValueError, match="rows must be a tuple of tuples of ints"):
            IntMatrix(nrows, ncols, rows)

    @pytest.mark.parametrize(
        "nrows,ncols,rows",
        [
            # floats, which matrix_rank cannot range over, a negative size and bools
            (1.0, 1, ((1,),)),
            (0, 2.5, ()),
            (0, -1, ()),
            (True, 1, ((1,),)),
            (1, False, ((),)),
        ],
    )
    def test_shape_must_be_non_negative_ints(self, nrows, ncols, rows):
        with pytest.raises(ValueError, match=r"nrows and ncols must be ints >= 0 \(no bools or floats\)"):
            IntMatrix(nrows, ncols, rows)


class TestSimplicialComplex:
    def test_from_faces_closes_downward(self):
        k = SimplicialComplex.from_faces(3, [{1, 2, 3}])
        assert len(k.faces) == 8
        assert frozenset() in k.faces
        assert frozenset({1, 3}) in k.faces

    def test_rejects_non_closed_families(self):
        with pytest.raises(ValueError, match="downward"):
            SimplicialComplex(2, frozenset({frozenset({1, 2})}))

    def test_rejects_foreign_vertices(self):
        with pytest.raises(VertexRangeError):
            SimplicialComplex.from_faces(2, [{1, 3}])

    def test_void_and_irrelevant_are_distinct(self):
        void = SimplicialComplex(0, frozenset())
        irrelevant = SimplicialComplex.from_faces(0, [()])
        assert void != irrelevant
        assert void.faces == frozenset()
        assert irrelevant.faces == {frozenset()}

    def test_faces_of_dim_sorted(self):
        k = cycle_complex(4)
        assert k.faces_of_dim(0) == [(1,), (2,), (3,), (4,)]
        assert k.faces_of_dim(1) == [(1, 2), (1, 4), (2, 3), (3, 4)]
        assert k.faces_of_dim(-1) == [()]
        assert k.faces_of_dim(2) == []

    def test_generic_restriction_matches_direct_builder(self):
        for n in range(3, 7):
            full = cycle_complex(n)
            for w in all_subsets(n):
                kept = frozenset(face for face in full.faces if face <= w)
                assert SimplicialComplex(n, kept) == restriction_complex(n, w)


class TestBoundaryMatrix:
    def test_single_edge(self):
        k = SimplicialComplex.from_faces(2, [{1, 2}])
        assert boundary_matrix(k, 1).rows == ((-1,), (1,))

    def test_augmentation_sends_vertices_to_one(self):
        k = SimplicialComplex.from_faces(3, [{1}, {2}, {3}])
        assert boundary_matrix(k, 0).rows == ((1, 1, 1),)

    def test_triangle_boundary_frozen(self):
        m = boundary_matrix(cycle_complex(3), 1)
        assert m.rows == ((-1, -1, 0), (1, 0, -1), (0, 1, 1))
        assert matrix_rank(m) == 2
        assert rank_by_rational_elimination(m) == 2

    def test_degenerate_degrees_have_correct_shapes(self):
        k = cycle_complex(4)
        assert (boundary_matrix(k, -1).nrows, boundary_matrix(k, -1).ncols) == (0, 1)
        assert (boundary_matrix(k, 2).nrows, boundary_matrix(k, 2).ncols) == (4, 0)
        assert (boundary_matrix(k, 5).nrows, boundary_matrix(k, 5).ncols) == (0, 0)
        assert (boundary_matrix(k, -3).nrows, boundary_matrix(k, -3).ncols) == (0, 0)

    def test_boundary_of_boundary_vanishes(self):
        samples = [
            cycle_complex(5),
            restriction_complex(6, {2, 3, 4, 6}),
            SimplicialComplex.from_faces(4, [{1, 2, 3, 4}]),
        ]
        for k in samples:
            for d in range(-1, max(map(len, k.faces)) + 1):  # up to one past the top dimension
                assert composes_to_zero(boundary_matrix(k, d), boundary_matrix(k, d + 1))


class TestReducedBetti:
    def test_irrelevant_complex_concentrated_in_degree_minus_one(self):
        irrelevant = SimplicialComplex.from_faces(0, [()])
        assert [reduced_betti_dim(irrelevant, d) for d in (-1, 0, 1)] == [1, 0, 0]

    def test_void_complex_vanishes_everywhere(self):
        void = SimplicialComplex(0, frozenset())
        assert [reduced_betti_dim(void, d) for d in (-1, 0, 1, 2)] == [0, 0, 0, 0]

    def test_full_cycles_have_a_single_loop(self):
        for n in range(3, 9):
            k = cycle_complex(n)
            assert reduced_betti_dim(k, -1) == 0
            assert reduced_betti_dim(k, 0) == 0
            assert reduced_betti_dim(k, 1) == 1

    def test_two_isolated_vertices(self):
        k = restriction_complex(5, {2, 4})
        assert reduced_betti_dim(k, 0) == 1

    def test_proper_restrictions_have_no_loops(self):
        for n in range(3, 9):
            for w in all_subsets(n):
                if len(w) < n:
                    assert reduced_betti_dim(restriction_complex(n, w), 1) == 0


class TestGraphHomologyOracle:
    def test_empty_subset_is_irrelevant(self):
        assert graph_homology_oracle(5, ()) == (1, 0, 0)

    def test_full_cycle(self):
        assert graph_homology_oracle(5, range(1, 6)) == (0, 0, 1)

    def test_alternating_hexagon(self):
        assert graph_homology_oracle(6, {2, 4, 6}) == (0, 2, 0)

    def test_matches_boundary_matrix_route(self):
        for n in range(3, 9):
            for w in all_subsets(n):
                k = restriction_complex(n, w)
                via_matrices = tuple(reduced_betti_dim(k, d) for d in (-1, 0, 1))
                assert via_matrices == graph_homology_oracle(n, w)


class TestCycleBoundaryMatrix:
    # the two matrices _cycle_ranks(n) eliminates: the whole cycle's maps, whose column prefixes
    # are the paths'

    def test_matches_generic_builder(self):
        for n in range(3, 8):
            augmentation, incidence = cycle_matrices(n)
            k = restriction_complex(n, range(1, n + 1))
            assert augmentation == boundary_matrix(k, 0)
            # the generic route orders edges lexicographically, with (1, n) second; the cycle
            # route closes the cycle last
            edges = k.faces_of_dim(1)
            by_path = sorted(range(n), key=lambda c: edges[c][1] - edges[c][0] != 1)
            generic = boundary_matrix(k, 1).rows
            assert incidence.rows == tuple(tuple(row[c] for c in by_path) for row in generic)
            for m in range(1, n):
                path = restriction_complex(n, range(1, m + 1))
                assert block(augmentation, 1, m) == boundary_matrix(path, 0)
                assert block(incidence, m, m - 1) == boundary_matrix(path, 1)

    def test_wrapping_edge_sign(self):
        # the edge {1, 5} lists 1 first, so deleting 5 leaves 1 with sign -1; it is the last column
        assert [row[-1] for row in cycle_matrices(5)[1].rows] == [-1, 0, 0, 0, 1]

    def test_generic_maps_in_other_degrees_have_an_empty_side(self):
        # the cycle route ranks only degrees 0 and 1, and reads rank 0 everywhere else
        for n in range(3, 8):
            for w in all_subsets(n):
                k = restriction_complex(n, w)
                for d in set(range(-2, len(w) + 3)) - {0, 1}:
                    m = boundary_matrix(k, d)
                    assert 0 in (m.nrows, m.ncols)
                    assert matrix_rank(m) == 0

    def test_boundary_of_boundary_vanishes(self):
        for n in range(3, 12):
            augmentation, incidence = cycle_matrices(n)
            assert composes_to_zero(augmentation, incidence)
            for m in range(1, n):
                assert composes_to_zero(block(augmentation, 1, m), block(incidence, m, m - 1))

    def test_paths_are_column_prefixes(self):
        # the first m - 1 columns of the incidence are zero below row m, so their rank is that of
        # the path on m vertices
        for n in range(3, 101):
            rows = cycle_matrices(n)[1].rows
            for m in range(1, n + 1):
                assert not any(any(row[: m - 1]) for row in rows[m:]), (n, m)


class TestCycleRanks:
    def test_profiles_in_closed_form(self):
        # one vertex spans the augmentation's image; each path edge adds 1 to the incidence rank,
        # and the edge that closes the cycle adds none
        for n in range(3, 101):
            assert hochster._cycle_ranks(n) == ([0] + [1] * n, [*range(n), n - 1]), n

    def test_prefix_ranks_match_the_per_length_route(self):
        # every path on m <= 100 vertices, ranked as a matrix of its own
        augmentation, incidence = hochster._cycle_ranks(102)
        assert {m: (augmentation[m], incidence[m - 1]) for m in range(1, 101)} == path_ranks(100)

    def test_ranks_match_the_generic_route(self):
        # every path, the whole cycle and the empty subset
        def generic_ranks(n, vertices):
            k = restriction_complex(n, vertices)
            return matrix_rank(boundary_matrix(k, 0)), matrix_rank(boundary_matrix(k, 1))

        for n in range(3, 11):
            augmentation, incidence = hochster._cycle_ranks(n)
            for m in range(1, n):
                assert (augmentation[m], incidence[m - 1]) == generic_ranks(n, range(1, m + 1))
            assert (augmentation[n], incidence[n]) == generic_ranks(n, range(1, n + 1)) == (1, n - 1)
            assert (augmentation[0], incidence[0]) == generic_ranks(n, ()) == (0, 0)


class TestCycleReducedHomology:
    # one restriction's homology as the table route reads it: the graph rule on the ranks of one
    # elimination (subset_homology)

    def test_matches_generic_route_everywhere(self):
        # the generic route computes every degree up to |W| - 1, and at least up to 1: the
        # degrees past 1 must be 0, and the first three are the graph rule's
        for n in range(3, 11):
            for w in all_subsets(n):
                k = restriction_complex(n, w)
                expected = [reduced_betti_dim(k, d) for d in range(-1, max(len(w), 2))]
                assert expected[3:] == [0] * (len(expected) - 3)
                assert subset_homology(n, w) == expected[:3]

    def test_follows_requested_degree_order(self):
        # entry d + 1 holds degree d, for d = -1, 0 and 1
        dims = subset_homology(6, {2, 4, 6})
        assert [dims[d + 1] for d in (0, -1, 0, 1)] == [2, 0, 2, 0]
        assert subset_homology(6, range(1, 7)) == [0, 0, 1]

    def test_empty_subset_is_irrelevant(self):
        # degree -1 only: the irrelevant complex has no vertex and no edge
        assert subset_homology(5, ()) == [1, 0, 0]

    @pytest.mark.parametrize("n,w", [(5, ()), (5, {3}), (6, {2, 4, 6}), (6, range(1, 7)), (9, {1, 2, 5, 6, 7, 9})])
    def test_ranks_the_two_maps_of_a_graph(self, monkeypatch, n, w):
        # the augmentation row and the vertex-edge incidence of the whole cycle, once each, whatever
        # the subset
        shapes = []
        profile = hochster._rank_profile
        monkeypatch.setattr(hochster, "_rank_profile", lambda m: shapes.append(column_shape(m)) or profile(m))
        subset_homology(n, w)
        assert shapes == [(1, n), (n, n)]


def overstate_profiles(monkeypatch, where=lambda nrows, k: True):
    """Make entry k of the rank profile of columns spanning nrows rows k + 1 wherever where(nrows, k).

    That is one more than the prefix has columns, as no rank can be.
    """
    profile = hochster._rank_profile
    monkeypatch.setattr(
        hochster,
        "_rank_profile",
        lambda m: [k + 1 if where(column_shape(m)[0], k) else r for k, r in enumerate(profile(m))],
    )


class TestNegativeHomologyGuard:
    # an image larger than the kernel cannot come from a chain complex;
    # an overstated rank forces it, and the guard must raise even under -O
    def test_cycle_route(self, monkeypatch):
        overstate_profiles(monkeypatch)
        with pytest.raises(ImpossibleBranchError, match="escapes the kernel"):
            subset_homology(5, {1, 3})

    def test_generic_route(self, monkeypatch):
        monkeypatch.setattr(homology, "matrix_rank", lambda matrix: matrix.ncols + 1)
        with pytest.raises(ImpossibleBranchError, match="escapes the kernel"):
            reduced_betti_dim(restriction_complex(5, {1, 3}), 0)

    def test_table_route(self, monkeypatch):
        overstate_profiles(monkeypatch)
        with pytest.raises(ImpossibleBranchError, match="escapes the kernel"):
            betti(6, 1, 2)
        with pytest.raises(ImpossibleBranchError, match="escapes the kernel"):
            betti_table(6)

    @pytest.mark.parametrize("shape", [(8, 3), (1, 4)])
    def test_table_route_through_one_path_rank(self, monkeypatch, shape):
        # only one map of the path on 4 vertices is overstated: the 3-column prefix of the 8-cycle's
        # incidence, which the class of the one-arc 4-subsets ranks, or the 4-column prefix of its
        # augmentation row, which every 4-subset has
        overstate_profiles(monkeypatch, lambda nrows, k: (nrows, k) == shape)
        with pytest.raises(ImpossibleBranchError, match="escapes the kernel"):
            betti_table(8)
