import itertools
from collections import Counter
from functools import lru_cache
from math import comb
from operator import attrgetter

import arc_types as reference
import pytest
from chain_checks import column_shape
from graph_oracle import graph_homology_oracle
from hypothesis import given
from hypothesis import strategies as st

import cyclebetti.hochster as hochster
import cyclebetti.homology as homology
from cyclebetti.cycle import marked_subsets, restrict
from cyclebetti.errors import DomainError, ImpossibleBranchError
from cyclebetti.hochster import MAX_CYCLE_SIZE, betti, betti_table, linear_strand
from cyclebetti.homology import IntMatrix, matrix_rank, reduced_betti_dim, restriction_complex
from cyclebetti.tableaux import hook_length_count, hook_shape


def brute_force_table(n):
    """Hochster's sum over every subset, through the generic complex route."""
    entries = {(i, j): 0 for j in range(n + 1) for i in range(j + 1)}
    for j in range(n + 1):
        for w in itertools.combinations(range(1, n + 1), j):
            k = restriction_complex(n, w)
            for i in range(j + 1):
                entries[i, j] += reduced_betti_dim(k, j - i - 1)
    return entries


def arc_type(n, w):
    """The arc lengths of the restriction to w, longest first."""
    return tuple(sorted(map(len, restrict(n, w).components), reverse=True))


def rank_spy(monkeypatch):
    """Record every matrix homology ranks from here on, as (function, nrows, ncols).

    matrix_rank takes an IntMatrix; _rank_profile takes sparse columns, read as the rows they span.
    """
    shapes = []
    for name, shape in (("matrix_rank", attrgetter("nrows", "ncols")), ("_rank_profile", column_shape)):
        real = getattr(homology, name)
        monkeypatch.setattr(
            homology, name, lambda m, name=name, real=real, shape=shape: shapes.append((name, *shape(m))) or real(m)
        )
    return shapes


def oracle_spy(monkeypatch):
    """Record every subset the arc-type reference asks the graph oracle about from here on."""
    requests = []

    def spy(n, vertices):
        requests.append(tuple(vertices))
        return graph_homology_oracle(n, vertices)

    monkeypatch.setattr(reference, "graph_homology_oracle", spy)
    return requests


def jacques_strand(n, j):
    """The strand entry at (j - 1, j) by Jacques' arc count (2004): n * C(j-1, c-1) * C(n-j-1, c-1) / c
    of the j-subsets have c arcs, and each adds c - 1."""
    total = 0
    for c in range(1, min(j, n - j) + 1):
        subsets, remainder = divmod(n * comb(j - 1, c - 1) * comb(n - j - 1, c - 1), c)
        assert remainder == 0
        total += (c - 1) * subsets
    return total


class TestBetti:
    def test_degree_zero_corner(self):
        for n in range(4, 8):
            assert betti(n, 0, 0) == 1

    def test_top_corner_counts_the_full_cycle(self):
        assert betti(5, 3, 5) == 1
        assert betti(6, 4, 6) == 1

    def test_pentagon_strand_counts_chords(self):
        assert betti(5, 1, 2) == 5

    def test_hexagon_strand_triple_check(self):
        value = betti(6, 2, 3)
        assert value == 16
        assert value == len(marked_subsets(6, 3))
        assert value == hook_length_count(hook_shape(6, 3))

    def test_every_cell_matches_brute_force(self):
        for n in range(3, 9):
            expected = brute_force_table(n)
            for (i, j), value in expected.items():
                assert betti(n, i, j) == value

    def test_scans_only_its_own_subsets(self, monkeypatch):
        # the arc-type reference makes one homology call per arc type of size j: (3), (2, 1)
        # and (1, 1, 1); the library asks for no subset's homology and ranks no subset, only
        # the 10-cycle's augmentation row and incidence, whose column prefixes are the paths
        requests = oracle_spy(monkeypatch)
        assert reference.column(10, 3)[1] == hook_length_count(hook_shape(10, 3))
        assert requests == [(1, 2, 3), (1, 2, 4), (1, 3, 5)]
        shapes = rank_spy(monkeypatch)
        assert betti(10, 2, 3) == hook_length_count(hook_shape(10, 3))
        assert requests == [(1, 2, 3), (1, 2, 4), (1, 3, 5)]
        assert shapes == [("_rank_profile", 1, 10), ("_rank_profile", 10, 10)]

    @pytest.mark.parametrize(
        "n,i,j",
        [
            (5, 3, 2),
            (5, 0, 6),
            (5, -1, 2),
            (2, 0, 0),
            (101, 0, 0),
            (5.0, 1, 2),
            (5, 1, 2.0),
            (5, 1.0, 2),
        ],
    )
    def test_domain_errors(self, n, i, j):
        with pytest.raises(DomainError):
            betti(n, i, j)


class TestBettiTable:
    def test_pentagon_nonzero_frozen(self):
        assert betti_table(5).nonzero() == {(0, 0): 1, (1, 2): 5, (2, 3): 5, (3, 5): 1}

    def test_square_nonzero_frozen(self):
        assert betti_table(4).nonzero() == {(0, 0): 1, (1, 2): 2, (2, 4): 1}

    def test_every_cell_present(self):
        table = betti_table(5)
        assert set(table.entries) == {(i, j) for j in range(6) for i in range(j + 1)}
        assert table[(1, 2)] == 5
        assert table[(1, 3)] == 0

    def test_matches_brute_force(self):
        for n in range(4, 13):
            assert betti_table(n).entries == brute_force_table(n)

    @pytest.mark.parametrize("n", [3, 2, 101, 6.0])
    def test_rejects_out_of_range_sizes(self, n):
        with pytest.raises(DomainError):
            betti_table(n)

    def test_reference_ranks_no_matrix(self, monkeypatch):
        # the arc-type reference: 628 arc types at n = 20, each counted by the graph oracle once,
        # and not one matrix ranked
        requests = oracle_spy(monkeypatch)
        shapes = rank_spy(monkeypatch)
        for j in range(21):
            reference.column(20, j)
        assert len(requests) == sum(1 for j in range(21) for _ in reference.arc_types(20, j)) == 628
        assert shapes == []

    def test_ranks_each_path_once_and_the_two_whole_subsets(self, monkeypatch):
        # every path, the empty subset and the whole cycle are column prefixes of the cycle's
        # augmentation row and incidence: two rank profiles, and no other rank
        for n in (4, 20, 100):
            shapes = rank_spy(monkeypatch)
            betti_table(n)
            assert shapes == [("_rank_profile", 1, n), ("_rank_profile", n, n)]
            monkeypatch.undo()

    def test_homology_rule_runs_for_each_path_and_the_two_ends_only(self, monkeypatch):
        # the gate's n - 1 paths, the empty subset and the whole cycle; every other cell follows
        # from the paths being acyclic, with no homology call per subset or arc count
        for n in (4, 20, 100):
            calls = []
            real = hochster._graph_homology
            monkeypatch.setattr(hochster, "_graph_homology", lambda *args: calls.append(args) or real(*args))
            betti_table(n)
            assert len(calls) == n + 1
            assert calls[-2:] == [(0, 0, 0, 0), (n, n, 1, n - 1)]
            monkeypatch.undo()

    def test_builds_no_dense_matrix(self, monkeypatch):
        # both maps go to the elimination as sparse columns: no IntMatrix is built or validated
        built = []
        validate = IntMatrix.__post_init__
        monkeypatch.setattr(IntMatrix, "__post_init__", lambda m: built.append((m.nrows, m.ncols)) or validate(m))
        betti_table(100)
        betti(20, 9, 10)
        assert built == []
        matrix_rank(IntMatrix(1, 3, ((1, 1, 1),)))  # the spy sees the matrices that are built
        assert built == [(1, 3)]


@lru_cache(maxsize=None)
def table_entries(n):
    return betti_table(n).entries


class TestClosedForms:
    # identities of the whole table that use neither Hochster's formula nor homology, at every
    # served n from one cached table each; any one wrong cell breaks the Hilbert series, and any
    # cell but the middle of an even n's strand breaks the symmetry

    @pytest.mark.parametrize("n", range(4, MAX_CYCLE_SIZE + 1))
    def test_hilbert_series(self, n):
        # C_n has one empty face, n vertices and n edges, so sum (-1)^i b_ij t^j equals
        # (1-t)^n + n t (1-t)^(n-1) + n t^2 (1-t)^(n-2) (Stanley, Combinatorics and
        # Commutative Algebra, ch. II; Bruns-Herzog, Cohen-Macaulay Rings, 5.1)
        expected = [0] * (n + 1)
        for faces, size in ((1, 0), (n, 1), (n, 2)):
            for k in range(n - size + 1):
                expected[size + k] += faces * (-1) ** k * comb(n - size, k)
        alternating = [0] * (n + 1)
        for (i, j), value in table_entries(n).items():
            alternating[j] += (-1) ** i * value
        assert alternating == expected

    @pytest.mark.parametrize("n", range(4, MAX_CYCLE_SIZE + 1))
    def test_gorenstein_symmetry(self, n):
        # C_n is a 1-sphere, so its resolution is self-dual: b_ij = b_(n-2-i, n-j), and a
        # cell whose dual falls outside 0 <= i <= j is 0 (Stanley, op. cit., II.5)
        entries = table_entries(n)
        for (i, j), value in entries.items():
            assert value == entries.get((n - 2 - i, n - j), 0), (n, i, j)

    @pytest.mark.parametrize("n", range(4, MAX_CYCLE_SIZE + 1))
    def test_corners_and_strand(self, n):
        # the nonzero cells are the two corners and the strand, whose entries are the hook length
        # count and Jacques' arc count
        strand = {(j - 1, j): hook_length_count(hook_shape(n, j)) for j in range(2, n - 1)}
        assert strand == {(j - 1, j): jacques_strand(n, j) for j in range(2, n - 1)}
        nonzero = {key: value for key, value in table_entries(n).items() if value}
        assert nonzero == {(0, 0): 1, **strand, (n - 2, n): 1}


class TestArcTypes:
    # the arc-type route in tests/arc_types.py: the reference the library's sums are checked against

    def test_counts_match_a_brute_force_tally(self):
        for n in range(3, 13):
            for j in range(n + 1):
                subsets = itertools.combinations(range(1, n + 1), j)
                tally = Counter(arc_type(n, w) for w in subsets)
                counts = {arc_type(n, w): count for w, count in reference.arc_types(n, j)}
                assert counts == tally

    def test_counts_sum_to_binomials(self):
        for n in range(3, 21):
            for j in range(n + 1):
                assert sum(count for _, count in reference.arc_types(n, j)) == comb(n, j)

    def test_each_representative_has_its_own_type(self):
        for n in range(3, 21):
            for j in range(n + 1):
                types = [arc_type(n, w) for w, _ in reference.arc_types(n, j)]
                assert len(set(types)) == len(types)
                assert all(sum(t) == j for t in types)

    def test_library_matches_the_arc_type_route(self):
        # every column, past the size cap too, and the strand, which the reference counts by
        # walking each representative's arcs
        for n in range(3, 25):
            assert hochster._columns(n, range(n + 1)) == [reference.column(n, j) for j in range(n + 1)]
        for n in range(4, 21):
            for j in range(2, n - 1):
                assert linear_strand(n, j) == reference.linear_strand(n, j)


short_of_the_whole_cycle = st.integers(3, 20).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n), max_size=n - 1))
)


class TestCompositionSums:
    # the facts the sums over arc counts rest on

    @given(short_of_the_whole_cycle)
    def test_homology_is_the_graph_rule_on_path_ranks(self, case):
        # a subset short of the whole cycle has the homology of its size, its edge count, its
        # augmentation rank and the sum of the incidence ranks of the paths on its arc lengths;
        # the generic route computes every degree up to |W| - 1, and the ones past 1 must be 0
        n, w = case
        augmentation, incidence = homology._cycle_ranks(n)
        edges = sum(1 for v in w if v % n + 1 in w)
        rank_sum = sum(incidence[len(arc) - 1] for arc in restrict(n, w).components)
        k = restriction_complex(n, w)
        expected = [reduced_betti_dim(k, d) for d in range(-1, max(len(w), 2))]
        assert expected[3:] == [0] * (len(expected) - 3)
        assert expected[:3] == homology._graph_homology(len(w), edges, augmentation[len(w)], rank_sum)
        assert augmentation[len(w)] == matrix_rank(IntMatrix(1, len(w), ((1,) * len(w),)))

    def test_subset_counts_match_a_brute_force_tally(self):
        # the closed count by arc count, as the columns and the strand use it
        for n in range(3, 13):
            for j in range(1, n):
                subsets = itertools.combinations(range(1, n + 1), j)
                tally = Counter(len(restrict(n, w).components) for w in subsets)
                assert hochster._arc_counts(n, j) == dict(tally)

    def test_subset_counts_sum_to_binomials(self):
        for n in range(3, MAX_CYCLE_SIZE + 1):
            for j in range(1, n):
                assert sum(hochster._arc_counts(n, j).values()) == comb(n, j), (n, j)

    def test_closed_count_matches_the_composition_recurrence(self):
        # class for class, at every served n
        for n in range(3, MAX_CYCLE_SIZE + 1):
            for j in range(1, n):
                assert hochster._arc_counts(n, j) == reference.arc_counts(n, j), (n, j)


def understate_profile(monkeypatch, nrows, k):
    """Make entry k of the rank profile of columns spanning nrows rows one less than it is."""
    profile = homology._rank_profile
    monkeypatch.setattr(
        homology,
        "_rank_profile",
        lambda m: [r - ((column_shape(m)[0], col) == (nrows, k)) for col, r in enumerate(profile(m))],
    )


class TestPathGate:
    # a table is summed only once every path on 1..n-1 vertices has come out of the elimination
    # acyclic; an understated path rank breaks that, and must raise, even under -O, rather than
    # yield another table

    @pytest.mark.parametrize(
        "shape,m",
        [
            ((8, 3), 4),  # the incidence of the path on 4 vertices, the 3-column prefix of the 8-cycle's
            ((1, 4), 4),  # the augmentation row of the path on 4 vertices
            ((1, 1), 1),  # the shortest path
            ((8, 6), 7),  # the longest path, one vertex short of the cycle
        ],
    )
    def test_understated_path_rank_raises(self, monkeypatch, shape, m):
        understate_profile(monkeypatch, *shape)
        with pytest.raises(ImpossibleBranchError, match=f"the path on {m} vertices is not acyclic"):
            betti_table(8)
        with pytest.raises(ImpossibleBranchError, match=f"the path on {m} vertices is not acyclic"):
            betti(8, 1, 2)

    def test_understated_cycle_rank_moves_the_top_corner(self, monkeypatch):
        # the whole cycle is no path, so the gate passes; its own rank, one short, leaves two
        # cycles in degree 1 and a second component in degree 0, and the corner is computed
        # from that rank, not written in
        understate_profile(monkeypatch, 8, 8)
        table = betti_table(8)
        assert (table[(6, 8)], table[(7, 8)]) == (2, 1)
        assert betti(8, 6, 8) == 2


class TestLinearStrand:
    def test_pentagon(self):
        assert linear_strand(5, 2) == 5

    def test_chord_count_identity(self):
        # size-2 subsets disconnect exactly when they are chords
        for n in range(4, 13):
            assert linear_strand(n, 2) == n * (n - 3) // 2

    def test_matches_homology_route(self):
        for n in range(4, 13):
            for j in range(2, n - 1):
                assert linear_strand(n, j) == betti(n, j - 1, j)

    def test_ranks_nothing(self, monkeypatch):
        # the strand is the sum the table writes, over the closed count alone: no elimination
        shapes = rank_spy(monkeypatch)
        for n in (4, 20, 100):
            for j in range(2, n - 1):
                linear_strand(n, j)
        assert shapes == []

    def test_arc_count_identity(self):
        for n in range(4, 21):
            for j in range(2, n - 1):
                assert linear_strand(n, j) == jacques_strand(n, j) == hook_length_count(hook_shape(n, j))

    def test_matches_marked_subsets(self):
        for n in range(4, 10):
            for j in range(2, n - 1):
                assert linear_strand(n, j) == len(marked_subsets(n, j))

    @pytest.mark.parametrize("n,j", [(3, 2), (5, 1), (5, 4), (101, 2), (6, 2.0), (6.0, 2)])
    def test_domain_errors(self, n, j):
        with pytest.raises(DomainError):
            linear_strand(n, j)


class TestDuality:
    def test_strand_is_symmetric_under_complement_degree(self):
        for n in range(4, 9):
            for j in range(2, n - 1):
                assert betti(n, j - 1, j) == betti(n, n - j - 1, n - j)
