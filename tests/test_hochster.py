import itertools
from math import comb

import pytest

import cyclebetti.hochster as hochster
from cyclebetti.cycle import marked_subsets
from cyclebetti.errors import DomainError
from cyclebetti.hochster import betti, betti_table, linear_strand, rotation_orbits
from cyclebetti.homology import reduced_betti_dim, restriction_complex
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
        requests = []
        real = hochster.cycle_reduced_homology

        def spy(n, vertices, degrees):
            requests.append((len(tuple(vertices)), tuple(degrees)))
            return real(n, vertices, degrees)

        monkeypatch.setattr(hochster, "cycle_reduced_homology", spy)
        assert betti(10, 2, 3) == hook_length_count(hook_shape(10, 3))
        assert requests == [(3, (0,))] * comb(10, 3)

    @pytest.mark.parametrize("n,i,j", [(5, 3, 2), (5, 0, 6), (5, -1, 2), (2, 0, 0), (21, 0, 0)])
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

    @pytest.mark.parametrize("n", [3, 2, 21])
    def test_rejects_out_of_range_sizes(self, n):
        with pytest.raises(DomainError):
            betti_table(n)


class TestRotationOrbits:
    def test_weights_sum_to_binomials(self):
        for n in range(3, 21):
            weights = [0] * (n + 1)
            for subset, orbit_size in rotation_orbits(n):
                weights[len(subset)] += orbit_size
            assert weights == [comb(n, j) for j in range(n + 1)]

    def test_orbits_partition_the_subsets(self):
        for n in range(3, 11):
            seen = set()
            for subset, orbit_size in rotation_orbits(n):
                orbit = {
                    frozenset((v + r - 1) % n + 1 for v in subset) for r in range(n)
                }
                assert len(orbit) == orbit_size
                assert seen.isdisjoint(orbit)
                seen |= orbit
            assert len(seen) == 2**n

    @pytest.mark.parametrize("n", [2, 0, -1, 21])
    def test_rejects_out_of_range_sizes(self, n):
        with pytest.raises(DomainError):
            list(rotation_orbits(n))


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

    def test_matches_marked_subsets(self):
        for n in range(4, 10):
            for j in range(2, n - 1):
                assert linear_strand(n, j) == len(marked_subsets(n, j))

    @pytest.mark.parametrize("n,j", [(3, 2), (5, 1), (5, 4), (21, 2)])
    def test_domain_errors(self, n, j):
        with pytest.raises(DomainError):
            linear_strand(n, j)


class TestDuality:
    def test_strand_is_symmetric_under_complement_degree(self):
        for n in range(4, 9):
            for j in range(2, n - 1):
                assert betti(n, j - 1, j) == betti(n, n - j - 1, n - j)
