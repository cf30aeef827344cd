"""End-to-end acceptance checks.

Each test covers one acceptance criterion exactly, at zero tolerance, and
prints a single pass line (visible with pytest -s, or in the captured
output section on failure).  Criteria with a stated time budget assert it.
"""

import time

from chain_checks import composes_to_zero
from graph_oracle import graph_homology_oracle

from cyclebetti.bijection import (
    marked_subset_to_tableau,
    tableau_to_marked_subset,
    transpose_duality_holds,
)
from cyclebetti.cycle import admissible_markers, marked_subsets
from cyclebetti.hochster import betti, betti_table
from cyclebetti.homology import boundary_matrix, reduced_betti_dim, restriction_complex
from cyclebetti.tableaux import (
    enumerate_standard_tableaux,
    format_tableau,
    hook_length_count,
    hook_shape,
)


def _all_subsets(n):
    import itertools

    for k in range(n + 1):
        yield from (frozenset(c) for c in itertools.combinations(range(1, n + 1), k))


def _report(criterion, detail):
    print(f"[acceptance] {criterion}: PASS ({detail})")


def test_criterion_1_strand_counts_agree_exhaustively():
    # betti(n, j-1, j) equals the enumerated tableau count, the
    # hook-length-formula count, and the marked-subset count for every
    # n in 4..12 and j in 2..n-2, exactly
    start = time.perf_counter()
    checked = 0
    for n in range(4, 13):
        for j in range(2, n - 1):
            shape = hook_shape(n, j)
            value = betti(n, j - 1, j)
            assert value == len(enumerate_standard_tableaux(shape)), (n, j)
            assert value == hook_length_count(shape), (n, j)
            assert value == len(marked_subsets(n, j)), (n, j)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _report("criterion 1", f"{checked} (n, j) cells, four counts each, {elapsed:.1f}s")


def test_criterion_2_pentagon_goldens():
    # the forward map sends the five fillings of shape (2, 2, 1) onto the
    # five known marked subsets, and the inverse map rebuilds each filling
    expected_pairs = {
        (frozenset({2, 4}), 4),
        (frozenset({2, 5}), 5),
        (frozenset({3, 5}), 5),
        (frozenset({1, 3}), 4),
        (frozenset({1, 4}), 5),
    }
    tableaux = enumerate_standard_tableaux(hook_shape(5, 2))
    assert len(tableaux) == 5
    images = {tableau_to_marked_subset(t): t for t in tableaux}
    assert {(ms.vertices, ms.marker) for ms in images} == expected_pairs
    rebuilt = {marked_subset_to_tableau(5, 2, ms.vertices, ms.marker) for ms in images}
    assert rebuilt == set(tableaux)
    _report("criterion 2", "5 forward images and 5 inverse rebuilds match")


def test_criterion_3_hexagon_goldens():
    # the alternating subset {2, 4, 6} has admissible markers {4, 6} and
    # the inverse map produces exactly the two known fillings
    subset = frozenset({2, 4, 6})
    markers = admissible_markers(6, subset)
    assert markers == frozenset({4, 6})
    assert format_tableau(marked_subset_to_tableau(6, 3, subset, 4)) == "1,2,6;3,4;5"
    assert format_tableau(marked_subset_to_tableau(6, 3, subset, 6)) == "1,2,4;3,6;5"
    rebuilt = {format_tableau(marked_subset_to_tableau(6, 3, subset, a)) for a in markers}
    assert rebuilt == {"1,2,6;3,4;5", "1,2,4;3,6;5"}
    _report("criterion 3", "markers {4,6} and both fillings match")


def test_criterion_4_vanishing_pattern():
    # brute-force tables are nonzero only at (0, 0), (n-2, n), and the
    # linear strand, with both corners equal to 1; nothing is assumed
    for n in range(4, 11):
        table = betti_table(n)
        allowed = {(0, 0), (n - 2, n)} | {(j - 1, j) for j in range(2, n - 1)}
        assert table[(0, 0)] == 1
        assert table[(n - 2, n)] == 1
        for cell, value in table.entries.items():
            if cell not in allowed:
                assert value == 0, (n, cell, value)
    _report("criterion 4", "tables for n in 4..10 vanish off the strand and corners")


def test_criterion_5_round_trips():
    # inverse-then-forward and forward-then-inverse are both the identity
    # for every n in 4..12 and every j
    start = time.perf_counter()
    tableau_trips = 0
    marked_trips = 0
    for n in range(4, 13):
        for j in range(2, n - 1):
            for t in enumerate_standard_tableaux(hook_shape(n, j)):
                ms = tableau_to_marked_subset(t)
                assert marked_subset_to_tableau(n, j, ms.vertices, ms.marker) == t
                tableau_trips += 1
            for ms in marked_subsets(n, j):
                t = marked_subset_to_tableau(n, j, ms.vertices, ms.marker)
                assert tableau_to_marked_subset(t) == ms
                marked_trips += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    _report(
        "criterion 5",
        f"{tableau_trips} tableau and {marked_trips} marked round trips, {elapsed:.1f}s",
    )


def test_criterion_6_duality():
    # the strand is symmetric in complementary degrees, and transposing a
    # tableau complements its subset while keeping the marker
    for n in range(4, 13):
        for j in range(2, n - 1):
            assert betti(n, j - 1, j) == betti(n, n - j - 1, n - j), (n, j)
    for n in range(4, 11):
        for j in range(2, n - 1):
            for t in enumerate_standard_tableaux(hook_shape(n, j)):
                assert transpose_duality_holds(t), format_tableau(t)
    _report("criterion 6", "strand symmetry to n=12 and transpose duality to n=10")


def test_criterion_7_homology_oracle_agreement():
    # matrix-rank homology agrees with graph counting in degrees -1, 0, 1
    # on every restriction, and boundary maps compose to zero
    subsets_checked = 0
    for n in range(3, 11):
        for w in _all_subsets(n):
            complex_ = restriction_complex(n, w)
            via_matrices = tuple(reduced_betti_dim(complex_, d) for d in (-1, 0, 1))
            assert via_matrices == graph_homology_oracle(n, w), (n, sorted(w))
            for d in range(-1, 3):
                assert composes_to_zero(
                    boundary_matrix(complex_, d), boundary_matrix(complex_, d + 1)
                ), (n, sorted(w), d)
            subsets_checked += 1
    _report("criterion 7", f"{subsets_checked} restrictions, dims -1..1 plus d-of-d zero")
