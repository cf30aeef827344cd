"""The benchmark's closed forms and input generators, checked against independent routes."""

import json
import random
from itertools import combinations

import pytest
from click.testing import CliRunner

import cyclebetti as cb
from bench import oracle
from bench.workloads import CellsWorkload, MapsWorkload
from cyclebetti.cli import main


@pytest.mark.parametrize("n", range(4, 201))
def test_arc_count_equals_hook_product_count(n):
    for j in range(2, n - 1):
        assert oracle.strand(n, j) == oracle.hook_product_count(oracle.hook_parts(n, j))


def test_arc_count_equals_linear_strand():
    for n in range(4, 13):
        for j in range(2, n - 1):
            assert oracle.strand(n, j) == cb.linear_strand(n, j)


def test_arc_counts_partition_the_subsets():
    for n in range(4, 30):
        for j in range(1, n):
            counted = sum(oracle.subsets_with_arcs(n, j, c) for c in range(1, min(j, n - j) + 1))
            assert counted == oracle.comb(n, j)


def test_closed_form_table_equals_brute_force():
    for n in range(4, 9):
        table = cb.betti_table(n)
        assert all(table[i, j] == oracle.betti(n, i, j) for (i, j) in table.entries)


@pytest.mark.parametrize("command,expected", [("table", oracle.table_json), ("verify", oracle.verify_json)])
def test_cli_documents_match_closed_forms(command, expected):
    result = CliRunner().invoke(main, [command, "--n", "7", "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output) == expected(7)


def test_arcs_and_markers_match_the_library():
    for n in range(4, 9):
        for j in range(1, n):
            for subset in combinations(range(1, n + 1), j):
                restriction = cb.restrict(n, subset)
                assert [tuple(arc) for arc in oracle.arcs(n, subset)] == list(restriction.components)
                assert oracle.admissible_markers(n, subset) == sorted(cb.admissible_markers(n, subset))


def test_generator_yields_only_valid_marked_subsets():
    rng = random.Random(7)
    for n in (4, 5, 9, 64, 300):
        for j in range(2, n - 1, max(1, n // 20)):
            for _ in range(3):
                vertices, marker = oracle.random_marked_subset(rng, n, j)
                assert len(vertices) == j == len(set(vertices))
                assert len(oracle.arcs(n, vertices)) >= 2
                ms = cb.MarkedSubset(n, frozenset(vertices), marker)
                assert ms.marker in cb.admissible_markers(n, vertices)


def test_maps_inputs_cover_their_ranges_and_are_valid():
    workload = MapsWorkload(low=8, high=128, count=200)
    first, second = workload.inputs(random.Random(3), 2)
    assert len(first) == len(second) == 200
    for n, j, vertices, marker in first + second:
        assert 8 <= n <= 128 and 2 <= j <= n - 2
        cb.MarkedSubset(n, frozenset(vertices), marker)
    assert min(n for n, *_ in first) < 12 and max(n for n, *_ in first) > 100
    assert [item[:2] for item in first] == [item[:2] for item in second]
    assert sum(a[2:] != b[2:] for a, b in zip(first, second)) > 150


def test_inputs_depend_only_on_the_seed():
    for workload in (CellsWorkload(range(5, 8), count=100), MapsWorkload(8, 64, 50)):
        first = workload.inputs(random.Random(11), 2)
        assert first == workload.inputs(random.Random(11), 2)
        assert first != workload.inputs(random.Random(12), 2)


def test_cells_queries_cover_the_whole_triangle():
    (queries,) = CellsWorkload(range(5, 7), count=500).inputs(random.Random(0), 1)
    cells = {q for q in queries if q[0] == "betti"}
    assert cells == {("betti", n, i, j) for n in (5, 6) for j in range(n + 1) for i in range(j + 1)}


def test_round_trip_oracle_accepts_the_library_and_rejects_corruptions():
    n, j, vertices, marker = 9, 4, [2, 3, 6, 8], 6
    tableau = cb.marked_subset_to_tableau(n, j, vertices, marker)
    back = cb.tableau_to_marked_subset(tableau)
    good = (back.vertices, back.marker)
    assert oracle.round_trip_error(n, j, vertices, marker, tableau.rows, good, True) is None
    swapped = [list(row) for row in tableau.rows]
    swapped[0][-1], swapped[-1][0] = swapped[-1][0], swapped[0][-1]
    assert oracle.round_trip_error(n, j, vertices, marker, swapped, good, True)
    assert oracle.round_trip_error(n, j, vertices, marker, tableau.rows, (back.vertices, 8), True)
    assert oracle.round_trip_error(n, j, vertices, marker, tableau.rows, good, False)
