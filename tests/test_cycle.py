import itertools
import random

import pytest

import cyclebetti.cycle as cycle
from cyclebetti.cycle import (
    MarkedSubset,
    admissible_markers,
    cycle_edges,
    marked_subsets,
    marker_set,
    restrict,
    vertex_set,
)
from cyclebetti.errors import (
    DomainError,
    InvalidCycleError,
    InvalidMarkedSubsetError,
    UndefinedMarkerError,
    VertexRangeError,
)


def all_subsets(n):
    for k in range(n + 1):
        yield from (frozenset(c) for c in itertools.combinations(range(1, n + 1), k))


def proper_nonempty_subsets(n):
    return (w for w in all_subsets(n) if 0 < len(w) < n)


class TestCycleEdges:
    def test_triangle_is_complete(self):
        assert cycle_edges(3) == {frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})}

    def test_pentagon(self):
        expected = {frozenset(e) for e in [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]}
        assert cycle_edges(5) == expected

    def test_square_has_no_diagonals(self):
        edges = cycle_edges(4)
        assert len(edges) == 4
        assert frozenset({1, 3}) not in edges
        assert frozenset({2, 4}) not in edges

    @pytest.mark.parametrize("n", [-1, 0, 1, 2, 5.0])
    def test_rejects_small_cycles(self, n):
        with pytest.raises(InvalidCycleError):
            cycle_edges(n)


class TestRestrict:
    def test_two_isolated_vertices(self):
        assert restrict(5, {2, 4}).components == ((2,), (4,))

    def test_alternating_hexagon(self):
        assert restrict(6, {2, 4, 6}).components == ((2,), (4,), (6,))

    def test_full_cycle_is_one_arc(self):
        assert restrict(5, range(1, 6)).components == ((1, 2, 3, 4, 5),)

    def test_wrapping_arc_walks_past_n(self):
        assert restrict(6, {5, 6, 1, 2}).components == ((5, 6, 1, 2),)

    def test_empty_subset(self):
        r = restrict(5, ())
        assert r.components == ()
        assert r.component_count == 0

    def test_rejects_foreign_vertices(self):
        with pytest.raises(VertexRangeError):
            restrict(5, {0, 2})
        with pytest.raises(VertexRangeError):
            restrict(5, {2, 6})

    def test_components_partition_subset_and_walk_the_cycle(self):
        for n in range(3, 9):
            for w in all_subsets(n):
                comps = restrict(n, w).components
                seen = [v for arc in comps for v in arc]
                assert sorted(seen) == sorted(w)
                assert len(seen) == len(set(seen))
                for arc in comps:
                    for u, v in zip(arc, arc[1:]):
                        assert (v - u) % n in (1, n - 1)

    def test_distinct_components_are_not_adjacent(self):
        for n in range(3, 9):
            for w in all_subsets(n):
                comps = restrict(n, w).components
                for arc_a, arc_b in itertools.combinations(comps, 2):
                    for u in arc_a:
                        for v in arc_b:
                            assert (v - u) % n not in (1, n - 1)

    def test_components_sorted_by_strictly_increasing_minimum(self):
        for n in range(3, 9):
            for w in all_subsets(n):
                minima = [min(arc) for arc in restrict(n, w).components]
                assert minima == sorted(minima)
                assert len(minima) == len(set(minima))

    def test_component_count_matches_complement(self):
        # a proper nonempty subset and its complement cut the cycle into
        # the same number of arcs
        for n in range(3, 11):
            everything = frozenset(range(1, n + 1))
            for w in proper_nonempty_subsets(n):
                assert (
                    restrict(n, w).component_count
                    == restrict(n, everything - w).component_count
                )


class TestVertexSet:
    def test_accepts_labels_in_range(self):
        assert vertex_set(5, [5, 1, 1, 3]) == frozenset({1, 3, 5})
        assert vertex_set(3) == frozenset()

    @pytest.mark.parametrize(
        "n,vertices,error,text",
        [
            (2, [1], InvalidCycleError, "cycle graphs need n >= 3, got n=2"),
            (-1, [], InvalidCycleError, "cycle graphs need n >= 3, got n=-1"),
            (5, [6], VertexRangeError, "vertices [6] fall outside 1..5"),
            (5, [0], VertexRangeError, "vertices [0] fall outside 1..5"),
            (5, [3, 9, 0, 5, -2, 9], VertexRangeError, "vertices [-2, 0, 9] fall outside 1..5"),
            # a label comparing false both ways is out of range too
            (5, [float("nan")], VertexRangeError, "vertices [nan] fall outside 1..5"),
            (5, [2, float("nan"), 4], VertexRangeError, "vertices [nan] fall outside 1..5"),
            # labels are ints: an equal float or a bool is not a vertex
            (5, [2.5], VertexRangeError, "vertices [2.5] fall outside 1..5"),
            (5, [True], VertexRangeError, "vertices [True] fall outside 1..5"),
            (5, [2, 4.0], VertexRangeError, "vertices [4.0] fall outside 1..5"),
            # labels that do not compare with each other: numbers first, then the rest
            (5, ["a", 2.5], VertexRangeError, "vertices [2.5, 'a'] fall outside 1..5"),
            (
                5,
                [None, 7, "b", 3, 2.5, 1j, 0],
                VertexRangeError,
                "vertices [0, 2.5, 7, 'b', 1j, None] fall outside 1..5",
            ),
            # n is an int too
            (6.0, [2], InvalidCycleError, "cycle graphs need n >= 3, got n=6.0"),
        ],
    )
    def test_rejection_text(self, n, vertices, error, text):
        with pytest.raises(error) as excinfo:
            vertex_set(n, vertices)
        assert str(excinfo.value) == text


class TestMarkers:
    def test_known_values_without_vertex_one(self):
        assert marker_set(5, {2, 4}) == frozenset({2, 4})
        assert marker_set(6, {2, 4, 6}) == frozenset({2, 4, 6})

    def test_known_value_with_vertex_one_uses_complement(self):
        assert marker_set(5, {1, 3}) == frozenset({2, 4})

    def test_matches_arc_minima_of_restriction(self):
        # reference: the minima of the arcs of the restriction to the side avoiding 1
        for n in range(3, 13):
            everything = frozenset(range(1, n + 1))
            for w in proper_nonempty_subsets(n):
                side = w if 1 not in w else everything - w
                assert marker_set(n, w) == {min(arc) for arc in restrict(n, side).components}

    def test_admissible_drops_the_minimum(self):
        assert admissible_markers(5, {2, 4}) == frozenset({4})
        assert admissible_markers(5, {1, 3}) == frozenset({4})
        assert admissible_markers(6, {2, 4, 6}) == frozenset({4, 6})

    def test_connected_subsets_admit_no_markers(self):
        assert admissible_markers(5, {1, 2}) == frozenset()
        assert admissible_markers(6, {3, 4, 5}) == frozenset()

    @pytest.mark.parametrize("bad", [(), (1, 2, 3, 4, 5)])
    def test_undefined_for_empty_and_full(self, bad):
        with pytest.raises(UndefinedMarkerError):
            marker_set(5, bad)

    def test_marker_count_equals_component_count(self):
        for n in range(3, 11):
            for w in proper_nonempty_subsets(n):
                assert len(marker_set(n, w)) == restrict(n, w).component_count

    def test_admissible_nonempty_iff_disconnected(self):
        for n in range(3, 11):
            for w in proper_nonempty_subsets(n):
                has_markers = bool(admissible_markers(n, w))
                assert has_markers == (restrict(n, w).component_count >= 2)

    def test_marker_side_depends_on_vertex_one(self):
        for n in range(3, 11):
            for w in proper_nonempty_subsets(n):
                markers = marker_set(n, w)
                if 1 in w:
                    assert not markers & w
                else:
                    assert markers <= w


class TestMarkedSubsets:
    def test_pentagon_pairs(self):
        expected = {
            (frozenset({2, 4}), 4),
            (frozenset({2, 5}), 5),
            (frozenset({3, 5}), 5),
            (frozenset({1, 3}), 4),
            (frozenset({1, 4}), 5),
        }
        got = {(ms.vertices, ms.marker) for ms in marked_subsets(5, 2)}
        assert got == expected

    def test_square_pairs_frozen(self):
        got = [(ms.vertices, ms.marker) for ms in marked_subsets(4, 2)]
        assert got == [(frozenset({1, 3}), 4), (frozenset({2, 4}), 4)]

    def test_alternating_hexagon_contributes_two_pairs(self):
        hits = [ms for ms in marked_subsets(6, 3) if ms.vertices == frozenset({2, 4, 6})]
        assert [ms.marker for ms in hits] == [4, 6]

    def test_order_is_lex_subset_then_marker(self):
        for n, j in [(5, 2), (6, 3), (7, 4)]:
            out = marked_subsets(n, j)
            keys = [(tuple(sorted(ms.vertices)), ms.marker) for ms in out]
            assert keys == sorted(keys)

    @pytest.mark.parametrize(
        "n,j", [(5, 1), (5, 4), (5, 0), (5, 7), (3, 2), (4, 3), (6, 3.0), (6.0, 3)]
    )
    def test_out_of_range_size_raises_domain_error(self, n, j):
        with pytest.raises(DomainError, match="no marked subsets"):
            marked_subsets(n, j)

    def test_count_is_total_component_surplus(self):
        for n in range(4, 10):
            for j in range(2, n - 1):
                surplus = sum(
                    restrict(n, c).component_count - 1
                    for c in itertools.combinations(range(1, n + 1), j)
                )
                assert len(marked_subsets(n, j)) == surplus

    def test_vertex_one_law(self):
        for n in range(4, 10):
            for j in range(2, n - 1):
                for ms in marked_subsets(n, j):
                    assert (1 in ms.vertices) == (ms.marker not in ms.vertices)

    @pytest.mark.parametrize("n,j", [(6, 3), (8, 2), (9, 5)])
    def test_derives_markers_once_per_subset(self, monkeypatch, n, j):
        # the markers come straight from the arc starts of each subset built, so
        # the vertex labels are checked only when a MarkedSubset is validated
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            return wrapper

        for name in ("marker_set", "admissible_markers", "vertex_set"):
            monkeypatch.setattr(cycle, name, counted(name, getattr(cycle, name)))
        found = marked_subsets(n, j)
        assert 0 < len(found) and calls == ["vertex_set"] * len(found)


class TestMarkedSubsetType:
    def test_size_property(self):
        assert MarkedSubset(6, frozenset({2, 4, 6}), 6).size == 3

    def test_rejects_minimum_marker(self):
        with pytest.raises(InvalidMarkedSubsetError):
            MarkedSubset(5, frozenset({2, 4}), 2)

    def test_rejects_marker_of_connected_subset(self):
        with pytest.raises(InvalidMarkedSubsetError):
            MarkedSubset(5, frozenset({1, 2}), 3)

    def test_rejects_empty_and_full_subsets(self):
        with pytest.raises(InvalidMarkedSubsetError):
            MarkedSubset(5, frozenset(), 2)
        with pytest.raises(InvalidMarkedSubsetError):
            MarkedSubset(5, frozenset(range(1, 6)), 2)

    def test_rejects_foreign_vertices(self):
        with pytest.raises(InvalidMarkedSubsetError):
            MarkedSubset(5, frozenset({2, 9}), 9)

    @pytest.mark.parametrize(
        "n,vertices,marker,text",
        [
            (5, {2, 4}, 2, "marker 2 is not admissible for [2, 4] on the 5-cycle (admissible: [4])"),
            (5, {1, 2}, 3, "marker 3 is not admissible for [1, 2] on the 5-cycle (admissible: [])"),
            (
                8,
                {1, 2, 5, 7},
                5,
                "marker 5 is not admissible for [1, 2, 5, 7] on the 8-cycle (admissible: [6, 8])",
            ),
            (5, set(), 2, "markers need a proper nonempty subset of 1..5, got []"),
            (5, {2, 9}, 9, "vertices [9] fall outside 1..5"),
            (2, {1}, 2, "cycle graphs need n >= 3, got n=2"),
            # labels and markers are ints: an equal float is neither
            (5, {2.5, 4}, 4, "vertices [2.5] fall outside 1..5"),
            (
                5,
                {2, 4},
                4.0,
                "marker 4.0 is not admissible for [2, 4] on the 5-cycle (admissible: [4])",
            ),
            (5, {"a", 2.5}, 4, "vertices [2.5, 'a'] fall outside 1..5"),
            (6.0, {2, 4}, 4, "cycle graphs need n >= 3, got n=6.0"),
        ],
    )
    def test_rejection_text(self, n, vertices, marker, text):
        with pytest.raises(InvalidMarkedSubsetError) as excinfo:
            MarkedSubset(n, frozenset(vertices), marker)
        assert str(excinfo.value) == text

    @pytest.mark.parametrize(
        "vertices,marker,text",
        [
            # n = 2048; the evens 2..2000 have admissible markers 4..2000
            ({0, *range(2, 2001, 2)}, 4, "vertices [0] fall outside 1..2048"),
            ({*range(2, 2001, 2), 2049}, 4, "vertices [2049] fall outside 1..2048"),
            (
                {*range(2, 1000, 2), 1000.0, *range(1002, 2001, 2)},
                4,
                "vertices [1000.0] fall outside 1..2048",
            ),
            ({True, *range(4, 2001, 2)}, 4, "vertices [True] fall outside 1..2048"),
            (
                range(2, 2001, 2),
                2,
                f"marker 2 is not admissible for {[*range(2, 2001, 2)]} on the 2048-cycle "
                f"(admissible: {[*range(4, 2001, 2)]})",
            ),
            # the side's minimum found deep in the cycle, with and without vertex 1
            (
                range(1500, 2001, 2),
                1500,
                f"marker 1500 is not admissible for {[*range(1500, 2001, 2)]} on the 2048-cycle "
                f"(admissible: {[*range(1502, 2001, 2)]})",
            ),
            (
                {*range(1, 1001), *range(1500, 1601)},
                1001,
                f"marker 1001 is not admissible for {[*range(1, 1001), *range(1500, 1601)]} "
                "on the 2048-cycle (admissible: [1601])",
            ),
            (
                {*range(1, 1001), *range(1500, 1601)},
                1002,
                f"marker 1002 is not admissible for {[*range(1, 1001), *range(1500, 1601)]} "
                "on the 2048-cycle (admissible: [1601])",
            ),
            (
                {*range(1, 1001), *range(1500, 1601)},
                2049,
                f"marker 2049 is not admissible for {[*range(1, 1001), *range(1500, 1601)]} "
                "on the 2048-cycle (admissible: [1601])",
            ),
        ],
    )
    def test_rejection_text_at_large_n(self, vertices, marker, text):
        assert set_based_rejection(2048, set(vertices), marker) == text
        with pytest.raises(InvalidMarkedSubsetError) as excinfo:
            MarkedSubset(2048, frozenset(vertices), marker)
        assert str(excinfo.value) == text

    @pytest.mark.parametrize(
        "vertices,marker",
        [
            (range(2, 2001, 2), 2000),
            (range(1500, 2001, 2), 1502),
            ({2, 2048}, 2048),
            ({*range(1, 1001), *range(1500, 1601)}, 1601),
            ({1, *range(3, 1001), 2048}, 1001),
            ({*range(1, 1501), *range(1700, 1801)}, 1801),
        ],
    )
    def test_accepts_admissible_markers_at_large_n(self, vertices, marker):
        assert set_based_rejection(2048, set(vertices), marker) is None
        ms = MarkedSubset(2048, frozenset(vertices), marker)
        assert (ms.vertices, ms.marker) == (frozenset(vertices), marker)

    def test_accepts_iterable_vertices(self):
        ms = MarkedSubset(5, [2, 4], 4)
        assert ms.vertices == frozenset({2, 4})

    def test_matches_the_set_based_rule(self):
        # seeded random inputs, valid and invalid: markers drawn from the
        # admissible set, anywhere from -1 to n + 2 (n + 1 follows n, which is
        # in the subset half the time) or of the wrong type, labels past n,
        # and cycle sizes that are too small or not ints
        rng = random.Random(2015)
        accepted = 0
        for _ in range(6000):
            n = rng.choice([5, 6, 7, 8, 9, 12] * 3 + [2, 3, 4, 6.0])
            size = int(n)
            vertices = set(rng.sample(range(1, size + 1), rng.randint(0, size)))
            if rng.random() < 0.05:
                vertices.add(rng.choice([0, size + 1, 2.5]))
            proper = 0 < len(vertices) < size and vertices <= set(range(1, size + 1))
            admissible = sorted(set_based_admissible(size, vertices)) if proper else []
            marker = rng.choice(
                [rng.randint(-1, size + 2), size, size + 1, 1, 2.0, True, None, "4"]
                + admissible[:1] * 4
                + admissible[-1:] * 4
            )
            expected = set_based_rejection(n, vertices, marker)
            if expected is None:
                accepted += 1
                ms = MarkedSubset(n, frozenset(vertices), marker)
                assert (ms.n, ms.vertices, ms.marker) == (n, vertices, marker)
            else:
                with pytest.raises(InvalidMarkedSubsetError) as excinfo:
                    MarkedSubset(n, frozenset(vertices), marker)
                assert str(excinfo.value) == expected
        assert 1000 < accepted < 5000


def set_based_admissible(n, vs):
    # the markers as first defined: arc starts on the side avoiding vertex 1,
    # less the smallest
    side = vs if 1 not in vs else set(range(1, n + 1)) - vs
    markers = {v for v in side if v - 1 not in side}
    return markers - {min(markers)}


def set_based_rejection(n, vertices, marker):
    # the rule as first written: build the admissible set, then test
    # membership; returns the rejection text, or None for a valid marked subset
    try:
        vs = vertex_set(n, vertices)
    except (InvalidCycleError, VertexRangeError) as exc:
        return str(exc)
    if not vs or len(vs) == n:
        return f"markers need a proper nonempty subset of 1..{n}, got {sorted(vs)}"
    admissible = set_based_admissible(n, vs)
    if type(marker) is int and marker in admissible:
        return None
    return (
        f"marker {marker} is not admissible for {sorted(vs)} on the {n}-cycle "
        f"(admissible: {sorted(admissible)})"
    )
