import random
from dataclasses import dataclass

import pytest

import cyclebetti.bijection as bijection
from cyclebetti.bijection import (
    format_marked_subset,
    marked_subset_to_tableau,
    tableau_to_marked_subset,
    transpose_duality_holds,
    verify_bijection,
    verify_cycle,
)
from cyclebetti.cycle import MarkedSubset, marked_subsets, restrict
from cyclebetti.errors import (
    DomainError,
    ImpossibleBranchError,
    InvalidMarkedSubsetError,
    WrongShapeError,
)
from cyclebetti.tableaux import (
    Tableau,
    enumerate_standard_tableaux,
    format_tableau,
    hook_shape,
    parse_tableau,
    transpose,
)

# the five standard fillings of shape (2, 2, 1) and their marked subsets
PENTAGON_PAIRS = [
    ("1,2;3,4;5", {2, 4}, 4),
    ("1,3;2,4;5", {1, 3}, 4),
    ("1,2;3,5;4", {2, 5}, 5),
    ("1,3;2,5;4", {3, 5}, 5),
    ("1,4;2,5;3", {1, 4}, 5),
]

HEXAGON_PAIRS = [
    ("1,2,6;3,4;5", {2, 4, 6}, 4),
    ("1,2,4;3,6;5", {2, 4, 6}, 6),
]


class TestForward:
    @pytest.mark.parametrize("text,vertices,marker", PENTAGON_PAIRS + HEXAGON_PAIRS)
    def test_known_pairs(self, text, vertices, marker):
        ms = tableau_to_marked_subset(parse_tableau(text))
        assert ms.vertices == frozenset(vertices)
        assert ms.marker == marker

    @pytest.mark.parametrize(
        "text",
        ["1,2,3;4,5,6", "1;2;3", "1,2,3,4,5", "1,2,3;4,5;6,7"],
    )
    def test_rejects_wrong_shapes(self, text):
        with pytest.raises(WrongShapeError):
            tableau_to_marked_subset(parse_tableau(text))

    def test_branch_follows_vertex_one(self):
        # the predecessor of the marker sits in the first row exactly when
        # vertex 1 ends up in the subset
        for n in range(4, 9):
            for j in range(2, n - 1):
                for t in enumerate_standard_tableaux(hook_shape(n, j)):
                    ms = tableau_to_marked_subset(t)
                    predecessor_row = t.position_of(t.entry(2, 2) - 1)[0]
                    assert (predecessor_row == 1) == (1 in ms.vertices)


class TestInverse:
    @pytest.mark.parametrize("text,vertices,marker", PENTAGON_PAIRS + HEXAGON_PAIRS)
    def test_known_pairs(self, text, vertices, marker):
        n = parse_tableau(text).n
        rebuilt = marked_subset_to_tableau(n, len(vertices), vertices, marker)
        assert format_tableau(rebuilt) == text

    @pytest.mark.parametrize(
        "n,j,vertices,marker",
        [
            (5, 2, {1, 2}, 3),  # connected subset, no admissible markers
            (5, 2, {2, 4}, 2),  # smallest marker is never admissible
            (5, 3, {2, 4}, 4),  # size disagrees with j
            (6, 3, {2, 4, 6}, 2),
            (5, 2, {2, 9}, 9),  # vertex outside the cycle
            (5, 2, {}, 3),
            (5, 2, {2.5, 4}, 4),  # labels and markers are ints
            (5, 2, {2, 4}, 4.0),
        ],
    )
    def test_rejects_invalid_marked_subsets(self, n, j, vertices, marker):
        with pytest.raises(InvalidMarkedSubsetError):
            marked_subset_to_tableau(n, j, vertices, marker)

    def test_outputs_certify_marker_inequalities(self):
        for n in range(4, 9):
            for j in range(2, n - 1):
                for ms in marked_subsets(n, j):
                    t = marked_subset_to_tableau(n, j, ms.vertices, ms.marker)
                    assert t.entry(2, 2) > t.entry(1, 2)
                    assert t.entry(2, 2) > t.entry(2, 1)

    def test_misplaced_marker_raises(self, monkeypatch):
        # with both validations switched off, the inadmissible marker 2 for
        # {2, 4} lands at (2, 2) below the larger 4 and beside the larger 3
        @dataclass(frozen=True)
        class UncheckedMarkedSubset:
            n: int
            vertices: frozenset
            marker: int

            @property
            def size(self):
                return len(self.vertices)

        class UncheckedTableau(Tableau):
            def __post_init__(self):
                object.__setattr__(self, "rows", tuple(tuple(row) for row in self.rows))

        monkeypatch.setattr(bijection, "MarkedSubset", UncheckedMarkedSubset)
        monkeypatch.setattr(bijection, "Tableau", UncheckedTableau)
        with pytest.raises(ImpossibleBranchError, match="does not exceed both neighbours"):
            marked_subset_to_tableau(5, 2, {2, 4}, 2)


class TestRoundTrips:
    def test_small_sweep_both_directions(self):
        for n in range(4, 10):
            for j in range(2, n - 1):
                for t in enumerate_standard_tableaux(hook_shape(n, j)):
                    ms = tableau_to_marked_subset(t)
                    assert marked_subset_to_tableau(n, j, ms.vertices, ms.marker) == t
                for ms in marked_subsets(n, j):
                    t = marked_subset_to_tableau(n, j, ms.vertices, ms.marker)
                    assert tableau_to_marked_subset(t) == ms


def count_verifier_calls(monkeypatch):
    # counts the verifier's enumerations (and the tableaux they yield), its
    # forward maps, transposes and inverse rebuilds, and every MarkedSubset built
    calls = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)

        return wrapper

    def enumerate_counted(shape):
        found = enumerate_standard_tableaux(shape)
        calls["enumerate"] = calls.get("enumerate", 0) + 1
        calls["enumerated"] = calls.get("enumerated", 0) + len(found)
        return found

    monkeypatch.setattr(
        bijection, "tableau_to_marked_subset", counted("forward", tableau_to_marked_subset)
    )
    monkeypatch.setattr(bijection, "transpose", counted("transpose", transpose))
    monkeypatch.setattr(bijection, "_rebuild", counted("inverse", bijection._rebuild))
    monkeypatch.setattr(bijection, "enumerate_standard_tableaux", enumerate_counted)
    monkeypatch.setattr(
        MarkedSubset, "__post_init__", counted("MarkedSubset", MarkedSubset.__post_init__)
    )
    return calls


class TestVerifyBijection:
    @pytest.mark.parametrize("n,j,count", [(4, 2, 2), (5, 2, 5), (6, 3, 16)])
    def test_passing_reports(self, n, j, count):
        report = verify_bijection(n, j)
        assert report.passed
        assert report.injective
        assert report.image_matches
        assert report.round_trips_ok
        assert report.duality_holds
        assert report.tableau_count == count
        assert report.marked_count == count
        assert report.mismatches == []

    def test_duality_field_matches_per_tableau_check(self):
        for n in range(4, 9):
            for j in range(2, n - 1):
                expected = all(
                    transpose_duality_holds(t)
                    for t in enumerate_standard_tableaux(hook_shape(n, j))
                )
                assert verify_bijection(n, j).duality_holds == expected

    def test_maps_each_side_once(self, monkeypatch):
        # the verifier enumerates the shape and its conjugate once each, maps
        # every enumerated tableau forward once (a transpose is looked up, not
        # mapped), rebuilds every marked subset once from the object it holds,
        # and builds no MarkedSubset beyond the images and the enumerated ones
        calls = count_verifier_calls(monkeypatch)
        for n, j, sides in [(8, 4, 1), (8, 3, 2)]:
            calls.clear()
            report = verify_bijection(n, j)
            assert report.passed and report.duality_holds
            assert calls == {
                "enumerate": sides,
                "enumerated": sides * report.tableau_count,
                "forward": sides * report.tableau_count,
                "transpose": report.tableau_count,
                "inverse": report.marked_count,
                "MarkedSubset": sides * report.tableau_count + report.marked_count,
            }

    def test_cycle_maps_each_side_once(self, monkeypatch):
        calls = count_verifier_calls(monkeypatch)
        reports = verify_cycle(8)
        tableaux = sum(report.tableau_count for report in reports)
        marked = sum(report.marked_count for report in reports)
        assert calls == {
            "enumerate": len(reports),
            "enumerated": tableaux,
            "forward": tableaux,
            "transpose": tableaux,
            "inverse": marked,
            "MarkedSubset": tableaux + marked,
        }

    @pytest.mark.parametrize("n", range(4, 12))
    def test_cycle_equals_per_size_reports(self, n):
        assert verify_cycle(n) == [verify_bijection(n, j) for j in range(2, n - 1)]

    def test_cycle_domain_error(self):
        with pytest.raises(DomainError):
            verify_cycle(3)

    @pytest.mark.parametrize("n,j", [(3, 2), (5, 1), (5, 4)])
    def test_domain_errors(self, n, j):
        with pytest.raises(DomainError):
            verify_bijection(n, j)


class TestVerifyBijectionFailures:
    # {2,4}|4 is sent back to another enumerated tableau, or to one of the
    # conjugate shape that the verifier must map forward afresh
    @pytest.mark.parametrize(
        "drift,drift_image",
        [
            ("1,3;2,4;5", "{1,3}|4"),
            ("1,2,3;4,5", "{2,3,5}|5"),
            # not a hook-plus-column tableau: mapping it forward raises
            ("1,2,3,4;5", "error: hook shapes need n >= 4 and 2 <= j <= n-2, got n=5, j=4"),
        ],
    )
    def test_drifting_inverse_breaks_both_round_trips(self, monkeypatch, drift, drift_image):
        inverse = bijection._rebuild

        def drifting(ms, j):
            if (ms.vertices, ms.marker) == (frozenset({2, 4}), 4):
                return parse_tableau(drift)
            return inverse(ms, j)

        monkeypatch.setattr(bijection, "_rebuild", drifting)
        report = verify_bijection(5, 2)
        assert (report.n, report.j, report.tableau_count, report.marked_count) == (5, 2, 5, 5)
        assert report.injective
        assert report.image_matches
        assert not report.round_trips_ok
        assert not report.passed
        assert report.duality_holds
        assert report.mismatches == [
            f"tableau round trip drifts: 1,2;3,4;5 -> {{2,4}}|4 -> {drift}",
            f"marked round trip drifts: {{2,4}}|4 -> {drift_image}",
        ]

    def test_colliding_forward_map_is_reported(self, monkeypatch):
        # the tableau of {2,5}|5 is read as {2,4}|4, which another tableau owns
        forward = bijection.tableau_to_marked_subset

        def colliding(tableau):
            if format_tableau(tableau) == "1,2;3,5;4":
                return MarkedSubset(5, frozenset({2, 4}), 4)
            return forward(tableau)

        monkeypatch.setattr(bijection, "tableau_to_marked_subset", colliding)
        report = verify_bijection(5, 2)
        assert (report.n, report.j, report.tableau_count, report.marked_count) == (5, 2, 5, 5)
        assert not report.injective
        assert not report.image_matches
        assert not report.round_trips_ok
        assert not report.passed
        assert not report.duality_holds
        assert report.mismatches == [
            "collision: 1,2;3,4;5 and 1,2;3,5;4 both map to {2,4}|4",
            "marked subset never hit: {2,5}|5",
            "tableau round trip drifts: 1,2;3,5;4 -> {2,4}|4 -> 1,2;3,4;5",
            "marked round trip drifts: {2,5}|5 -> {2,4}|4",
        ]

    def test_forward_image_of_wrong_size_is_reported(self, monkeypatch):
        # {1,3,4}|5 is a valid marked subset, but of size 3: mapping it back
        # to a (5, 2) tableau raises, and the report must say so
        forward = bijection.tableau_to_marked_subset

        def oversized(tableau):
            if format_tableau(tableau) == "1,2;3,4;5":
                return MarkedSubset(5, frozenset({1, 3, 4}), 5)
            return forward(tableau)

        monkeypatch.setattr(bijection, "tableau_to_marked_subset", oversized)
        report = verify_bijection(5, 2)
        assert (report.n, report.j, report.tableau_count, report.marked_count) == (5, 2, 5, 5)
        assert report.injective
        assert not report.image_matches
        assert not report.round_trips_ok
        assert not report.passed
        assert not report.duality_holds
        assert report.mismatches == [
            "image is not a marked subset: {1,3,4}|5",
            "marked subset never hit: {2,4}|4",
            "tableau round trip drifts: 1,2;3,4;5 -> {1,3,4}|5 -> "
            "error: subset [1, 3, 4] has size 3, expected j=2",
            "marked round trip drifts: {2,4}|4 -> {1,3,4}|5",
        ]


def random_marked_subset(rng, n, j):
    # a uniform j-subset with at least two arcs and a uniform admissible marker,
    # the markers being the arc minima on the side that avoids vertex 1
    everything = frozenset(range(1, n + 1))
    while True:
        w = frozenset(rng.sample(range(1, n + 1), j))
        side = w if 1 not in w else everything - w
        markers = sorted(min(arc) for arc in restrict(n, side).components)
        if len(markers) >= 2:
            return w, rng.choice(markers[1:])


def read_hook_tableau(rows, n, j):
    # test-side reading: check the filling is a standard tableau of shape
    # (j, 2, 1, ..., 1), then read the subset off the cell at (2, 2)
    assert tuple(len(row) for row in rows) == (j, 2) + (1,) * (n - j - 2)
    assert sorted(v for row in rows for v in row) == list(range(1, n + 1))
    first_column = [row[0] for row in rows]
    for line in (rows[0], rows[1], first_column):
        assert all(a < b for a, b in zip(line, line[1:]))
    marker = rows[1][1]
    assert marker > rows[0][1]
    if marker - 1 in rows[0]:
        return frozenset(rows[0]), marker
    return frozenset((marker, *rows[0][1:])), marker


class TestLargeRoundTrips:
    # the sizes sampled verification runs at, far past the exhaustive range
    @pytest.mark.parametrize("n", [2048, 4096])
    def test_seeded_round_trips(self, n):
        rng = random.Random(n)
        everything = frozenset(range(1, n + 1))
        for j in [2, 3, n // 2, n - 3, n - 2] + rng.sample(range(2, n - 1), 5):
            w, marker = random_marked_subset(rng, n, j)
            t = marked_subset_to_tableau(n, j, w, marker)
            assert read_hook_tableau(t.rows, n, j) == (w, marker)
            assert tableau_to_marked_subset(t) == MarkedSubset(n, w, marker)
            assert read_hook_tableau(transpose(t).rows, n, n - j) == (everything - w, marker)
            assert transpose_duality_holds(t)


class TestTransposeDuality:
    def test_known_example(self):
        t = parse_tableau("1,2;3,4;5")
        ms = tableau_to_marked_subset(t)
        ms_t = tableau_to_marked_subset(transpose(t))
        assert ms.vertices == frozenset({2, 4})
        assert ms_t.vertices == frozenset({1, 3, 5})
        assert ms.marker == ms_t.marker == 4
        assert transpose_duality_holds(t)

    def test_small_sweep(self):
        for n in range(4, 9):
            for j in range(2, n - 1):
                for t in enumerate_standard_tableaux(hook_shape(n, j)):
                    assert transpose_duality_holds(t)


class TestRendering:
    def test_format_marked_subset(self):
        assert format_marked_subset(MarkedSubset(6, frozenset({2, 4, 6}), 6)) == "{2,4,6}|6"
