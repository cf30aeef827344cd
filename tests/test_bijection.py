import gc
import random
import sys
from dataclasses import dataclass

import pytest

import cyclebetti.bijection as bijection
import cyclebetti.cycle as cycle
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
    TableauValidationError,
)
from cyclebetti.tableaux import (
    Shape,
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
        # no Tableau of another shape exists, so the text is rejected before the map
        with pytest.raises(TableauValidationError, match="hook-plus-column"):
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


    def test_read_matches_the_position_of_route(self):
        for n in range(4, 10):
            for j in range(2, n - 1):
                shape = hook_shape(n, j)
                for t in enumerate_standard_tableaux(shape):
                    assert bijection._read(t) == read_by_position(t)


def read_by_position(t):
    # the forward read through the cell of the marker's predecessor: the
    # subset is the first row when that cell is in it, and otherwise the
    # marker and the first row past its initial cell
    marker = t.entry(2, 2)
    row, col = t.position_of(marker - 1)
    if row == 1:
        return t.n, frozenset(t.rows[0]), marker
    assert col == 1
    return t.n, frozenset((marker, *t.rows[0][1:])), marker


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
            (6, 3.0, {2, 4, 6}, 6),  # so are the sizes
            (6.0, 3, {2, 4, 6}, 6),
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


def traced_lines(fn, *args):
    # Python line events while fn runs; a loop inside a builtin adds none.
    # The collector is off meanwhile: a collection inside the call would trace
    # whatever gc callbacks other modules installed (hypothesis installs one).
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    previous, collecting = sys.gettrace(), gc.isenabled()
    gc.disable()
    sys.settrace(lambda frame, event, arg: local)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    return lines


class TestInterpretedWork:
    # both maps, duality and validation run a fixed number of Python lines
    # at any n: every per-row, per-column and per-marker loop is a builtin's
    @pytest.mark.parametrize("fraction", [0.2, 0.5, 0.8])
    def test_round_trip_lines_do_not_grow_with_n(self, fraction):
        counts = {n: round_trip_lines(n, round(fraction * n)) for n in (16, 2048)}
        assert min(counts[16]) > 0
        assert counts[2048] == counts[16]

    @pytest.mark.parametrize("n", [16, 2048])
    def test_round_trip_validates_two_tableaux_and_four_marked_subsets(self, n, monkeypatch):
        # a Tableau for the rebuilt filling and one for its transpose; a
        # MarkedSubset for the input, one for the reverse map, and one for each
        # side of the duality check: every object validated, none twice
        calls = {}
        for cls in (Tableau, MarkedSubset):

            def counted(self, check=cls.__post_init__, name=cls.__name__):
                calls[name] = calls.get(name, 0) + 1
                check(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        j = n // 2
        for vertices, marker in [({2, *range(4, j + 3)}, 4), ({1, *range(3, j + 2)}, j + 2)]:
            calls.clear()
            t = marked_subset_to_tableau(n, j, vertices, marker)
            back = tableau_to_marked_subset(t)
            assert transpose_duality_holds(t)
            assert (back.vertices, back.marker) == (frozenset(vertices), marker)
            assert calls == {"Tableau": 2, "MarkedSubset": 4}


def round_trip_lines(n, j):
    # line events of each call on two marked subsets of size j, one without
    # vertex 1 and one with it, so that both branches of each map run
    counts = []
    for vertices, marker in [({2, *range(4, j + 3)}, 4), ({1, *range(3, j + 2)}, j + 2)]:
        t = marked_subset_to_tableau(n, j, vertices, marker)
        counts += [
            traced_lines(MarkedSubset, n, frozenset(vertices), marker),
            traced_lines(marked_subset_to_tableau, n, j, vertices, marker),
            traced_lines(tableau_to_marked_subset, t),
            traced_lines(transpose_duality_holds, t),
        ]
    return counts


def count_verifier_calls(monkeypatch):
    # counts the verifier's two enumerations (and the objects each yields),
    # its forward reads, rebuilt rows, transposed rows, any call of the public
    # maps, every Shape, Tableau and MarkedSubset validated, every vertex set
    # checked, and any reading word built
    calls = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)

        return wrapper

    def enumerated(name, fn):
        def wrapper(*args):
            found = fn(*args)
            calls[f"{name} items"] = calls.get(f"{name} items", 0) + len(found)
            return found

        return counted(name, wrapper)

    for name in ("enumerate_standard_tableaux", "marked_subsets"):
        monkeypatch.setattr(bijection, name, enumerated(name, getattr(bijection, name)))
    for name in (
        "_read",
        "_rebuilt_rows",
        "_transposed_rows",
        "tableau_to_marked_subset",
        "_rebuild",
    ):
        monkeypatch.setattr(bijection, name, counted(name, getattr(bijection, name)))
    monkeypatch.setattr(cycle, "vertex_set", counted("vertex_set", cycle.vertex_set))
    word = property(counted("reading_word", Tableau.reading_word.fget))
    monkeypatch.setattr(Tableau, "reading_word", word)
    for cls in (Shape, Tableau, MarkedSubset):
        monkeypatch.setattr(cls, "__post_init__", counted(cls.__name__, cls.__post_init__))
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
        # the verifier enumerates the shape and its conjugate once each, with
        # their marked subsets, and validates each enumerated object once and
        # nothing else: every forward image, rebuilt filling and transpose is
        # found among them by lookup of its rows, each tableau of the shape
        # has its rows transposed once, no reading word is built, each marked
        # subset's vertices are checked once, and only the shape itself builds
        # a Shape
        calls = count_verifier_calls(monkeypatch)
        for n, j, sides in [(8, 4, 1), (8, 3, 2)]:
            calls.clear()
            report = verify_bijection(n, j)
            assert report.passed and report.duality_holds
            tableaux, marked = sides * report.tableau_count, sides * report.marked_count
            assert calls == {
                "enumerate_standard_tableaux": sides,
                "enumerate_standard_tableaux items": tableaux,
                "marked_subsets": sides,
                "marked_subsets items": marked,
                "_read": tableaux,
                "_transposed_rows": report.tableau_count,
                "_rebuilt_rows": report.marked_count,
                "Shape": sides,
                "Tableau": tableaux,
                "MarkedSubset": marked,
                "vertex_set": marked,
            }

    def test_cycle_maps_each_side_once(self, monkeypatch):
        calls = count_verifier_calls(monkeypatch)
        reports = verify_cycle(8)
        tableaux = sum(report.tableau_count for report in reports)
        marked = sum(report.marked_count for report in reports)
        assert calls == {
            "enumerate_standard_tableaux": len(reports),
            "enumerate_standard_tableaux items": tableaux,
            "marked_subsets": len(reports),
            "marked_subsets items": marked,
            "_read": tableaux,
            "_transposed_rows": tableaux,
            "_rebuilt_rows": marked,
            "Shape": len(reports),
            "Tableau": tableaux,
            "MarkedSubset": marked,
            "vertex_set": marked,
        }

    @pytest.mark.parametrize("n", range(4, 12))
    def test_cycle_equals_per_size_reports(self, n):
        assert verify_cycle(n) == [verify_bijection(n, j) for j in range(2, n - 1)]

    def test_cycle_domain_error(self):
        with pytest.raises(DomainError):
            verify_cycle(3)
        with pytest.raises(DomainError):
            verify_cycle(6.0)

    @pytest.mark.parametrize("n,j", [(3, 2), (5, 1), (5, 4), (6.0, 3), (6, 3.0)])
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
        ],
    )
    def test_drifting_inverse_breaks_both_round_trips(self, monkeypatch, drift, drift_image):
        # the inverse looks its rebuilt rows up and falls back on _rebuild: both drift
        def drifting(inverse, drifted):
            def wrapper(ms, j):
                if (ms.vertices, ms.marker) == (frozenset({2, 4}), 4):
                    return drifted
                return inverse(ms, j)

            return wrapper

        monkeypatch.setattr(
            bijection, "_rebuilt_rows", drifting(bijection._rebuilt_rows, parse_tableau(drift).rows)
        )
        monkeypatch.setattr(bijection, "_rebuild", drifting(bijection._rebuild, parse_tableau(drift)))
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
        read = bijection._read

        def colliding(tableau):
            if format_tableau(tableau) == "1,2;3,5;4":
                return 5, frozenset({2, 4}), 4
            return read(tableau)

        monkeypatch.setattr(bijection, "_read", colliding)
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
        read = bijection._read

        def oversized(tableau):
            if format_tableau(tableau) == "1,2;3,4;5":
                return 5, frozenset({1, 3, 4}), 5
            return read(tableau)

        monkeypatch.setattr(bijection, "_read", oversized)
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


def substitute(monkeypatch, name, first, value):
    # bijection.<name> returns value when its first argument equals first
    fn = getattr(bijection, name)
    monkeypatch.setattr(bijection, name, lambda arg, *rest: value if arg == first else fn(arg, *rest))


def validated(monkeypatch, cls):
    # records every object of cls that passes validation, in order
    seen = []
    check = cls.__post_init__

    def recording(self):
        check(self)
        seen.append(self)

    monkeypatch.setattr(cls, "__post_init__", recording)
    return seen


class TestVerifierLookupMisses:
    # a transpose, rebuilt filling or forward image outside the enumerations
    # is built and validated afresh: a valid one is reported as the maps
    # themselves would report it, and an invalid one raises as they do
    def test_transpose_outside_the_conjugate_shape(self, monkeypatch):
        # 1,2;3,4;5 is "transposed" to itself, a (5, 2) tableau the conjugate lookup misses
        t = parse_tableau("1,2;3,4;5")
        substitute(monkeypatch, "_transposed_rows", t.rows, t.rows)
        tableaux = validated(monkeypatch, Tableau)
        report = verify_bijection(5, 2)
        assert report.passed and not report.duality_holds and report.mismatches == []
        assert len(tableaux) == 11 and tableaux[10] == t  # after the 10 enumerated

    def test_non_standard_transpose_raises(self, monkeypatch):
        bad = ((2, 1), (3, 4), (5,))
        substitute(monkeypatch, "_transposed_rows", parse_tableau("1,2;3,4;5").rows, bad)
        with pytest.raises(TableauValidationError) as excinfo:
            verify_bijection(5, 2)
        assert str(excinfo.value) == "row 1 is not strictly increasing: (2, 1)"

    def test_rebuilt_filling_outside_the_shape(self, monkeypatch):
        drift = parse_tableau("1,2,3;4,5")
        substitute(monkeypatch, "_rebuilt_rows", MarkedSubset(5, frozenset({2, 4}), 4), drift.rows)
        tableaux = validated(monkeypatch, Tableau)
        report = verify_bijection(5, 2)
        assert (report.injective, report.image_matches, report.duality_holds) == (True,) * 3
        assert not report.round_trips_ok
        assert report.mismatches == [
            "tableau round trip drifts: 1,2;3,4;5 -> {2,4}|4 -> 1,2,3;4,5",
            "marked round trip drifts: {2,4}|4 -> {2,3,5}|5",
        ]
        assert len(tableaux) == 11 and tableaux[10] == drift

    def test_non_standard_rebuilt_filling_raises(self, monkeypatch):
        bad = ((1, 2), (4, 3), (5,))
        substitute(monkeypatch, "_rebuilt_rows", MarkedSubset(5, frozenset({2, 4}), 4), bad)
        with pytest.raises(ImpossibleBranchError) as excinfo:
            verify_bijection(5, 2)
        assert str(excinfo.value) == (
            "rebuilt filling is not standard: row 2 is not strictly increasing: (4, 3)"
        )

    def test_forward_image_outside_the_marked_subsets(self, monkeypatch):
        # {2,4,6}|6 is valid on the 6-cycle, but of size 3: neither side holds it
        outside = MarkedSubset(6, frozenset({2, 4, 6}), 6)
        substitute(monkeypatch, "_read", parse_tableau("1,2;3,4;5;6"), (6, outside.vertices, 6))
        marked = validated(monkeypatch, MarkedSubset)
        report = verify_bijection(6, 2)
        assert (report.injective, report.image_matches, report.round_trips_ok) == (True, False, False)
        assert not report.duality_holds
        assert report.mismatches == [
            "image is not a marked subset: {2,4,6}|6",
            "marked subset never hit: {2,4}|4",
            "tableau round trip drifts: 1,2;3,4;5;6 -> {2,4,6}|6 -> "
            "error: subset [2, 4, 6] has size 3, expected j=2",
            "marked round trip drifts: {2,4}|4 -> {2,4,6}|6",
        ]
        assert len(marked) == 2 * 9 + 1 and marked.count(outside) == 1

    def test_invalid_forward_image_raises(self, monkeypatch):
        substitute(monkeypatch, "_read", parse_tableau("1,2;3,4;5"), (5, frozenset({2, 4}), 2))
        with pytest.raises(InvalidMarkedSubsetError) as excinfo:
            verify_bijection(5, 2)
        assert str(excinfo.value) == (
            "marker 2 is not admissible for [2, 4] on the 5-cycle (admissible: [4])"
        )


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
