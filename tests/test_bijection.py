import gc
import random
import re
import sys
from dataclasses import dataclass

import pytest
from reference_tableaux import hook_of

import cyclebetti.bijection as bijection
import cyclebetti.cycle as cycle
from cyclebetti.bijection import (
    BijectionReport,
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
                    predecessor_row = cell_of(t, t.corner - 1)[0]
                    assert (predecessor_row == 1) == (1 in ms.vertices)


    def test_read_matches_the_position_of_route(self):
        for n in range(4, 10):
            for j in range(2, n - 1):
                shape = hook_shape(n, j)
                for t in enumerate_standard_tableaux(shape):
                    assert bijection._read(t.hook) == read_by_position(t)

    @pytest.mark.parametrize(
        "n,hook,cell",
        [
            # the marker's predecessor (3, then 1000) sits last in a first row that does not increase
            (7, ((1, 6, 7, 3), (1, 2, 5), 4), (1, 4)),
            (2048, ((1, *range(1002, 2049), 1000), tuple(range(1, 1000)), 1001), (1, 1049)),
        ],
    )
    def test_predecessor_off_the_bisected_hook_raises(self, n, hook, cell):
        # an unvalidated subclass lets through a first row out of order, where
        # bisection finds the predecessor in neither the row nor the column
        class UncheckedTableau(Tableau):
            def __post_init__(self):
                pass

        t = UncheckedTableau(*hook)
        assert t.n == n
        with pytest.raises(ImpossibleBranchError) as excinfo:
            tableau_to_marked_subset(t)
        assert str(excinfo.value) == (
            f"predecessor of the marker sits at {cell}, "
            "outside both the first row and the first column"
        )


def cell_of(t, value):
    # the 1-based (row, column) cell of t that holds value, found in its rows
    return next((i, row.index(value) + 1) for i, row in enumerate(t.rows, 1) if value in row)


def read_by_position(t):
    # the forward read through the cell of the marker's predecessor: the
    # subset is the first row when that cell is in it, and otherwise the
    # marker and the first row past its initial cell
    marker = t.corner
    row, col = cell_of(t, marker - 1)
    if row == 1:
        return frozenset(t.rows[0]), marker
    assert col == 1
    return frozenset((marker, *t.rows[0][1:])), marker


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

    def test_size_rejection_text(self):
        with pytest.raises(InvalidMarkedSubsetError) as excinfo:
            marked_subset_to_tableau(5, 3, {2, 4}, 4)
        assert str(excinfo.value) == "subset [2, 4] has size 2, expected j=3"

    def test_outputs_certify_marker_inequalities(self):
        for n in range(4, 9):
            for j in range(2, n - 1):
                for ms in marked_subsets(n, j):
                    t = marked_subset_to_tableau(n, j, ms.vertices, ms.marker)
                    assert t.corner > t.row[1]  # the entries at (2, 2) and (1, 2)
                    assert t.corner > t.column[1]  # and at (2, 1)

    def test_misplaced_marker_raises(self, monkeypatch):
        # with MarkedSubset validation switched off, the inadmissible marker 2
        # for {2, 4} lands at (2, 2) beside the larger 3, and the Tableau
        # validator rejects the rebuilt filling
        @dataclass(frozen=True)
        class UncheckedMarkedSubset:
            n: int
            vertices: frozenset
            marker: int

            @property
            def size(self):
                return len(self.vertices)

        monkeypatch.setattr(bijection, "MarkedSubset", UncheckedMarkedSubset)
        expected = re.escape("rebuilt filling is not standard: row 2 is not strictly increasing: (3, 2)")
        with pytest.raises(ImpossibleBranchError, match=expected):
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
    def test_round_trip_validates_one_tableau_and_two_marked_subsets(self, n, monkeypatch):
        # a Tableau for the rebuilt filling; a MarkedSubset for the input and
        # one for the reverse map; the duality check reads both of its hooks
        # raw: every object validated, none twice
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
            assert calls == {"Tableau": 1, "MarkedSubset": 2}


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
    # its forward reads, rebuilt hooks, transposed hooks, any call of the public
    # forward map, every Shape, Tableau and MarkedSubset validated, every vertex
    # set checked
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
        "_rebuilt_hook",
        "_transposed_hook",
        "tableau_to_marked_subset",
    ):
        monkeypatch.setattr(bijection, name, counted(name, getattr(bijection, name)))
    monkeypatch.setattr(cycle, "vertex_set", counted("vertex_set", cycle.vertex_set))
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
        # found among them by lookup of its hook, each tableau of the shape
        # has its hook transposed once, no reading word is built, each marked
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
                "_transposed_hook": report.tableau_count,
                "_rebuilt_hook": report.marked_count,
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
            "_transposed_hook": tableaux,
            "_rebuilt_hook": marked,
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


class TestVerifierKeys:
    # each side keeps the enumerated objects' keys only: hooks (row, column, corner) and
    # (vertices, marker) pairs, and no Tableau or MarkedSubset
    @pytest.mark.parametrize("n", range(4, 10))
    def test_sides_hold_only_hooks_and_pairs(self, n):
        for j in range(2, n - 1):
            image, marked = bijection._side(n, j)
            hooks = [t.hook for t in enumerate_standard_tableaux(hook_shape(n, j))]
            pairs = [(ms.vertices, ms.marker) for ms in marked_subsets(n, j)]
            assert list(image) == hooks and list(image.values()) == list(map(bijection._read, hooks))
            assert list(marked) == list(marked.values()) == pairs
            assert {tuple(map(type, hook)) for hook in image} == {(tuple, tuple, int)}
            assert {tuple(map(type, pair)) for pair in [*image.values(), *marked]} == {(frozenset, int)}

    @pytest.mark.parametrize("n", range(4, 10))
    def test_reads_are_the_enumerated_pair_objects(self, n):
        # a read that a marked subset has is that subset's very pair, so the two dicts share it
        for j in range(2, n - 1):
            image, marked = bijection._side(n, j)
            assert all(key is value for key, value in marked.items())
            assert all(marked[pair] is pair for pair in image.values())


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


FIRST_5 = parse_tableau("1,2;3,4;5")  # the first (5, 2) tableau, which reads {2,4}|4
PAIR_24 = (frozenset({2, 4}), 4)  # the (vertices, marker) pair of {2,4}|4

# every fault the failure tests inject, as substitute's (name, first, value)
FAULTS = {
    # 1,2;3,4;5 "transposed" to itself, a (5, 2) hook the conjugate lookup misses, or to a
    # filling that is not standard
    "transpose in place": ("_transposed_hook", FIRST_5.hook, FIRST_5.hook),
    "non-standard transpose": ("_transposed_hook", FIRST_5.hook, hook_of(((2, 1), (3, 4), (5,)))),
    # {2,4}|4 rebuilt as another tableau of the shape, as one of the conjugate shape, or as a
    # filling that is not standard
    "drift within the shape": ("_rebuilt_hook", PAIR_24, parse_tableau("1,3;2,4;5").hook),
    "drift to the conjugate shape": ("_rebuilt_hook", PAIR_24, parse_tableau("1,2,3;4,5").hook),
    "non-standard rebuilt filling": ("_rebuilt_hook", PAIR_24, hook_of(((1, 2), (4, 3), (5,)))),
    # a tableau's hook read as another tableau's image, as a marked subset of another size (on
    # the 5-cycle, and on the 6-cycle), with a marker that is not admissible, or with a vertex off
    # the cycle; and the hook of 1,2;3,4;5's transpose read with a vertex off the cycle
    "collision": ("_read", parse_tableau("1,2;3,5;4").hook, (frozenset({2, 4}), 4)),
    "oversized image": ("_read", FIRST_5.hook, (frozenset({1, 3, 4}), 5)),
    "image on the 6-cycle": ("_read", parse_tableau("1,2;3,4;5;6").hook, (frozenset({2, 4, 6}), 6)),
    "inadmissible marker": ("_read", FIRST_5.hook, (frozenset({2, 4}), 2)),
    "image off the cycle": ("_read", FIRST_5.hook, (frozenset({2, 9}), 4)),
    "transposed image off the cycle": ("_read", parse_tableau("1,3,5;2,4").hook, (frozenset({1, 3, 9}), 4)),
}


def drifted_report(drift, drift_image=None):
    # the (5, 2) report when {2,4}|4 alone is rebuilt as drift, whose image is drift_image;
    # a raw drift has no image, so both round trips name it
    return BijectionReport(
        5, 2, 5, 5, injective=True, image_matches=True, round_trips_ok=False, duality_holds=True,
        mismatches=[
            f"tableau round trip drifts: 1,2;3,4;5 -> {{2,4}}|4 -> {drift}",
            f"marked round trip drifts: {{2,4}}|4 -> {drift_image or drift}",
        ],
    )


class TestVerifyBijectionFailures:
    # {2,4}|4 is sent back to another enumerated tableau, or to one of the
    # conjugate shape, which the verifier names raw as outside the enumeration
    @pytest.mark.parametrize(
        "fault,drift,drift_image",
        [
            ("drift within the shape", "1,3;2,4;5", "{1,3}|4"),
            ("drift to the conjugate shape", "1,2,3;4,5 (outside the enumeration)", None),
        ],
        ids=["1,3;2,4;5-{1,3}|4", "1,2,3;4,5-outside"],
    )
    def test_drifting_inverse_breaks_both_round_trips(self, monkeypatch, fault, drift, drift_image):
        substitute(monkeypatch, *FAULTS[fault])
        report = verify_bijection(5, 2)
        assert not report.passed
        assert report == drifted_report(drift, drift_image)

    def test_colliding_forward_map_is_reported(self, monkeypatch):
        # the tableau of {2,5}|5 is read as {2,4}|4, which another tableau owns
        substitute(monkeypatch, *FAULTS["collision"])
        report = verify_bijection(5, 2)
        assert not report.passed
        assert report == BijectionReport(
            5, 2, 5, 5, injective=False, image_matches=False, round_trips_ok=False, duality_holds=False,
            mismatches=[
                "collision: 1,2;3,4;5 and 1,2;3,5;4 both map to {2,4}|4",
                "marked subset never hit: {2,5}|5",
                "tableau round trip drifts: 1,2;3,5;4 -> {2,4}|4 -> 1,2;3,4;5",
                "marked round trip drifts: {2,5}|5 -> {2,4}|4",
            ],
        )

    def test_forward_image_of_wrong_size_is_reported(self, monkeypatch):
        # {1,3,4}|5 is a valid marked subset, but of size 3: no (5, 2) marked
        # subset has it, so it is named raw, and no preimage is looked up
        substitute(monkeypatch, *FAULTS["oversized image"])
        report = verify_bijection(5, 2)
        assert not report.passed
        assert report == BijectionReport(
            5, 2, 5, 5, injective=True, image_matches=False, round_trips_ok=False, duality_holds=False,
            mismatches=[
                "image outside the enumeration: {1,3,4}|5",
                "marked subset never hit: {2,4}|4",
                "tableau round trip drifts: 1,2;3,4;5 -> {1,3,4}|5 (outside the enumeration)",
                "marked round trip drifts: {2,4}|4 -> {1,3,4}|5 (outside the enumeration)",
            ],
        )

    @pytest.mark.parametrize("transposed", ["1,3,5;2,4;6", "1,2,4;3,6;5"])
    def test_duality_needs_the_complement_and_the_marker(self, monkeypatch, transposed):
        # 1,3,5;2,4;6 reads {1,3,5}|4, and its transpose 1,2,6;3,4;5 reads {2,4,6}|4; sent
        # instead to itself, or to 1,2,4;3,6;5 of {2,4,6}|6 (the complement, another marker),
        # it breaks duality alone
        first = parse_tableau("1,3,5;2,4;6").hook
        substitute(monkeypatch, "_transposed_hook", first, parse_tableau(transposed).hook)
        report = verify_bijection(6, 3)
        assert report.passed
        assert report == BijectionReport(6, 3, 16, 16, True, True, True, duality_holds=False, mismatches=[])


class TestVerifierLookupMisses:
    # a transpose, rebuilt filling or forward image that no enumerated object
    # has is never built: the report names it raw, as outside the enumeration,
    # whether or not it would pass validation, and the verifier raises nothing
    def test_transpose_outside_the_conjugate_shape(self, monkeypatch):
        substitute(monkeypatch, *FAULTS["transpose in place"])
        tableaux = validated(monkeypatch, Tableau)
        report = verify_bijection(5, 2)
        assert report.passed
        assert report == BijectionReport(5, 2, 5, 5, True, True, True, duality_holds=False, mismatches=[])
        assert len(tableaux) == 10  # the enumerated ones

    def test_non_standard_transpose_is_reported(self, monkeypatch):
        substitute(monkeypatch, *FAULTS["non-standard transpose"])
        report = verify_bijection(5, 2)
        assert report.passed
        assert report == BijectionReport(5, 2, 5, 5, True, True, True, duality_holds=False, mismatches=[])

    def test_rebuilt_filling_outside_the_shape(self, monkeypatch):
        substitute(monkeypatch, *FAULTS["drift to the conjugate shape"])
        tableaux = validated(monkeypatch, Tableau)
        assert verify_bijection(5, 2) == drifted_report("1,2,3;4,5 (outside the enumeration)")
        assert len(tableaux) == 10

    def test_non_standard_rebuilt_filling_is_reported(self, monkeypatch):
        substitute(monkeypatch, *FAULTS["non-standard rebuilt filling"])
        tableaux = validated(monkeypatch, Tableau)
        assert verify_bijection(5, 2) == drifted_report("1,2;4,3;5 (outside the enumeration)")
        assert len(tableaux) == 10

    def test_forward_image_outside_the_marked_subsets(self, monkeypatch):
        # {2,4,6}|6 is valid on the 6-cycle, but of size 3: neither side holds it
        substitute(monkeypatch, *FAULTS["image on the 6-cycle"])
        marked = validated(monkeypatch, MarkedSubset)
        report = verify_bijection(6, 2)
        assert not report.passed
        assert report == BijectionReport(
            6, 2, 9, 9, injective=True, image_matches=False, round_trips_ok=False, duality_holds=False,
            mismatches=[
                "image outside the enumeration: {2,4,6}|6",
                "marked subset never hit: {2,4}|4",
                "tableau round trip drifts: 1,2;3,4;5;6 -> {2,4,6}|6 (outside the enumeration)",
                "marked round trip drifts: {2,4}|4 -> {2,4,6}|6 (outside the enumeration)",
            ],
        )
        assert len(marked) == 2 * 9  # the enumerated ones

    def test_invalid_forward_image_is_reported(self, monkeypatch):
        # {2,4}|2 would be rejected: its marker 2 is not admissible
        substitute(monkeypatch, *FAULTS["inadmissible marker"])
        report = verify_bijection(5, 2)
        assert not report.passed
        assert report == BijectionReport(
            5, 2, 5, 5, injective=True, image_matches=False, round_trips_ok=False, duality_holds=False,
            mismatches=[
                "image outside the enumeration: {2,4}|2",
                "marked subset never hit: {2,4}|4",
                "tableau round trip drifts: 1,2;3,4;5 -> {2,4}|2 (outside the enumeration)",
                "marked round trip drifts: {2,4}|4 -> {2,4}|2 (outside the enumeration)",
            ],
        )

    def test_forward_image_off_the_cycle_fails_duality(self, monkeypatch):
        # {2,9}|4 is disjoint from the transpose's {1,3,5}|4, with sizes summing to 5 and the
        # same marker, but 9 is off the 5-cycle: duality holds only between enumerated pairs
        substitute(monkeypatch, *FAULTS["image off the cycle"])
        report = verify_bijection(5, 2)
        assert report == BijectionReport(
            5, 2, 5, 5, injective=True, image_matches=False, round_trips_ok=False, duality_holds=False,
            mismatches=[
                "image outside the enumeration: {2,9}|4",
                "marked subset never hit: {2,4}|4",
                "tableau round trip drifts: 1,2;3,4;5 -> {2,9}|4 (outside the enumeration)",
                "marked round trip drifts: {2,4}|4 -> {2,9}|4 (outside the enumeration)",
            ],
        )

    def test_transposed_image_off_the_cycle_fails_duality(self, monkeypatch):
        # the transpose of 1,2;3,4;5 read as {1,3,9}|4, which complements {2,4}|4 but for 9
        substitute(monkeypatch, *FAULTS["transposed image off the cycle"])
        report = verify_bijection(5, 2)
        assert report == BijectionReport(5, 2, 5, 5, True, True, True, duality_holds=False, mismatches=[])

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("fault", FAULTS)
    def test_validates_only_the_enumerated_objects(self, monkeypatch, fault, n):
        # under every injected fault, failing or not at this n, each Tableau and
        # MarkedSubset validated is one the shape or its conjugate enumerates,
        # as in test_maps_each_side_once, and the forward map is never called
        substitute(monkeypatch, *FAULTS[fault])
        calls = count_verifier_calls(monkeypatch)
        verify_bijection(n, 2)
        enumerated = {5: 10, 6: 18}[n]
        assert calls["enumerate_standard_tableaux items"] == calls["Tableau"] == enumerated
        assert calls["marked_subsets items"] == calls["MarkedSubset"] == enumerated
        assert "tableau_to_marked_subset" not in calls


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


def duality_by_validated_transpose(t):
    # the reference route for transpose_duality_holds: validate the transpose and
    # its marked subset, then check it is the complement of t's, with its marker
    ms, ms_t = tableau_to_marked_subset(t), tableau_to_marked_subset(transpose(t))
    fits = ms_t.n == ms.n == ms_t.size + ms.size
    return fits and ms_t.vertices.isdisjoint(ms.vertices) and ms_t.marker == ms.marker


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
            assert transpose_duality_holds(t) == duality_by_validated_transpose(t) is True


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
        for n in range(4, 13):
            for j in range(2, n - 1):
                for t in enumerate_standard_tableaux(hook_shape(n, j)):
                    assert transpose_duality_holds(t) == duality_by_validated_transpose(t) is True

    @pytest.mark.parametrize("n", range(4, 13))
    def test_complement_lemma(self, n):
        # the complement in 1..n of a valid marked subset, with the same marker,
        # constructs, and complementing maps the marked j-subsets onto the
        # marked (n - j)-subsets: so the raw read of a transpose that is the
        # complement needs no validation of its own
        everything = frozenset(range(1, n + 1))
        for j in range(2, n - 1):
            complements = {
                MarkedSubset(n, everything - ms.vertices, ms.marker) for ms in marked_subsets(n, j)
            }
            assert complements == set(marked_subsets(n, n - j))

    @pytest.mark.parametrize(
        "transposed",
        [
            "1,3,5;2,4;6",  # itself, {1,3,5}|4: not disjoint
            "1,2,4;3,6;5",  # {2,4,6}|6: the complement, another marker
            "1,2;3,4;5;6",  # {2,4}|4: disjoint, the marker, but short of the complement
        ],
    )
    def test_fails_on_a_transpose_that_is_not_the_complement(self, monkeypatch, transposed):
        # 1,3,5;2,4;6 reads {1,3,5}|4, and its transpose 1,2,6;3,4;5 reads {2,4,6}|4
        t = parse_tableau("1,3,5;2,4;6")
        assert transpose_duality_holds(t)
        substitute(monkeypatch, "_transposed_hook", t.hook, parse_tableau(transposed).hook)
        assert not transpose_duality_holds(t)


class TestRendering:
    def test_format_marked_subset(self):
        assert format_marked_subset(MarkedSubset(6, frozenset({2, 4, 6}), 6)) == "{2,4,6}|6"
