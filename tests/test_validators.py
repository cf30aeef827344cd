"""The validators against the sorting references in reference_tableaux, and the value types' layout.

Every input gets the same verdict from both sides: the same hook or marked subset when
accepted, and otherwise the same exception class with the same text, so the checks run in
the same order.  No input may leak a TypeError.
"""

import copy
import pickle
import re
from array import array
from dataclasses import FrozenInstanceError
from itertools import combinations, permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference_tableaux import (
    hook_parts,
    laid_out,
    reference_marked_subset,
    reference_tableau_hook,
    reference_tableau_rows,
    reference_vertex_set,
)

from cyclebetti.bijection import BijectionReport, marked_subset_to_tableau, verify_bijection
from cyclebetti.cycle import MarkedSubset, restrict, vertex_set
from cyclebetti.errors import DomainError, InvalidMarkedSubsetError, TableauValidationError, VertexRangeError
from cyclebetti.hochster import BettiTable
from cyclebetti.homology import IntMatrix, SimplicialComplex
from cyclebetti.tableaux import Shape, Tableau, parse_tableau


def verdict(fn, *args):
    # ("ok", value) or (exception class, text); the class is never a bare TypeError
    try:
        return "ok", fn(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def same_tableau_verdict(rows):
    got = verdict(lambda: Tableau.from_rows(rows).hook)
    assert got == verdict(reference_tableau_rows, rows)
    assert got[0] in ("ok", TableauValidationError)


def same_hook_verdict(row, column, corner):
    got = verdict(lambda: Tableau(row, column, corner).hook)
    assert got == verdict(reference_tableau_hook, row, column, corner)
    assert got[0] in ("ok", TableauValidationError)


def same_marked_verdict(n, vertices, marker):
    got = verdict(lambda: astuple(MarkedSubset(n, vertices, marker)))
    assert got == verdict(reference_marked_subset, n, vertices, marker)
    assert got[0] in ("ok", InvalidMarkedSubsetError)
    assert verdict(vertex_set, n, vertices) == verdict(reference_vertex_set, n, vertices)


def astuple(ms):
    return ms.n, ms.vertices, ms.marker


class TestExhaustive:
    @pytest.mark.parametrize("n", range(4, 8))
    def test_every_permutation_in_every_hook_shape(self, n):
        for parts in hook_parts(n):
            for word in permutations(range(1, n + 1)):
                rows = laid_out(parts, word)
                same_tableau_verdict(rows)
                same_hook_verdict(rows[0], tuple(row[0] for row in rows), rows[1][1])

    @pytest.mark.parametrize("n", [4, 5])
    def test_every_filling_from_0_to_n_plus_1(self, n):
        # repeated, missing, zero and too large entries, in every hook-plus-column shape
        for parts in hook_parts(n):
            for word in product(range(n + 2), repeat=n):
                same_tableau_verdict(laid_out(parts, word))

    def test_every_hook_from_0_to_5(self):
        # (1, 1) held twice, as the first entries of the row and of the column, which may differ
        for row, column, corner in product(product(range(6), repeat=2), product(range(6), repeat=2), range(6)):
            same_hook_verdict(row, column, corner)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_every_subset_with_every_marker(self, n):
        for size in range(n + 1):
            for vertices in combinations(range(1, n + 1), size):
                for marker in range(-1, n + 3):
                    same_marked_verdict(n, vertices, marker)


# what a corrupted entry may become
ODD_ENTRIES = st.one_of(
    st.integers(-3, 0),
    st.sampled_from([True, False, 0.5, 1.0, 2.0, 2.5, "1", "2", "x"]),
)


@st.composite
def damaged_hooks(draw):
    # a standard hook at n up to 300, then some of: two entries swapped, one entry copied onto
    # another, an entry past n, and odd entries (zero, negative, float, bool, str)
    n = draw(st.one_of(st.integers(4, 12), st.integers(13, 300)))
    j = draw(st.integers(2, n - 2))
    rng = draw(st.randoms(use_true_random=False))
    while True:
        rest = sorted(rng.sample(range(2, n + 1), j - 1))
        low, *others = sorted(set(range(2, n + 1)).difference(rest))
        above = [v for v in others if v > rest[0]]
        if above:
            corner = rng.choice(above)
            break
    cells = [1, *rest, low, corner, *(v for v in others if v != corner)]
    k = len(cells)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["swap", "copy", "past n", "odd"]))
        a, b = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        if kind == "swap":
            cells[a], cells[b] = cells[b], cells[a]
        elif kind == "copy":
            cells[a] = cells[b]
        elif kind == "past n":
            cells[a] = n + draw(st.integers(1, 3))
        else:
            cells[a] = draw(ODD_ENTRIES)
    # cells: row 1 (j of them), (2, 1), (2, 2), then the column below
    row, column = tuple(cells[:j]), (cells[0], cells[j], *cells[j + 2 :])
    return row, column, cells[j + 1]


def rows_of(row, column, corner):
    return (row, (column[1], corner), *zip(column[2:]))


@st.composite
def damaged_marked_subsets(draw):
    n = draw(st.one_of(st.integers(3, 12), st.integers(13, 300), st.sampled_from([2, 0, True, 5.0])))
    size = n if type(n) is int and n > 0 else 5
    # labels in any order, repeats and equal floats (2.0 beside 2) included, in any container
    labels = draw(st.lists(st.integers(1, size), max_size=size))
    for _ in range(draw(st.integers(0, 2))):
        odd = st.one_of(ODD_ENTRIES, st.integers(size + 1, size + 3), st.builds(float, st.integers(1, size)))
        labels.append(draw(odd))
    vertices = draw(st.sampled_from([list, tuple, frozenset]))(draw(st.permutations(labels)))
    marker = draw(st.one_of(st.integers(-1, size + 2), ODD_ENTRIES))
    return n, vertices, marker


class TestDamaged:
    @given(damaged_hooks())
    def test_tableaux(self, hook):
        same_hook_verdict(*hook)
        same_tableau_verdict(rows_of(*hook))

    @given(damaged_marked_subsets())
    def test_marked_subsets(self, case):
        same_marked_verdict(*case)

    @given(damaged_marked_subsets(), st.randoms(use_true_random=False))
    def test_label_order_never_changes_a_verdict(self, case, rng):
        n, vertices, marker = case
        shuffled = list(vertices)
        rng.shuffle(shuffled)
        assert verdict(vertex_set, n, shuffled) == verdict(vertex_set, n, vertices)
        assert verdict(lambda: astuple(MarkedSubset(n, shuffled, marker))) == verdict(
            lambda: astuple(MarkedSubset(n, vertices, marker))
        )

    @pytest.mark.parametrize("n", [362, 2048])
    def test_each_damage_at_large_n(self, n):
        # every kind of damage, once, in the hook of the (n / 2, 2, 1, ..., 1) row-major filling
        j = n // 2
        row, column, corner = tuple(range(1, j + 1)), (1, j + 1, *range(j + 3, n + 1)), j + 2
        cells = [*row, column[1], corner, *column[2:]]
        for a, b in [(3, 4), (j - 1, j), (j, j + 1), (j + 1, j + 2), (n - 2, n - 1), (5, n - 1)]:
            for new in ["swap", cells[b], n + 1, 0, -1, float(cells[a]), True, str(cells[a])]:
                damaged = list(cells)
                if new == "swap":
                    damaged[a], damaged[b] = damaged[b], damaged[a]
                else:
                    damaged[a] = new
                hook = tuple(damaged[:j]), (damaged[0], damaged[j], *damaged[j + 2 :]), damaged[j + 1]
                same_hook_verdict(*hook)
                same_tableau_verdict(rows_of(*hook))


class TestLabelOrder:
    # a float or bool equal to an int label is typed before the frozenset merges the two, so it
    # is rejected on either side of the int, with one text
    @pytest.mark.parametrize(
        "labels,text",
        [
            ([1, 1.0], "vertices [1.0] fall outside 1..5"),
            ([1, True], "vertices [True] fall outside 1..5"),
            ([2, 4, 4.0], "vertices [4.0] fall outside 1..5"),
            ([1, 1.0, True, 2.0, 2], "vertices [1.0, True, 2.0] fall outside 1..5"),
            ([7, 7, 7.0, 0], "vertices [0, 7, 7.0] fall outside 1..5"),
        ],
    )
    @pytest.mark.parametrize("order", [list, lambda labels: labels[::-1], iter], ids=["given", "reversed", "iterator"])
    def test_either_order_is_rejected(self, labels, text, order):
        with pytest.raises(VertexRangeError) as excinfo:
            vertex_set(5, order(labels))
        assert str(excinfo.value) == text
        assert verdict(vertex_set, 5, labels) == verdict(reference_vertex_set, 5, labels)

    @pytest.mark.parametrize(
        "vertices,text",
        [
            ([2, 4, 4.0], "vertices [4.0] fall outside 1..5"),
            ([4.0, 2, 4], "vertices [4.0] fall outside 1..5"),
            (array("d", [2, 4, 4]), "vertices [2.0, 4.0] fall outside 1..5"),
        ],
    )
    def test_marked_subsets_and_the_inverse_map_reject_either_order(self, vertices, text):
        for build in (MarkedSubset, lambda n, vs, m: marked_subset_to_tableau(n, 2, vs, m)):
            with pytest.raises(InvalidMarkedSubsetError) as excinfo:
                build(5, vertices, 4)
            assert str(excinfo.value) == text

    def test_repeated_ints_and_arrays_are_accepted(self):
        assert vertex_set(5, [4, 2, 4]) == vertex_set(5, array("H", [2, 4])) == frozenset({2, 4})
        assert MarkedSubset(5, array("H", [4, 2, 4]), 4).vertices == frozenset({2, 4})


class Forged:
    # pickles as the call fn(*args): a value's pickle with its fields tampered with
    def __init__(self, fn, args):
        self.reduced = fn, args

    def __reduce__(self):
        return self.reduced


class TestLayout:
    # every value type is held in slots: no instance dict, frozen, equal and hashed by its fields
    # in order, and copied and unpickled through its constructor, so through its validation
    VALUES = [
        parse_tableau("1,2;3,4;5"),
        MarkedSubset(5, {2, 4}, 4),
        MarkedSubset(6, {1, 2, 4}, 5),
        Shape((3, 2, 1)),
        restrict(6, {1, 2, 4}),
        IntMatrix(2, 3, ((1, 0, -1), (0, 2, 0))),
        SimplicialComplex.from_faces(3, [{1, 2}, {3}]),
        BettiTable(4, {(0, 0): 1, (1, 2): 2, (2, 4): 1}),
        verify_bijection(5, 2),
    ]
    # each validating type, with fields its validation rejects, and the error it raises
    TAMPERED = [
        (parse_tableau("1,2;3,4;5"), ((1, 2), (1, 3, 5), 9), TableauValidationError, "exactly 1..5"),
        (MarkedSubset(5, {2, 4}, 4), (5, frozenset({2, 4}), 2), InvalidMarkedSubsetError, "marker 2 is not"),
        (Shape((3, 2, 1)), ((3, 3),), DomainError, "hook-plus-column"),
        (IntMatrix(2, 2, ((1, 0), (0, 1))), (2, 2, ((1, 0),)), ValueError, "declared shape 2x2"),
        (SimplicialComplex.from_faces(2, [{1, 2}]), (2, {frozenset({1, 2})}), ValueError, "not downward closed"),
    ]
    TAMPERED_IDS = [type(case[0]).__name__ for case in TAMPERED]

    @staticmethod
    def fields(value):
        return tuple(getattr(value, name) for name in type(value).__slots__)

    @staticmethod
    def hashable(value):
        return type(value) not in (BettiTable, BijectionReport)  # a dict or a list field

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    def test_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")
        with pytest.raises(FrozenInstanceError, match="'extra'"):
            value.extra = 1
        assert not hasattr(value, "extra")

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    def test_still_frozen(self, value):
        before = self.fields(value)
        for name in type(value).__slots__:
            for new in (None, getattr(value, name)):
                with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                    setattr(value, name, new)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(value, name)
        assert self.fields(value) == before

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    def test_equality_and_hash_go_by_the_fields(self, value):
        cls, fields = type(value), self.fields(value)
        twin = cls(*fields)
        assert twin is not value and twin == value and not twin != value
        if self.hashable(value):
            assert hash(twin) == hash(value) == hash(fields)
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)
        # a value of another class is unequal, even with the same fields
        assert value.__eq__(fields) is NotImplemented and value != fields
        assert type("Sub", (cls,), {})(*fields) != value
        assert all(value != other for other in self.VALUES if other is not value)

    def test_fields_and_repr_in_declared_order(self):
        assert Shape((3, 2, 1)).__slots__ == ("parts",)
        assert repr(MarkedSubset(5, [4, 2], 4)) == "MarkedSubset(n=5, vertices=frozenset({2, 4}), marker=4)"
        assert repr(parse_tableau("1,2;3,4;5")) == "Tableau(row=(1, 2), column=(1, 3, 5), corner=4)"
        assert repr(BettiTable(4, {(0, 0): 1})) == "BettiTable(n=4, entries={(0, 0): 1})"
        assert repr(verify_bijection(4, 2)) == (
            "BijectionReport(n=4, j=2, tableau_count=2, marked_count=2, injective=True, image_matches=True, "
            "round_trips_ok=True, duality_holds=True, mismatches=[])"
        )

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, value, protocol):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value) and back == value
        assert not self.hashable(value) or hash(back) == hash(value)

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy])
    def test_copy_round_trip(self, value, clone):
        back = clone(value)
        assert type(back) is type(value) and back == value
        assert not self.hashable(value) or hash(back) == hash(value)

    @pytest.mark.parametrize("value", [case[0] for case in TAMPERED], ids=TAMPERED_IDS)
    @pytest.mark.parametrize(
        "clone", [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))], ids=["copy", "deepcopy", "pickle"]
    )
    def test_copies_run_the_checks(self, value, clone, monkeypatch):
        # a copy or an unpickled value is built through its class, whose validation runs once
        cls, calls = type(value), []
        check = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self: calls.append(check(self)))
        assert clone(value) == value and len(calls) == 1

    @pytest.mark.parametrize("value,tampered,error,text", TAMPERED, ids=TAMPERED_IDS)
    def test_unpickling_runs_the_checks(self, value, tampered, error, text):
        # a pickle holds the fields, and loading one builds the value through its validation
        fn, fields = value.__reduce__()
        assert fn is type(value) and len(tampered) == len(fields)
        with pytest.raises(error, match=re.escape(text)):
            pickle.loads(pickle.dumps(Forged(fn, tampered)))
