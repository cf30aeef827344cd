import subprocess
import sys
from enum import IntEnum
from itertools import permutations
from operator import add

import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference_tableaux import hook_parts, laid_out, reading_word, reference_standard_tableaux, transposed_rows

import cyclebetti.tableaux as tableaux
from cyclebetti.errors import (
    DomainError,
    ImpossibleBranchError,
    TableauParseError,
    TableauValidationError,
)
from cyclebetti.tableaux import (
    Shape,
    Tableau,
    enumerate_standard_tableaux,
    format_tableau,
    hook_length_count,
    hook_shape,
    parse_tableau,
    transpose,
)


class Label(int):
    """An int subclass: equal to its int and hashed like it, but not of type int."""

    def __repr__(self):
        return f"Label({int(self)})"


class Small(IntEnum):
    ONE = 1
    THREE = 3


def reference_conjugate(parts):
    # column c holds one cell per part longer than c
    return tuple(sum(1 for p in parts if p > c) for c in range(parts[0]))


def reference_transpose(rows):
    # cell by cell: the entry at (i, c) moves to (c, i)
    columns = {}
    for row in rows:
        for c, v in enumerate(row):
            columns.setdefault(c, []).append(v)
    return tuple(tuple(columns[c]) for c in sorted(columns))


def row_major_filling(parts):
    # rows of the given lengths holding 1..n in reading order (standard, but
    # the row helpers only move entries, so any distinct values would do)
    return laid_out(parts, range(1, sum(parts) + 1))


@st.composite
def random_hook_parts(draw, max_n=300):
    n = draw(st.integers(4, max_n))
    return draw(st.sampled_from(hook_parts(n)))


@st.composite
def standard_tableaux(draw):
    parts = draw(random_hook_parts(max_n=7))
    return draw(st.sampled_from(reference_standard_tableaux(Shape(parts))))


@st.composite
def large_standard_tableaux(draw, max_n=2048):
    # rows drawn directly, without the library's maps: row 1 is 1 and a
    # (j - 1)-subset of 2..n, (2, 1) the smallest entry left out, (2, 2) any
    # later one above the entry at (1, 2), and the rest down the column
    n = draw(st.integers(4, max_n))
    j = draw(st.integers(2, n - 2))
    rng = draw(st.randoms(use_true_random=False))
    while True:
        rest = sorted(rng.sample(range(2, n + 1), j - 1))
        low, *others = sorted(set(range(2, n + 1)).difference(rest))
        above = [v for v in others if v > rest[0]]
        if above:
            corner = rng.choice(above)
            below = [v for v in others if v != corner]
            return Tableau.from_rows(((1, *rest), (low, corner), *zip(below)))


def first_violation(rows):
    # test-side reference for a filling of a hook-plus-column shape with the
    # entries 1..n: the rows top down, then the columns in row-major order of
    # the lower cell; None when every row and column increases
    for i, row in enumerate(rows, start=1):
        if any(a >= b for a, b in zip(row, row[1:])):
            return f"row {i} is not strictly increasing: {row}"
    for i in range(1, len(rows)):
        for c in range(len(rows[i])):
            if rows[i][c] <= rows[i - 1][c]:
                return f"column {c + 1} is not strictly increasing at row {i + 1}"
    return None


SHAPE_TEXT = "shapes must be hook-plus-column (j, 2, 1, ..., 1) with j >= 2, got "
ROWS_TEXT = (
    "tableaux must have a hook-plus-column shape (j, 2, 1, ..., 1) with j >= 2, got row lengths "
)


class TestShape:
    @pytest.mark.parametrize("parts", [(1, 2), (0,), (), (2, -1), (True,), (2, True)])
    def test_rejects_non_partitions(self, parts):
        with pytest.raises(DomainError):
            Shape(parts)

    @pytest.mark.parametrize(
        "parts,text",
        [
            # the inputs the generic partition checks used to name, then partitions
            # that are not hook-plus-column, then equal floats and bools
            ((), SHAPE_TEXT + "()"),
            ((2, 1.0), SHAPE_TEXT + "(2, 1.0)"),
            (("2",), SHAPE_TEXT + "('2',)"),
            ((True,), SHAPE_TEXT + "(True,)"),
            ((2, False), SHAPE_TEXT + "(2, False)"),
            ((0,), SHAPE_TEXT + "(0,)"),
            ((3, -1), SHAPE_TEXT + "(3, -1)"),
            ((2, 2, 3, 1), SHAPE_TEXT + "(2, 2, 3, 1)"),
            ((4,), SHAPE_TEXT + "(4,)"),
            ((1, 1, 1, 1), SHAPE_TEXT + "(1, 1, 1, 1)"),
            ((3, 1), SHAPE_TEXT + "(3, 1)"),
            ((3, 3), SHAPE_TEXT + "(3, 3)"),
            ((2, 2, 2), SHAPE_TEXT + "(2, 2, 2)"),
            ((3, 2, 2), SHAPE_TEXT + "(3, 2, 2)"),
            ((1, 2, 1), SHAPE_TEXT + "(1, 2, 1)"),
            ((3, 2, 1.0), SHAPE_TEXT + "(3, 2, 1.0)"),
            ((3, 2, True), SHAPE_TEXT + "(3, 2, True)"),
            # and int subclasses, each in place of the int it equals
            ((3, 2, Label(1)), SHAPE_TEXT + "(3, 2, Label(1))"),
            ((Label(3), 2, 1), SHAPE_TEXT + "(Label(3), 2, 1)"),
            ((3, 2, Small.ONE), SHAPE_TEXT + "(3, 2, <Small.ONE: 1>)"),
            ((Small.THREE, 2), SHAPE_TEXT + "(<Small.THREE: 3>, 2)"),
            # not an iterable of parts at all
            (5, SHAPE_TEXT + "5"),
            (None, SHAPE_TEXT + "None"),
        ],
    )
    def test_rejection_text(self, parts, text):
        with pytest.raises(DomainError) as excinfo:
            Shape(parts)
        assert str(excinfo.value) == text

    def test_size(self):
        assert Shape((3, 2, 1)).size == 6

    def test_conjugate_known(self):
        assert Shape((3, 2, 1)).conjugate() == Shape((3, 2, 1))
        assert Shape((2, 2, 1)).conjugate() == Shape((3, 2))
        assert Shape((5, 2)).conjugate() == Shape((2, 2, 1, 1, 1))

    def test_conjugate_matches_column_count_formula(self):
        for n in range(4, 41):
            for parts in hook_parts(n):
                assert Shape(parts).conjugate().parts == reference_conjugate(parts)

    @given(random_hook_parts())
    def test_conjugate_matches_column_count_formula_on_random_partitions(self, parts):
        assert Shape(parts).conjugate().parts == reference_conjugate(parts)

    def test_row_helpers_match_per_column_references(self):
        for n in range(4, 21):
            for parts in hook_parts(n):
                rows = row_major_filling(parts)
                transposed = transposed_rows(rows)
                assert transposed == reference_transpose(rows)
                assert tuple(map(len, transposed)) == reference_conjugate(parts)

    @given(random_hook_parts())
    def test_row_helpers_match_per_column_references_on_random_partitions(self, parts):
        rows = row_major_filling(parts)
        assert transposed_rows(rows) == reference_transpose(rows)

    def test_conjugate_is_involutive(self):
        for n in range(4, 21):
            for parts in hook_parts(n):
                shape = Shape(parts)
                assert shape.conjugate().conjugate() == shape


class TestHookShape:
    def test_known_shapes(self):
        assert hook_shape(5, 2) == Shape((2, 2, 1))
        assert hook_shape(6, 3) == Shape((3, 2, 1))
        assert hook_shape(4, 2) == Shape((2, 2))
        assert hook_shape(7, 5) == Shape((5, 2))

    @pytest.mark.parametrize("n,j", [(3, 2), (5, 1), (5, 4), (4, 3), (4, 1), (6.0, 3), (6, 3.0)])
    def test_rejects_out_of_range(self, n, j):
        with pytest.raises(DomainError):
            hook_shape(n, j)

    def test_conjugate_swaps_row_and_column(self):
        for n in range(4, 13):
            for j in range(2, n - 1):
                assert hook_shape(n, j).conjugate() == hook_shape(n, n - j)


class TestTableauValidation:
    def test_row_must_increase(self):
        with pytest.raises(TableauValidationError, match="row 1"):
            Tableau.from_rows(((2, 1), (3, 4), (5,)))

    def test_column_must_increase(self):
        with pytest.raises(TableauValidationError, match="column"):
            Tableau.from_rows(((1, 4), (2, 3)))

    def test_entries_must_cover_range(self):
        with pytest.raises(TableauValidationError, match="exactly"):
            Tableau.from_rows(((1, 2), (3, 5)))
        with pytest.raises(TableauValidationError, match="exactly"):
            Tableau.from_rows(((1, 2), (2, 3)))

    def test_row_lengths_must_weakly_decrease(self):
        with pytest.raises(TableauValidationError, match="hook-plus-column"):
            Tableau.from_rows(((1,), (2, 3)))

    @pytest.mark.parametrize(
        "rows,text",
        [
            # only hook-plus-column shapes (j, 2, 1, ..., 1) with j >= 2 are tableaux
            ((), ROWS_TEXT + "()"),
            (((1, 2), ()), ROWS_TEXT + "(2, 0)"),
            (((1,), (2, 3)), ROWS_TEXT + "(1, 2)"),
            (((1, 2), (3,), (4, 5)), ROWS_TEXT + "(2, 1, 2)"),
            (((1, 2), (3, 5)), "entries must be exactly 1..4, each once"),
            (((1, 2), (2, 3)), "entries must be exactly 1..4, each once"),
            (((0, 1), (2, 3)), "entries must be exactly 1..4, each once"),
            # rows are checked before columns, and the first bad one is named
            (((1, 2, 3), (5, 4), (6,), (7,)), "row 2 is not strictly increasing: (5, 4)"),
            (((1, 3), (4, 2), (5,)), "row 2 is not strictly increasing: (4, 2)"),
            (((1, 5, 6), (2, 3), (4,)), "column 2 is not strictly increasing at row 2"),
            (((3, 4), (2, 1), (5,)), "row 2 is not strictly increasing: (2, 1)"),
            (((2, 3), (1, 5), (4,)), "column 1 is not strictly increasing at row 2"),
            (((1, 3), (4, 5), (2,)), "column 1 is not strictly increasing at row 3"),
            (((1, 2), (3, 4), (6,), (5,)), "column 1 is not strictly increasing at row 4"),
            (((1, 4), (2, 3), (6,), (5,)), "column 2 is not strictly increasing at row 2"),
            (((2, 3), (1, 4)), "column 1 is not strictly increasing at row 2"),
            # entries are ints: an equal float or a bool is not an entry
            (((True, 2), (3, 4)), "entries must be exactly 1..4, each once"),
            (((1, 2.0), (3, 4)), "entries must be exactly 1..4, each once"),
            (((1, "2"), ("3", 4)), "entries must be exactly 1..4, each once"),
            (((1, Label(2)), (3, 4)), "entries must be exactly 1..4, each once"),
            (((1, 2), (Small.THREE, 4)), "entries must be exactly 1..4, each once"),
            # the shape is checked before the entries
            (((1, 2, 3), (4, 5, 6)), ROWS_TEXT + "(3, 3)"),
            (((1, 2), (3,), (4,)), ROWS_TEXT + "(2, 1, 1)"),
            (((1, 2, 3, 4, 5),), ROWS_TEXT + "(5,)"),
            (((1,), (2,), (3,), (4,)), ROWS_TEXT + "(1, 1, 1, 1)"),
            (((1, 2), (3, 4), (5, 6)), ROWS_TEXT + "(2, 2, 2)"),
            (((1, 2.0), (3,)), ROWS_TEXT + "(2, 1)"),
            # the column rows hold as many cells as there are rows, but not one each
            (((1, 2), (3, 4), (), (5, 6)), ROWS_TEXT + "(2, 2, 0, 2)"),
            (((1, 2), (3, 4), (5, 6), ()), ROWS_TEXT + "(2, 2, 2, 0)"),
            (((1, 2), (3, 4), (5,), (6, 7), ()), ROWS_TEXT + "(2, 2, 1, 2, 0)"),
        ],
    )
    def test_rejection_text(self, rows, text):
        with pytest.raises(TableauValidationError) as excinfo:
            Tableau.from_rows(rows)
        assert str(excinfo.value) == text

    @pytest.mark.parametrize(
        "rows,text",
        [
            (([1, 2], [3, 4], 5), "rows must be iterables of entries, got ([1, 2], [3, 4], 5)"),
            ([1, 2], "rows must be iterables of entries, got [1, 2]"),
            (5, "rows must be iterables of entries, got 5"),
            (None, "rows must be iterables of entries, got None"),
        ],
    )
    def test_malformed_rows_raise_the_validation_error(self, rows, text):
        # not an iterable of rows: named, never a bare TypeError
        with pytest.raises(TableauValidationError) as excinfo:
            Tableau.from_rows(rows)
        assert str(excinfo.value) == text
        assert excinfo.value.__cause__ is None

    # n = 300, j = 100: row 1 holds 1..100, row 2 holds (101, 102), and the
    # column below holds 103..300 in rows 3..200
    @pytest.mark.parametrize(
        "swap,text",
        [
            # the failing checks index deep positions
            (((190, 1), (191, 1)), "column 1 is not strictly increasing at row 191"),
            (((199, 1), (200, 1)), "column 1 is not strictly increasing at row 200"),
            (((3, 1), (4, 1)), "column 1 is not strictly increasing at row 4"),
            (
                ((1, 90), (1, 91)),
                f"row 1 is not strictly increasing: {(*range(1, 90), 91, 90, *range(92, 101))}",
            ),
            (
                ((1, 99), (1, 100)),
                f"row 1 is not strictly increasing: {(*range(1, 99), 100, 99)}",
            ),
            (((2, 2), (1, 100)), "row 2 is not strictly increasing: (101, 100)"),
        ],
    )
    def test_rejection_text_of_a_swap_at_large_n(self, swap, text):
        rows = [list(row) for row in row_major_filling(hook_shape(300, 100).parts)]
        (a, b), (c, d) = swap
        rows[a - 1][b - 1], rows[c - 1][d - 1] = rows[c - 1][d - 1], rows[a - 1][b - 1]
        rows = tuple(map(tuple, rows))
        assert first_violation(rows) == text
        with pytest.raises(TableauValidationError) as excinfo:
            Tableau.from_rows(rows)
        assert str(excinfo.value) == text

    @pytest.mark.parametrize("old,new", [(300, 301), (3, 3.0), (1, True), (150, 0), (200, 199)])
    def test_rejection_text_of_a_wrong_entry_at_large_n(self, old, new):
        rows = row_major_filling(hook_shape(300, 100).parts)
        rows = tuple(tuple(new if v == old else v for v in row) for row in rows)
        with pytest.raises(TableauValidationError) as excinfo:
            Tableau.from_rows(rows)
        assert str(excinfo.value) == "entries must be exactly 1..300, each once"

    def test_top_left_is_always_one(self):
        for parts in hook_parts(7):
            for t in reference_standard_tableaux(Shape(parts)):
                assert t.row[0] == t.column[0] == 1

    @pytest.mark.parametrize("n", range(4, 8))
    def test_accepts_exactly_the_increasing_fillings_with_the_reference_text(self, n):
        # every permutation of 1..n laid into every hook-plus-column shape
        accepted = 0
        for parts in hook_parts(n):
            for word in permutations(range(1, n + 1)):
                rows = laid_out(parts, word)
                text = first_violation(rows)
                if text is None:
                    assert Tableau.from_rows(rows).rows == rows
                    accepted += 1
                else:
                    with pytest.raises(TableauValidationError) as excinfo:
                        Tableau.from_rows(rows)
                    assert str(excinfo.value) == text
        assert accepted == sum(hook_length_count(Shape(parts)) for parts in hook_parts(n))

    def test_entries_at_cells(self):
        t = parse_tableau("1,3;2,4;5")
        assert (t.row[1], t.corner, t.column[2]) == (3, 4, 5)  # the entries at (1, 2), (2, 2), (3, 1)


class TestEnumeration:
    def test_shape_221_exact_fillings(self):
        got = [format_tableau(t) for t in enumerate_standard_tableaux(Shape((2, 2, 1)))]
        assert got == [
            "1,2;3,4;5",
            "1,2;3,5;4",
            "1,3;2,4;5",
            "1,3;2,5;4",
            "1,4;2,5;3",
        ]

    def test_shape_321_count(self):
        assert len(enumerate_standard_tableaux(Shape((3, 2, 1)))) == 16

    def test_canonical_order_and_uniqueness(self):
        for parts in [(2, 2), (2, 2, 1), (3, 2, 1), (4, 2, 1, 1), (5, 2)]:
            tableaux = reference_standard_tableaux(Shape(parts))
            words = list(map(reading_word, tableaux))
            assert words == sorted(words)
            assert len(set(words)) == len(words)

    def test_enumerated_tableaux_have_requested_shape(self):
        shape = Shape((3, 2))
        assert all(hook_shape(t.n, len(t.row)) == shape for t in enumerate_standard_tableaux(shape))

    def test_hook_shapes_match_the_reference_in_order(self):
        for n in range(4, 13):
            for j in range(2, n - 1):
                shape = hook_shape(n, j)
                assert enumerate_standard_tableaux(shape) == reference_standard_tableaux(shape)

    @pytest.mark.parametrize("parts", [(3, 3), (2, 2, 2), (3, 2, 2), (2, 1, 1), (3, 1), (5,), (1,)])
    def test_rejects_other_shapes(self, parts):
        # no Shape of another partition exists for the enumerator to be given
        with pytest.raises(DomainError) as excinfo:
            enumerate_standard_tableaux(Shape(parts))
        assert str(excinfo.value) == SHAPE_TEXT + str(parts)

    @pytest.mark.parametrize("value", [(3, 2, 1), [3, 2, 1], None, "3,2,1"], ids=repr)
    @pytest.mark.parametrize("call", [enumerate_standard_tableaux, hook_length_count])
    def test_rejects_what_is_not_a_shape(self, call, value):
        # the parts alone are not a Shape: named, never a bare AttributeError
        with pytest.raises(DomainError) as excinfo:
            call(value)
        assert str(excinfo.value) == f"expected a Shape, got {value!r}"


class TestHookLengthCount:
    def test_known_counts(self):
        # 5! / (4*3*1*2*1) and 6! / (5*3*1*3*1*1)
        assert hook_length_count(Shape((2, 2, 1))) == 5
        assert hook_length_count(Shape((3, 2, 1))) == 16
        assert hook_length_count(Shape((2, 2))) == 2

    def test_matches_enumeration_for_all_partitions(self):
        # every partition a Shape can hold, against the generic reference enumerator
        for n in range(4, 13):
            for parts in hook_parts(n):
                shape = Shape(parts)
                assert hook_length_count(shape) == len(reference_standard_tableaux(shape))

    def test_matches_the_arc_count_identity_past_the_betti_range(self):
        # Jacques 2004: n * C(j-1, c-1) * C(n-j-1, c-1) / c of the j-subsets have c arcs, and
        # each adds c - 1 to the strand; the Betti route stops at n = 100, the hook length
        # formula does not.  Every 2 <= j <= n - 2 for n <= 300, binomials from Pascal's rule
        binomials = [[1]]
        for _ in range(300):
            above = binomials[-1]
            binomials.append([1, *map(add, above, above[1:]), 1])
        for n in range(4, 301):
            for j in range(2, n - 1):
                left, right, total = binomials[j - 1], binomials[n - j - 1], 0
                for c in range(2, min(j, n - j) + 1):
                    subsets, remainder = divmod(n * left[c - 1] * right[c - 1], c)
                    assert remainder == 0
                    total += (c - 1) * subsets
                assert hook_length_count(hook_shape(n, j)) == total, (n, j)

    def test_indivisible_hook_product_raises(self, monkeypatch):
        # the hook product of (2, 2) is 3 * 2 * 2 * 1 = 12; a total of 7 cannot be divided by it
        monkeypatch.setattr(tableaux, "factorial", lambda n: 7)
        with pytest.raises(ImpossibleBranchError, match="does not divide"):
            hook_length_count(Shape((2, 2)))

    def test_guard_survives_optimized_mode(self):
        # python -O strips assert statements; the guard must still raise
        script = (
            "import cyclebetti.tableaux as t\n"
            "from cyclebetti.errors import ImpossibleBranchError\n"
            "assert False, 'asserts are live, so this is not -O'\n"
            "t.factorial = lambda n: 7\n"
            "try:\n"
            "    t.hook_length_count(t.Shape((2, 2)))\n"
            "except ImpossibleBranchError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(3)\n"
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr


class TestTranspose:
    def test_known_transpose(self):
        assert transpose(parse_tableau("1,2;3,4;5")) == parse_tableau("1,3,5;2,4")

    @given(standard_tableaux())
    def test_involutive(self, t):
        assert transpose(transpose(t)) == t

    def test_matches_cell_by_cell_reference(self):
        for n in range(4, 10):
            for j in range(2, n - 1):
                for t in enumerate_standard_tableaux(hook_shape(n, j)):
                    assert transpose(t).rows == reference_transpose(t.rows)

    def test_maps_hook_family_onto_conjugate_family(self):
        for n in range(4, 10):
            for j in range(2, n - 1):
                image = {transpose(t) for t in enumerate_standard_tableaux(hook_shape(n, j))}
                assert image == set(enumerate_standard_tableaux(hook_shape(n, n - j)))


def check_hook_views(t):
    # the hook-held tableau against everything derived from its rows
    rows = t.rows
    transposed = transpose(t)
    assert transposed.rows == transposed_rows(rows)
    assert transpose(transposed) == t
    again = Tableau.from_rows(rows)
    assert again == t and hash(again) == hash(t)
    assert Tableau(*t.hook) == t == Tableau(row=t.row, column=t.column, corner=t.corner)
    assert eval(repr(t), {"Tableau": Tableau}) == t
    assert hook_shape(t.n, len(t.row)) == Shape(tuple(map(len, rows)))
    assert t.n == sum(map(len, rows))
    assert t.row + (t.column[1], t.corner) + t.column[2:] == tuple(v for row in rows for v in row)


class TestHook:
    # a Tableau holds its first row, first column and (2, 2) entry; its
    # transpose swaps the row and the column
    def test_known_hook(self):
        t = parse_tableau("1,3,6;2,4;5;7")
        assert (t.row, t.column, t.corner) == ((1, 3, 6), (1, 2, 5, 7), 4)
        assert t.hook == ((1, 3, 6), (1, 2, 5, 7), 4)
        assert transpose(t).hook == ((1, 2, 5, 7), (1, 3, 6), 4)

    def test_views_match_the_row_references_exhaustively(self):
        for n in range(4, 11):
            for j in range(2, n - 1):
                for t in enumerate_standard_tableaux(hook_shape(n, j)):
                    check_hook_views(t)

    @given(large_standard_tableaux())
    def test_views_match_the_row_references_up_to_2048(self, t):
        check_hook_views(t)

    @pytest.mark.parametrize(
        "hook,text",
        [
            # the row and the column disagree at (1, 1), or hold it as an equal non-int
            (((1, 2), (3, 4, 5), 6), "entries must be exactly 1..5, each once"),
            (((1, 3), (7, 2, 5), 4), "entries must be exactly 1..5, each once"),
            (((1, 3), (1.0, 2, 5), 4), "entries must be exactly 1..5, each once"),
            (((2, 3), (1, 4, 5), 6), "entries must be exactly 1..5, each once"),
            # an int subclass in the row, in the column or at (2, 2), equal to the int it replaces
            (((1, Label(3)), (1, 2, 5), 4), "entries must be exactly 1..5, each once"),
            (((Small.ONE, 3), (1, 2, 5), 4), "entries must be exactly 1..5, each once"),
            (((1, 3), (1, 2, Label(5)), 4), "entries must be exactly 1..5, each once"),
            (((1, 3), (1, Small.ONE, 5), 4), "entries must be exactly 1..5, each once"),
            (((1, 3), (1, 2, 5), Label(4)), "entries must be exactly 1..5, each once"),
            (((1, 3), (1, 2, 5), 4.0), "entries must be exactly 1..5, each once"),
            # an entry past n in the row, or in the column, with the other n - 1 distinct and positive
            (((1, 6), (1, 2, 3), 4), "entries must be exactly 1..5, each once"),
            (((1, 2), (1, 3, 6), 4), "entries must be exactly 1..5, each once"),
            # a hook with no room for the cell (2, 2)
            (((1,), (1, 2, 3, 4), 5), "hooks need 2 cells each way, got 1 and 4"),
            (((1, 2, 3, 4), (1,), 5), "hooks need 2 cells each way, got 4 and 1"),
            # then the checks of Tableau.from_rows(rows), in its order
            (((1, 4), (1, 2, 5), 3), "column 2 is not strictly increasing at row 2"),
            (((1, 2), (1, 3, 6, 5), 4), "column 1 is not strictly increasing at row 4"),
        ],
    )
    def test_private_constructor_rejects_bad_hooks(self, hook, text):
        # Tableau(row, column, corner) itself: the name dates from when it was a private classmethod
        with pytest.raises(TableauValidationError) as excinfo:
            Tableau(*hook)
        assert str(excinfo.value) == text

    def test_repr_is_the_constructor_call(self):
        # check_hook_views evaluates the repr of every enumerated tableau back to it
        assert repr(parse_tableau("1,2;3,4;5")) == "Tableau(row=(1, 2), column=(1, 3, 5), corner=4)"

    @pytest.mark.parametrize(
        "fields,text",
        [
            ({"row": (1, 2), "column": (1, 3, 5), "corner": 2}, "entries must be exactly 1..5, each once"),
            ({"row": (1, 3), "column": (1, 2, 5), "corner": 3}, "entries must be exactly 1..5, each once"),
            ({"row": (1, 2), "column": (1, 4, 5), "corner": 3}, "row 2 is not strictly increasing: (4, 3)"),
            ({"row": (1,), "column": (1, 2), "corner": 3}, "hooks need 2 cells each way, got 1 and 2"),
        ],
    )
    def test_keyword_construction_is_validated(self, fields, text):
        with pytest.raises(TableauValidationError) as excinfo:
            Tableau(**fields)
        assert str(excinfo.value) == text

    @pytest.mark.parametrize(
        "hook,text",
        [
            (([1, 2], (1, 3, 5), 4), "row and column must be tuples, got list and tuple"),
            (((1, 2), [1, 3, 5], 4), "row and column must be tuples, got tuple and list"),
            (((1, 2), range(1, 4), 4), "row and column must be tuples, got tuple and range"),
            ((None, None, 4), "row and column must be tuples, got NoneType and NoneType"),
        ],
    )
    def test_lines_must_be_tuples(self, hook, text):
        # the fields are held as given, and a tableau is hashed by them
        with pytest.raises(TableauValidationError) as excinfo:
            Tableau(*hook)
        assert str(excinfo.value) == text

    def test_from_rows_builds_the_hook(self):
        assert Tableau.from_rows([[1, 3, 6], [2, 4], [5], [7]]) == Tableau((1, 3, 6), (1, 2, 5, 7), 4)
        assert Tableau.from_rows(iter([(1, 2), (3, 4), (5,)])) == parse_tableau("1,2;3,4;5")


class TestTextFormat:
    @pytest.mark.parametrize("text", ["1,2;3,4;5", "1,2,4;3,6;5", "1,3;2,4;5", "1,3,4,5;2,6"])
    def test_round_trip_known_strings(self, text):
        assert format_tableau(parse_tableau(text)) == text

    @given(standard_tableaux())
    def test_round_trip_enumerated(self, t):
        assert parse_tableau(format_tableau(t)) == t

    def test_whitespace_tolerated(self):
        assert parse_tableau(" 1 , 2 ; 3 , 4 ; 5 ") == parse_tableau("1,2;3,4;5")

    @pytest.mark.parametrize("text", ["", "1,2;;3", "1,2;3,x;5", "1,,2", ";"])
    def test_malformed_text_is_a_parse_error(self, text):
        with pytest.raises(TableauParseError):
            parse_tableau(text)

    def test_non_standard_filling_is_a_validation_error(self):
        with pytest.raises(TableauValidationError, match="increasing"):
            parse_tableau("2,1;3,4;5")
        with pytest.raises(TableauValidationError, match="hook-plus-column"):
            parse_tableau("1;2,3")
