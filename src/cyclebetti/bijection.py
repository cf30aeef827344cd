"""The bijection between hook-plus-column tableaux and marked subsets.

Standard tableaux of shape (j, 2, 1, ..., 1) on n cells correspond one to
one with marked subsets of size j on the n-cycle.  The forward direction
reads the pair off the cell at (2, 2); the inverse rebuilds the filling
from sorted rows and columns.  Both directions are constructive, and the
verifier checks them exhaustively against the independent enumerations of
each side.  It works on one conjugate pair of shapes, j and n - j, at a
time, validates only the enumerated objects, each once, and keeps only
their keys: a tableau's hook and a marked subset's (vertices, marker)
pair.  Every forward image, rebuilt hook and transpose is compared with
those keys, and one that no key matches is reported raw, never built.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Container, Iterable
from itertools import filterfalse
from operator import attrgetter

from .cycle import MarkedSubset, marked_subsets
from .errors import (
    DomainError,
    ImpossibleBranchError,
    InvalidMarkedSubsetError,
    Record,
    TableauValidationError,
)
from .tableaux import (
    Hook,
    Tableau,
    enumerate_standard_tableaux,
    hook_shape,
    _hook_text,
    _transposed_hook,
)

Pair = tuple[frozenset[int], int]
# per shape: each tableau's hook to the pair it reads, and each marked subset's pair to itself; a
# read that a marked subset has is that subset's very pair object
Side = tuple[dict[Hook, Pair], dict[Pair, Pair]]


def format_marked_subset(ms: MarkedSubset) -> str:
    """Render as "{2,4,6}|6": the sorted vertices, then the marker."""
    return _text((ms.vertices, ms.marker))


def _text(value: Hook | Pair) -> str:
    """A (vertices, marker) pair, or a hook, in the text of the object it would be."""
    if len(value) == 2:
        vertices, marker = value
        return "{" + ",".join(map(str, sorted(vertices))) + "}|" + str(marker)
    return _hook_text(value)


def _shown(value: Hook | Pair, enumerated: Container) -> str:
    """A key as text, marked as outside the enumeration unless it is among the enumerated keys."""
    return _text(value) + ("" if value in enumerated else " (outside the enumeration)")


def tableau_to_marked_subset(tableau: Tableau) -> MarkedSubset:
    """Read the marked subset off a standard hook-plus-column tableau.

    The marker is the entry at (2, 2).  If the marker's predecessor sits in
    the first row, the subset is the whole first row; if it sits in the
    first column, the subset is the marker together with the first row past
    its initial cell.  Standardness leaves no third location, so reaching
    one means the tableau is corrupt.
    """
    return MarkedSubset(tableau.n, *_read(tableau.hook))


def _read(hook: Hook, freeze: type = frozenset) -> tuple[frozenset[int] | tuple[int, ...], int]:
    """(subset, marker) of a hook, read off (2, 2); bisection finds the marker's predecessor."""
    row, column, marker = hook
    i, k = bisect_left(row, marker - 1), bisect_left(column, marker - 1)
    if row[i : i + 1] == (marker - 1,):
        return freeze(row), marker
    if column[k : k + 1] == (marker - 1,):
        return freeze((marker, *row[1:])), marker
    cell = (1, row.index(marker - 1) + 1) if marker - 1 in row else (column.index(marker - 1) + 1, 1)
    raise ImpossibleBranchError(
        f"predecessor of the marker sits at {cell}, outside both the first row and the first column"
    )


def marked_subset_to_tableau(n: int, j: int, vertices: Iterable[int], marker: int) -> Tableau:
    """Rebuild the unique standard tableau that maps to (vertices, marker).

    When 1 lies in the subset, the sorted subset fills the first row, the
    marker lands at (2, 2), and the sorted complement minus the marker
    fills the rest of the first column.  When 1 lies outside, the sorted
    complement fills the first column, the marker lands at (2, 2), and the
    sorted subset minus the marker fills the rest of the first row.  The
    result is validated; a non-standard filling here is unreachable for a
    valid marked subset.
    """
    ms = MarkedSubset(n, vertices, marker)
    if type(j) is not int or ms.size != j:
        raise InvalidMarkedSubsetError(f"subset {sorted(ms.vertices)} has size {ms.size}, expected j={j}")
    try:
        return Tableau(*_rebuilt_hook((ms.vertices, ms.marker), n))
    except TableauValidationError as exc:
        raise ImpossibleBranchError(f"rebuilt filling is not standard: {exc}") from exc


def _rebuilt_hook(pair: Pair, n: int) -> Hook:
    """The hook that marked_subset_to_tableau validates for a pair; the marker lands at (2, 2)."""
    vs, marker = pair
    inside, outside = sorted(vs), list(filterfalse(vs.__contains__, range(1, n + 1)))
    side = outside if 1 in vs else inside  # the side without vertex 1, which holds the marker
    side.remove(marker)
    side.insert(0, 1)
    return tuple(inside), tuple(outside), marker


class BijectionReport(Record):
    """Outcome of exhaustively checking both directions for one (n, j).

    passed covers the bijection alone; duality_holds reports separately
    whether transposing every tableau complements its marked subset.
    """

    __slots__ = (
        "n", "j", "tableau_count", "marked_count", "injective", "image_matches", "round_trips_ok",
        "duality_holds", "mismatches",
    )

    def __init__(
        self, n: int, j: int, tableau_count: int, marked_count: int, injective: bool,
        image_matches: bool, round_trips_ok: bool, duality_holds: bool, mismatches: list[str] | None = None,
    ) -> None:
        fields = (n, j, tableau_count, marked_count, injective, image_matches, round_trips_ok, duality_holds)
        for name, value in zip(self.__slots__, (*fields, [] if mismatches is None else mismatches)):
            object.__setattr__(self, name, value)

    @property
    def passed(self) -> bool:
        return self.injective and self.image_matches and self.round_trips_ok


def verify_bijection(n: int, j: int) -> BijectionReport:
    """Check the forward map is a bijection onto the marked subsets.

    Confirms injectivity over all standard tableaux of the hook-plus-column
    shape, image equality with the enumerated marked subsets, both round
    trips, and transpose duality.  The conjugate shape is enumerated too, so
    each transpose is a lookup.  Every tableau's hook is read forward to a
    (vertices, marker) pair once, every marked subset's pair rebuilt to a
    hook once, and the round trips compare those keys: only the enumerated
    objects are validated, and a value that no key matches is reported raw,
    never built.  Counterexamples are collected in the report rather than
    raised, so callers can render them.
    """
    side = _side(n, j)
    return _report(n, j, side, side if 2 * j == n else _side(n, n - j))


def verify_cycle(n: int) -> list[BijectionReport]:
    """verify_bijection(n, j) for j = 2..n-2 in order, holding one pair {j, n - j} at a time."""
    if type(n) is not int or n < 4:
        raise DomainError(f"hook shapes need n >= 4, got n={n}")
    reports = {}
    for j in range(2, n // 2 + 1):
        sides = {k: _side(n, k) for k in sorted({j, n - j})}
        reports.update({k: _report(n, k, sides[k], sides[n - k]) for k in sides})
        del sides  # release this pair before the next is built
    return [reports[j] for j in sorted(reports)]


def _side(n: int, j: int) -> Side:
    """The keys of shape (j, 2, 1, ..., 1) and of the marked subsets of size j; objects dropped."""
    marked = {pair: pair for pair in map(attrgetter("vertices", "marker"), marked_subsets(n, j))}
    hooks = map(attrgetter("hook"), enumerate_standard_tableaux(hook_shape(n, j)))
    return {hook: marked.get(pair := _read(hook), pair) for hook in hooks}, marked


def _report(n: int, j: int, side: Side, conjugate: Side) -> BijectionReport:
    """The report for (n, j), from the keys of shape j and of its conjugate.

    Each marked subset's pair is rebuilt to a hook and each hook transposed by _transposed_hook;
    these are only compared with keys: a round trip holds when it comes back to the key it started
    from, and a value that no key of its kind matches is rendered raw, as outside the enumeration.
    """
    image, marked = side
    preimage = {pair: _rebuilt_hook(pair, n) for pair in marked}
    forward: dict[Pair, Hook] = {}
    mismatches, drifts = [], []
    for hook, pair in image.items():
        if forward.setdefault(pair, hook) != hook:
            mismatches.append(
                f"collision: {_text(forward[pair])} and {_text(hook)} both map to {_shown(pair, marked)}"
            )
        if (back := preimage.get(pair)) != hook:  # None for a raw image
            rebuilt = "" if back is None else f" -> {_shown(back, image)}"
            drifts.append(f"tableau round trip drifts: {_text(hook)} -> {_shown(pair, marked)}{rebuilt}")
    injective = len(forward) == len(image)
    transposes = map(conjugate[0].get, map(_transposed_hook, image))  # None where the lookup misses
    duality_holds = all(
        pair in preimage and pair_t in conjugate[1] and _transpose_complements(n, pair, *pair_t)
        for pair, pair_t in zip(image.values(), transposes)
    )

    image_matches = forward.keys() == preimage.keys()
    if not image_matches:
        mismatches += [f"image outside the enumeration: {_text(v)}" for v in forward if v not in preimage]
        mismatches += [f"marked subset never hit: {_text(v)}" for v in preimage if v not in forward]
    for pair, back in preimage.items():
        if (back_pair := image.get(back, back)) != pair:  # a raw hook has no image
            drifts.append(f"marked round trip drifts: {_text(pair)} -> {_shown(back_pair, marked)}")
    return BijectionReport(
        n, j, len(image), len(marked), injective, image_matches, not drifts, duality_holds, mismatches + drifts
    )


def transpose_duality_holds(tableau: Tableau) -> bool:
    """Whether transposing complements the subset and keeps the marker.

    The transpose of a hook-plus-column tableau has the conjugate
    hook-plus-column shape, and its marked subset should be the complement
    with the same marker attached.  A validated tableau and its transpose
    are both standard, so both hooks are read raw, and neither read is
    validated: the forward map takes a standard tableau to a valid marked
    subset, and by the complement lemma the complement in 1..n of a valid
    marked subset, with the same marker, is a valid marked subset, since
    both avoid vertex 1 on the same side and each membership rule of
    MarkedSubset is symmetric under complementing.
    """
    return _transpose_complements(tableau.n, _read(tableau.hook), *_read(_transposed_hook(tableau.hook), tuple))


def _transpose_complements(n: int, pair: Pair, subset: frozenset[int] | tuple[int, ...], marker: int) -> bool:
    """Whether (subset, marker), read off a transpose, is pair's complement with pair's marker."""
    # a subset of 1..n, disjoint from pair's with sizes summing to n, is its complement; a tuple
    # read unfrozen repeats no entry, so its length is its size
    return len(subset) + len(pair[0]) == n and pair[0].isdisjoint(subset) and marker == pair[1]
