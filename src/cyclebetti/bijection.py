"""The bijection between hook-plus-column tableaux and marked subsets.

Standard tableaux of shape (j, 2, 1, ..., 1) on n cells correspond one to
one with marked subsets of size j on the n-cycle.  The forward direction
reads the pair off the cell at (2, 2); the inverse rebuilds the filling
from sorted rows and columns.  Both directions are constructive, and the
verifier checks them exhaustively against the independent enumerations of
each side.  It works on one conjugate pair of shapes, j and n - j, at a
time, and validates only the enumerated objects, each once: every forward
image, rebuilt filling and transpose is looked up among them, and one that
lies outside them is reported raw as a mismatch, never built.  Tableaux
are keyed by hook, and transposed by _transposed_hook.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import filterfalse
from typing import Iterable

from .cycle import MarkedSubset, marked_subsets
from .errors import (
    DomainError,
    ImpossibleBranchError,
    InvalidMarkedSubsetError,
    TableauValidationError,
)
from .tableaux import (
    Hook,
    Tableau,
    enumerate_standard_tableaux,
    format_tableau,
    hook_shape,
    _transposed_hook,
)

Pair = tuple[frozenset[int], int]
# per shape: tableaux and images by hook (same order), marked subsets by (vertices, marker); an
# image is the enumerated marked subset read, or the raw pair when none has it
Side = tuple[dict[Hook, Tableau], dict[Pair, MarkedSubset], dict[Hook, MarkedSubset | Pair]]


def format_marked_subset(ms: MarkedSubset) -> str:
    """Render as "{2,4,6}|6": the sorted vertices, then the marker."""
    return _text((ms.vertices, ms.marker))


def _text(value: Hook | Pair) -> str:
    """A (vertices, marker) pair, or a hook as its rows, in the text of the object it would be."""
    if len(value) == 2:
        vertices, marker = value
        return "{" + ",".join(map(str, sorted(vertices))) + "}|" + str(marker)
    row, column, corner = value
    return ";".join(",".join(map(str, r)) for r in (row, (*column[1:2], corner), *zip(column[2:])))


def _shown(value: Tableau | MarkedSubset | Hook | Pair) -> str:
    """A looked-up value as text: an enumerated object formatted, a raw one marked as outside."""
    if isinstance(value, Tableau):
        return format_tableau(value)
    if isinstance(value, MarkedSubset):
        return format_marked_subset(value)
    return f"{_text(value)} (outside the enumeration)"


def tableau_to_marked_subset(tableau: Tableau) -> MarkedSubset:
    """Read the marked subset off a standard hook-plus-column tableau.

    The marker is the entry at (2, 2).  If the marker's predecessor sits in
    the first row, the subset is the whole first row; if it sits in the
    first column, the subset is the marker together with the first row past
    its initial cell.  Standardness leaves no third location, so reaching
    one means the tableau is corrupt.
    """
    return MarkedSubset(tableau.n, *_read(tableau.hook))


def _read(hook: Hook) -> Pair:
    """(subset, marker) of a hook, read off (2, 2); bisection finds the marker's predecessor."""
    row, column, marker = hook
    i, k = bisect_left(row, marker - 1), bisect_left(column, marker - 1)
    if row[i : i + 1] == (marker - 1,):
        return frozenset(row), marker
    if column[k : k + 1] == (marker - 1,):
        return frozenset((marker, *row[1:])), marker
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
    try:
        return Tableau(*_rebuilt_hook(ms, j))
    except TableauValidationError as exc:
        raise ImpossibleBranchError(f"rebuilt filling is not standard: {exc}") from exc


def _rebuilt_hook(ms: MarkedSubset, j: int) -> Hook:
    """The hook of size j that marked_subset_to_tableau validates; the marker lands at (2, 2)."""
    vs = ms.vertices
    if type(j) is not int or ms.size != j:
        raise InvalidMarkedSubsetError(f"subset {sorted(vs)} has size {ms.size}, expected j={j}")
    inside, outside = sorted(vs), list(filterfalse(vs.__contains__, range(1, ms.n + 1)))
    side = outside if 1 in vs else inside  # the side without vertex 1, which holds the marker
    side.remove(ms.marker)
    side.insert(0, 1)
    return tuple(inside), tuple(outside), ms.marker


@dataclass
class BijectionReport:
    """Outcome of exhaustively checking both directions for one (n, j).

    passed covers the bijection alone; duality_holds reports separately
    whether transposing every tableau complements its marked subset.
    """

    n: int
    j: int
    tableau_count: int
    marked_count: int
    injective: bool
    image_matches: bool
    round_trips_ok: bool
    duality_holds: bool
    mismatches: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.injective and self.image_matches and self.round_trips_ok


def verify_bijection(n: int, j: int) -> BijectionReport:
    """Check the forward map is a bijection onto the marked subsets.

    Confirms injectivity over all standard tableaux of the hook-plus-column
    shape, image equality with the enumerated marked subsets, both round
    trips, and transpose duality.  The conjugate shape is enumerated too, so
    each transpose is a lookup.  Every tableau is read forward once and every
    marked subset rebuilt once, and only the enumerated objects are
    validated: a forward image, rebuilt filling or transpose that none of
    them has is never built, but reported raw.  Counterexamples are collected
    in the report rather than raised, so callers can render them.
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
    """Shape (j, 2, 1, ..., 1) and the marked subsets of size j, each tableau read forward once."""
    tableaux = {t.hook: t for t in enumerate_standard_tableaux(hook_shape(n, j))}
    marked = {(ms.vertices, ms.marker): ms for ms in marked_subsets(n, j)}
    image = {hook: marked.get(pair := _read(hook), pair) for hook in tableaux}
    return tableaux, marked, image


def _report(n: int, j: int, side: Side, conjugate: Side) -> BijectionReport:
    """The report for (n, j), from the enumerations and images of shape j and of its conjugate.

    Transposes (by _transposed_hook), rebuilt fillings and preimages' images are found by hook,
    and only compared: a round trip holds when its lookups return the object it started from, and
    a value no enumerated object has stays raw, so nothing here builds a Tableau or MarkedSubset.
    """
    tableaux, marked, image = side
    mismatches: list[str] = []

    forward: dict[MarkedSubset | Pair, Tableau] = {}
    for t, ms in zip(tableaux.values(), image.values()):
        if forward.setdefault(ms, t) is not t:
            mismatches.append(
                f"collision: {format_tableau(forward[ms])} and {format_tableau(t)} "
                f"both map to {_shown(ms)}"
            )
    injective = len(forward) == len(image)
    transposes = map(conjugate[2].get, map(_transposed_hook, image))  # None where the lookup misses
    duality_holds = all(
        type(ms) is type(ms_t) is MarkedSubset and _transpose_complements(ms, ms_t.vertices, ms_t.marker)
        for ms, ms_t in zip(image.values(), transposes)
    )

    # the enumerated tableau with each rebuilt hook, or the raw hook when none has it
    preimage = {ms: tableaux.get(hook := _rebuilt_hook(ms, j), hook) for ms in marked.values()}
    image_matches = forward.keys() == preimage.keys()
    if not image_matches:  # each membership test hashes a marked subset again
        mismatches += [f"image outside the enumeration: {_text(v)}" for v in forward if v not in preimage]
        mismatches += [
            f"marked subset never hit: {format_marked_subset(ms)}" for ms in preimage if ms not in forward
        ]

    drifts = []
    for t, ms in zip(tableaux.values(), image.values()):
        if (back := preimage.get(ms)) is not t:  # None for a raw image
            rebuilt = "" if back is None else f" -> {_shown(back)}"
            drifts.append(f"tableau round trip drifts: {format_tableau(t)} -> {_shown(ms)}{rebuilt}")
    for ms, back in preimage.items():
        back_ms = image[back.hook] if isinstance(back, Tableau) else back  # a raw hook has no image
        if back_ms is not ms:
            drifts.append(f"marked round trip drifts: {format_marked_subset(ms)} -> {_shown(back_ms)}")
    return BijectionReport(
        n, j, len(image), len(marked), injective, image_matches, not drifts, duality_holds, mismatches + drifts
    )


def transpose_duality_holds(tableau: Tableau) -> bool:
    """Whether transposing complements the subset and keeps the marker.

    The transpose of a hook-plus-column tableau has the conjugate
    hook-plus-column shape, and its marked subset should be the complement
    with the same marker attached.  The transpose of a standard tableau is
    standard, so its hook is read raw, and the read needs no validation of
    its own by the complement lemma: the complement in 1..n of a valid
    marked subset, with the same marker, is a valid marked subset, since
    both avoid vertex 1 on the same side and each membership rule of
    MarkedSubset is symmetric under complementing.
    """
    ms = tableau_to_marked_subset(tableau)
    return _transpose_complements(ms, *_read(_transposed_hook(tableau.hook)))


def _transpose_complements(ms: MarkedSubset, subset: frozenset[int], marker: int) -> bool:
    """Whether (subset, marker), read off a transpose, is ms's complement with ms's marker."""
    # a subset of 1..n, disjoint from ms's with sizes summing to n, is its complement
    return len(subset) + ms.size == ms.n and subset.isdisjoint(ms.vertices) and marker == ms.marker
