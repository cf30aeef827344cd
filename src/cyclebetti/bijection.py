"""The bijection between hook-plus-column tableaux and marked subsets.

Standard tableaux of shape (j, 2, 1, ..., 1) on n cells correspond one to
one with marked subsets of size j on the n-cycle.  The forward direction
reads the pair off the cell at (2, 2); the inverse rebuilds the filling
from sorted rows and columns.  Both directions are constructive, and the
verifier checks them exhaustively against the independent enumerations of
each side.  It works on one conjugate pair of shapes, j and n - j, at a
time, and validates each object once: every forward image, rebuilt filling
and transpose is looked up among the enumerated objects, and built afresh
only when it lies outside them.  Tableaux are keyed by hook, and transposed by _transposed_hook.
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
# per shape: tableaux and images by hook (same order), marked subsets by (vertices, marker)
Side = tuple[dict[Hook, Tableau], dict[Pair, MarkedSubset], dict[Hook, MarkedSubset]]


def format_marked_subset(ms: MarkedSubset) -> str:
    """Render as "{2,4,6}|6": the sorted vertices, then the marker."""
    return "{" + ",".join(str(v) for v in sorted(ms.vertices)) + "}|" + str(ms.marker)


def tableau_to_marked_subset(tableau: Tableau) -> MarkedSubset:
    """Read the marked subset off a standard hook-plus-column tableau.

    The marker is the entry at (2, 2).  If the marker's predecessor sits in
    the first row, the subset is the whole first row; if it sits in the
    first column, the subset is the marker together with the first row past
    its initial cell.  Standardness leaves no third location, so reaching
    one means the tableau is corrupt.
    """
    return MarkedSubset(*_read(tableau))


def _read(tableau: Tableau) -> tuple[int, frozenset[int], int]:
    """(n, subset, marker) of a tableau, read off (2, 2); bisection finds the marker's predecessor."""
    row, column, marker = tableau.hook
    i, k = bisect_left(row, marker - 1), bisect_left(column, marker - 1)
    if row[i : i + 1] == (marker - 1,):
        subset = frozenset(row)
    elif column[k : k + 1] == (marker - 1,):
        subset = frozenset((marker, *row[1:]))
    else:
        row, col = tableau.position_of(marker - 1)
        raise ImpossibleBranchError(
            f"predecessor of the marker sits at ({row}, {col}), "
            "outside both the first row and the first column"
        )
    return tableau.n, subset, marker


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
    return _rebuild(MarkedSubset(n, vertices, marker), j)


def _rebuild(ms: MarkedSubset, j: int) -> Tableau:
    """marked_subset_to_tableau for a marked subset that is already built."""
    try:
        tableau = Tableau(*_rebuilt_hook(ms, j))
    except TableauValidationError as exc:
        raise ImpossibleBranchError(f"rebuilt filling is not standard: {exc}") from exc
    if not tableau.corner > max(tableau.row[1], tableau.column[1]):
        raise ImpossibleBranchError(
            f"marker {ms.marker} at (2, 2) does not exceed both neighbours in {format_tableau(tableau)}"
        )
    return tableau


def _rebuilt_hook(ms: MarkedSubset, j: int) -> Hook:
    """The hook _rebuild validates, for size j: 1 heads row and column, the marker is at (2, 2)."""
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
    marked subset rebuilt once; the round trips call a map afresh only for a
    value outside the side checked.  Counterexamples are collected in the
    report rather than raised, so callers can render them.
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
    reads = {hook: _read(t) for hook, t in tableaux.items()}
    image = {hook: marked.get(r[1:]) or MarkedSubset(*r) for hook, r in reads.items()}
    return tableaux, marked, image


def _report(n: int, j: int, side: Side, conjugate: Side) -> BijectionReport:
    """The report for (n, j), from the enumerations and images of shape j and of its conjugate.

    Transposes (by _transposed_hook), rebuilt fillings and preimages' images are found by hook.
    """
    tableaux, marked, image = side
    mismatches: list[str] = []

    forward: dict[MarkedSubset, Tableau] = {}
    for t, ms in zip(tableaux.values(), image.values()):
        if forward.setdefault(ms, t) is not t:
            mismatches.append(
                f"collision: {format_tableau(forward[ms])} and {format_tableau(t)} "
                f"both map to {format_marked_subset(ms)}"
            )
    injective = len(forward) == len(image)
    transposes = map(conjugate[2].get, map(_transposed_hook, image))  # None where the lookup misses
    duality_holds = all(map(_transpose_complements, tableaux.values(), image.values(), transposes))

    def _order(ms: MarkedSubset) -> tuple[tuple[int, ...], int]:
        return tuple(sorted(ms.vertices)), ms.marker

    preimage = {ms: tableaux.get(_rebuilt_hook(ms, j)) or _rebuild(ms, j) for ms in marked.values()}
    image_matches = forward.keys() == preimage.keys()
    if not image_matches:  # the set differences hash every marked subset again
        for ms in sorted(forward.keys() - preimage.keys(), key=_order):
            mismatches.append(f"image is not a marked subset: {format_marked_subset(ms)}")
        for ms in sorted(preimage.keys() - forward.keys(), key=_order):
            mismatches.append(f"marked subset never hit: {format_marked_subset(ms)}")

    round_trips_ok = True
    for t, ms in zip(tableaux.values(), image.values()):
        try:
            back = preimage.get(ms) or _rebuild(ms, j)
            drift = "" if back.hook == t.hook else format_tableau(back)
        except InvalidMarkedSubsetError as exc:
            drift = f"error: {exc}"
        if drift:
            round_trips_ok = False
            mismatches.append(
                f"tableau round trip drifts: {format_tableau(t)} -> "
                f"{format_marked_subset(ms)} -> {drift}"
            )
    for ms, t in preimage.items():
        try:
            back_ms = image.get(t.hook) or tableau_to_marked_subset(t)
            drift = "" if back_ms == ms else format_marked_subset(back_ms)
        except InvalidMarkedSubsetError as exc:
            drift = f"error: {exc}"
        if drift:
            round_trips_ok = False
            mismatches.append(f"marked round trip drifts: {format_marked_subset(ms)} -> {drift}")

    return BijectionReport(
        n=n,
        j=j,
        tableau_count=len(image),
        marked_count=len(marked),
        injective=injective,
        image_matches=image_matches,
        round_trips_ok=round_trips_ok,
        duality_holds=duality_holds,
        mismatches=mismatches,
    )


def transpose_duality_holds(tableau: Tableau) -> bool:
    """Whether transposing complements the subset and keeps the marker.

    The transpose of a hook-plus-column tableau has the conjugate
    hook-plus-column shape, and its marked subset should be the complement
    with the same marker attached.
    """
    return _transpose_complements(tableau, tableau_to_marked_subset(tableau), None)


def _transpose_complements(tableau: Tableau, ms: MarkedSubset, ms_t: MarkedSubset | None) -> bool:
    """Whether transpose(tableau) maps to the complement of ms; ms_t is that image if looked up."""
    ms_t = ms_t or tableau_to_marked_subset(Tableau(*_transposed_hook(tableau.hook)))
    # both are validated subsets of 1..n, so disjoint with sizes summing to n means complements
    sizes_fit = ms_t.n == ms.n == ms_t.size + ms.size
    return sizes_fit and ms_t.vertices.isdisjoint(ms.vertices) and ms_t.marker == ms.marker
