"""The bijection between hook-plus-column tableaux and marked subsets.

Standard tableaux of shape (j, 2, 1, ..., 1) on n cells correspond one to
one with marked subsets of size j on the n-cycle.  The forward direction
reads the pair off the cell at (2, 2); the inverse rebuilds the filling
from sorted rows and columns.  Both directions are constructive, and the
verification helpers check them exhaustively against the independent
enumerations of each side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .cycle import MarkedSubset, marked_subsets
from .errors import (
    DomainError,
    ImpossibleBranchError,
    InvalidMarkedSubsetError,
    TableauValidationError,
    WrongShapeError,
)
from .tableaux import (
    Tableau,
    enumerate_standard_tableaux,
    format_tableau,
    hook_shape,
    transpose,
)


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
    shape = tableau.shape
    n, j = tableau.n, shape.parts[0]
    try:
        expected = hook_shape(n, j)
    except DomainError as exc:
        raise WrongShapeError(str(exc)) from exc
    if shape != expected:
        raise WrongShapeError(
            f"expected shape {expected.parts} for n={n}, j={j}, got {shape.parts}"
        )
    marker = tableau.entry(2, 2)
    row, col = tableau.position_of(marker - 1)
    if row == 1:
        subset = frozenset(tableau.rows[0])
    elif col == 1:
        subset = frozenset((marker, *tableau.rows[0][1:]))
    else:
        raise ImpossibleBranchError(
            f"predecessor of the marker sits at ({row}, {col}), "
            "outside both the first row and the first column"
        )
    return MarkedSubset(n, subset, marker)


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
    ms = MarkedSubset(n, frozenset(vertices), marker)
    if ms.size != j:
        raise InvalidMarkedSubsetError(
            f"subset {sorted(ms.vertices)} has size {ms.size}, expected j={j}"
        )
    inside = sorted(ms.vertices)
    outside = sorted(set(range(1, n + 1)) - ms.vertices)
    if 1 in ms.vertices:
        first_row = inside
        column_below = [v for v in outside if v != marker]
    else:
        first_row = [outside[0]] + [v for v in inside if v != marker]
        column_below = outside[1:]
    built = [tuple(first_row), (column_below[0], marker)]
    built.extend((v,) for v in column_below[1:])
    try:
        tableau = Tableau(tuple(built))
    except TableauValidationError as exc:
        raise ImpossibleBranchError(f"rebuilt filling is not standard: {exc}") from exc
    if not tableau.entry(2, 2) > max(tableau.entry(1, 2), tableau.entry(2, 1)):
        raise ImpossibleBranchError(
            f"marker {marker} at (2, 2) does not exceed both neighbours in "
            f"{format_tableau(tableau)}"
        )
    return tableau


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
    trips, and transpose duality.  Each tableau is mapped forward once and
    each marked subset back once; the round trips reuse those results and
    call a map afresh only for a value outside the enumerated side.
    Counterexamples are collected in the report rather than raised, so
    callers can render them.
    """
    tableaux = enumerate_standard_tableaux(hook_shape(n, j))
    marked = marked_subsets(n, j)
    mismatches: list[str] = []

    image: dict[Tableau, MarkedSubset] = {}
    forward: dict[MarkedSubset, Tableau] = {}
    duality_holds = True
    for t in tableaux:
        ms = image[t] = tableau_to_marked_subset(t)
        if ms in forward:
            mismatches.append(
                f"collision: {format_tableau(forward[ms])} and {format_tableau(t)} "
                f"both map to {format_marked_subset(ms)}"
            )
        else:
            forward[ms] = t
        duality_holds = duality_holds and _transpose_complements(t, ms)
    injective = len(forward) == len(tableaux)

    def _order(ms: MarkedSubset) -> tuple[tuple[int, ...], int]:
        return tuple(sorted(ms.vertices)), ms.marker

    image_matches = set(forward) == set(marked)
    for ms in sorted(set(forward) - set(marked), key=_order):
        mismatches.append(f"image is not a marked subset: {format_marked_subset(ms)}")
    for ms in sorted(set(marked) - set(forward), key=_order):
        mismatches.append(f"marked subset never hit: {format_marked_subset(ms)}")

    preimage = {ms: marked_subset_to_tableau(n, j, ms.vertices, ms.marker) for ms in marked}
    round_trips_ok = True
    for t, ms in image.items():
        try:
            back = preimage.get(ms) or marked_subset_to_tableau(n, j, ms.vertices, ms.marker)
            drift = "" if back == t else format_tableau(back)
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
            back_ms = image[t] if t in image else tableau_to_marked_subset(t)
            drift = "" if back_ms == ms else format_marked_subset(back_ms)
        except (InvalidMarkedSubsetError, WrongShapeError) as exc:
            drift = f"error: {exc}"
        if drift:
            round_trips_ok = False
            mismatches.append(f"marked round trip drifts: {format_marked_subset(ms)} -> {drift}")

    return BijectionReport(
        n=n,
        j=j,
        tableau_count=len(tableaux),
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
    return _transpose_complements(tableau, tableau_to_marked_subset(tableau))


def _transpose_complements(tableau: Tableau, ms: MarkedSubset) -> bool:
    """Whether transpose(tableau) maps to the complement of ms, the tableau's image."""
    ms_t = tableau_to_marked_subset(transpose(tableau))
    everything = frozenset(range(1, ms.n + 1))
    return ms_t.vertices == everything - ms.vertices and ms_t.marker == ms.marker
