"""Closed-form answers and the benchmark's own arc code.

Nothing here imports cyclebetti: every output the benchmark checks is
compared against values derived independently of the library.

Known facts used:
- The Betti table of the n-cycle is 1 at (0, 0) and (n-2, n), the linear
  strand count at (j-1, j) for 2 <= j <= n-2, and 0 elsewhere.
- The strand count is the number of marked subsets of size j, which is
  sum over c of (c-1) times the number of j-subsets with c arcs,
  (n/c) * C(j-1, c-1) * C(n-j-1, c-1).
- That number also counts standard tableaux of shape (j, 2, 1, ..., 1),
  which the hook length formula gives.
"""

from __future__ import annotations

import random
from math import comb, factorial
from typing import Sequence


def subsets_with_arcs(n: int, j: int, c: int) -> int:
    """Number of j-subsets of the n-cycle whose induced subgraph has c arcs."""
    count, rest = divmod(n * comb(j - 1, c - 1) * comb(n - j - 1, c - 1), c)
    if rest:
        raise ArithmeticError(f"arc count for n={n}, j={j}, c={c} is not an integer")
    return count


def strand(n: int, j: int) -> int:
    """Betti number at (j-1, j) of the n-cycle, for 2 <= j <= n-2."""
    return sum((c - 1) * subsets_with_arcs(n, j, c) for c in range(2, min(j, n - j) + 1))


def hook_parts(n: int, j: int) -> tuple[int, ...]:
    """The partition (j, 2, 1, ..., 1) of n."""
    return (j, 2) + (1,) * (n - j - 2)


def hook_product_count(parts: Sequence[int]) -> int:
    """Standard tableaux of a shape: n! over the product of hook lengths."""
    cols = [sum(1 for p in parts if p > c) for c in range(parts[0])]
    product = 1
    for i, part in enumerate(parts):
        for c in range(part):
            product *= (part - c) + (cols[c] - i) - 1
    return factorial(sum(parts)) // product


def betti(n: int, i: int, j: int) -> int:
    """Any cell of the n-cycle's Betti table, 0 <= i <= j <= n."""
    if (i, j) in ((0, 0), (n - 2, n)):
        return 1
    if i == j - 1 and 2 <= j <= n - 2:
        return strand(n, j)
    return 0


def table_json(n: int) -> dict:
    """The document `cyclebetti table --n N --format json` prints."""
    entries = [{"i": 0, "j": 0, "betti": 1, "syt": None}]
    entries += [
        {"i": j - 1, "j": j, "betti": strand(n, j), "syt": strand(n, j)} for j in range(2, n - 1)
    ]
    entries.append({"i": n - 2, "j": n, "betti": 1, "syt": None})
    return {"n": n, "entries": entries}


def verify_json(n: int) -> dict:
    """The document `cyclebetti verify --n N --format json` prints when all checks pass."""
    results = [
        {
            "n": n,
            "j": j,
            "tableaux": strand(n, j),
            "marked": strand(n, j),
            "bijection": "pass",
            "duality": "pass",
            "mismatches": [],
        }
        for j in range(2, n - 1)
    ]
    return {"results": results, "passed": True}


def arcs(n: int, vertices: Sequence[int]) -> list[list[int]]:
    """Maximal cyclic arcs of a proper vertex subset, in walk order, sorted by minimum."""
    vs = set(vertices)
    out = []
    for start in sorted(vs):
        if (start - 2) % n + 1 in vs:
            continue
        arc = [start]
        while arc[-1] % n + 1 in vs:
            arc.append(arc[-1] % n + 1)
        out.append(arc)
    out.sort(key=min)
    return out


def admissible_markers(n: int, vertices: Sequence[int]) -> list[int]:
    """Arc minima on the side of the subset that avoids vertex 1, without the smallest."""
    vs = set(vertices)
    side = vs if 1 not in vs else set(range(1, n + 1)) - vs
    return sorted(min(arc) for arc in arcs(n, sorted(side)))[1:]


def random_marked_subset(rng: random.Random, n: int, j: int) -> tuple[list[int], int]:
    """A uniform j-subset with at least two arcs and a uniform admissible marker."""
    while True:
        vertices = sorted(rng.sample(range(1, n + 1), j))
        markers = admissible_markers(n, vertices)
        if markers:
            return vertices, rng.choice(markers)


def is_standard(rows: Sequence[Sequence[int]]) -> bool:
    """Rows weakly shrink, hold 1..n once each, and increase along rows and columns."""
    if any(len(rows[k]) < len(rows[k + 1]) for k in range(len(rows) - 1)):
        return False
    n = sum(len(row) for row in rows)
    if sorted(v for row in rows for v in row) != list(range(1, n + 1)):
        return False
    if any(row[c] >= row[c + 1] for row in rows for c in range(len(row) - 1)):
        return False
    return all(
        rows[i][c] > rows[i - 1][c] for i in range(1, len(rows)) for c in range(len(rows[i]))
    )


def transpose(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    return [[row[c] for row in rows if len(row) > c] for c in range(len(rows[0]))]


def read_marked_subset(rows: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """The marked subset of a hook-plus-column tableau, by the rule at cell (2, 2).

    The marker is the entry at (2, 2).  Its predecessor lies in the first
    row, and the subset is that row, or in the first column, and the subset
    is the first row past its first cell plus the marker.
    """
    marker = rows[1][1]
    if marker - 1 in rows[0]:
        return sorted(rows[0]), marker
    return sorted([marker, *rows[0][1:]]), marker


def round_trip_error(
    n: int,
    j: int,
    vertices: Sequence[int],
    marker: int,
    rows: Sequence[Sequence[int]],
    back: tuple[Sequence[int], int],
    duality: bool,
) -> str | None:
    """Why one marked subset -> tableau -> marked subset -> duality op is wrong, or None."""
    if [len(row) for row in rows] != list(hook_parts(n, j)) or not is_standard(rows):
        return f"tableau {rows} is not standard of shape {hook_parts(n, j)}"
    if read_marked_subset(rows) != (list(vertices), marker):
        return f"tableau {rows} does not read back as {list(vertices)}|{marker}"
    if (sorted(back[0]), back[1]) != (list(vertices), marker):
        return f"round trip returned {sorted(back[0])}|{back[1]}"
    complement = sorted(set(range(1, n + 1)) - set(vertices))
    if read_marked_subset(transpose(rows)) != (complement, marker):
        return "transpose does not give the complement with the same marker"
    if duality is not True:
        return f"transpose_duality_holds returned {duality!r}"
    return None
