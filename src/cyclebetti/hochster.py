"""Graded Betti numbers of cycle graphs via Hochster's formula.

The Betti number in homological degree i and internal degree j is the sum,
over all vertex subsets W of size j, of the dimension of reduced homology
in degree j - i - 1 of the restriction to W.  Rotations are automorphisms
of the cycle, so rotated subsets have restrictions with equal homology:
the full table computes one subset per rotation orbit, weighted by the
orbit's size, and single cells scan their own subsets.  Every dimension is
computed from boundary matrices; no vanishing is assumed anywhere, and the
familiar shape of the answer (two corner entries and one linear strand) is
something the test suite checks, never an input.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .cycle import restrict
from .errors import DomainError
from .homology import cycle_reduced_homology

# A full table visits about 2**n / n rotation orbits, which at this size is
# a few seconds of exact rank computations.
MAX_CYCLE_SIZE = 20


def _check_size(n: int, minimum: int) -> None:
    if not minimum <= n <= MAX_CYCLE_SIZE:
        raise DomainError(f"supported cycle sizes are {minimum}..{MAX_CYCLE_SIZE}, got n={n}")


def betti(n: int, i: int, j: int) -> int:
    """One graded Betti number of the n-cycle, summed over all j-subsets."""
    _check_size(n, minimum=3)
    if not 0 <= i <= j <= n:
        raise DomainError(f"need 0 <= i <= j <= n, got i={i}, j={j}, n={n}")
    degree = (j - i - 1,)
    return sum(
        cycle_reduced_homology(n, subset, degree)[0]
        for subset in itertools.combinations(range(1, n + 1), j)
    )


def rotation_orbits(n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """One vertex subset per rotation orbit of the n-cycle, with the orbit's size.

    The subsets are the binary necklaces of length n (vertex v present when
    bit v is 1), generated by the Fredricksen-Kessler-Maiorana algorithm in
    the form of Ruskey, Savage and Wang.  A necklace is a Lyndon word of
    length p repeated n / p times, and its orbit size is that smallest
    period p.
    """
    _check_size(n, minimum=3)
    word = [0] * (n + 1)  # word[1..n]; word[0] is unused
    period = 1
    while True:
        if n % period == 0:
            yield tuple(v for v in range(1, n + 1) if word[v]), period
        period = n
        while period and word[period]:
            period -= 1
        if not period:
            return
        word[period] = 1
        for v in range(period + 1, n + 1):
            word[v] = word[v - period]


@dataclass
class BettiTable:
    """Every graded Betti number of one cycle, indexed by (i, j)."""

    n: int
    entries: dict[tuple[int, int], int]

    def __getitem__(self, key: tuple[int, int]) -> int:
        return self.entries[key]

    def nonzero(self) -> dict[tuple[int, int], int]:
        """The nonzero cells in (i, j) order."""
        return {key: value for key, value in sorted(self.entries.items()) if value}


def betti_table(n: int) -> BettiTable:
    """The full table for 0 <= i <= j <= n, in one pass over rotation orbits.

    Each orbit representative W of size j has its reduced homology computed
    in every degree -1..j-1 at once, and the orbit size times the degree
    j - i - 1 dimension goes into cell (i, j) for every i = 0..j.
    """
    _check_size(n, minimum=4)
    entries = {(i, j): 0 for j in range(n + 1) for i in range(j + 1)}
    for subset, orbit_size in rotation_orbits(n):
        j = len(subset)
        dims = cycle_reduced_homology(n, subset, range(-1, j))
        for i in range(j + 1):
            entries[i, j] += orbit_size * dims[j - i]
    return BettiTable(n, entries)


def linear_strand(n: int, j: int) -> int:
    """The strand entry at (j - 1, j) by component counting alone.

    Disconnected restrictions contribute their component count minus one,
    and connected ones contribute nothing, so no homology machinery is
    needed.  This is the fast, independent route to the numbers the
    homology sum produces on the strand.
    """
    _check_size(n, minimum=4)
    if not 2 <= j <= n - 2:
        raise DomainError(f"the linear strand covers 2 <= j <= n-2, got j={j}, n={n}")
    return sum(
        restrict(n, subset).component_count - 1
        for subset in itertools.combinations(range(1, n + 1), j)
    )
