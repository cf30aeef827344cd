"""The four workloads: what each op does, its seeded inputs, and its oracle check.

Every workload is a closed loop: one caller, one op at a time.
- table:  `cyclebetti table --n 10 --format json`, a fresh interpreter per op.
- cells:  single `betti(n, i, j)` and `linear_strand(n, j)` calls in one process.
- verify: `cyclebetti verify --n 10 --format json`, a fresh interpreter per op.
- maps:   single marked subset -> tableau -> marked subset -> duality round
          trips in one process, at n up to 2048.
"""

from __future__ import annotations

import json
import math
import random
from array import array

import cyclebetti as cb

from . import oracle

GOLDEN = (5**0.5 - 1) / 2
# n of the two CLI workloads.  An op at n = 10 takes about half a second,
# so a run holds dozens of them, each timed against the reference task
# next to it.  At n = 13 an op takes about 4 s and a run holds six.
CLI_N = 10


def spread_order(items: list, rng: random.Random) -> list:
    """Items sorted by cost, reordered so that every prefix spans the costs evenly.

    Item k goes to the rank of frac(u + k * golden ratio), a low-discrepancy
    sequence with a random offset u.  A run times a prefix of its inputs,
    and without this the cost mix of that prefix, and so the median op,
    would change from seed to seed.
    """
    u = rng.random()
    order = sorted(range(len(items)), key=lambda k: (u + k * GOLDEN) % 1)
    return [items[k] for k in order]


class CliWorkload:
    """One CLI command per op, each in a fresh interpreter, as a user runs it.

    A fresh process per op keeps any cache the library might hold from
    carrying over between ops: a CLI user gets one answer per process.
    """

    fresh_process = True

    def __init__(self, command: str, n: int) -> None:
        self.n = n
        self.argv = [command, "--n", str(n), "--format", "json"]
        self.expected = oracle.table_json(n) if command == "table" else oracle.verify_json(n)

    def inputs(self, rng: random.Random, passes: int) -> list[list[list[str]]]:
        return [[self.argv]] * passes

    def size_of(self, argv: list[str]) -> int:
        return self.n

    def check(self, returncode: int, stdout: bytes) -> str | None:
        if returncode != 0:
            return f"exit status {returncode}"
        try:
            document = json.loads(stdout)
        except ValueError:
            return f"stdout is not one JSON document: {stdout[:200]!r}"
        if document != self.expected:
            return f"output differs from the closed form: {json.dumps(document)[:200]}"
        return None


class CellsWorkload:
    """Single Betti-table cells and strand entries, n in `sizes`.

    Inputs are dealt from one deck of queries per n, with the n of each op
    taken in shuffled rounds.  Each deck holds every query once, in
    spread_order of its subset count: every query is uniform over its
    range, yet every seed covers the ranges evenly.
    """

    fresh_process = False

    def __init__(self, sizes: range = range(8, 15), count: int = 8192) -> None:
        self.sizes = sizes
        self.count = count

    def inputs(self, rng: random.Random, passes: int) -> list[list[tuple]]:
        """One stream, replayed by every pass."""
        decks: dict[int, list[tuple]] = {n: [] for n in self.sizes}
        out: list[tuple] = []
        while len(out) < self.count:
            order = list(self.sizes)
            rng.shuffle(order)
            for n in order:
                if not decks[n]:
                    decks[n] = [("betti", n, i, j) for j in range(n + 1) for i in range(j + 1)]
                    decks[n] += [("strand", n, j) for j in range(2, n - 1)]
                    rng.shuffle(decks[n])
                    decks[n].sort(key=lambda query: math.comb(query[1], query[-1]))
                    decks[n] = spread_order(decks[n], rng)
                out.append(decks[n].pop())
        return [out[: self.count]] * passes

    def size_of(self, query: tuple) -> int:
        return query[1]

    def call(self, query: tuple) -> int:
        if query[0] == "betti":
            return cb.betti(*query[1:])
        return cb.linear_strand(*query[1:])

    def check(self, query: tuple, answer: int) -> str | None:
        expected = oracle.betti(*query[1:]) if query[0] == "betti" else oracle.strand(*query[1:])
        if type(answer) is not int or answer != expected:
            return f"{query}: got {answer!r}, closed form {expected}"
        return None


class MapsWorkload:
    """Single round trips at large n, the path sampled verification runs.

    n is log-uniform in low..high and j uniform in 2..n-2, both stratified
    over the pool, with n in spread_order, so that every seed spans the
    ranges evenly.  The subset is a uniform j-subset with at least two arcs
    and the marker is uniform among its admissible ones.
    """

    fresh_process = False

    def __init__(self, low: int = 64, high: int = 2048, count: int = 1024) -> None:
        self.low, self.high, self.count = low, high, count

    def inputs(self, rng: random.Random, passes: int) -> list[list[tuple]]:
        """One pool per pass: the same (n, j) sequence, a fresh subset and marker each time.

        No pass repeats an earlier exact input, so nothing the library might
        memoise carries over from one pass to the next.
        """
        j_strata = list(range(self.count))
        rng.shuffle(j_strata)
        sizes = []
        for k in range(self.count):
            u = (k + rng.random()) / self.count
            n = min(self.high, max(self.low, round(self.low * (self.high / self.low) ** u)))
            v = (j_strata[k] + rng.random()) / self.count
            sizes.append((n, 2 + math.floor(v * (n - 3))))
        sizes = spread_order(sizes, rng)
        pools = []
        for _ in range(passes):
            pool = []
            for n, j in sizes:
                vertices, marker = oracle.random_marked_subset(rng, n, j)
                pool.append((n, j, array("H", vertices), marker))
            pools.append(pool)
        return pools

    def size_of(self, item: tuple) -> int:
        return item[0]

    def call(self, item: tuple) -> tuple:
        n, j, vertices, marker = item
        tableau = cb.marked_subset_to_tableau(n, j, vertices, marker)
        back = cb.tableau_to_marked_subset(tableau)
        return tableau, back, cb.transpose_duality_holds(tableau)

    def check(self, item: tuple, out: tuple) -> str | None:
        n, j, vertices, marker = item
        tableau, back, duality = out
        return oracle.round_trip_error(
            n, j, list(vertices), marker, tableau.rows, (back.vertices, back.marker), duality
        )


def build(name: str):
    """The workload as the benchmark runs it."""
    if name == "table":
        return CliWorkload("table", CLI_N)
    if name == "verify":
        return CliWorkload("verify", CLI_N)
    if name == "cells":
        return CellsWorkload()
    if name == "maps":
        return MapsWorkload()
    raise ValueError(f"unknown workload {name!r}")
