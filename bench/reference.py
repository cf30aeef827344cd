"""A fixed pure-Python task that shows how fast the host runs Python right now.

    python3 bench/reference.py    # one task in a fresh interpreter

On a shared host the speed of the same code swings by a third or more
over minutes, and the fastest op of a run moves with it.  The benchmark
times this task next to its ops and reports op time as a multiple of it,
which cancels most of that swing.  It uses the standard library only, so
no change to cyclebetti changes its time.  Its mix of small tuples,
sorting, hashing and dict updates is the mix the library's loops run.
"""

# About 5 ms in the benchmark's own process.
IN_PROCESS_ROUNDS = 1500
# About 85 ms with interpreter start, next to a CLI op of about half a second.
FRESH_ROUNDS = 8000


def reference(rounds: int) -> int:
    seen: dict[tuple[int, ...], int] = {}
    total = 0
    for k in range(rounds):
        key = tuple(sorted((k * 7919 + i * 31) % 97 for i in range(6)))
        seen[key] = seen.get(key, 0) + 1
        total += len(frozenset(key)) + sum(key) % 7
    return total + len(seen)


if __name__ == "__main__":
    reference(FRESH_ROUNDS)
