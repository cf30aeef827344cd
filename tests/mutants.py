"""Replay a fixed table of mutants against the test modules that must kill them.

Each entry names a file under src/cyclebetti, an exact snippet that occurs in it
once, the snippet's replacement, and the test modules expected to fail on the
result.  The script copies src/, tests/ and pyproject.toml into a temporary
directory, checks that the named modules pass there unmutated, then applies one
mutant at a time and runs `python -m pytest -x -q -m "not hypothesis"` on its
modules.  Hypothesis's pytest plugin marks every @given test `hypothesis`, so
both runs leave those tests out: a kill comes from a fixed test and is the same
in every run, never from a lucky draw.  A mutant the modules pass (a survivor),
a run that selects no test (pytest exit status 5), or a snippet not found
exactly once (a stale entry) fails the run; a stale entry is to be updated,
never skipped.  A change that adds a fast path or a comparison adds its mutants
here.

Standard library only.  Run from the repository root:

    python tests/mutants.py

Exit status 0 when every mutant is killed, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300  # a mutant that hangs its tests is counted as killed, and said to time out
NO_TESTS = 5  # pytest's exit status when it selects no test: nothing ran, so nothing was killed


class Mutant(NamedTuple):
    file: str  # relative to src/cyclebetti
    snippet: str
    replacement: str
    modules: tuple[str, ...]  # relative to tests/


MUTANTS = [
    # the verifier compares keys only: a forward image outside the enumeration is listed,
    Mutant(
        "bijection.py",
        "for v in forward if v not in preimage]",
        "for v in forward if v not in forward]",
        ("test_bijection.py",),
    ),
    # each round trip holds only when it comes back to the very key it started from,
    Mutant(
        "bijection.py",
        "if (back := preimage.get(pair)) != hook:",
        "if (back := preimage.get(pair)) is None:",
        ("test_bijection.py",),
    ),
    Mutant(
        "bijection.py",
        "if (back_pair := image.get(back, back)) != pair:",
        "if (back_pair := image.get(back, back)) is None:",
        ("test_bijection.py",),
    ),
    # both images in a duality check must be enumerated pairs,
    Mutant(
        "bijection.py",
        "pair in preimage and pair_t in conjugate[1] and _transpose_complements",
        "_transpose_complements",
        ("test_bijection.py",),
    ),
    Mutant("bijection.py", "pair in preimage and pair_t", "pair_t", ("test_bijection.py",)),
    Mutant(
        "bijection.py",
        "pair_t in conjugate[1] and _transpose_complements",
        "pair_t is not None and _transpose_complements",
        ("test_bijection.py",),
    ),
    # and a read that an enumerated marked subset has is that subset's own pair object.
    Mutant(
        "bijection.py",
        "marked.get(pair := _read(hook), pair)",
        "_read(hook)",
        ("test_bijection.py",),
    ),
    # the duality check reads the tableau's own hook through the predecessor's branch, and the
    # transposed hook, and the transpose's read is the complement (sizes summing to n, disjoint)
    # with the marker
    Mutant(
        "bijection.py",
        "_read(tableau.hook), *_read",
        "(frozenset(tableau.hook[0]), tableau.hook[2]), *_read",
        ("test_bijection.py",),
    ),
    Mutant(
        "bijection.py",
        "_read(_transposed_hook(tableau.hook))",
        "_read(tableau.hook)",
        ("test_bijection.py",),
    ),
    Mutant("bijection.py", "len(subset) + len(pair[0]) == n and ", "", ("test_bijection.py",)),
    Mutant("bijection.py", "subset.isdisjoint(pair[0]) and ", "", ("test_bijection.py",)),
    Mutant("bijection.py", " and marker == pair[1]", "", ("test_bijection.py",)),
    # the forward read: the predecessor is bisected for, and the row past (1, 1) joins the marker
    Mutant(
        "bijection.py",
        "bisect_left(row, marker - 1), bisect_left",
        "bisect_left(row, marker), bisect_left",
        ("test_bijection.py",),
    ),
    Mutant(
        "bijection.py",
        "return frozenset((marker, *row[1:])), marker",
        "return frozenset((marker, *row)), marker",
        ("test_bijection.py",),
    ),
    # the rebuilt hook: the side without vertex 1 holds the marker, and 1 heads both lines
    Mutant(
        "bijection.py",
        "side = outside if 1 in vs else inside",
        "side = inside if 1 in vs else outside",
        ("test_bijection.py",),
    ),
    Mutant("bijection.py", "side.insert(0, 1)", "side.append(1)", ("test_bijection.py",)),
    # each validating constructor runs its check: a hand-written __init__ that forgets it is caught
    Mutant(
        "tableaux.py",
        'object.__setattr__(self, "parts", parts)\n        self.__post_init__()',
        'object.__setattr__(self, "parts", parts)',
        ("test_tableaux.py",),
    ),
    Mutant(
        "tableaux.py",
        'object.__setattr__(self, "corner", corner)\n        self.__post_init__()',
        'object.__setattr__(self, "corner", corner)',
        ("test_tableaux.py",),
    ),
    Mutant(
        "cycle.py",
        'object.__setattr__(self, "marker", marker)\n        self.__post_init__()',
        'object.__setattr__(self, "marker", marker)',
        ("test_cycle.py",),
    ),
    Mutant(
        "homology.py",
        'object.__setattr__(self, "rows", rows)\n        self.__post_init__()',
        'object.__setattr__(self, "rows", rows)',
        ("test_homology.py",),
    ),
    Mutant(
        "homology.py",
        'object.__setattr__(self, "faces", faces)\n        self.__post_init__()',
        'object.__setattr__(self, "faces", faces)',
        ("test_homology.py",),
    ),
    # and no field can be deleted
    Mutant(
        "errors.py",
        'raise FrozenInstanceError(f"cannot delete field {name!r}")',
        "object.__delattr__(self, name)",
        ("test_validators.py",),
    ),
    # the generic complex: its size is an int, and each label an int, typed before a frozenset
    # merges 1 and 1.0
    Mutant("homology.py", "if type(n) is not int or n < 0:", "if n < 0:", ("test_validators.py",)),
    Mutant("homology.py", "if type(v) is not int or not 1 <= v <= n}", "if not 1 <= v <= n}", ("test_validators.py",)),
    # the Tableau validator: the corner exceeds the entry above it, no entry exceeds n
    Mutant(
        "tableaux.py",
        "if corner < row[1] or scol != list(column):",
        "if scol != list(column):",
        ("test_tableaux.py",),
    ),
    Mutant("tableaux.py", "and max(srow[-1], scol[-1]) <= n and ", "and ", ("test_tableaux.py",)),
    # the MarkedSubset validator: the marker is a vertex, on the side avoiding vertex 1, with its
    # predecessor off that side, and no smaller arc minimum on it
    Mutant("cycle.py", "m <= n and (m in vs)", "(m in vs)", ("test_cycle.py",)),
    Mutant("cycle.py", "and not side_misses(range(1, m))", "and True", ("test_cycle.py",)),
    Mutant("cycle.py", "(m - 1 in vs) == has_one", "True", ("test_cycle.py",)),
    # the admissible markers: no arc starts past n, and the smallest marker is left out
    Mutant(
        "cycle.py",
        "sorted(v + 1 for v in vs if v < n and v + 1 not in vs)[1:]",
        "sorted(v + 1 for v in vs if v + 1 not in vs)[1:]",
        ("test_cycle.py",),
    ),
    Mutant(
        "cycle.py",
        "return sorted(vs.difference(map((1).__add__, vs)))[1:]",
        "return sorted(vs.difference(map((1).__add__, vs)))",
        ("test_cycle.py",),
    ),
    # the elimination: every column that stays nonzero is kept, a one-entry column too; a column
    # whose last row keys a kept column is reduced against it, a one-entry column too; and each
    # kept column is keyed by its own last row.  No mutant stops the cancellation, which would
    # loop forever, and the division by the gcd changes the size of the entries but no rank.
    Mutant("homology.py", "        if column:\n", "        if len(column) > 1:\n", ("test_homology.py",)),
    Mutant("homology.py", "in kept:", "in kept and len(column) > 1:", ("test_homology.py",)),
    Mutant("homology.py", "kept[last] = column", "kept[last - 1] = column", ("test_homology.py",)),
    # the n-cycle's incidence: edge n closes the cycle at vertices 1 and n, with signs -1 and +1
    Mutant("homology.py", "{0: -1, n - 1: 1}]", "{1: -1, n - 1: 1}]", ("test_homology.py",)),
    Mutant("homology.py", "{k: -1, k + 1: 1}", "{k: 1, k + 1: 1}", ("test_homology.py",)),
    # a graph's homology: one face in degree -1, then the vertices, then the edges
    Mutant(
        "homology.py",
        "faces = (1, vertices, edges)",
        "faces = (1, edges, vertices)",
        ("test_hochster.py",),
    ),
    # the Betti columns: the strand in the degree-0 slot, k = 1; the empty subset's and the whole
    # cycle's own ranks, with as many edges as vertices, and neither end reaches the strand
    Mutant("hochster.py", "[0, _strand(n, j), 0]", "[_strand(n, j), 0, 0]", ("test_hochster.py",)),
    Mutant("hochster.py", "augmentation[j], incidence[j])", "1, incidence[j])", ("test_hochster.py",)),
    Mutant("hochster.py", "augmentation[j], incidence[j])", "augmentation[j], j)", ("test_hochster.py",)),
    Mutant("hochster.py", "_graph_homology(j, j, ", "_graph_homology(j, j - 1, ", ("test_hochster.py",)),
    Mutant("hochster.py", "ends[j] if j in ends else", "ends[j] if j == 0 else", ("test_hochster.py",)),
    # the strand's closed form: n arc starts, each with its other j - 1 members among n - 2
    # vertices, less one per j-subset
    Mutant("hochster.py", "comb(n - 2, j - 1)", "comb(n - 1, j - 1)", ("test_hochster.py",)),
    Mutant("hochster.py", "comb(n - 2, j - 1)", "comb(n - 2, j)", ("test_hochster.py",)),
    Mutant("hochster.py", "n * comb(", "(n - 1) * comb(", ("test_hochster.py",)),
    Mutant("hochster.py", " - comb(n, j)", " - comb(n - 1, j)", ("test_hochster.py",)),
    Mutant("hochster.py", " - comb(n, j)", " - comb(n, j - 1)", ("test_hochster.py",)),
    # the path gate: every path on 1..n-1 vertices is checked, and a path that is not acyclic raises
    Mutant("hochster.py", "for m in range(1, n):", "for m in range(1, n - 1):", ("test_hochster.py",)),
    Mutant("hochster.py", "if any(path := ", "if False and any(path := ", ("test_hochster.py",)),
    # the command line's one rejection boundary: status 2, an "Error: " line, and every library
    # input error caught; a reader that closes stdout early ends the run with status 1
    Mutant("cli.py", "sys.exit(2)", "sys.exit(1)", ("test_cli.py",)),
    Mutant("cli.py", 'print(f"Error: {exc}"', 'print(f"{exc}"', ("test_cli.py",)),
    Mutant(
        "cli.py",
        "TableauParseError, TableauValidationError) as exc:",
        "TableauParseError) as exc:",
        ("test_cli.py",),
    ),
    Mutant(
        "cli.py",
        "sys.stdout.fileno())\n        sys.exit(1)",
        "sys.stdout.fileno())\n        sys.exit(0)",
        ("test_cli.py",),
    ),
]


def pytest_run(workdir: Path, modules: tuple[str, ...]) -> subprocess.CompletedProcess:
    """`pytest -x -q` on the fixed tests of the named modules of the copy, importing the copy's library."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-m", "not hypothesis"]
    command += [str(workdir / "tests" / module) for module in modules]
    return subprocess.run(
        command, cwd=workdir, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
    )


def last_line(output: str) -> str:
    lines = output.strip().splitlines()
    return lines[-1] if lines else "(no output)"


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="cyclebetti-mutants-") as tmp:
        workdir = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, workdir / name, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", workdir)

        modules = tuple(sorted({module for mutant in MUTANTS for module in mutant.modules}))
        baseline = pytest_run(workdir, modules)
        if baseline.returncode != 0:
            print(f"unmutated tests fail, nothing to compare: {last_line(baseline.stdout)}")
            return 1

        failures = 0
        for number, mutant in enumerate(MUTANTS, 1):
            path = workdir / "src" / "cyclebetti" / mutant.file
            original = path.read_text()
            label = f"{number:2d} {mutant.file}: {mutant.snippet!r} -> {mutant.replacement!r}"
            found = original.count(mutant.snippet)
            if found != 1:
                print(f"STALE    {label} (snippet found {found} times)")
                failures += 1
                continue
            path.write_text(original.replace(mutant.snippet, mutant.replacement))
            try:
                result = pytest_run(workdir, mutant.modules)
                verdict = {0: "SURVIVED", NO_TESTS: "NO TESTS"}.get(result.returncode, "killed")
                detail = last_line(result.stdout)
            except subprocess.TimeoutExpired:
                verdict, detail = "killed", f"timed out after {TIMEOUT_S} s"
            finally:
                path.write_text(original)
            failures += verdict != "killed"
            print(f"{verdict:8} {label}\n         {detail}")
        print(f"{len(MUTANTS)} mutants, {failures} survived, stale or selecting no test")
        return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
