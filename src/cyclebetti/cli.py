"""Command-line interface, on the standard library's argparse.

Subcommands cover the Betti table, both directions of the bijection, the
exhaustive verifier, and tableau enumeration.  Data goes to stdout in
text, json, or csv, and _emit alone holds the format rules; the lines
printed elsewhere are the single results of map and unmap, the two
non-grid text outputs of syt, and verify's text summary line.
Diagnostics go to stderr; main alone turns a rejected command line or
input into one "Error: <text>" line.  Exit status is 0 when all requested
checks pass, 1 when a verification fails, the run is interrupted or the
reader closes stdout early, and 2 for usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter

# each route is reached through its module at call time, so a command runs only the modules it uses
from . import bijection, hochster, tableaux
from .errors import (
    MAX_CYCLE_SIZE,
    DomainError,
    InvalidMarkedSubsetError,
    TableauParseError,
    TableauValidationError,
)

FORMATS = ("text", "json", "csv")
VERIFY_MAX = 14  # tableau counts explode combinatorially past this (verify and syt)


class UsageError(Exception):
    """A rejected command line; main prints it after "Error: " and exits with status 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # never returns
        raise UsageError(message)


def _emit(
    fmt: str, document: dict[str, object], columns: list[str], records: list[dict[str, object]]
) -> None:
    """Write one command's data to stdout in the requested format.

    json is the whole document on one line.  csv is a header, then one row
    per record with a missing value left empty.  text is a right-aligned
    grid with a missing value shown as "-".  csv and text take only the
    named columns of each record.
    """
    if fmt == "json":
        import json  # only json output needs it
        print(json.dumps(document))
    elif fmt == "csv":
        import csv  # only csv output needs it
        writer = csv.DictWriter(sys.stdout, columns, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)  # csv writes None as an empty field
    else:
        grid = [columns] + [["-" if r[c] is None else str(r[c]) for c in columns] for r in records]
        widths = [max(map(len, column)) for column in zip(*grid)]
        for row in grid:
            print("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))


def cmd_table(n: int, fmt: str) -> None:
    """Print the nonzero graded Betti numbers of the n-cycle.

    Every cell comes from Hochster's formula.  Homology is computed for
    every path, the empty subset and the whole cycle from the ranks of the
    cycle's boundary maps; once every path is acyclic, each subset with c
    arcs adds c - 1 to the strand, a sum counted in closed form by the
    arcs' first vertices.  Linear strand rows also carry the count of
    standard tableaux of the matching hook-plus-column shape, which equals
    the Betti number.
    """
    records = []
    for (i, j), value in hochster.betti_table(n).nonzero().items():
        on_strand = i == j - 1 and 2 <= j <= n - 2
        syt = tableaux.hook_length_count(tableaux.hook_shape(n, j)) if on_strand else None
        records.append({"i": i, "j": j, "betti": value, "syt": syt})
    _emit(fmt, {"n": n, "entries": records}, ["i", "j", "betti", "syt"], records)


def cmd_map(tableau_text: str) -> None:
    """Map a standard tableau to its marked subset.

    TABLEAU_TEXT uses ';' between rows and ',' between entries, for
    example "1,2;3,4;5".  The output looks like "{2,4}|4".
    """
    print(bijection.format_marked_subset(bijection.tableau_to_marked_subset(tableaux.parse_tableau(tableau_text))))


def cmd_unmap(n: int, j: int, subset_text: str, marker: int) -> None:
    """Rebuild the standard tableau for a marked subset."""
    tokens = [token.strip() for token in subset_text.split(",")]
    try:
        vertices = [int(tok) for tok in tokens if tok]
    except ValueError:
        raise UsageError(f'--set expects comma-separated integers, got {subset_text!r}')
    if tokens != [""] and "" in tokens:  # a blank --set is the empty subset, rejected below
        raise UsageError(f"--set has an empty entry, got {subset_text!r}")
    repeated = sorted(v for v, count in Counter(vertices).items() if count > 1)
    if repeated:
        raise UsageError(f"--set repeats vertices {repeated}, got {subset_text!r}")
    print(tableaux.format_tableau(bijection.marked_subset_to_tableau(n, j, vertices, marker)))


def _parse_size_range(text: str) -> tuple[int, int]:
    try:  # a third piece, like a piece that is no integer, raises ValueError
        low, high = map(int, text.split("..")) if ".." in text else (int(text),) * 2
    except ValueError:
        raise UsageError(f'--n expects "N" or "LOW..HIGH", got {text!r}')
    if 4 <= high < low <= VERIFY_MAX:
        raise UsageError(f"--n range is empty: LOW exceeds HIGH, got {text!r}")
    if not 4 <= low <= high <= VERIFY_MAX:
        raise UsageError(f"--n must lie within 4..{VERIFY_MAX}, got {text!r}")
    return low, high


def cmd_verify(size_range: str, fmt: str) -> None:
    """Exhaustively check the bijection and transpose duality.

    For every size in the range and every subset size j, checks that the
    forward map is a bijection onto the marked subsets, that both round
    trips are the identity, and that transposing complements the subset.
    Exit status 0 when everything passes, 1 otherwise.
    """
    low, high = _parse_size_range(size_range)
    reports = [report for n in range(low, high + 1) for report in bijection.verify_cycle(n)]
    all_passed = all(report.passed and report.duality_holds for report in reports)
    records = [
        {
            "n": report.n,
            "j": report.j,
            "tableaux": report.tableau_count,
            "marked": report.marked_count,
            "bijection": "pass" if report.passed else "FAIL",
            "duality": "pass" if report.duality_holds else "FAIL",
            "mismatches": report.mismatches,
        }
        for report in reports
    ]
    columns = ["n", "j", "tableaux", "marked", "bijection", "duality"]
    _emit(fmt, {"results": records, "passed": all_passed}, columns, records)
    if fmt != "json":  # json carries the mismatches in its document
        for report in reports:
            for mismatch in report.mismatches:
                print(f"  {mismatch}", file=sys.stderr)
    if fmt == "text":
        print("all checks passed" if all_passed else "CHECKS FAILED")
    if not all_passed:
        sys.exit(1)


def cmd_syt(n: int, j: int, count_only: bool, fmt: str) -> None:
    """List the standard tableaux of shape (j, 2, 1, ..., 1) on n cells.

    Output order is canonical: lexicographic on the row-major reading
    word.  With --count-only, both the enumerated count and the
    hook-length-formula count are printed so they can be compared.
    """
    if n > VERIFY_MAX:
        raise UsageError(f"--n must be at most {VERIFY_MAX}, got {n}")
    shape = tableaux.hook_shape(n, j)
    listing = tableaux.enumerate_standard_tableaux(shape)
    if count_only:
        counts = {"enumerated": len(listing), "hook_length": tableaux.hook_length_count(shape)}
        document, columns, records = {"n": n, "j": j, **counts}, list(counts), [counts]
        lines = [f"{counts['enumerated']} {counts['hook_length']}"]
    else:
        lines = [tableaux.format_tableau(t) for t in listing]
        document = {"n": n, "j": j, "tableaux": lines}
        columns, records = ["tableau"], [{"tableau": text} for text in lines]
    if fmt == "text":  # neither text output is a grid
        for line in lines:
            print(line)
    else:
        _emit(fmt, document, columns, records)


def _parser(prog: str) -> argparse.ArgumentParser:
    """Every command, its options and its help, with each command's function as its default."""
    parser = _Parser(prog=prog, description=main.__doc__, allow_abbrev=False)
    commands = parser.add_subparsers(required=True, metavar="COMMAND")
    for function in (cmd_table, cmd_map, cmd_unmap, cmd_verify, cmd_syt):
        name, doc = function.__name__.removeprefix("cmd_"), function.__doc__ or ""
        sub = commands.add_parser(name, help=doc.split("\n")[0], description=doc, allow_abbrev=False)
        sub.set_defaults(command=function)
    table, map_, unmap, verify, syt = commands.choices.values()
    table.add_argument("--n", type=int, required=True, help=f"Cycle size, 4..{MAX_CYCLE_SIZE}.")
    map_.add_argument("tableau_text", metavar="TABLEAU_TEXT")
    unmap.add_argument("--n", type=int, required=True, help="Cycle size.")
    unmap.add_argument("--j", type=int, required=True, help="Subset size.")
    unmap.add_argument("--set", dest="subset_text", required=True, help='Vertex subset, e.g. "2,4,6".')
    unmap.add_argument("--a", dest="marker", type=int, required=True, help="Marker, admissible for the subset.")
    range_help = f'Cycle size or range, e.g. "6" or "5..8" (4..{VERIFY_MAX}).'
    verify.add_argument("--n", dest="size_range", required=True, help=range_help)
    syt.add_argument("--n", type=int, required=True, help=f"Number of cells, 4..{VERIFY_MAX}.")
    syt.add_argument("--j", type=int, required=True, help="First row length, 2..n-2.")
    syt.add_argument("--count-only", action="store_true", help="Print the enumerated and hook-length counts only.")
    for sub in (table, verify, syt):
        sub.add_argument("--format", dest="fmt", choices=FORMATS, default="text", help="Default: text.")
    return parser


def main(args: list[str] | None = None, prog_name: str = "cyclebetti") -> None:
    """Exact Betti numbers of cycle graphs and the tableau bijection behind them."""
    try:
        options = vars(_parser(prog_name).parse_args(args))
        options.pop("command")(**options)
        sys.stdout.flush()  # a reader that closed stdout early is met here, not at interpreter exit
    except (UsageError, DomainError, InvalidMarkedSubsetError, TableauParseError, TableauValidationError) as exc:
        print(f"Error: {exc}", file=sys.stderr)
        sys.exit(2)
    except BrokenPipeError:  # nothing on stderr; stdout goes to devnull so the flush at exit succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        sys.exit(1)


main.main, main.name = main, "cyclebetti"  # the interface click's CliRunner calls in the tests


if __name__ == "__main__":
    main()
