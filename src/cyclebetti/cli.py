"""Command-line interface.

Subcommands cover the Betti table, both directions of the bijection, the
exhaustive verifier, and tableau enumeration.  Data goes to stdout in
text, json, or csv, and _emit alone holds the format rules; the lines
echoed elsewhere are the single results of map and unmap, the two
non-grid text outputs of syt, and verify's text summary line.
Diagnostics go to stderr.  Exit status is 0 when all requested checks
pass, 1 when a verification fails, and 2 for usage errors.
"""

from __future__ import annotations

import io
import json
import sys
from collections import Counter
from typing import Any

import click

from .bijection import (
    format_marked_subset,
    marked_subset_to_tableau,
    tableau_to_marked_subset,
    verify_cycle,
)
from .errors import (
    DomainError,
    InvalidMarkedSubsetError,
    TableauParseError,
    TableauValidationError,
)
from .hochster import MAX_CYCLE_SIZE, betti_table
from .tableaux import (
    enumerate_standard_tableaux,
    format_tableau,
    hook_length_count,
    hook_shape,
    parse_tableau,
)

FORMATS = click.Choice(["text", "json", "csv"])
VERIFY_MAX = 14  # tableau counts explode combinatorially past this (verify and syt)


def _emit(
    fmt: str, document: dict[str, Any], columns: list[str], records: list[dict[str, Any]]
) -> None:
    """Write one command's data to stdout in the requested format.

    json is the whole document on one line.  csv is a header, then one row
    per record with a missing value left empty.  text is a right-aligned
    grid with a missing value shown as "-".  csv and text take only the
    named columns of each record.
    """
    if fmt == "json":
        click.echo(json.dumps(document))
    elif fmt == "csv":
        import csv  # only csv output needs it
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, columns, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)  # csv writes None as an empty field
        click.echo(buffer.getvalue(), nl=False)
    else:
        grid = [columns] + [["-" if r[c] is None else str(r[c]) for c in columns] for r in records]
        widths = [max(map(len, column)) for column in zip(*grid)]
        for row in grid:
            click.echo("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))


@click.group()
def main() -> None:
    """Exact Betti numbers of cycle graphs and the tableau bijection behind them."""


@main.command(name="table")
@click.option("--n", "n", type=int, required=True, help=f"Cycle size, 4..{MAX_CYCLE_SIZE}.")
@click.option("--format", "fmt", type=FORMATS, default="text", show_default=True)
def cmd_table(n: int, fmt: str) -> None:
    """Print the nonzero graded Betti numbers of the n-cycle.

    Every cell comes from Hochster's formula.  Homology is computed for
    every path, the empty subset and the whole cycle from the ranks of the
    cycle's boundary maps; once every path is acyclic, each subset with c
    arcs adds c - 1 to the strand, by a closed count.  Linear strand rows
    also carry the count of standard tableaux of the matching
    hook-plus-column shape, which equals the Betti number.
    """
    try:
        table = betti_table(n)
    except DomainError as exc:
        raise click.UsageError(str(exc)) from exc
    records = []
    for (i, j), value in table.nonzero().items():
        on_strand = i == j - 1 and 2 <= j <= n - 2
        records.append(
            {
                "i": i,
                "j": j,
                "betti": value,
                "syt": hook_length_count(hook_shape(n, j)) if on_strand else None,
            }
        )
    _emit(fmt, {"n": n, "entries": records}, ["i", "j", "betti", "syt"], records)


@main.command(name="map")
@click.argument("tableau_text")
def cmd_map(tableau_text: str) -> None:
    """Map a standard tableau to its marked subset.

    TABLEAU_TEXT uses ';' between rows and ',' between entries, for
    example "1,2;3,4;5".  The output looks like "{2,4}|4".
    """
    try:
        ms = tableau_to_marked_subset(parse_tableau(tableau_text))
    except (TableauParseError, TableauValidationError, InvalidMarkedSubsetError) as exc:
        raise click.UsageError(str(exc)) from exc
    click.echo(format_marked_subset(ms))


@main.command(name="unmap")
@click.option("--n", "n", type=int, required=True, help="Cycle size.")
@click.option("--j", "j", type=int, required=True, help="Subset size.")
@click.option("--set", "subset_text", required=True, help='Vertex subset, e.g. "2,4,6".')
@click.option("--a", "marker", type=int, required=True, help="Marker; must be admissible for the subset.")
def cmd_unmap(n: int, j: int, subset_text: str, marker: int) -> None:
    """Rebuild the standard tableau for a marked subset."""
    tokens = [token.strip() for token in subset_text.split(",")]
    try:
        vertices = [int(tok) for tok in tokens if tok]
    except ValueError:
        raise click.UsageError(f'--set expects comma-separated integers, got {subset_text!r}')
    if tokens != [""] and "" in tokens:  # a blank --set is the empty subset, rejected below
        raise click.UsageError(f"--set has an empty entry, got {subset_text!r}")
    repeated = sorted(v for v, count in Counter(vertices).items() if count > 1)
    if repeated:
        raise click.UsageError(f"--set repeats vertices {repeated}, got {subset_text!r}")
    try:
        tableau = marked_subset_to_tableau(n, j, vertices, marker)
    except (InvalidMarkedSubsetError, DomainError) as exc:
        raise click.UsageError(str(exc)) from exc
    click.echo(format_tableau(tableau))


def _parse_size_range(text: str) -> tuple[int, int]:
    pieces = text.split("..")
    try:
        if len(pieces) == 1:
            low = high = int(pieces[0])
        elif len(pieces) == 2:
            low, high = int(pieces[0]), int(pieces[1])
        else:
            raise ValueError
    except ValueError:
        raise click.UsageError(f'--n expects "N" or "LOW..HIGH", got {text!r}')
    if not 4 <= low <= high <= VERIFY_MAX:
        raise click.UsageError(f"--n must lie within 4..{VERIFY_MAX}, got {text!r}")
    return low, high


@main.command(name="verify")
@click.option("--n", "size_range", required=True, help=f'Cycle size or range, e.g. "6" or "5..8" (4..{VERIFY_MAX}).')
@click.option("--format", "fmt", type=FORMATS, default="text", show_default=True)
def cmd_verify(size_range: str, fmt: str) -> None:
    """Exhaustively check the bijection and transpose duality.

    For every size in the range and every subset size j, checks that the
    forward map is a bijection onto the marked subsets, that both round
    trips are the identity, and that transposing complements the subset.
    Exit status 0 when everything passes, 1 otherwise.
    """
    low, high = _parse_size_range(size_range)
    reports = [report for n in range(low, high + 1) for report in verify_cycle(n)]
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
                click.echo(f"  {mismatch}", err=True)
    if fmt == "text":
        click.echo("all checks passed" if all_passed else "CHECKS FAILED")
    if not all_passed:
        sys.exit(1)


@main.command(name="syt")
@click.option("--n", "n", type=int, required=True, help=f"Number of cells, 4..{VERIFY_MAX}.")
@click.option("--j", "j", type=int, required=True, help="First row length, 2..n-2.")
@click.option("--count-only", is_flag=True, help="Print the enumerated and hook-length counts only.")
@click.option("--format", "fmt", type=FORMATS, default="text", show_default=True)
def cmd_syt(n: int, j: int, count_only: bool, fmt: str) -> None:
    """List the standard tableaux of shape (j, 2, 1, ..., 1) on n cells.

    Output order is canonical: lexicographic on the row-major reading
    word.  With --count-only, both the enumerated count and the
    hook-length-formula count are printed so they can be compared.
    """
    if n > VERIFY_MAX:
        raise click.UsageError(f"--n must be at most {VERIFY_MAX}, got {n}")
    try:
        shape = hook_shape(n, j)
    except DomainError as exc:
        raise click.UsageError(str(exc)) from exc
    tableaux = enumerate_standard_tableaux(shape)
    if count_only:
        counts = {"enumerated": len(tableaux), "hook_length": hook_length_count(shape)}
        document, columns, records = {"n": n, "j": j, **counts}, list(counts), [counts]
        lines = [f"{counts['enumerated']} {counts['hook_length']}"]
    else:
        lines = [format_tableau(t) for t in tableaux]
        document = {"n": n, "j": j, "tableaux": lines}
        columns, records = ["tableau"], [{"tableau": text} for text in lines]
    if fmt == "text":  # neither text output is a grid
        for line in lines:
            click.echo(line)
    else:
        _emit(fmt, document, columns, records)


if __name__ == "__main__":
    main()
