import subprocess
import sys
import types
from pathlib import Path

import pytest

import cyclebetti
import cyclebetti.cycle as cycle
import cyclebetti.hochster as hochster
import cyclebetti.homology as homology

# the generic reference route stays in cyclebetti.homology, unexported
UNEXPORTED = ["SimplicialComplex", "boundary_matrix", "reduced_betti_dim", "restriction_complex"]
REMOVED = [
    "nullity",
    "cycle_complex",
    "cycle_boundary_matrix",
    "graph_homology_oracle",
    "marker_set",
    "cycle_edges",
    "cycle_reduced_homology",
]


def test_every_exported_name_resolves_once():
    assert all(hasattr(cyclebetti, name) for name in cyclebetti.__all__)
    assert len(set(cyclebetti.__all__)) == len(cyclebetti.__all__)


def test_exports_are_the_public_names_that_are_not_submodules():
    # an export is bound in the package namespace when it is first looked up, so look each one up
    for name in cyclebetti.__all__:
        getattr(cyclebetti, name)
    public = {
        name
        for name, value in vars(cyclebetti).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(cyclebetti.__all__) == public


def test_a_star_import_binds_every_export():
    namespace = {}
    exec("from cyclebetti import *", namespace)
    assert all(namespace[name] is getattr(cyclebetti, name) for name in cyclebetti.__all__)
    assert set(namespace) - {"__builtins__"} == set(cyclebetti.__all__)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'cyclebetti' has no attribute 'no_such_name'"):
        cyclebetti.no_such_name
    assert getattr(cyclebetti, "no_such_name", "absent") == "absent"


def test_the_cap_is_one_object_however_it_is_reached():
    # the help text of `table --n` reads the cap from errors, so that no other command runs hochster
    assert hochster.MAX_CYCLE_SIZE is cyclebetti.MAX_CYCLE_SIZE is cyclebetti.errors.MAX_CYCLE_SIZE == 100


def test_reference_route_and_test_helpers_are_not_exported():
    for name in UNEXPORTED + REMOVED:
        assert name not in cyclebetti.__all__
        assert not hasattr(cyclebetti, name)
    assert all(hasattr(homology, name) for name in UNEXPORTED)
    assert not any(hasattr(homology, name) for name in REMOVED)


def test_one_tableau_constructor_and_no_entry_lookup():
    # Tableau(row, column, corner) and Tableau.from_rows build every tableau; cells are read
    # off row, column and corner
    assert not hasattr(cyclebetti.Tableau, "_from_hook")
    assert not hasattr(cyclebetti.Tableau, "entry")
    assert callable(cyclebetti.Tableau.from_rows)


def test_marker_set_is_folded_into_admissible_markers():
    assert not hasattr(cycle, "marker_set")


def test_members_only_tests_called_are_gone():
    # the same values come from a restriction's faces, rows, hook_shape and format_tableau
    assert not hasattr(cycle, "cycle_edges")
    assert not any(hasattr(cyclebetti.Tableau, name) for name in ("reading_word", "shape"))
    assert "__str__" not in vars(cyclebetti.Tableau)
    assert not hasattr(homology.SimplicialComplex, "max_dim")


def test_arc_type_route_is_gone():
    # the sums run over arc-length compositions; the arc-type route lives with the tests, and a
    # restriction's component count is len(restrict(n, w).components)
    assert not any(hasattr(hochster, name) for name in ("_partitions", "_arc_types", "_column"))
    assert not hasattr(cycle.CycleRestriction, "component_count")


def test_a_cli_start_imports_no_csv_numbers_or_dataclasses():
    # each of the three serves one branch (csv output, a vertex rejection, a frozen-field error),
    # and no value type is a dataclass: every one is a Record, whose class body generates no code;
    # click is no dependency at all: with its import blocked, a table still prints and returns;
    # the table route runs no bijection or cycle code, so only its own value types are defined
    script = (
        "import sys, cyclebetti.cli\n"
        "loaded = sorted({'csv', 'numbers', 'dataclasses', 'click'}.intersection(sys.modules))\n"
        "sys.modules['click'] = None\n"
        "cyclebetti.cli.main(['table', '--n', '5', '--format', 'csv'])\n"
        "import dataclasses\n"
        "from cyclebetti.errors import Record\n"
        "records = sorted(cls.__name__ for cls in Record.__subclasses__())\n"
        "exported = [getattr(cyclebetti, name) for name in cyclebetti.__all__]\n"
        "dataclass_types = [value.__name__ for value in exported if dataclasses.is_dataclass(value)]\n"
        "print(loaded, records, dataclass_types)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (
        "i,j,betti,syt\n0,0,1,\n1,2,5,5\n2,3,5,5\n3,5,1,\n"
        "[] ['BettiTable', 'IntMatrix', 'Shape', 'SimplicialComplex', 'Tableau'] []\n"
    )


# the cyclebetti modules each command has run: the Betti route and the bijection route share only
# errors and tableaux (the table's syt column), and --help runs neither
BETTI_ROUTE = ["cli", "errors", "hochster", "homology", "tableaux"]
BIJECTION_ROUTE = ["bijection", "cli", "cycle", "errors", "tableaux"]
ROUTES = {
    ("table", "--n", "10"): BETTI_ROUTE,
    ("verify", "--n", "6"): BIJECTION_ROUTE,
    ("syt", "--n", "6", "--j", "3"): ["cli", "errors", "tableaux"],
    ("map", "1,2;3,4;5"): BIJECTION_ROUTE,
    ("unmap", "--n", "5", "--j", "2", "--set", "2,4", "--a", "4"): BIJECTION_ROUTE,
    ("--help",): ["cli", "errors"],
}
# A submodule not yet run is an instance of LazyLoader's subclass of ModuleType, and becomes a plain
# module when it runs; type() reads that without running it.  Run without site (-S), so that no
# preloaded module hides what the package imports: text output needs neither json nor typing.
EXECUTED = (
    "executed = sorted(name.removeprefix('cyclebetti.') for name, module in sys.modules.items()\n"
    "                  if name.startswith('cyclebetti.') and type(module) is types.ModuleType)\n"
    "print(executed, sorted({'json', 'typing'}.intersection(sys.modules)))\n"
)


def run_fresh(script, *args):
    source = str(Path(cyclebetti.__file__).resolve().parent.parent)
    command = [sys.executable, "-S", "-c", script, *args]
    result = subprocess.run(command, capture_output=True, text=True, timeout=60, env={"PYTHONPATH": source})
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("argv", ROUTES, ids=" ".join)
def test_each_command_runs_only_the_modules_of_its_route(argv):
    script = (
        "import contextlib, io, sys, types\n"
        "from cyclebetti.cli import main\n"
        "status = None\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        main(sys.argv[1:])\n"
        "    except SystemExit as exit:\n"
        "        status = exit.code\n"
        "print('exit', status or 0)\n"
    ) + EXECUTED
    assert run_fresh(script, *argv) == f"exit 0\n{ROUTES[argv]} []\n"


def test_importing_the_package_runs_errors_only_and_binds_exports_on_lookup():
    script = (
        "import sys, types, cyclebetti\n"
        "exports = set(cyclebetti.__all__)\n"
        "print(sorted(exports - set(dir(cyclebetti))), sorted(exports.intersection(vars(cyclebetti))))\n"
        "cyclebetti.betti_table\n"
        "print(sorted(exports.intersection(vars(cyclebetti))))\n"
    ) + EXECUTED
    assert run_fresh(script) == "[] []\n['betti_table']\n['errors', 'hochster', 'homology'] []\n"
