import subprocess
import sys
import types

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
    public = {
        name
        for name, value in vars(cyclebetti).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(cyclebetti.__all__) == public


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
    # and no value type is a dataclass: every one is a Record, whose class body generates no code
    script = (
        "import sys, cyclebetti.cli\n"
        "loaded = sorted({'csv', 'numbers', 'dataclasses'}.intersection(sys.modules))\n"
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
        "[] ['BettiTable', 'BijectionReport', 'CycleRestriction', 'IntMatrix', 'MarkedSubset', "
        "'Shape', 'SimplicialComplex', 'Tableau'] []\n"
    )
