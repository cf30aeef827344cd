"""Exact Betti numbers of cycle graphs and the tableau bijection behind them.

The package computes graded Betti numbers of cycle graphs exactly from
their vertex-subset restrictions, enumerates standard Young tableaux of
hook-plus-column shapes, and realises the bijection between those tableaux
and marked vertex subsets, in both directions, with exhaustive verifiers.
All arithmetic is exact.

The submodules other than errors are registered at import and run on first
use, so a command runs only the modules its route needs.  An export is
bound in the package namespace when it is first looked up.
"""

import importlib.util
import sys

from . import errors  # run now: every route, and cli.main's except clause, needs it

__version__ = "0.1.0"

# every export by the module that defines it
_EXPORTS = {
    "errors": "MAX_CYCLE_SIZE DomainError ImpossibleBranchError InvalidCycleError InvalidMarkedSubsetError "
    "TableauParseError TableauValidationError UndefinedMarkerError VertexRangeError",
    "bijection": "BijectionReport format_marked_subset marked_subset_to_tableau tableau_to_marked_subset "
    "transpose_duality_holds verify_bijection verify_cycle",
    "cycle": "CycleRestriction MarkedSubset admissible_markers marked_subsets restrict",
    "hochster": "BettiTable betti betti_table linear_strand",
    "homology": "IntMatrix matrix_rank",
    "tableaux": "Shape Tableau enumerate_standard_tableaux format_tableau hook_length_count hook_shape "
    "parse_tableau transpose",
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_OWNERS)

for _name in [module for module in _EXPORTS if module != "errors"]:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_name] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])  # runs the module on its first attribute access
del _name, _spec


def __getattr__(name: str) -> object:
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_OWNERS[name]], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
