"""Exact Betti numbers of cycle graphs and the tableau bijection behind them.

The package computes graded Betti numbers of cycle graphs exactly from
their vertex-subset restrictions, enumerates standard Young tableaux of
hook-plus-column shapes, and realises the bijection between those tableaux
and marked vertex subsets, in both directions, with exhaustive verifiers.
All arithmetic is exact.
"""

from .bijection import (
    BijectionReport,
    format_marked_subset,
    marked_subset_to_tableau,
    tableau_to_marked_subset,
    transpose_duality_holds,
    verify_bijection,
    verify_cycle,
)
from .cycle import (
    CycleRestriction,
    MarkedSubset,
    admissible_markers,
    marked_subsets,
    restrict,
)
from .errors import (
    DomainError,
    ImpossibleBranchError,
    InvalidCycleError,
    InvalidMarkedSubsetError,
    TableauParseError,
    TableauValidationError,
    UndefinedMarkerError,
    VertexRangeError,
)
from .hochster import (
    MAX_CYCLE_SIZE,
    BettiTable,
    betti,
    betti_table,
    linear_strand,
)
from .homology import IntMatrix, matrix_rank
from .tableaux import (
    Shape,
    Tableau,
    enumerate_standard_tableaux,
    format_tableau,
    hook_length_count,
    hook_shape,
    parse_tableau,
    transpose,
)

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "BijectionReport",
    "CycleRestriction",
    "DomainError",
    "ImpossibleBranchError",
    "IntMatrix",
    "InvalidCycleError",
    "InvalidMarkedSubsetError",
    "MAX_CYCLE_SIZE",
    "MarkedSubset",
    "Shape",
    "Tableau",
    "TableauParseError",
    "TableauValidationError",
    "UndefinedMarkerError",
    "VertexRangeError",
    "admissible_markers",
    "betti",
    "betti_table",
    "enumerate_standard_tableaux",
    "format_marked_subset",
    "format_tableau",
    "hook_length_count",
    "hook_shape",
    "linear_strand",
    "marked_subset_to_tableau",
    "marked_subsets",
    "matrix_rank",
    "parse_tableau",
    "restrict",
    "tableau_to_marked_subset",
    "transpose",
    "transpose_duality_holds",
    "verify_bijection",
    "verify_cycle",
]
