"""Spans around cyclebetti's layer boundaries, recorded from outside the library.

The tracer replaces each wrapped function or method with a wrapper that
records a span (name, start, end, parent).  A module-level function is
replaced in every loaded module that bound it, so a caller that did
`from .homology import restriction_complex` is traced as well.  A name the
library no longer defines is reported absent and the run goes on.

Spans live in flat arrays while the process runs and are written once,
at the end.  Self time (a span's duration minus its children's) is folded
into per-name totals as each span closes.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable

# (module, attribute path): every name whose calls and self time are reported.
LAYERS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "hochster": ("betti_table", "betti", "linear_strand"),
    "homology": (
        "restriction_complex",
        "SimplicialComplex.from_faces",
        "SimplicialComplex.__post_init__",
        "boundary_matrix",
        "matrix_rank",
        "reduced_betti_dim",
    ),
    "cycle": ("restrict", "admissible_markers", "marked_subsets", "MarkedSubset.__post_init__"),
    "tableaux": (
        "enumerate_standard_tableaux",
        "Tableau.__post_init__",
        "transpose",
        "Shape.conjugate",
        "hook_length_count",
    ),
    "bijection": (
        "tableau_to_marked_subset",
        "marked_subset_to_tableau",
        "verify_bijection",
        "transpose_duality_holds",
    ),
}

# cli.main is a click group, not a plain function; the CLI launcher opens
# its span by hand around the call.
HAND_OPENED = {"cli.main"}

# Ratios of work done to distinct things it was done for, counted per op:
# metric -> (numerator span, distinct-key name).
RATIOS: dict[str, tuple[str, str]] = {
    "hochster.restrictions_per_subset": ("homology.restriction_complex", "subsets"),
    "cycle.marker_derivations_per_marked_subset": ("cycle.admissible_markers", "marked_subsets"),
    "tableaux.validations_per_tableau": ("tableaux.Tableau.__post_init__", "validated_tableaux"),
    "tableaux.enumerations_per_shape": ("tableaux.enumerate_standard_tableaux", "enumerated_shapes"),
    "bijection.forward_per_tableau": ("bijection.tableau_to_marked_subset", "mapped_tableaux"),
}


def _restriction_hook(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.distinct["subsets"].add((args[0], frozenset(args[1])))


def _boundary_hook(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.maxima["homology.boundary_matrix.max_cols"] = max(
        tracer.maxima["homology.boundary_matrix.max_cols"], result.ncols
    )


def _marked_subset_hook(tracer: "Tracer", args: tuple, result: Any) -> None:
    ms = args[0]
    tracer.distinct["marked_subsets"].add(hash((ms.n, ms.vertices, ms.marker)))


def _enumerate_hook(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.totals["tableaux.enumerated"] += len(result)
    tracer.distinct["enumerated_shapes"].add(args[0].parts)


def _tableau_hook(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.distinct["validated_tableaux"].add(hash(args[0].rows))


def _forward_hook(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.distinct["mapped_tableaux"].add(hash(args[0].rows))


HOOKS: dict[str, Callable[["Tracer", tuple, Any], None]] = {
    "homology.restriction_complex": _restriction_hook,
    "homology.boundary_matrix": _boundary_hook,
    "cycle.MarkedSubset.__post_init__": _marked_subset_hook,
    "tableaux.enumerate_standard_tableaux": _enumerate_hook,
    "tableaux.Tableau.__post_init__": _tableau_hook,
    "bijection.tableau_to_marked_subset": _forward_hook,
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for module, attrs in LAYERS.items():
        for attr in attrs:
            units[f"{module}.{attr}.calls"] = "count/op"
            units[f"{module}.{attr}.self_s"] = "s/op"
        units[f"{module}.self_s"] = "s/op"
    units.update({name: "ratio" for name in RATIOS})
    units["homology.boundary_matrix.max_cols"] = "count"
    units["tableaux.enumerated"] = "count/op"
    return units


class Tracer:
    """Records spans in memory and folds them into per-name calls and self time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.totals: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self.absent: list[str] = []
        self.ops = 0
        self._patches: list[tuple[Any, str, Any]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> None:
        self.span_name.append(self._id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append([len(self.span_start), 0.0])
        self.span_start.append(self.clock())

    def close(self) -> None:
        end = self.clock()
        index, covered = self._stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        name = self.names[self.span_name[index]]
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    @contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def wrap(self, name: str, fn: Callable) -> Callable:
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, result)
                return result
            finally:
                self.close()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every name in LAYERS that the loaded library still defines."""
        for module_name, attrs in LAYERS.items():
            module = sys.modules.get(f"cyclebetti.{module_name}")
            for attr in attrs:
                self._install_one(f"{module_name}.{attr}", module, attr)

    def _install_one(self, name: str, module: Any, attr: str) -> None:
        if name in HAND_OPENED:
            return
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = owner.__dict__.get(method) if owner is not None else None
        if original is None:
            self.absent.append(name)
        elif owner_name:
            self._patch_method(name, owner, method, original)
        else:
            self._patch_everywhere(name, original)

    def _patch_method(self, name: str, cls: type, method: str, original: Any) -> None:
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(name, original.__func__))
        else:
            wrapped = self.wrap(name, original)
        self._patches.append((cls, method, original))
        setattr(cls, method, wrapped)

    def _patch_everywhere(self, name: str, original: Callable) -> None:
        wrapped = self.wrap(name, original)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def end_op(self) -> None:
        """Close the per-op distinct counts; ratios compare work within one op."""
        self.ops += 1
        for key, seen in self.distinct.items():
            self.totals[f"distinct.{key}"] += len(seen)
            seen.clear()

    def summary(self) -> dict:
        """Raw per-name totals; summaries from several processes add up."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "totals": dict(self.totals),
            "maxima": dict(self.maxima),
            "absent": list(self.absent),
            "ops": self.ops,
            "spans": len(self.span_start),
        }

    def write_spans(self, path) -> None:
        """Write every span: one JSON header line, then the four raw arrays."""
        header = {"names": self.names, "count": len(self.span_start), "byteorder": sys.byteorder}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(out)


def read_spans(path) -> list[tuple[str, int, float, float]]:
    """Spans written by Tracer.write_spans, as (name, parent index, start, end)."""
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        count = header["count"]
        columns = []
        for code in "iidd":
            column = array(code)
            column.fromfile(src, count)
            if header["byteorder"] != sys.byteorder:
                column.byteswap()
            columns.append(column)
    names = header["names"]
    return [(names[k], p, s, e) for k, p, s, e in zip(*columns)]


def merge(summaries: list[dict]) -> dict:
    merged: dict = {"calls": defaultdict(int), "self_s": defaultdict(float),
                    "totals": defaultdict(int), "maxima": defaultdict(int), "absent": set(),
                    "ops": 0}
    for summary in summaries:
        merged["ops"] += summary["ops"]
        for field in ("calls", "self_s", "totals"):
            for key, value in summary[field].items():
                merged[field][key] += value
        for key, value in summary["maxima"].items():
            merged["maxima"][key] = max(merged["maxima"][key], value)
        merged["absent"].update(summary["absent"])
    return merged


def layer_metrics(summaries: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from one or more summaries, and the names found absent.

    Calls, self time and tableaux enumerated are per op, averaged over the
    traced ops; ratios are taken over all of them.
    """
    merged = merge(summaries)
    ops = max(merged["ops"], 1)
    metrics: dict[str, float] = {}
    for module, attrs in LAYERS.items():
        module_self = 0.0
        for attr in attrs:
            name = f"{module}.{attr}"
            metrics[f"{name}.calls"] = merged["calls"].get(name, 0) / ops
            metrics[f"{name}.self_s"] = merged["self_s"].get(name, 0.0) / ops
            module_self += metrics[f"{name}.self_s"]
        metrics[f"{module}.self_s"] = module_self
    for metric, (numerator, key) in RATIOS.items():
        distinct = merged["totals"].get(f"distinct.{key}", 0)
        metrics[metric] = merged["calls"].get(numerator, 0) / distinct if distinct else 0.0
    metrics["homology.boundary_matrix.max_cols"] = merged["maxima"].get(
        "homology.boundary_matrix.max_cols", 0
    )
    metrics["tableaux.enumerated"] = merged["totals"].get("tableaux.enumerated", 0) / ops
    return metrics, sorted(merged["absent"])
