"""The tracer: self time accounting, namespace patching, absent names."""

from itertools import count

import pytest

from bench import tracer as tracing
from bench.tracer import Tracer, layer_metrics, read_spans
from cyclebetti import hochster, homology


def test_self_times_inside_a_span_sum_to_its_duration(tmp_path):
    ticks = count()
    tracer = Tracer(clock=lambda: float(next(ticks)) ** 1.5)
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    tracer.write_spans(tmp_path / "t.spans")
    spans = read_spans(tmp_path / "t.spans")
    assert [s[0] for s in spans] == ["root", "a", "b", "b", "c"]
    root_start, root_end = spans[0][2], spans[0][3]
    assert sum(tracer.self_s.values()) == pytest.approx(root_end - root_start)
    for k, (name, parent, start, end) in enumerate(spans):
        children = [s for s in spans if s[1] == k]
        assert all(start <= c[2] <= c[3] <= end for c in children)
    assert tracer.calls == {"root": 1, "a": 1, "b": 2, "c": 1}


def test_every_namespace_that_bound_a_name_is_patched():
    tracer = Tracer()
    tracer.install()
    try:
        assert hochster.restriction_complex is homology.restriction_complex
        assert hochster.restriction_complex.__wrapped__ is not None
        hochster.betti(6, 2, 3)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert not hasattr(hochster.restriction_complex, "__wrapped__")
    metrics, absent = layer_metrics([tracer.summary()])
    assert absent == []
    assert metrics["hochster.betti.calls"] == 1
    assert metrics["homology.restriction_complex.calls"] == 20
    assert metrics["homology.SimplicialComplex.__post_init__.calls"] == 20
    assert metrics["hochster.restrictions_per_subset"] == 1.0


def test_a_table_rebuilds_each_subset_once_per_degree():
    tracer = Tracer()
    tracer.install()
    try:
        hochster.betti_table(6)
        tracer.end_op()
    finally:
        tracer.uninstall()
    metrics, _ = layer_metrics([tracer.summary()])
    assert metrics["hochster.restrictions_per_subset"] == 6 / 2 + 1


def test_a_missing_name_is_reported_absent(monkeypatch):
    layers = dict(tracing.LAYERS, homology=tracing.LAYERS["homology"] + ("no_such_function",))
    monkeypatch.setattr(tracing, "LAYERS", layers)
    tracer = Tracer()
    tracer.install()
    try:
        hochster.betti(5, 1, 2)
    finally:
        tracer.uninstall()
    metrics, absent = layer_metrics([tracer.summary()])
    assert absent == ["homology.no_such_function"]
    assert metrics["homology.no_such_function.calls"] == 0
    assert metrics["hochster.betti.calls"] == 1
