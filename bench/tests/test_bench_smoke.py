"""Tiny-size runs of every workload, and the run without a library."""

import shutil
import subprocess
import sys

import pytest

from bench import run
from bench.workloads import CellsWorkload, CliWorkload, MapsWorkload

TINY = {
    "table": lambda: CliWorkload("table", 6),
    "cells": lambda: CellsWorkload(range(5, 8), count=64),
    "verify": lambda: CliWorkload("verify", 6),
    "maps": lambda: MapsWorkload(8, 40, count=32),
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", TINY)
def test_tiny_run_has_no_failed_ops(name, trace):
    record = run.run(name, seed=5, seconds=0.6, trace=trace, workload=TINY[name]())
    assert record["ops"] >= 1
    assert record["ops_failed"] == 0, record["errors"]
    metrics = record["metrics"]
    if trace:
        assert record["absent"] == []
        assert metrics["trace.op_p50_s"]["value"] > 0
        assert {"cli.main.calls", "homology.boundary_matrix.max_cols"} <= set(metrics)
    else:
        assert set(metrics) == {"setup_s", "op_p50_rel", "peak_rss_mb"}
        assert all(m["value"] > 0 for m in metrics.values())
        assert record["op_p50_s"] > 0


def test_without_the_library_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "bench/run.py", "--workload", "table", "--seed", "1", "--seconds", "1"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
