"""Print every metric of every workload: end to end, per layer, and tracing overhead.

    python3 bench/report.py [--seed N] [--seconds S]

Runs bench/run.py once untraced and once traced per workload, then prints
one table with a column per workload, every metric named with its unit.
Each run's full record stays in .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench.run import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL, check=False)
    path = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38)
    args = parser.parse_args()
    records = {(w, t): run(w, args.seed, args.seconds, t) for w in WORKLOADS for t in (0, 1)}

    rows: list[tuple[str, str, list[str]]] = []

    def add(name: str, unit: str, values: list) -> None:
        rows.append((name, unit, ["-" if v is None else f"{v:.6g}" for v in values]))

    for trace in (0, 1):
        names = records[WORKLOADS[0], trace]["metrics"]
        for name, metric in names.items():
            add(name, metric["unit"], [records[w, trace]["metrics"][name]["value"] for w in WORKLOADS])
        if trace == 0:
            for name in ("op_p50_s", "op_p95_s"):
                add(name, "s", [records[w, 0].get(name) for w in WORKLOADS])
        add(f"ops (trace {trace})", "count", [records[w, trace]["ops"] for w in WORKLOADS])
        add(f"ops_failed (trace {trace})", "count", [records[w, trace]["ops_failed"] for w in WORKLOADS])
        add(f"repeat_n_share (trace {trace})", "ratio", [records[w, trace]["repeat_n_share"] for w in WORKLOADS])

    env = records[WORKLOADS[0], 0]["environment"]
    print(f"seed {args.seed}, {args.seconds} s per run; " + ", ".join(f"{k} {v}" for k, v in env.items()))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'metric':<{width}}  {'unit':<8}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for name, unit, values in rows:
        print(f"{name:<{width}}  {unit:<8}" + "".join(f"{v:>14}" for v in values))
    absent = sorted({a for (w, t), r in records.items() if t for a in r.get("absent", [])})
    if absent:
        print("absent from the library: " + ", ".join(absent))
    failed = sum(r["ops_failed"] for r in records.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
