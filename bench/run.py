"""Benchmark cyclebetti's Betti route and bijection route from outside the library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; the library is imported from
src/.  Workloads (see bench/workloads.py): table, cells, verify, maps.

A run generates every input from the seed, then runs ops one at a time
for about S seconds, checking each output against the closed forms in
bench/oracle.py outside the timed region.

With --trace 0 the ops run in PASSES passes: the first for S / PASSES
seconds, the others over the same inputs (for maps, the same n and j with
a fresh subset).  Next to the ops the run times the fixed task of
bench/reference.py: after every op in a fresh interpreter, every
REF_EVERY seconds in one process.  The last stdout line reports the
end-to-end metrics setup_s (median seconds for a fresh interpreter to
`import cyclebetti.cli`, sampled before, between and after the passes),
op_p50_rel (median over ops of the op's time divided by the reference
time taken next to it) and peak_rss_mb (of the process that served the
ops).  With --trace 1 the run is split: half untraced, half traced, and
the last line reports the per-layer metrics of bench/tracer.py plus
trace.op_p50_s and trace.overhead_s (traced minus untraced median).
Lines before it give ops, failures, op_p50_s and op_p95_s in seconds
(op_p95_s on runs of at least P95_MIN_OPS ops) and the share of the
first pass's ops whose n already appeared earlier in it.
The full record, with the seed and environment, goes to
.bench_out/<workload>-seed<N>-trace<T>.json; spans go to .bench_out/spans/.
Exit status 0 when every op was correct, 1 when some op failed, 2 when
the library cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PASSES = 6
# A replay pass starts only if one more like the last ends within this
# many times S, so slow ops cannot stretch a run far past S.
RUN_LIMIT = 1.1
WORKLOADS = ("table", "cells", "verify", "maps")
SETUP_RUNS = 2  # per batch; a run takes PASSES + 1 batches
# Host speed holds for seconds at a time, so one reference every quarter
# second serves the ops of one process at about 2% of its time.
REF_EVERY = 0.25
# op_p95_s needs at least ten samples beyond it.
P95_MIN_OPS = 200


@dataclass
class Phase:
    times: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)  # reference time next to each op
    sizes: list[int] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    summaries: list[dict] = field(default_factory=list)


def child_env() -> dict[str, str]:
    paths = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def time_imports(env: dict[str, str], runs: int = SETUP_RUNS) -> list[float]:
    """Seconds for each of `runs` fresh interpreters to import cyclebetti.cli.

    One untimed import first, so that compiled bytecode is cached as it is
    for an installed package.
    """
    argv = [sys.executable, "-c", "import cyclebetti.cli"]
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def keep_going(phase: Phase, start: float, seconds: float, count: int | None) -> bool:
    """Closed loop: start another op if fewer than `count` ran and one more like the last fits."""
    if not phase.times:
        return True
    if count is not None and len(phase.times) >= count:
        return False
    return time.perf_counter() - start + phase.times[-1] <= seconds


def run_in_process(workload, pool: list, seconds: float, count: int | None, tracer=None) -> Phase:
    from bench.reference import IN_PROCESS_ROUNDS, reference

    phase = Phase()
    start = time.perf_counter()
    ref_at = None
    k = 0
    while keep_going(phase, start, seconds, count):
        if ref_at is None or time.perf_counter() - ref_at > REF_EVERY:
            ref_at = time.perf_counter()
            reference(IN_PROCESS_ROUNDS)
            ref = time.perf_counter() - ref_at
        item = pool[k % len(pool)]
        k += 1
        if tracer is not None:
            tracer.open("bench.op")
        t0 = time.perf_counter()
        try:
            out, error = workload.call(item), None
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            out, error = None, f"{item!r:.120}: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.close()
            tracer.end_op()
        if error is None:
            error = workload.check(item, out)
        phase.times.append(elapsed)
        phase.refs.append(ref)
        phase.sizes.append(workload.size_of(item))
        if error:
            phase.errors.append(error)
    phase.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        phase.summaries.append(tracer.summary())
    return phase


def run_fresh(workload, seconds: float, count: int | None, trace_prefix: Path | None = None) -> Phase:
    phase = Phase()
    env = child_env()
    OUT.mkdir(exist_ok=True)
    reference = [sys.executable, str(ROOT / "bench" / "reference.py")]
    start = time.perf_counter()
    while keep_going(phase, start, seconds, count):
        argv = [sys.executable, str(ROOT / "bench" / "cli_op.py")]
        if trace_prefix is not None:
            prefix = f"{trace_prefix}-op{len(phase.times)}"
            argv += ["--trace-out", prefix]
        with open(OUT / "cli_op.stderr", "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv + workload.argv, stdout=subprocess.PIPE, stderr=err, env=env)
            stdout = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            error = workload.check(proc.returncode, stdout)
            if error:
                err.seek(0)
                error += " | stderr: " + err.read()[-300:].decode(errors="replace")
        t0 = time.perf_counter()
        subprocess.run(reference, env=env, check=True)
        phase.refs.append(time.perf_counter() - t0)
        phase.times.append(elapsed)
        phase.sizes.append(workload.size_of(workload.argv))
        phase.peak_rss_mb = max(phase.peak_rss_mb, usage.ru_maxrss / 1024)
        if error:
            phase.errors.append(error)
        elif trace_prefix is not None:
            with open(prefix + ".json") as src:
                phase.summaries.append(json.load(src))
    return phase


def run_phase(
    workload, pool: list, traced: bool, name: str, seconds: float, count: int | None = None
) -> Phase:
    """Ops from the head of the pool for `seconds`, and at most `count` of them."""
    if workload.fresh_process:
        prefix = None
        if traced:
            spans = OUT / "spans"
            spans.mkdir(parents=True, exist_ok=True)
            for stale in spans.glob(f"{name}-op*"):
                stale.unlink()
            prefix = spans / name
        return run_fresh(workload, seconds, count, prefix)
    if not traced:
        return run_in_process(workload, pool, seconds, count)
    from bench.tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        phase = run_in_process(workload, pool, seconds, count, tracer)
    finally:
        tracer.uninstall()
    spans = OUT / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans / f"{name}.spans")
    return phase


def environment() -> dict:
    from importlib.metadata import version

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "click": version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "src_lines": sum(
            len(path.read_text().splitlines()) for path in (SRC / "cyclebetti").glob("*.py")
        ),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git directly; "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def p95(times: list[float]) -> float:
    return statistics.quantiles(times, n=20)[18]


def run(name: str, seed: int, seconds: float, trace: bool, workload=None) -> dict:
    """One benchmark run; returns the full record."""
    from bench import workloads

    workload = workload or workloads.build(name)
    pools = workload.inputs(random.Random(seed), PASSES)
    record: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if not trace:
        # Later passes replay the first pass's inputs (for maps, inputs of
        # the same n and j), so the run times one mix spread over its whole
        # length.  Set-up is sampled before, between and after the passes.
        env = child_env()
        setup = time_imports(env)
        start = time.perf_counter()
        end = start + RUN_LIMIT * seconds
        phases = [run_phase(workload, pools[0], False, name, seconds / PASSES)]
        last = time.perf_counter() - start
        for pool in pools[1:]:
            setup += time_imports(env)
            start = time.perf_counter()
            if start + last > end:
                break
            phases.append(run_phase(workload, pool, False, name, end - start, len(phases[0].times)))
            last = time.perf_counter() - start
        setup += time_imports(env)
        times = [t for phase in phases for t in phase.times]
        ratios = [t / r for phase in phases for t, r in zip(phase.times, phase.refs)]
        record["metrics"] = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "op_p50_rel": {"value": statistics.median(ratios), "unit": "ratio"},
            "peak_rss_mb": {"value": max(phase.peak_rss_mb for phase in phases), "unit": "MB"},
        }
        record["op_p50_s"] = statistics.median(times)
        if len(times) >= P95_MIN_OPS:
            record["op_p95_s"] = p95(times)
    else:
        from bench.tracer import layer_metrics, metric_units

        plain = run_phase(workload, pools[0], False, name, seconds / 2)
        traced = run_phase(workload, pools[1], True, name, seconds / 2)
        phases = [plain, traced]
        values, record["absent"] = layer_metrics(traced.summaries)
        units = metric_units()
        record["metrics"] = {key: {"value": values[key], "unit": units[key]} for key in units}
        traced_p50 = statistics.median(traced.times)
        record["metrics"]["trace.op_p50_s"] = {"value": traced_p50, "unit": "s"}
        record["metrics"]["trace.overhead_s"] = {
            "value": traced_p50 - statistics.median(plain.times),
            "unit": "s",
        }
    errors = [e for phase in phases for e in phase.errors]
    record["ops"] = sum(len(phase.times) for phase in phases)
    record["ops_failed"] = len(errors)
    record["errors"] = [error[:300] for error in errors[:5]]
    sizes = phases[0].sizes
    record["repeat_n_share"] = (len(sizes) - len(set(sizes))) / len(sizes)
    record["environment"] = environment()
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cyclebetti" / "__init__.py").is_file():
        print(f"no cyclebetti sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, subprocess.CalledProcessError) as exc:
        print(f"cannot run cyclebetti: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    env = record["environment"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} record={path}")
    print(
        f"python {env['python']}, click {env['click']}, nproc {env['nproc']}, {env['cpu']}, "
        f"commit {env['commit'][:12]}, src/cyclebetti {env['src_lines']} lines"
    )
    print(
        f"ops {record['ops']}, ops_failed {record['ops_failed']}, "
        f"repeat_n_share {record['repeat_n_share']:.4f}"
        + "".join(f", {key} {record[key]:.6f} s" for key in ("op_p50_s", "op_p95_s") if key in record)
    )
    for error in record["errors"]:
        print(f"FAILED: {error}", file=sys.stderr)
    if record.get("absent"):
        print("absent from the library: " + ", ".join(record["absent"]))
    correct = record["ops_failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": record["ops"],
                "failed": record["ops_failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
