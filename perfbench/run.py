"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cached_reads --seed 1 --seconds 25 --trace 0

``--workload all`` runs every workload in turn, each in its own process,
and ends with one JSON object whose metric names carry the workload's
name as a prefix.

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` measures untraced throughput for half the time, then runs
the workload for the other half in a child process that wraps each
layer's entry points (``perfbench/layers.py``), and prints the per-layer
metrics computed from the child's spans.

End-to-end times are given at a nominal machine speed: the CPU part of
each latency and set-up is rescaled by a probe timed around it
(``bench.probe_us``), because other tenants of a shared machine slow the
CPU by up to 1.8×.  Lines marked "as measured" give raw wall times.

Every line but the last is for people; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The command exits 1 when any
operation failed or any check disagreed, and 2 when the checkout lacks
the program's sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: set-ups per end-to-end run; setup_s is their median
SETUPS = 5
CHILD_TIMEOUT_S = 120


def use_checkout() -> None:
    """Import the program from this checkout's sources, or exit 2."""
    needed = (ROOT / "src" / "repro" / "__init__.py", ROOT / "benchmarks" / "workloads.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}: run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    for path in (HERE, ROOT / "benchmarks", ROOT / "src"):
        sys.path.insert(0, str(path))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def completed_per_s(run) -> float:
    """Completed operations per second of nominal loop time."""
    done = [x for x in run.latencies_nominal_us() if math.isfinite(x)]
    return _ratio(len(done), sum(done) / 1e6)


def end_to_end(run) -> dict[str, tuple[float, str]]:
    latencies = run.latencies_nominal_us()
    return {
        "setup_s": (statistics.median(run.setups_nominal_s()), "s"),
        "op_p50_us": (percentile(latencies, 0.50), "us"),
        "op_p90_us": (percentile(latencies, 0.90), "us"),
        "ops_per_s": (completed_per_s(run), "1/s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


def per_layer(doc: dict, untraced_ops_per_s: float | None) -> dict[str, tuple[float, str]]:
    """Per-operation layer metrics from a traced child's dump."""
    import layers

    ops = len(doc["op_intervals"])
    self_ns, calls, other_ns = layers.layer_totals(
        doc["spans"], [tuple(i) for i in doc["op_intervals"]]
    )
    out: dict[str, tuple[float, str]] = {}
    for layer in layers.LAYERS:
        out[f"{layer}.self_us"] = (_ratio(self_ns.get(layer, 0), ops) / 1000.0, "us")
        out[f"{layer}.calls"] = (_ratio(calls.get(layer, 0), ops), "count")
    out["other.self_us"] = (_ratio(other_ns, ops) / 1000.0, "us")
    c = doc["counts"]
    get = lambda k: c.get(k, 0)  # noqa: E731
    out["exec.plan_cache_hit_ratio"] = (
        _ratio(get("plan_hits"), get("plan_hits") + get("plan_misses")), "ratio")
    out["exec.result_cache_hit_ratio"] = (_ratio(get("result_hits"), get("compiled")), "ratio")
    out["exec.ops_per_read"] = (_ratio(get("read_steps"), get("reads")), "count")
    out["semantics.machine.steps_per_write"] = (
        _ratio(get("write_steps"), get("writes")), "count")
    out["db.wal.bytes_per_record"] = (_ratio(get("wal_bytes"), get("wal_records")), "bytes")
    out["db.wal.bytes_per_write"] = (_ratio(get("wal_bytes"), get("writes")), "bytes")
    out["db.wal.fsyncs_per_write"] = (_ratio(doc["fsyncs"], get("writes")), "count")
    out["replication.routed_ratio"] = (_ratio(get("routed"), get("reads")), "ratio")
    out["sched.conflict_rate"] = (_ratio(get("conflict_rate_sum"), get("batches")), "ratio")
    if untraced_ops_per_s is not None:
        out["trace.overhead_frac"] = (
            1.0 - _ratio(doc["ops_per_s"], untraced_ops_per_s), "ratio")
    return out


def report(run) -> list[str]:
    """Lines for people: what the metrics do not show."""
    import bench

    lines = []
    for kind in ("read", "write", "batch"):
        lat = [x for x, k in zip(run.latencies_us, run.kinds) if k == kind]
        if len(lat) >= 100:
            lines.append(f"{kind}_p50_us {percentile(lat, 0.5):.1f} us, {kind}_p90_us "
                         f"{percentile(lat, 0.9):.1f} us over {len(lat)}, as measured")
        elif lat:
            lines.append(f"{kind}_p50_us {percentile(lat, 0.5):.1f} us over {len(lat)}, "
                         "as measured")
    lines.append(f"fail_frac {_ratio(run.failed, run.ops):.4f} of {run.ops} operations")
    if run.counts.get("wal_bytes"):
        lines.append("wal_bytes_per_write "
                     f"{_ratio(run.counts['wal_bytes'], run.counts.get('writes', 0)):.0f} bytes")
    lines.append("setups_s " + " ".join(f"{wall:.3f}" for wall, _, _ in run.setups)
                 + " as measured")
    if run.probe_us:
        lines.append(f"probe p10 {percentile(run.probe_us, 0.1):.1f} us, p50 "
                     f"{percentile(run.probe_us, 0.5):.1f} us, p90 "
                     f"{percentile(run.probe_us, 0.9):.1f} us (nominal {bench.NOMINAL_PROBE_US} us)")
    lines.append(f"checks {run.checks}, mismatches {run.mismatch_count}")
    for epoch, ext in enumerate(run.extents):
        lines.append(f"extents epoch {epoch}: start {ext['start']} end {ext['end']}")
    lines += [f"error: {e}" for e in run.errors + run.mismatches]
    return lines


def child(args, workdir: str) -> None:
    """The traced run: wrap the layers, measure, dump spans and counts."""
    import bench
    import layers

    tracer = layers.Tracer()
    layers.install(tracer)
    run = bench.measure(args.workload, args.seed, seconds=args.seconds,
                        workdir=workdir, max_ops=args.ops, tracer=tracer,
                        min_samples=1)
    doc = {
        "spans": tracer.spans(),
        "op_intervals": run.op_intervals,
        "counts": run.counts,
        "fsyncs": tracer.fsyncs,
        "ops_per_s": completed_per_s(run),
        "ops": run.ops,
        "failed": run.failed,
        "mismatch_count": run.mismatch_count,
        "report": report(run),
        "extents": run.extents,
    }
    with open(args.trace_child, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def traced(args, workdir: str) -> dict:
    """Spawn the traced child (own process, fixed hash seed) and load its dump."""
    out = os.path.join(workdir, "trace.json")
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1", "--trace-child", out]
    if args.ops is not None:
        cmd += ["--ops", str(args.ops)]
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32))
    subprocess.run(cmd, check=True, env=env, timeout=CHILD_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def run_all(args) -> int:
    """Every workload in turn, each in its own process; one summary line."""
    import bench

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in bench.CONFIG:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S + 60)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        summary["correct"] = summary["correct"] and result["correct"] and proc.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-child", help=argparse.SUPPRESS)
    parser.add_argument("--ops", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    use_checkout()
    import bench

    if args.workload == "all":
        return run_all(args)
    if args.workload not in bench.CONFIG:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(bench.CONFIG)}")
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        if args.trace_child:
            child(args, workdir)
            return 0
        cfg = bench.CONFIG[args.workload]
        print(f"workload {args.workload} seed {args.seed} objects {cfg['store_objects']} "
              f"nproc {os.cpu_count()} trace {args.trace}")
        if args.trace == 0:
            run = bench.measure(args.workload, args.seed, seconds=args.seconds,
                                workdir=workdir, setups=SETUPS, max_ops=args.ops)
            metrics = end_to_end(run)
            attempted, failed = run.ops, run.failed
            bad = run.mismatch_count
            lines = report(run)
        else:
            run = bench.measure(args.workload, args.seed, seconds=args.seconds / 2,
                                workdir=workdir, max_ops=args.ops, min_samples=1)
            doc = traced(argparse.Namespace(**{**vars(args), "seconds": args.seconds / 2}),
                         workdir)
            metrics = per_layer(doc, completed_per_s(run))
            attempted, failed = run.ops + doc["ops"], run.failed + doc["failed"]
            bad = run.mismatch_count + doc["mismatch_count"]
            lines = report(run) + [f"traced: {line}" for line in doc["report"]]
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
        for line in lines:
            print(line)
        correct = failed == 0 and bad == 0
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": min(attempted, failed + bad),
            "metrics": {
                name: {"value": value if math.isfinite(value) else None, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it


if __name__ == "__main__":
    sys.exit(main())
