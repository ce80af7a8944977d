"""Tests of the benchmark itself: determinism, stationarity, traced spans.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.use_checkout()

import bench  # noqa: E402
import layers  # noqa: E402
import store  # noqa: E402

#: operations per traced test run: enough for every layer each workload exercises
TEST_OPS = {"cached_reads": 120, "read_write_mix": 40, "scaleout_batch": 5}
SEED = 7


def _traced(workload: str) -> dict:
    scratch = run.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        args = argparse.Namespace(workload=workload, seed=SEED, seconds=1.0,
                                  ops=TEST_OPS[workload])
        return run.traced(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@pytest.fixture(scope="module")
def traced_twice() -> dict[str, tuple[dict, dict]]:
    return {w: (_traced(w), _traced(w)) for w in bench.CONFIG}


def _repeatable(metrics: dict) -> dict:
    keys = {"db.wal.bytes_per_write", "exec.plan_cache_hit_ratio",
            "exec.result_cache_hit_ratio", "semantics.machine.steps_per_write"}
    return {k: v for k, v in metrics.items() if k in keys or k.endswith(".calls")}


@pytest.mark.parametrize("workload", sorted(bench.CONFIG))
def test_counts_repeat_exactly_with_one_seed(traced_twice, workload):
    first, second = traced_twice[workload]
    assert first["ops"] == second["ops"] == TEST_OPS[workload]
    assert first["failed"] == 0 and first["mismatch_count"] == 0
    a = _repeatable(run.per_layer(first, None))
    b = _repeatable(run.per_layer(second, None))
    assert a == b


@pytest.mark.parametrize("workload", sorted(bench.CONFIG))
def test_iterated_extents_stay_within_stated_growth(traced_twice, workload):
    cfg = bench.CONFIG[workload]
    for doc in traced_twice[workload]:
        for epoch in doc["extents"]:
            for extent in cfg["iterated_extents"]:
                grown = epoch["end"][extent] / epoch["start"][extent] - 1.0
                assert grown <= cfg["max_growth"], (extent, epoch)
    if cfg["epoch_ops"]:
        # a whole epoch's inserts, each one Employee, stay within the bound
        inserts = sum(isinstance(op, bench.Insert) for op in bench.make_ops(workload, SEED))
        employees = store.Shape(cfg["store_objects"]).employees
        assert inserts <= cfg["max_growth"] * employees


@pytest.mark.parametrize("workload", sorted(bench.CONFIG))
def test_traced_self_times_are_non_negative(traced_twice, workload):
    metrics = run.per_layer(traced_twice[workload][0], None)
    for name in bench.CONFIG[workload]["exercises"]:
        assert metrics[f"{name}.calls"][0] > 0, name
    for name, (value, unit) in metrics.items():
        if name.endswith(".self_us"):
            assert value >= 0, name


def test_self_time_subtracts_children_per_thread():
    # thread 0: a 100ns parse span containing a 30ns typecheck span;
    # thread 1: an overlapping 50ns execute span of the same operation
    threads = [
        [("lang.parse", 0, 100, -1, 0), ("typing.check", 10, 40, 0, 0)],
        [("exec.execute", 60, 110, -1, 0)],
    ]
    self_ns, calls, other_ns = layers.layer_totals(threads, [(0, 150)])
    assert self_ns == {"lang.parse": 70, "typing.check": 30, "exec.execute": 50}
    assert calls == {"lang.parse": 1, "typing.check": 1, "exec.execute": 1}
    assert other_ns == 40


def test_benchmark_json_names_match_the_program():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: cfg["why"] for name, cfg in bench.CONFIG.items()
    }
    fake = bench.Run(setups=[(1.0, 1.0, 30.0)], latencies_us=[1.0], cpu_us=[1.0],
                     probe_us=[30.0], kinds=["read"])
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end(fake))
    doc = {"spans": [], "op_intervals": [(0, 1)], "counts": {}, "fsyncs": 0,
           "ops_per_s": 1.0}
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer(doc, 1.0))


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cached_reads",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
