#!/usr/bin/env python3
"""Smoke self-test of the benchmark: runs every workload briefly, untraced and
traced, at the data sizes of a measured run, and asserts that

  * the last stdout line is the result object with exactly the keys
    correct, attempted, failed and metrics, and the run is correct;
  * every metric BENCHMARK.json names prints, with its unit (end-to-end
    metrics untraced, per-layer metrics traced), and end-to-end values are
    positive;
  * every output check of the workload ran and none failed (ungated
    workloads included);
  * traced runs leave a Chrome trace and a per-layer table, and the layer
    predictions that hold by construction do hold: no allocator work on
    ycsb-a, no epoch work on ycsb-a or churn, no transactions on ship.

    python3 perfbench/selftest.py      # from the repository root, a few minutes
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

COMMON_CHECKS = ["ops.ok", "recovery.daemon_recovered"]
CHURN_CHECKS = ["recovery.root_readable", "recovery.arena_gc_ok", "recovery.acked_ops_durable",
                "recovery.no_unstarted_ops", "recovery.lane_matches_model",
                "recovery.size_matches_reachable", "recovery.records_intact",
                "recovery.second_gc_reclaims_nothing"]
CHECKS = {
    "ycsb-a": ["ycsb.get_matches_model", "recovery.root_readable",
               "recovery.acked_puts_present", "recovery.size_matches"],
    "churn": CHURN_CHECKS,
    "churn-epoch": CHURN_CHECKS,
    "ship": ["ship.aggregate_closed_form", "recovery.acked_copies_open",
             "recovery.acked_copies_intact"],
}
# Layer metrics that must read 0 on a workload (per-op counts of a layer the
# workload does not use).
MUST_BE_ZERO = {
    "ycsb-a": ["alloc.arena_hit_ratio", "alloc.refill_slabs_per_kop", "alloc.flush_slabs_per_kop",
               "alloc.remote_frees_per_kop", "alloc.slab_carves_per_kop", "alloc.gc_slabs",
               "epoch.txs_per_epoch", "epoch.publish_waits_per_ktx", "epoch.sync_waits_per_ktx"],
    "churn": ["epoch.txs_per_epoch", "epoch.publish_waits_per_ktx", "epoch.sync_waits_per_ktx"],
    "churn-epoch": [],
    "ship": ["tx.log_calls_per_tx", "tx.undo_entries_per_tx", "alloc.arena_hit_ratio"],
}


def run(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "2", "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return proc.stdout.strip().splitlines()


def check(workload, trace, spec):
    lines = run(workload, trace)
    where = f"{workload} trace={trace}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, f"{where}: {lines[-1]}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in wanted}, f"{where}: metric names differ"
    for m in wanted:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}"
        if not trace:
            assert got["value"] > 0, f"{where}: {m['name']} is {got['value']}"

    checks_line = next(line for line in lines if line.startswith("checks: "))
    checks = json.loads(checks_line[len("checks: "):])
    for name in COMMON_CHECKS + CHECKS[workload]:
        assert name in checks and checks[name]["ran"] > 0, f"{where}: check {name} did not run"
        assert checks[name]["failed"] == 0, f"{where}: check {name} failed"
    assert any(line.startswith("platform: ") for line in lines), where

    if trace:
        for name in MUST_BE_ZERO[workload]:
            assert metrics[name]["value"] == 0, f"{where}: {name} = {metrics[name]['value']}"
        trace_line = next(line for line in lines if line.startswith("trace: "))
        with open(os.path.join(ROOT, trace_line[len("trace: "):])) as f:
            events = json.load(f)
        assert events and all("op" in e["args"] for e in events), f"{where}: empty trace"
        layers_line = next(line for line in lines if line.startswith("layers: "))
        assert os.path.getsize(os.path.join(ROOT, layers_line[len("layers: "):])) > 0, where
    print(f"ok  {where}: {len(metrics)} metrics, {len(checks)} checks", flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # Every workload the benchmark implements, including any that
    # BENCHMARK.json leaves ungated.
    for workload in CHECKS:
        for trace in (0, 1):
            check(workload, trace, spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
