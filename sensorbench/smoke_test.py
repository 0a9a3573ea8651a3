#!/usr/bin/env python3
"""Smoke test of the sensor benchmark: every workload at tiny size.

    python3 sensorbench/smoke_test.py

For each workload in BENCHMARK.json and both --trace modes it checks that the
run exits 0, that the last stdout line is the result object with exactly the
keys correct/attempted/failed/metrics, and that every metric BENCHMARK.json
names for that mode is printed, both as a text row and in the JSON, with its
unit.  Then it checks that the correctness gate rejects a deliberately
tampered alert list: the exact-gate workloads run with --tamper must exit
nonzero and report "correct": false.  Exits nonzero on the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_GATE_WORKLOADS = ["bulk-http", "screened-binary"]


def run(workload, trace, extra=()):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    p = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{workload} trace={trace}: no output\n{p.stderr}")
    return p.returncode, lines, json.loads(lines[-1]), p.stderr


def check_run(workload, trace, expected):
    code, lines, result, stderr = run(workload, trace)
    where = f"{workload} trace={trace}"
    assert code == 0, f"{where}: exit {code}\n{stderr}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert isinstance(result["failed"], int), where
    metrics = result["metrics"]
    assert set(metrics) == set(expected), f"{where}: metrics {sorted(metrics)}"
    for name, unit in expected.items():
        assert set(metrics[name]) == {"value", "unit"}, f"{where}: {name}"
        assert metrics[name]["unit"] == unit, f"{where}: {name} unit {metrics[name]['unit']}"
        assert isinstance(metrics[name]["value"], (int, float)), f"{where}: {name}"
        rows = [l.split() for l in lines[:-1]]
        assert any(r[0] == name and r[-1] == unit for r in rows if r), \
            f"{where}: no text row for {name} in {unit}"
    print(f"ok   {where}: {len(expected)} metrics")


def check_tamper(workload):
    code, _, result, _ = run(workload, 0, ["--tamper"])
    assert code != 0 and result["correct"] is False, \
        f"{workload}: a tampered alert list passed the gate (exit {code})"
    print(f"ok   {workload}: tampered alert list rejected (exit {code})")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        check_run(w["name"], 0, end_to_end)
        check_run(w["name"], 1, per_layer)
    for workload in EXACT_GATE_WORKLOADS:
        check_tamper(workload)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"FAIL {e}", file=sys.stderr)
        sys.exit(1)
