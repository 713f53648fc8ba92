#!/usr/bin/env python3
"""Smoke test of one benchmark workload at tiny sizes.

    smoke_test.py PERFBENCH_BINARY WORKLOAD BENCHMARK_JSON WORK_DIR

Runs the workload untraced twice and traced once with --smoke and checks
that the result line names every metric of BENCHMARK.json with its unit,
that the correctness gates ran and passed with no failed operation, and
that two untraced runs with the same seed produce the same output digest.
"""

import json
import os
import subprocess
import sys


def run(binary, workload, trace, work_dir):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke", "--work-dir", work_dir]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                          check=False)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check(result, lines, specs, label):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{label}: run is not correct")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{label}: attempted {result.get('attempted')}")
    if result.get("failed") != 0:
        errors.append(f"{label}: failed {result.get('failed')}")
    metrics = result.get("metrics", {})
    want = {s["name"]: s["unit"] for s in specs}
    if set(metrics) != set(want):
        errors.append(f"{label}: metrics {sorted(set(metrics) ^ set(want))} "
                      "differ from BENCHMARK.json")
    for name, unit in want.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"),
                                                     (int, float)):
            errors.append(f"{label}: {name} = {got}, want unit {unit}")
    if not any(line.startswith("gate ok") for line in lines):
        errors.append(f"{label}: no correctness gate ran")
    if any(line.startswith("gate FAIL") for line in lines):
        errors.append(f"{label}: a correctness gate failed")
    return errors


def digest(lines):
    for line in lines:
        parts = line.split()
        if parts[:1] == ["report"] and parts[1] in (
                "params_digest", "state_digest", "reply_crc"):
            return parts[2]
    return None


def main():
    binary, workload, benchmark_json, work_dir = sys.argv[1:5]
    os.makedirs(work_dir, exist_ok=True)
    with open(benchmark_json) as f:
        spec = json.load(f)
    errors = []
    lines_a, result_a = run(binary, workload, 0, work_dir)
    errors += check(result_a, lines_a, spec["end_to_end"], "untraced")
    lines_b, result_b = run(binary, workload, 0, work_dir)
    errors += check(result_b, lines_b, spec["end_to_end"], "untraced again")
    if digest(lines_a) is None or digest(lines_a) != digest(lines_b):
        errors.append(f"output digests differ across runs with one seed: "
                      f"{digest(lines_a)} vs {digest(lines_b)}")
    for name, value in result_a["metrics"].items():
        if value["value"] <= 0 and name in ("setup_s", "latency_ms"):
            errors.append(f"untraced: {name} is not positive")
    lines_t, result_t = run(binary, workload, 1, work_dir)
    errors += check(result_t, lines_t, spec["per_layer"], "traced")
    if errors:
        sys.exit("\n".join(errors))
    print(f"{workload}: smoke ok")


if __name__ == "__main__":
    main()
