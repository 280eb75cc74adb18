#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at toy size.

Run from the repository root:

    python3 qdbench/smoke.py

Runs every workload BENCHMARK.json names, untraced and traced, at width 4
with a few trials and a few dozen stream jobs, and asserts that
  - each run exits 0 and ends with the result object, with correct true,
    failed 0 (so fail_share is 0) and attempted >= 1;
  - the result carries exactly the declared end-to-end (untraced) or
    per-layer (traced) metrics, each with its declared unit;
  - the printed table names every end-to-end metric of WORKLOADS.md that
    applies to the workload;
  - a traced run writes a Chrome trace whose spans carry name, start,
    end, parent span and job id.
Exits non-zero on the first failure.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOY = {
    "fig11-traj": ["--width", "4", "--trials", "8", "--seconds", "0.1"],
    "fig11-exact": ["--width", "4", "--seconds", "0.1"],
    "job-stream": ["--seconds", "0.05", "--replay-jobs", "36"],
}
# The end-to-end metrics each workload prints (gated or reported).
PRINTED = {
    "fig11-traj": ["wall_s", "jobs_per_s", "job_p50_ms", "shots_per_s",
                   "setup_s", "peak_rss_mb", "fail_share"],
    "fig11-exact": ["wall_s", "jobs_per_s", "job_p50_ms", "setup_s",
                    "peak_rss_mb", "fail_share"],
    "job-stream": ["wall_s", "jobs_per_s", "job_p50_ms", "job_p99_ms",
                   "warm_job_p50_ms", "cold_job_p50_ms", "shots_per_s",
                   "setup_s", "peak_rss_mb", "fail_share"],
}


def check(cond, msg):
    if not cond:
        print(f"smoke: FAIL: {msg}", file=sys.stderr)
        sys.exit(1)


def run(workload, trace, declared):
    cmd = [sys.executable, "qdbench/run.py", "--workload", workload,
           "--seed", "1", "--trace", str(trace), *TOY[workload]]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    tag = f"{workload} trace={trace}"
    check(proc.returncode == 0,
          f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{tag}: result keys {sorted(result)}")
    check(result["correct"] is True, f"{tag}: not correct\n{proc.stderr}")
    check(result["failed"] == 0, f"{tag}: fail_share > 0")
    check(result["attempted"] >= 1, f"{tag}: nothing attempted")
    metrics = result["metrics"]
    check(set(metrics) == set(declared),
          f"{tag}: metrics differ from BENCHMARK.json: "
          f"missing {sorted(set(declared) - set(metrics))}, "
          f"extra {sorted(set(metrics) - set(declared))}")
    for name, unit in declared.items():
        m = metrics[name]
        check(m["unit"] == unit, f"{tag}: {name} unit {m['unit']} != {unit}")
        check(isinstance(m["value"], (int, float)), f"{tag}: {name} value")
    if trace == 0:
        printed = {ln.split()[0] for ln in lines[:-1] if ln.strip()}
        for name in PRINTED[workload]:
            check(name in printed, f"{tag}: {name} not printed")
        fail_share = [ln for ln in lines if ln.startswith("fail_share")]
        check(fail_share and float(fail_share[0].split()[1]) == 0,
              f"{tag}: fail_share not 0")
    else:
        path = ROOT / ".bench_build" / "out" / f"{workload}-seed1.trace.json"
        events = json.loads(path.read_text())["traceEvents"]
        check(len(events) > 0, f"{tag}: empty trace")
        for e in events:
            check(e["name"] and e["dur"] >= 0 and "parent" in e["args"]
                  and "job" in e["args"] and "end_us" in e["args"],
                  f"{tag}: malformed span {e}")
    print(f"smoke: ok  {tag}  attempted={result['attempted']}")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        run(w["name"], 0, e2e)
        run(w["name"], 1, layers)
    print("smoke: all workloads ok")


if __name__ == "__main__":
    main()
