#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload named in BENCHMARK.json at a tiny input size, once with
tracing off and once with it on, and fails (exit 1) if a result line is
malformed, a result check fails, any metric BENCHMARK.json names is missing,
has the wrong or no unit, or is not a finite number, or if the trace file
does not parse as Chrome trace-event JSON. Takes about a minute after the
first build.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(spec, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    if p.returncode != 0:
        return [f"exit {p.returncode}: {p.stderr.strip()[-400:]}"]
    lines = p.stdout.strip().splitlines()
    errors = []
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        return [f"last line is not JSON: {e}"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int)
            and result["attempted"] >= 1):
        errors.append("attempted must be a whole number >= 1")
    if result.get("failed") != 0 or result.get("correct") is not True:
        errors.append(f"checks failed: {lines[:-1]}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    for m in wanted:
        got = metrics.get(m["name"])
        if not isinstance(got, dict):
            errors.append(f"missing metric {m['name']}")
            continue
        if got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {got.get('unit')!r}, "
                          f"expected {m['unit']!r}")
        v = got.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"{m['name']}: value {v!r} is not finite")
    if trace:
        paths = [l.split(": ", 1)[1] for l in lines if l.startswith("trace: ")]
        if not paths:
            errors.append("no trace file reported")
        else:
            try:
                with open(os.path.join(ROOT, paths[0])) as f:
                    events = json.load(f)["traceEvents"]
                spans = [e for e in events if e.get("ph") == "X"]
                if not spans or not all(
                        e["dur"] >= 0 and "ts" in e for e in spans):
                    errors.append("trace has no complete spans")
            except (OSError, ValueError, KeyError, TypeError) as e:
                errors.append(f"trace file does not parse: {e}")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors = check_run(spec, w["name"], trace)
            status = "ok" if not errors else "FAIL"
            print(f"{w['name']} trace={trace}: {status}")
            for e in errors:
                print(f"  {e}")
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
