#!/usr/bin/env python3
"""End-to-end benchmark of the galactos 3PCF pipeline (see README.md here).

    python3 perfbench/run.py --workload box-l10 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. It builds the benchmark (perfbench.cpp,
linked against the library built by the repository's own CMakeLists.txt)
into .bench_build/, generates the workload's seeded input catalogs into
.bench_work/ before any timing, times the file-in/file-out path for
--seconds, checks the results, and prints as its last stdout line one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 is the separate traced run that reports the
per-layer metrics and writes a Chrome trace-event file under
.bench_work/traces/. Lines before the last one carry the provenance, the
result checks and the repetition count.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("box-l10", "survey-l10", "dist4-l5")
DEFAULT_SEED = 1
STEP_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_step(cmd, timeout, capture=False):
    """Runs cmd to completion (killing and reaping it on timeout)."""
    proc = subprocess.Popen(cmd, cwd=ROOT,
                            stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"timed out after {timeout}s: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {' '.join(cmd)}")
    return out


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError(f"no galactos sources under {ROOT}")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"], 300)
    run_step(["cmake", "--build", BUILD, "--target", "perfbench",
              "--parallel", "4"], 850)
    return os.path.join(BUILD, "perfbench")


def git_state():
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode != 0:
            return "unknown", -1
        st = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                             "--untracked-files=no"],
                            capture_output=True, text=True, timeout=10)
        return sha.stdout.strip(), int(bool(st.stdout.strip()))
    except (OSError, subprocess.SubprocessError):
        return "unknown", -1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input (smoke test only)")
    args = ap.parse_args()

    exe = build()
    tag = f"{args.workload}-{args.size}-{args.seed}"
    inputs = os.path.join(WORK, tag)
    shutil.rmtree(inputs, ignore_errors=True)
    os.makedirs(inputs)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", inputs, "--size", args.size]
    run_step([exe, "gen"] + common, STEP_TIMEOUT_S, capture=True)

    cmd = [exe, "run"] + common + ["--seconds", str(args.seconds)]
    sha, dirty = git_state()
    cmd += ["--git-sha", sha, "--git-dirty", str(dirty)]
    if args.trace:
        traces = os.path.join(WORK, "traces")
        os.makedirs(traces, exist_ok=True)
        trace_file = os.path.join(traces, f"{tag}.json")
        cmd += ["--trace-file", trace_file]
    raw = json.loads(run_step(cmd, STEP_TIMEOUT_S,
                              capture=True).strip().splitlines()[-1])
    shutil.rmtree(inputs, ignore_errors=True)

    print("provenance: " + json.dumps(raw["provenance"]))
    print("checks: " + json.dumps(raw["checks"]))
    walls = raw["walls_s"]
    print(f"repetitions: {len(walls)} untraced, {raw['traced_reps']} traced;"
          f" pairs {raw['pairs']}; untraced wall min {min(walls):.4f} s,"
          f" max {max(walls):.4f} s")
    if args.trace:
        print(f"trace: {os.path.relpath(trace_file, ROOT)}")
    print(json.dumps({"correct": raw["failed"] == 0,
                      "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": raw["metrics"]}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: error: {e}")
        sys.exit(1)
