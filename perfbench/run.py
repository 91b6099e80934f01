#!/usr/bin/env python3
"""The graybox benchmark: builds perfbench/graybench and runs one workload.

Run from the root of a graybox source tree:

    python3 perfbench/run.py --workload load_steady --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1    # every workload, one process each

Workloads (see BENCHMARK.json for why each was chosen):
  load_steady   graysimd replay, 128 machines x 80 open-loop clients
  ckpt_restart  wave -> Snapshot -> Save -> Load -> Fork cycles; its traced
                runs also probe MAC admission for the gray.mac layers

The first run configures and builds graybench and the simulator libraries
from ../src into .bench_build/ (CMake, RelWithDebInfo with IPO as in the root
CMakeLists.txt). Every run executes in its own process, so peak RSS and
allocation counts belong to that workload alone.

The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. Per-run details (host shape,
both metric sets, the virtual digest) land in .bench_build/out/result-*.json
and, for traced runs, spans in .bench_build/out/spans-*.json.

Beyond graybench's own checks, this script keeps a ledger of the
virtual-clock results of every (source tree, workload, seed) it has run:
a later run of the same seed, traced or not, must reproduce them bit for
bit. The exit status is nonzero when any check fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD, "graybench")
WORKLOADS = ["load_steady", "ckpt_restart"]
RUN_TIMEOUT_S = 170
VIRTUAL_METRICS = ["virt_ms.p50", "virt_ms.p90", "goodput_per_virt_s"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_id():
    """The commit when this is a git checkout, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30, check=False)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for top in ["src", "bench", "perfbench"]:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def build():
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "graybench"])
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, check=False)
            if proc.returncode != 0:
                log(proc.stdout[-4000:])
                return False
    return True


def check_ledger(result_path, workload, seed, sid):
    """Compares this run's virtual-clock results with earlier runs of the seed."""
    with open(result_path) as f:
        result = json.load(f)
    entry = {"virtual_digest": result["virtual_digest"]}
    for name in VIRTUAL_METRICS:
        entry[name] = result["end_to_end"][name]["value"]
    key = "%s|%s|%d" % (sid, workload, seed)
    errors = []
    ledger_path = os.path.join(OUT, "ledger.json")
    with open(os.path.join(OUT, "ledger.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        ledger = {}
        if os.path.exists(ledger_path):
            with open(ledger_path) as f:
                ledger = json.load(f)
        if key in ledger and ledger[key] != entry:
            errors.append("virtual-clock results of seed %d differ between runs: %s vs %s"
                          % (seed, ledger[key], entry))
        ledger.setdefault(key, entry)
        with open(ledger_path + ".tmp", "w") as f:
            json.dump(ledger, f, indent=1, sort_keys=True)
        os.replace(ledger_path + ".tmp", ledger_path)
    return errors


def run_one(args, sid):
    result_path = os.path.join(OUT, "result-%s-%d-%d.json" % (args.workload, args.seed,
                                                               args.trace))
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--out", OUT, "--commit", sid]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("graybench %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
        return 1
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(stdout)
        log("graybench %s printed no result (exit %d)" % (args.workload, proc.returncode))
        return 1
    if os.path.exists(result_path):
        errors = check_ledger(result_path, args.workload, args.seed, sid)
    else:
        errors = ["graybench wrote no result file"]
    for e in errors:
        lines.insert(-1, "CHECK FAILED: " + e)
    if errors:
        result["correct"] = False
        result["failed"] = result["attempted"]
    lines[-1] = json.dumps(result)
    print("\n".join(lines), flush=True)
    return 0 if proc.returncode == 0 and not errors else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    args.seed &= (1 << 64) - 1  # graybench reads seeds as unsigned 64-bit values

    if not (os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt"))
            and os.path.exists(os.path.join(ROOT, "bench", "alloc_hook.cc"))):
        log("perfbench: %s is not a graybox source tree (src/ and bench/ are missing)" % ROOT)
        return 2
    if not build():
        log("perfbench: build failed")
        return 2
    os.makedirs(OUT, exist_ok=True)
    sid = source_id()
    if args.workload != "all":
        return run_one(args, sid)
    status = 0
    for workload in WORKLOADS:
        args.workload = workload
        status |= run_one(args, sid)
    return status


if __name__ == "__main__":
    sys.exit(main())
