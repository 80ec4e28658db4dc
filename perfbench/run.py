#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root.  The first run configures and builds
perfbench/ (which compiles the libraries under src/ from source) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
only rebuild what changed.  The measuring program prints its log and
one JSON line of every metric it measured; this script maps that line
onto the metric lists of BENCHMARK.json and prints, as its last line,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1).  A metric whose path the workload does not run is printed
as "not exercised" and reported as 1 (end to end, which must never be
0) or 0 (per layer).  Exit status is non-zero, with no result line,
when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NOT_EXERCISED_END_TO_END = 1.0
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def call(cmd):
    """Run a build step with its output on stderr; return its status."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr).returncode
    except OSError as e:
        fail("cannot run %s: %s" % (cmd[0], e))


def build(build_root):
    """Configure (once) and build perfbench; return the binary path."""
    build_dir = os.path.join(build_root, "perfbench")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
               build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if call(cmd) != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    if call(["cmake", "--build", build_dir, "-j", "4"]) != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def source_digest():
    """SHA-256 over the files the program is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit_id():
    """HEAD when ROOT is itself a git checkout, else 'none'."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel"], capture_output=True,
                             text=True, timeout=10)
        if top.returncode != 0 or \
                os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "none"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    binary = build(build_root)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id(), "--source", source_digest()]
    if args.trace:
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("perfbench exited with status %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("perfbench printed no result line")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    unlisted = set(raw["metrics"]) - {m["name"] for m in wanted}
    if unlisted:
        fail("perfbench measured %s, which BENCHMARK.json does not list"
             % ", ".join(sorted(unlisted)))
    filler = 0.0 if args.trace else NOT_EXERCISED_END_TO_END
    metrics = {}
    print("%-34s %16s  %-14s %s" % ("metric", "value", "unit", "samples"))
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            value, samples = filler, "not exercised"
        else:
            if got["unit"] != m["unit"]:
                fail("%s measured in %s, BENCHMARK.json says %s"
                     % (m["name"], got["unit"], m["unit"]))
            value, samples = got["value"], str(got["samples"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-34s %16.6g  %-14s %s" % (m["name"], value, m["unit"],
                                          samples))
    print(json.dumps({"correct": raw["correct"],
                      "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
