#!/usr/bin/env bash
# Build and run the hot-path microbenchmarks, emitting BENCH_hotpath.json
# (per-tick primitives, comparable across changes) at the repo root so
# every change leaves a comparable perf trajectory.  Whole-run macro-step vs
# per-tick rates are the benchmark's paper-macro and paper-tick
# workloads (perfbench/); the allocation-free steady state is asserted
# by the test_alloc suite.
#
# Usage: scripts/bench_hotpath.sh [--quick] [--out FILE]
#   --quick  one repetition with a tiny min-time (CI smoke: proves the
#            benchmark runs and produces valid JSON; timings are noisy)
#   --out F  write the microbenchmark JSON to F
#            (default BENCH_hotpath.json)
set -euo pipefail
cd "$(dirname "$0")/.."

MIN_TIME=0.5
OUT=BENCH_hotpath.json
while [[ $# -gt 0 ]]; do
    case "$1" in
      --quick) MIN_TIME=0.01; shift ;;
      --out) OUT="$2"; shift 2 ;;
      *) echo "usage: $0 [--quick] [--out FILE]" >&2; exit 2 ;;
    esac
done

NCPU=$(nproc 2>/dev/null || echo 1)

cmake -B build -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build build --parallel "$(nproc)" --target bench_hotpath \
    > /dev/null

./build/bench/bench_hotpath \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_out="$OUT" \
    --benchmark_out_format=json \
    --benchmark_counters_tabular=true

# The JSON must parse; fail loudly if the benchmark wrote garbage.  The
# host's hardware-thread count is recorded INTO the JSON so every
# number names its host.
python3 - "$OUT" "$NCPU" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)
names = [b["name"] for b in doc["benchmarks"]]
assert any(n.startswith("BM_SimulationStep/") for n in names), names
ncpu = int(sys.argv[2])
print(f"{path}: {len(names)} benchmark entries, JSON ok "
      f"(host hardware threads: {ncpu})")

doc["host_hardware_threads"] = ncpu
with open(path, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
EOF
