#!/usr/bin/env bash
# Build and run a differential fuzz sweep, emitting BENCH_fuzz.json at
# the repo root: N seeded scenarios checked across every equivalence
# the engine promises (policy x macro-vs-tick, incremental vs full
# clearing, fleet jobs/repeat determinism, budget conservation, fault
# counters, snapshot restore), with throughput recorded -- next to the
# host's hardware-thread count and the --jobs value it ran at -- so
# fuzzing capacity regressions are visible in review.
#
# Usage: scripts/fuzz_sweep.sh [--count N] [--jobs J] [--seed S]
#                              [--out FILE]
#   --count N  scenarios to check (default 2000; ~40 s at 4 threads)
#   --jobs J   worker threads (default 0 = all hardware threads)
#   --seed S   campaign base seed (default 1; any failing scenario is
#              reproducible from (seed, index) alone)
#   --out F    write the sweep JSON to F (default BENCH_fuzz.json)
#
# Exit code mirrors ppm_fuzz: 0 clean, 1 violations (each shrunk to a
# minimized fixture printed with its one-line replay command).
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT=2000
JOBS=0
SEED=1
OUT=BENCH_fuzz.json
while [[ $# -gt 0 ]]; do
    case "$1" in
      --count) COUNT="$2"; shift 2 ;;
      --jobs) JOBS="$2"; shift 2 ;;
      --seed) SEED="$2"; shift 2 ;;
      --out) OUT="$2"; shift 2 ;;
      *) echo "usage: $0 [--count N] [--jobs J] [--seed S] [--out FILE]" >&2
         exit 2 ;;
    esac
done

cmake -B build -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build build --parallel "$(nproc)" --target ppm_fuzz \
    > /dev/null

STATUS=0
./build/tools/ppm_fuzz --count "$COUNT" --jobs "$JOBS" --seed "$SEED" \
    --json-out "$OUT" --fixture-dir tests/fuzz/fixtures || STATUS=$?

# The JSON must parse and agree with the exit status; record the host
# hardware-thread count and the worker setting into it.
python3 - "$OUT" "$STATUS" "$(nproc 2>/dev/null || echo 1)" "$JOBS" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
status = int(sys.argv[2])
assert doc["count"] > 0, "empty sweep"
assert (doc["violations"] == 0) == (status == 0), \
    f"exit status {status} disagrees with {doc['violations']} violations"
doc["host_hardware_threads"] = int(sys.argv[3])
doc["jobs"] = int(sys.argv[4])  # 0 = all hardware threads.
with open(sys.argv[1], "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"{sys.argv[1]}: {doc['count']} scenarios, "
      f"{doc['violations']} violating, "
      f"{doc['scenarios_per_sec']:.1f} scenarios/s "
      f"({doc['host_hardware_threads']} hardware threads, "
      f"--jobs {doc['jobs']}), JSON ok")
EOF

exit "$STATUS"
