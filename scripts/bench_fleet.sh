#!/usr/bin/env bash
# Build and run the fleet-federation scalability benchmark, emitting
# BENCH_fleet.json at the repo root: one supervisor epoch (parallel
# shard macro-stepping + batched cross-shard settlement) per
# (chips, tasks/chip) shape swept over shard-stepping thread counts
# (jobs) 1, 2 and 4, the control thread included.  The flagship shape
# clears 64 chips x 160 tasks = 10,240 tasks per epoch.  Every jobs
# value produces byte-identical fleet state, and every row times the
# same window -- the first 32 epochs of a freshly built fleet -- so
# the curve is a pure wall-clock scaling measurement of the
# federation layer.  Two fault-tolerance
# shapes ride along: BM_ChipFailureEvacuation (epoch cost under chip
# failure/recovery churn, same window) and BM_SnapshotRoundTrip
# (crash-consistent save + validate + restore of the whole
# federation).
#
# Usage: scripts/bench_fleet.sh [--quick] [--out FILE]
#   --quick  every row once, tiny min-time (CI smoke: proves the
#            driver runs and the JSON parses; timings are noisy)
#   --out F  write the benchmark JSON to F (default BENCH_fleet.json)
#
# A full run repeats each row 3 times; the speedup table reads the
# medians.  Speedup numbers are only meaningful when the host has at
# least as many hardware threads as the largest jobs value (4); the
# script warns on stderr AND into the JSON when it does not.
set -euo pipefail
cd "$(dirname "$0")/.."

MIN_TIME=0.5
REPS=3
OUT=BENCH_fleet.json
while [[ $# -gt 0 ]]; do
    case "$1" in
      --quick) MIN_TIME=0.01; REPS=1; shift ;;
      --out) OUT="$2"; shift 2 ;;
      *) echo "usage: $0 [--quick] [--out FILE]" >&2; exit 2 ;;
    esac
done

NCPU=$(nproc 2>/dev/null || echo 1)
if [[ "$NCPU" -lt 4 ]]; then
    echo "WARNING: host has $NCPU hardware thread(s); jobs > $NCPU" \
         "rows oversubscribe the machine and understate the speedup." >&2
fi

cmake -B build -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build build --parallel "$(nproc)" --target bench_fleet_federation \
    > /dev/null

./build/bench/bench_fleet_federation \
    --benchmark_filter='BM_FleetEpoch|BM_ChipFailureEvacuation|BM_SnapshotRoundTrip' \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_repetitions="$REPS" \
    --benchmark_display_aggregates_only=true \
    --benchmark_out="$OUT" \
    --benchmark_out_format=json \
    --benchmark_counters_tabular=true

# The JSON must parse; record the host hardware-thread count into it
# (plus a loud warning key when the sweep oversubscribes the host)
# and print the jobs-sweep speedup table relative to jobs=1.
python3 - "$OUT" "$NCPU" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)
ncpu = int(sys.argv[2])
runs = [b for b in doc["benchmarks"]
        if b["name"].startswith("BM_FleetEpoch/")]
assert runs, "no BM_FleetEpoch entries in " + path
print(f"{path}: {len(runs)} entries, JSON ok "
      f"(host hardware threads: {ncpu})")

def parse(name):
    # BM_FleetEpoch/chips/tasks_per_chip/jobs[/iterations:N...]
    chips, tpc, jobs = (int(p) for p in name.split("/")[1:4])
    return (chips, tpc), jobs

# One time per row: the median of its repetitions when there are
# several, else its single run.
shapes = {}
max_jobs = 0
for b in runs:
    if b.get("aggregate_name", "median") != "median":
        continue
    shape, jobs = parse(b["run_name"])
    row = shapes.setdefault(shape, {})
    if b.get("run_type") == "aggregate" or jobs not in row:
        row[jobs] = b["real_time"]
    max_jobs = max(max_jobs, jobs)

doc["host_hardware_threads"] = ncpu
if max_jobs > ncpu:
    doc["warning"] = (
        f"OVERSUBSCRIBED: sweep uses up to {max_jobs} threads but the "
        f"host has only {ncpu} hardware thread(s); jobs > {ncpu} rows "
        "measure scheduler contention, not federation speedup.")
    print("WARNING:", doc["warning"], file=sys.stderr)
with open(path, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")

for shape in sorted(shapes):
    base = shapes[shape].get(1)
    if base is None:
        continue
    chips, tpc = shape
    cells = []
    for jobs in sorted(shapes[shape]):
        ms = shapes[shape][jobs]
        cells.append(f"jobs={jobs}: {ms:8.3f} ms ({base / ms:4.2f}x)")
    print(f"chips={chips} tasks/chip={tpc} "
          f"({chips * tpc} tasks/epoch): " + "  ".join(cells))
EOF
