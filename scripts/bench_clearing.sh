#!/usr/bin/env bash
# Build and run the market-clearing benchmarks, emitting
# BENCH_clearing.json at the repo root: one full-recompute market round
# per Table 7 (V, C, T) shape (BM_SupplyDemandRound), plus the
# incremental active-set sweep (dirty fraction x engine on/off,
# BM_IncrementalClearingRound).  Either engine mode produces
# bit-identical market state, so the incremental curve is a pure
# wall-clock measurement.
#
# Usage: scripts/bench_clearing.sh [--quick] [--out FILE]
#   --quick  one tiny min-time repetition (CI smoke: proves the driver
#            runs and the JSON parses; timings are noisy)
#   --out F  write the benchmark JSON to F (default BENCH_clearing.json)
set -euo pipefail
cd "$(dirname "$0")/.."

MIN_TIME=0.5
OUT=BENCH_clearing.json
while [[ $# -gt 0 ]]; do
    case "$1" in
      --quick) MIN_TIME=0.01; shift ;;
      --out) OUT="$2"; shift 2 ;;
      *) echo "usage: $0 [--quick] [--out FILE]" >&2; exit 2 ;;
    esac
done

NCPU=$(nproc 2>/dev/null || echo 1)

cmake -B build -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build build --target bench_table7_scalability > /dev/null

./build/bench/bench_table7_scalability \
    --benchmark_filter='BM_SupplyDemandRound|BM_IncrementalClearingRound' \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_out="$OUT" \
    --benchmark_out_format=json \
    --benchmark_counters_tabular=true

# The JSON must parse and hold both families.  The host's
# hardware-thread count is recorded INTO the JSON so every number
# names its host; then the per-shape round cost and the incremental
# sweep are printed for a glance.
python3 - "$OUT" "$NCPU" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)
ncpu = int(sys.argv[2])
rounds = [b for b in doc["benchmarks"]
          if b["name"].startswith("BM_SupplyDemandRound/")]
assert rounds, "no BM_SupplyDemandRound entries in " + path
inc_runs = [b for b in doc["benchmarks"]
            if b["name"].startswith("BM_IncrementalClearingRound/")]
assert inc_runs, "no BM_IncrementalClearingRound entries in " + path
print(f"{path}: {len(rounds) + len(inc_runs)} entries, JSON ok "
      f"(host hardware threads: {ncpu})")

doc["host_hardware_threads"] = ncpu
with open(path, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")

# Full-recompute round per shape: BM_SupplyDemandRound/V/C/T.
print("supply-demand round (full recompute):")
for b in rounds:
    v, c, t = (int(p) for p in b["name"].split("/")[1:4])
    tasks = v * c * t
    ms = b["real_time"]
    print(f"V={v:3d} C={c:2d} T={t:2d} ({tasks:7d} tasks): "
          f"{ms:9.4f} ms ({ms * 1e6 / tasks:6.1f} ns/task)")

# Incremental sweep: full-recompute vs active-set time per (shape,
# dirty%), with the measured task skip rate alongside -- the speedup
# must come with a matching skip rate or it is measurement noise.
inc = {}
for b in inc_runs:
    # BM_IncrementalClearingRound/V/C/T/dirty/incremental
    v, c, t, dirty, mode = (int(p) for p in b["name"].split("/")[1:6])
    inc.setdefault(((v, c, t), dirty), {})[mode] = b
print("incremental active-set clearing (full -> incremental):")
for (shape, dirty) in sorted(inc):
    pair = inc[(shape, dirty)]
    if 0 not in pair or 1 not in pair:
        continue
    full_ms = pair[0]["real_time"]
    inc_ms = pair[1]["real_time"]
    skip = pair[1].get("task_skip_rate", 0.0)
    v, c, t = shape
    print(f"V={v} C={c} T={t} ({v * c * t} tasks) dirty={dirty:3d}%: "
          f"{full_ms:8.3f} ms -> {inc_ms:8.3f} ms "
          f"({full_ms / inc_ms:5.2f}x, task skip rate {skip:.1%})")
EOF
