#!/usr/bin/env bash
# Full verification: configure, build (warnings are errors), test, and
# smoke-run every benchmark and example.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPPM_WERROR=ON
cmake --build build
ctest --test-dir build --output-on-failure -j "$(nproc)"

# Fast smoke pass over the benches (full runs are minutes; see
# EXPERIMENTS.md for the real regeneration command).
./build/bench/bench_table1_2_3_dynamics > /dev/null
./build/bench/bench_table4_hrm > /dev/null
./build/bench/bench_table6_intensity > /dev/null
./build/bench/bench_table7_scalability \
    --benchmark_min_time=0.01 --benchmark_filter='/2/4/8$' > /dev/null

# Perf smoke: one quick repetition of the hot-path benchmark, with the
# JSON output validated (the full run regenerates BENCH_hotpath.json).
# Both outputs go to /tmp: without --macro-out the quick pass would
# overwrite the tracked BENCH_macrostep.json with noisy numbers.
./scripts/bench_hotpath.sh --quick --out /tmp/ppm_bench_hotpath.json \
    --macro-out /tmp/ppm_bench_macrostep.json > /dev/null
rm -f /tmp/ppm_bench_hotpath.json /tmp/ppm_bench_macrostep.json

./build/examples/quickstart l1 5 > /dev/null
./build/examples/mixed_criticality 5 > /dev/null
./build/examples/thermal_budget l1 > /dev/null || true
./build/examples/custom_platform 5 > /dev/null
./build/examples/app_lifecycle 5 > /dev/null
(cd /tmp && "$OLDPWD"/build/examples/trace_replay > /dev/null)
./build/tools/ppm_run --set l1 --seconds 5 > /dev/null

# Streaming telemetry round-trip: both sink formats through trace_stats.
./build/tools/ppm_run --set l1 --seconds 5 \
    --trace-format=jsonl --trace-out=/tmp/ppm_check.jsonl > /dev/null
./build/tools/trace_stats /tmp/ppm_check.jsonl > /dev/null
./build/tools/ppm_run --set l1 --seconds 5 \
    --trace-out=/tmp/ppm_check.csv > /dev/null
./build/tools/trace_stats /tmp/ppm_check.csv > /dev/null
rm -f /tmp/ppm_check.jsonl /tmp/ppm_check.csv

# Macro-stepping equivalence smoke: the event-horizon engine must be
# byte-identical to the historical per-tick loop on a real workload,
# both clean and under deterministic fault injection (fault edges are
# horizon bounds, so the same spec must replay bit-exactly).
./build/tools/ppm_run --set l1 --seconds 8 --csv > /tmp/ppm_macro.csv
./build/tools/ppm_run --set l1 --seconds 8 --csv --per-tick \
    > /tmp/ppm_tick.csv
cmp /tmp/ppm_macro.csv /tmp/ppm_tick.csv
for policy in PPM HPM HL; do
    ./build/tools/ppm_run --policy "$policy" --set l1 --seconds 8 \
        --faults all,seed=7,rate=30 --csv > /tmp/ppm_macro.csv
    ./build/tools/ppm_run --policy "$policy" --set l1 --seconds 8 \
        --faults all,seed=7,rate=30 --csv --per-tick > /tmp/ppm_tick.csv
    cmp /tmp/ppm_macro.csv /tmp/ppm_tick.csv
done
rm -f /tmp/ppm_macro.csv /tmp/ppm_tick.csv

# Incremental-clearing equivalence smoke: the active-set engine skips
# only entries whose every fold input is bit-unchanged, so a full
# recompute of every round must produce the same bytes -- summary CSV
# and streamed traces alike.
./build/tools/ppm_run --set l1 --seconds 8 --csv > /tmp/ppm_inc.csv
./build/tools/ppm_run --set l1 --seconds 8 --csv --no-incremental \
    > /tmp/ppm_full.csv
cmp /tmp/ppm_inc.csv /tmp/ppm_full.csv
./build/tools/ppm_run --set l1 --seconds 8 \
    --trace-format=jsonl --trace-out=/tmp/ppm_inc.jsonl > /dev/null
./build/tools/ppm_run --set l1 --seconds 8 --no-incremental \
    --trace-format=jsonl --trace-out=/tmp/ppm_full.jsonl > /dev/null
cmp /tmp/ppm_inc.jsonl /tmp/ppm_full.jsonl
rm -f /tmp/ppm_inc.csv /tmp/ppm_full.csv \
    /tmp/ppm_inc.jsonl /tmp/ppm_full.jsonl

# Fleet federation smokes: a 1-chip fleet is the same economy behind
# a supervisor that never moves its budget, so its CSV must be
# byte-identical to the plain run; and the sharded epoch loop keeps
# all cross-shard work on the control thread in chip-id order, so the
# shard-pool worker count must never change a byte either.
./build/tools/ppm_run --set l1 --seconds 8 --csv > /tmp/ppm_plain.csv
./build/tools/ppm_run --set l1 --seconds 8 --csv --fleet 1 \
    > /tmp/ppm_fleet1.csv
cmp /tmp/ppm_plain.csv /tmp/ppm_fleet1.csv
./build/tools/ppm_run --set l1 --seconds 8 --csv --fleet 4 --jobs 1 \
    > /tmp/ppm_fleet_j1.csv
./build/tools/ppm_run --set l1 --seconds 8 --csv --fleet 4 --jobs 4 \
    > /tmp/ppm_fleet_j4.csv
cmp /tmp/ppm_fleet_j1.csv /tmp/ppm_fleet_j4.csv
# Warm-start cross-check: fleet shards keep their markets alive across
# supervisor epochs (budget moves arrive mid-economy), so the
# incremental engine's cross-invocation memos face every invalidation
# channel at once -- and must still match the full recompute.
./build/tools/ppm_run --set l1 --seconds 8 --csv --fleet 4 \
    --no-incremental > /tmp/ppm_fleet_full.csv
cmp /tmp/ppm_fleet_j1.csv /tmp/ppm_fleet_full.csv
rm -f /tmp/ppm_plain.csv /tmp/ppm_fleet1.csv \
    /tmp/ppm_fleet_j1.csv /tmp/ppm_fleet_j4.csv /tmp/ppm_fleet_full.csv

# Kill-and-resume smokes: a run saved at a snapshot point and resumed
# in a fresh process must print byte-identical summaries to the
# uninterrupted run -- single-chip, federated, and federated under
# chip failure/recovery (health, rosters and the pending-evacuation
# queue all travel through the snapshot).
./build/tools/ppm_run --set l1 --seconds 8 --csv > /tmp/ppm_whole.csv
./build/tools/ppm_run --set l1 --seconds 8 \
    --snapshot-out /tmp/ppm_check.snap --snapshot-at 3500 > /dev/null
./build/tools/ppm_run --set l1 --seconds 8 --csv \
    --snapshot-in /tmp/ppm_check.snap > /tmp/ppm_resumed.csv
cmp /tmp/ppm_whole.csv /tmp/ppm_resumed.csv
./build/tools/ppm_run --set l1 --seconds 8 --csv --fleet 4 \
    > /tmp/ppm_whole.csv
./build/tools/ppm_run --set l1 --seconds 8 --fleet 4 \
    --snapshot-out /tmp/ppm_check.snap --snapshot-at 3500 > /dev/null
./build/tools/ppm_run --set l1 --seconds 8 --csv --fleet 4 \
    --snapshot-in /tmp/ppm_check.snap > /tmp/ppm_resumed.csv
cmp /tmp/ppm_whole.csv /tmp/ppm_resumed.csv
./build/tools/ppm_run --set l1 --seconds 8 --csv --fleet 4 \
    --faults chip-fail,chip-recover,seed=7,chip_rate=30 \
    > /tmp/ppm_whole.csv
./build/tools/ppm_run --set l1 --seconds 8 --fleet 4 \
    --faults chip-fail,chip-recover,seed=7,chip_rate=30 \
    --snapshot-out /tmp/ppm_check.snap --snapshot-at 3500 > /dev/null
./build/tools/ppm_run --set l1 --seconds 8 --csv --fleet 4 \
    --faults chip-fail,chip-recover,seed=7,chip_rate=30 \
    --snapshot-in /tmp/ppm_check.snap > /tmp/ppm_resumed.csv
cmp /tmp/ppm_whole.csv /tmp/ppm_resumed.csv
rm -f /tmp/ppm_whole.csv /tmp/ppm_resumed.csv /tmp/ppm_check.snap

# Clearing and fleet bench smokes: one quick repetition each
# with the JSON validated (full runs regenerate BENCH_clearing.json
# and BENCH_fleet.json).
./scripts/bench_clearing.sh --quick --out /tmp/ppm_bench_clearing.json \
    > /dev/null
./scripts/bench_fleet.sh --quick --out /tmp/ppm_bench_fleet.json \
    > /dev/null
rm -f /tmp/ppm_bench_clearing.json /tmp/ppm_bench_fleet.json

# Fault-resilience smoke: the fault bench must run end to end.
./build/bench/bench_fault_resilience > /dev/null

# Differential fuzz smoke: a few hundred seeded scenarios checked
# across every engine equivalence (policies x macro-vs-tick,
# incremental on/off, budget conservation, fault counters,
# chip-failure conservation, snapshot restore-equivalence).  The full
# sweep is scripts/fuzz_sweep.sh; this pass proves the fuzzer and the
# invariants hold on a fresh build.  The second seed skews toward
# federated scenarios, where the chip-fault and snapshot genes live.
./build/tools/ppm_fuzz --count 200 --seed 1 > /dev/null
./build/tools/ppm_fuzz --count 100 --seed 77 > /dev/null

# Race check: the parallel sweep is only deterministic if cells share
# no mutable state, so run the threaded tests under ThreadSanitizer.
# The trace/telemetry tests ride along: each cell must own its bus
# and sinks, so traced parallel runs are the racy case to sanitize.
cmake -B build-tsan -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPPM_TSAN=ON
cmake --build build-tsan --target test_common test_integration \
    test_metrics test_fleet test_snapshot
./build-tsan/tests/test_common \
    --gtest_filter='ThreadPool.*' > /dev/null
# The fleet macro-steps shards on pool workers between settlement
# barriers; its determinism tests double as the federation race
# detector, and the chip-fault tests exercise evacuation across the
# same barriers.
./build-tsan/tests/test_fleet > /dev/null
# Snapshot save/load walks every shard's live state while the pool is
# parked; the restore tests prove no worker still touches it.
./build-tsan/tests/test_snapshot \
    --gtest_filter='SnapshotRestore.Fleet*:SnapshotRestore.Faulted*' \
    > /dev/null
./build-tsan/tests/test_metrics \
    --gtest_filter='TraceBus.*:TraceSink.*:TraceRecorder.*' > /dev/null
./build-tsan/tests/test_integration \
    --gtest_filter='Sweep.*:RunCells.*:Macrostep.*' > /dev/null
# The fuzz driver fans scenarios out over the same pool; a short
# sweep under TSAN sanitizes the differential checker itself.
cmake --build build-tsan --target ppm_fuzz
./build-tsan/tools/ppm_fuzz --count 20 --seed 1 > /dev/null

# Memory/UB check: the fault layer mutates hardware state (offlining
# cores, deferring DVFS) on irregular schedules, so run its tests and
# the hardened-market tests under ASan+UBSan.
cmake -B build-asan -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPPM_ASAN=ON
cmake --build build-asan --target test_fault test_market test_hw \
    test_fleet test_snapshot
./build-asan/tests/test_fault > /dev/null
# Incremental rides along here too: the memo arrays are the newest
# indexed state, so overruns would surface under ASan first.  The
# market-correctness regressions (ParallelClearing.*) drive every
# clearing pass, each indexing tasks_ through the core and cluster
# indices.
./build-asan/tests/test_market \
    --gtest_filter='Watchdog.*:OnlineEstimator.*:Incremental.*:ParallelClearing.*' \
    > /dev/null
./build-asan/tests/test_hw \
    --gtest_filter='VfTable.*:PowerModel*.*' > /dev/null
# Evacuation re-admits tasks into grown per-task containers (the
# online estimator and residency tables resize mid-run), and restore
# rebuilds every container through the admission log -- both are
# index-heavy paths ASan owns.
./build-asan/tests/test_fleet --gtest_filter='FleetFaults.*' \
    > /dev/null
./build-asan/tests/test_snapshot > /dev/null

echo "all checks passed"
