#!/usr/bin/env bash
# Full verification: configure, build (warnings are errors), test, and
# smoke-run every benchmark and example.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPPM_WERROR=ON
cmake --build build --parallel "$(nproc)"
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
./scripts/bench_hotpath.sh --quick --out /tmp/ppm_bench_hotpath.json \
    > /dev/null
rm -f /tmp/ppm_bench_hotpath.json

./build/examples/quickstart l1 5 > /dev/null
./build/examples/mixed_criticality 5 > /dev/null
./build/examples/thermal_budget l1 > /dev/null
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
# Every cell is read strictly: a line with a non-numeric cell is
# skipped with a warning, not read as 0.
printf 'time_s,series,value\n1.0,x,abc\n2.0,x,4\n' > /tmp/ppm_check.csv
./build/tools/trace_stats /tmp/ppm_check.csv 2>&1 > /dev/null \
    | grep -q "warning: skipping malformed line 2"
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
# Span-path smoke: HPM and HL replay almost every interval with the
# span kernel (their heart-rate windows rarely reach the bulk fixed
# point), so each policy also runs clean on m2 under a 4 W TDP,
# macro-stepped and per tick; the summaries and the archives saved at
# 15 s (every HRM window's runs, ring capacity and sums) must match.
for policy in PPM HPM HL; do
    ./build/tools/ppm_run --policy "$policy" --set m2 --seconds 20 \
        --tdp 4 --csv > /tmp/ppm_macro.csv
    ./build/tools/ppm_run --policy "$policy" --set m2 --seconds 20 \
        --tdp 4 --csv --per-tick > /tmp/ppm_tick.csv
    cmp /tmp/ppm_macro.csv /tmp/ppm_tick.csv
    ./build/tools/ppm_run --policy "$policy" --set m2 --seconds 20 \
        --tdp 4 --snapshot-out /tmp/ppm_macro.snap --snapshot-at 15000 \
        > /dev/null
    ./build/tools/ppm_run --policy "$policy" --set m2 --seconds 20 \
        --tdp 4 --per-tick --snapshot-out /tmp/ppm_tick.snap \
        --snapshot-at 15000 > /dev/null
    cmp /tmp/ppm_macro.snap /tmp/ppm_tick.snap
done
# HL rests through its wakes while the chip sits at a bulk fixed
# point (with no sink attached), and its timers lag until the next
# tick or save catches them up.  150 s into m2 lies inside such a
# stretch, so the archive saved there must match the per-tick one.
./build/tools/ppm_run --policy HL --set m2 --seconds 300 \
    --snapshot-out /tmp/ppm_macro.snap --snapshot-at 150000 > /dev/null
./build/tools/ppm_run --policy HL --set m2 --seconds 300 --per-tick \
    --snapshot-out /tmp/ppm_tick.snap --snapshot-at 150000 > /dev/null
cmp /tmp/ppm_macro.snap /tmp/ppm_tick.snap
# An interval leaves the sensors reading its own power, as its last
# tick does.  Near 300 ms into m2 under HPM an interval's water-fill
# differs from its boundary tick's (a migration charge ends inside
# that tick), so the archive saved there holds the interval's
# reading; and a capped fleet's barriers read it into the
# supervisor's budgets (a 100-ms epoch is no multiple of HPM's 32-ms
# wake).
./build/tools/ppm_run --policy HPM --set m2 --seconds 2 \
    --snapshot-out /tmp/ppm_macro.snap --snapshot-at 300 > /dev/null
./build/tools/ppm_run --policy HPM --set m2 --seconds 2 --per-tick \
    --snapshot-out /tmp/ppm_tick.snap --snapshot-at 300 > /dev/null
cmp /tmp/ppm_macro.snap /tmp/ppm_tick.snap
./build/tools/ppm_run --policy HPM --set m2 --seconds 1 --tdp 4 \
    --fleet 4 --fleet-epoch 100 --csv > /tmp/ppm_macro.csv
./build/tools/ppm_run --policy HPM --set m2 --seconds 1 --tdp 4 \
    --fleet 4 --fleet-epoch 100 --csv --per-tick > /tmp/ppm_tick.csv
cmp /tmp/ppm_macro.csv /tmp/ppm_tick.csv
# The engine counters go to stderr only, and name the span path; the
# span path must take HRM-window samples in closed form, or the
# byte checks above only exercised its one-by-one fallback.
./build/tools/ppm_run --policy HPM --set m2 --seconds 20 --tdp 4 \
    --engine-stats > /dev/null 2> /tmp/ppm_engine.txt
grep -q " span_ticks=[1-9]" /tmp/ppm_engine.txt
grep -q " span_window_closed=[1-9]" /tmp/ppm_engine.txt
# The per-tick loop is the reference: it never looks up the slot
# cache.
./build/tools/ppm_run --policy HPM --set m2 --seconds 10 --per-tick \
    --engine-stats > /dev/null 2> /tmp/ppm_engine.txt
grep -q " cache_hits=0 cache_misses=0 " /tmp/ppm_engine.txt
# HL must rest somewhere in a minute of m2, or the checks above never
# ran past a wake.
./build/tools/ppm_run --policy HL --set m2 --seconds 60 \
    --engine-stats > /dev/null 2> /tmp/ppm_engine.txt
grep -q " rest_intervals=[1-9]" /tmp/ppm_engine.txt
rm -f /tmp/ppm_macro.csv /tmp/ppm_tick.csv /tmp/ppm_macro.snap \
    /tmp/ppm_tick.snap /tmp/ppm_engine.txt

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
# --jobs N steps shards on N threads, the control thread included, so
# --jobs 2 is the first value that fork-joins (one worker).
for jobs in 1 2 3 4; do
    ./build/tools/ppm_run --set l1 --seconds 8 --csv --fleet 4 \
        --jobs "$jobs" > "/tmp/ppm_fleet_j$jobs.csv"
done
for jobs in 2 3 4; do
    cmp /tmp/ppm_fleet_j1.csv "/tmp/ppm_fleet_j$jobs.csv"
done
# Warm-start cross-check: fleet shards keep their markets alive across
# supervisor epochs (budget moves arrive mid-economy), so the
# incremental engine's cross-invocation memos face every invalidation
# channel at once -- and must still match the full recompute.
./build/tools/ppm_run --set l1 --seconds 8 --csv --fleet 4 \
    --no-incremental > /tmp/ppm_fleet_full.csv
cmp /tmp/ppm_fleet_j1.csv /tmp/ppm_fleet_full.csv
# A faulted fleet fails, degrades and recovers chips at the barrier
# and places evacuations through admission control, all on the
# control thread, so its bytes must not depend on the thread count
# either.
for jobs in 1 4; do
    ./build/tools/ppm_run --set m2 --seconds 20 --fleet 4 --tdp 4 \
        --faults chip-fail,chip-degrade,chip-recover,seed=7,chip_rate=30 \
        --csv --jobs "$jobs" > "/tmp/ppm_fleet_faults_j$jobs.csv"
done
cmp /tmp/ppm_fleet_faults_j1.csv /tmp/ppm_fleet_faults_j4.csv
rm -f /tmp/ppm_plain.csv /tmp/ppm_fleet1.csv /tmp/ppm_fleet_j[1-4].csv \
    /tmp/ppm_fleet_full.csv /tmp/ppm_fleet_faults_j[14].csv

# Seed-averaging smoke: --avg-seeds runs one cell per seed and reduces
# the summaries in seed order, so the thread count must not change a
# byte either.  A capped, faulted m2 run puts non-zero values in the
# table's market and fault rows as well as its QoS and power rows.
for jobs in 1 3; do
    ./build/tools/ppm_run --set m2 --seconds 10 --tdp 4 \
        --faults sensor,dvfs,seed=9,rate=20 --avg-seeds 3 --csv \
        --jobs "$jobs" > "/tmp/ppm_avg_j$jobs.csv"
done
cmp /tmp/ppm_avg_j1.csv /tmp/ppm_avg_j3.csv
rm -f /tmp/ppm_avg_j[13].csv

# Kill-and-resume smokes: a run saved at a snapshot point and resumed
# in a fresh process must print byte-identical summaries to the
# uninterrupted run -- single-chip, federated, and federated under
# chip failure/recovery (health, rosters and the pending-evacuation
# queue all travel through the snapshot).  A snapshot binds only the
# flags that define the run, so a macro-stepped save resumed per tick
# with full clearing must match too, and a resume under another --set
# must be refused with exit 2.
./build/tools/ppm_run --set l1 --seconds 8 --csv > /tmp/ppm_whole.csv
./build/tools/ppm_run --set l1 --seconds 8 \
    --snapshot-out /tmp/ppm_check.snap --snapshot-at 3500 > /dev/null
./build/tools/ppm_run --set l1 --seconds 8 --csv \
    --snapshot-in /tmp/ppm_check.snap > /tmp/ppm_resumed.csv
cmp /tmp/ppm_whole.csv /tmp/ppm_resumed.csv
./build/tools/ppm_run --set l1 --seconds 8 --csv --per-tick \
    --no-incremental --snapshot-in /tmp/ppm_check.snap \
    > /tmp/ppm_resumed.csv
cmp /tmp/ppm_whole.csv /tmp/ppm_resumed.csv
status=0
./build/tools/ppm_run --set m1 --seconds 8 \
    --snapshot-in /tmp/ppm_check.snap > /dev/null 2>&1 || status=$?
[[ "$status" -eq 2 ]]
./build/tools/ppm_run --set l1 --seconds 8 --csv --fleet 4 \
    > /tmp/ppm_whole.csv
./build/tools/ppm_run --set l1 --seconds 8 --fleet 4 \
    --snapshot-out /tmp/ppm_check.snap --snapshot-at 3500 > /dev/null
./build/tools/ppm_run --set l1 --seconds 8 --csv --fleet 4 \
    --snapshot-in /tmp/ppm_check.snap > /tmp/ppm_resumed.csv
cmp /tmp/ppm_whole.csv /tmp/ppm_resumed.csv
./build/tools/ppm_run --set l1 --seconds 8 --csv --fleet 4 --per-tick \
    --no-incremental --snapshot-in /tmp/ppm_check.snap \
    > /tmp/ppm_resumed.csv
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

# Differential fuzz smoke: several hundred seeded scenarios checked
# across every engine equivalence (policies x macro-vs-tick,
# incremental on/off, budget conservation, fault counters,
# chip-failure conservation, snapshot restore-equivalence), each run's
# stream and traced series compared bit for bit.  The full sweep is
# scripts/fuzz_sweep.sh; this pass proves the fuzzer and the
# invariants hold on a fresh build.  The second seed skews toward
# federated scenarios, where the chip-fault and snapshot genes live.
./build/tools/ppm_fuzz --count 500 --seed 1 > /dev/null
./build/tools/ppm_fuzz --count 250 --seed 77 > /dev/null

# Race check: the parallel sweep is only deterministic if cells share
# no mutable state, so run the threaded tests under ThreadSanitizer.
# The trace/telemetry tests ride along: each cell must own its bus
# and sinks, so traced parallel runs are the racy case to sanitize.
cmake -B build-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPPM_TSAN=ON
cmake --build build-tsan --parallel "$(nproc)" --target test_common \
    test_integration test_metrics test_fleet test_snapshot
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
# The fuzz driver checks scenarios on run_cells' own pool, and each
# fleet scenario steps its shards on a pool of its own inside a cell;
# a short sweep under TSAN sanitizes the differential checker and
# those nested pools.
cmake --build build-tsan --parallel "$(nproc)" --target ppm_fuzz
./build-tsan/tools/ppm_fuzz --count 50 --seed 1 > /dev/null

# Memory/UB check: the fault layer mutates hardware state (offlining
# cores, deferring DVFS) on irregular schedules, so run its tests and
# the hardened-market tests under ASan+UBSan.
cmake -B build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPPM_ASAN=ON
cmake --build build-asan --parallel "$(nproc)" --target test_fault \
    test_market test_hw test_fleet test_snapshot test_common test_metrics \
    test_fuzz ppm_run
./build-asan/tests/test_fault > /dev/null
# Times that overflow the simulated clock are refused with exit 2
# before any conversion could overflow (UBSan would abort with 1).
for args in "--seconds 1e300" "--seconds 1e13" "--seconds 9223372036854" \
    "--fleet 2 --fleet-epoch 9223372036854775807" \
    "--snapshot-out /tmp/ppm_x.snap --snapshot-at 9223372036854775807" \
    "--snapshot-out /tmp/ppm_x.snap --snapshot-every 9223372036854775807"
do
    status=0
    # shellcheck disable=SC2086 # word-split the flag list on purpose.
    ./build-asan/tools/ppm_run --set l1 $args > /dev/null 2>&1 || status=$?
    [[ "$status" -eq 2 ]]
done
# The span kernel's closed form does int64 ulp arithmetic on bit casts
# and shifts, and its hit masks shift by tick index: UBSan checks
# every shift and signed overflow on the window and helper tests.
./build-asan/tests/test_common \
    --gtest_filter='WindowRate.*:AddRepeated.*' > /dev/null
# Incremental rides along here too: the memo arrays are the newest
# indexed state, so overruns would surface under ASan first.  The
# market-correctness regressions (ParallelClearing.*) drive every
# clearing pass, each indexing tasks_ through the core and cluster
# indices.
./build-asan/tests/test_market \
    --gtest_filter='Watchdog.*:OnlineEstimator.*:Incremental.*:ParallelClearing.*' \
    > /dev/null
# Thermal.* runs the relaxation kernel's compile-time and run-time
# node counts, whose columns are locals or the model's own vectors.
./build-asan/tests/test_hw \
    --gtest_filter='VfTable.*:PowerModel*.*:Thermal.*' > /dev/null
# Evacuation re-admits tasks into grown per-task containers (the
# online estimator and residency tables resize mid-run), and restore
# rebuilds every container through the admission log -- both are
# index-heavy paths ASan owns.
./build-asan/tests/test_fleet --gtest_filter='FleetFaults.*' \
    > /dev/null
./build-asan/tests/test_snapshot > /dev/null
# A stream log indexes flat field arrays by per-record offsets, and
# the fuzzer's comparator walks two of them side by side: run the
# comparator tests and one whole differential check.
./build-asan/tests/test_metrics \
    --gtest_filter='StreamLog.*:TraceRecorder.*' > /dev/null
./build-asan/tests/test_fuzz \
    --gtest_filter='Difference.*:CheckScenario.TrivialScenarioIsClean' \
    > /dev/null

echo "all checks passed"
