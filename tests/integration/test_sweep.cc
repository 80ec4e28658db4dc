/** @file Tests for the deterministic parallel sweep runner. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>

#include "experiment/sweep.hh"
#include "metrics/telemetry.hh"
#include "tests/test_util.hh"

namespace ppm::experiment {
namespace {

sim::RunSummary
make_summary(double scale)
{
    sim::RunSummary s;
    s.governor = "PPM";
    s.any_below_miss = 0.1 * scale;
    s.any_outside_miss = 0.2 * scale;
    s.avg_power = 1.0 * scale;
    s.avg_power_post_warmup = 1.5 * scale;
    s.energy = 100.0 * scale;
    s.migrations = static_cast<long>(10 * scale);
    s.vf_transitions = static_cast<long>(20 * scale);
    s.over_tdp_fraction = 0.05 * scale;
    s.over_tdp_post_warmup = 0.04 * scale;
    s.peak_temp_c = 50.0 * scale;
    s.thermal_cycles = static_cast<long>(4 * scale);
    s.task_below = {0.1 * scale, 0.2 * scale};
    s.task_outside = {0.3 * scale, 0.4 * scale};
    s.faults_injected = static_cast<long>(3 * scale);
    s.sensor_fallbacks = static_cast<long>(5 * scale);
    s.fault_retries = static_cast<long>(7 * scale);
    s.safe_mode_entries = static_cast<long>(1 * scale);
    s.watchdog_trips = static_cast<long>(9 * scale);
    s.safe_mode_seconds = 0.5 * scale;
    s.over_tdp_during_fault = 0.25 * scale;
    s.market_rounds = static_cast<long>(101 * scale);
    s.market_task_slots = static_cast<long>(607 * scale);
    s.market_tasks_skipped = static_cast<long>(303 * scale);
    s.market_core_slots = static_cast<long>(505 * scale);
    s.market_cores_skipped = static_cast<long>(251 * scale);
    s.market_rounds_early_exit = static_cast<long>(11 * scale);
    return s;
}

TEST(AggregateSummaries, MeansEveryScalarField)
{
    const auto avg =
        aggregate_summaries({make_summary(1.0), make_summary(3.0)});
    EXPECT_EQ(avg.governor, "PPM");
    EXPECT_NEAR(avg.any_below_miss, 0.2, 1e-12);
    EXPECT_NEAR(avg.any_outside_miss, 0.4, 1e-12);
    EXPECT_NEAR(avg.avg_power, 2.0, 1e-12);
    EXPECT_NEAR(avg.avg_power_post_warmup, 3.0, 1e-12);
    EXPECT_NEAR(avg.energy, 200.0, 1e-12);
    EXPECT_NEAR(avg.over_tdp_fraction, 0.1, 1e-12);
    EXPECT_NEAR(avg.over_tdp_post_warmup, 0.08, 1e-12);
    EXPECT_NEAR(avg.safe_mode_seconds, 1.0, 1e-12);
    EXPECT_NEAR(avg.over_tdp_during_fault, 0.5, 1e-12);
}

TEST(AggregateSummaries, PeakTempIsMaxNotSeedZero)
{
    // Seed 0 is the coolest run: a seed-0-only "aggregate" would
    // report 40 C and hide the 80 C excursion of seed 2.
    auto a = make_summary(1.0);
    auto b = make_summary(1.0);
    auto c = make_summary(1.0);
    a.peak_temp_c = 40.0;
    b.peak_temp_c = 55.0;
    c.peak_temp_c = 80.0;
    EXPECT_DOUBLE_EQ(aggregate_summaries({a, b, c}).peak_temp_c, 80.0);
}

TEST(AggregateSummaries, CountersAreSumThenDivide)
{
    auto a = make_summary(1.0);
    auto b = make_summary(2.0);
    a.thermal_cycles = 7;
    b.thermal_cycles = 2;
    a.migrations = 11;
    b.migrations = 4;
    a.vf_transitions = 9;
    b.vf_transitions = 2;
    const auto avg = aggregate_summaries({a, b});
    // (7 + 2) / 2 truncated, not a.thermal_cycles.
    EXPECT_EQ(avg.thermal_cycles, 4);
    EXPECT_EQ(avg.migrations, 7);
    EXPECT_EQ(avg.vf_transitions, 5);
    // The fault and market counters: (v + 2v) / 2 truncated.
    EXPECT_EQ(avg.faults_injected, 4);            // 9 / 2
    EXPECT_EQ(avg.sensor_fallbacks, 7);           // 15 / 2
    EXPECT_EQ(avg.fault_retries, 10);             // 21 / 2
    EXPECT_EQ(avg.safe_mode_entries, 1);          // 3 / 2
    EXPECT_EQ(avg.watchdog_trips, 13);            // 27 / 2
    EXPECT_EQ(avg.market_rounds, 151);            // 303 / 2
    EXPECT_EQ(avg.market_task_slots, 910);        // 1821 / 2
    EXPECT_EQ(avg.market_tasks_skipped, 454);     // 909 / 2
    EXPECT_EQ(avg.market_core_slots, 757);        // 1515 / 2
    EXPECT_EQ(avg.market_cores_skipped, 376);     // 753 / 2
    EXPECT_EQ(avg.market_rounds_early_exit, 16);  // 33 / 2
}

TEST(AggregateSummariesDeath, MismatchedTaskCountsPanic)
{
    auto a = make_summary(1.0);
    auto b = make_summary(1.0);
    b.task_below.push_back(0.5);
    EXPECT_DEATH(aggregate_summaries({a, b}), "same task count");
    b = make_summary(1.0);
    b.task_outside.pop_back();
    EXPECT_DEATH(aggregate_summaries({a, b}), "same task count");
}

TEST(AggregateSummaries, TaskVectorsAreElementwiseMeans)
{
    auto a = make_summary(1.0);
    auto b = make_summary(1.0);
    a.task_below = {0.0, 1.0, 0.5};
    b.task_below = {1.0, 0.0, 0.5};
    a.task_outside = {0.2, 0.4, 0.6};
    b.task_outside = {0.4, 0.8, 1.0};
    const auto avg = aggregate_summaries({a, b});
    ASSERT_EQ(avg.task_below.size(), 3u);
    EXPECT_NEAR(avg.task_below[0], 0.5, 1e-12);
    EXPECT_NEAR(avg.task_below[1], 0.5, 1e-12);
    EXPECT_NEAR(avg.task_below[2], 0.5, 1e-12);
    ASSERT_EQ(avg.task_outside.size(), 3u);
    EXPECT_NEAR(avg.task_outside[0], 0.3, 1e-12);
    EXPECT_NEAR(avg.task_outside[1], 0.6, 1e-12);
    EXPECT_NEAR(avg.task_outside[2], 0.8, 1e-12);
}

TEST(AggregateSummaries, SingleSummaryIsIdentity)
{
    const auto s = make_summary(2.0);
    EXPECT_EQ(sim::summary_fingerprint(aggregate_summaries({s})),
              sim::summary_fingerprint(s));
}

TEST(RunCells, PreservesInputOrder)
{
    std::vector<std::function<int()>> cells;
    for (int i = 0; i < 20; ++i) {
        cells.push_back([i]() {
            // Early cells sleep longest so completion order inverts
            // submission order; the reduction must not care.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20 - i));
            return i;
        });
    }
    const auto parallel = run_cells<int>(cells, 4);
    const auto serial = run_cells<int>(cells, 1);
    ASSERT_EQ(parallel.size(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(parallel[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(parallel, serial);
}

TEST(RunCells, CellExceptionPropagates)
{
    std::vector<std::function<int()>> cells{
        []() { return 1; },
        []() -> int { throw std::runtime_error("boom"); }};
    EXPECT_THROW(run_cells<int>(cells, 4), std::runtime_error);
    EXPECT_THROW(run_cells<int>(cells, 1), std::runtime_error);
}

void
expect_identical(const sim::RunSummary& a, const sim::RunSummary& b)
{
    // Bitwise equality: the determinism guarantee is bit-identical
    // output for any --jobs value, not merely "close".
    EXPECT_EQ(sim::summary_fingerprint(a), sim::summary_fingerprint(b));
}

TEST(Sweep, JobCountDoesNotChangeResults)
{
    SweepConfig config;
    config.sets = {workload::workload_set("l1"),
                   workload::workload_set("m1")};
    config.policies = {"PPM", "HL"};
    config.n_seeds = 2;
    config.base.duration = 10 * kSecond;

    config.jobs = 1;
    const SweepResult serial = run_sweep(config);
    config.jobs = 4;
    const SweepResult parallel = run_sweep(config);

    ASSERT_EQ(serial.n_sets(), 2);
    ASSERT_EQ(parallel.n_sets(), 2);
    for (int s = 0; s < 2; ++s) {
        for (int p = 0; p < 2; ++p) {
            for (int k = 0; k < 2; ++k)
                expect_identical(serial.summary(s, p, k),
                                 parallel.summary(s, p, k));
            expect_identical(serial.averaged(s, p),
                             parallel.averaged(s, p));
        }
    }
}

TEST(Sweep, SeedAxisUsesCellSeedDerivation)
{
    SweepConfig config;
    config.sets = {workload::workload_set("l1")};
    config.policies = {"PPM"};
    config.n_seeds = 2;
    config.base.duration = 10 * kSecond;
    config.jobs = 1;
    const SweepResult r = run_sweep(config);

    RunParams p2 = config.base;
    p2.seed = cell_seed(config.base.seed, config.seed_stride, 1);
    const auto direct = run_set(config.sets[0], p2).summary;
    expect_identical(r.summary(0, 0, 1), direct);
}

TEST(Sweep, CellSeedsNeverAlias)
{
    // The historical base.seed + i*stride derivation aliased cells
    // when stride*i wrapped (e.g. stride = 2^63 put every even index
    // on one stream) and collapsed the whole axis at stride 0.  The
    // mix64 derivation must keep every index distinct for any
    // stride >= 1 and any base, including wrap-heavy ones.
    const std::uint64_t strides[] = {1, 100, 1ULL << 63,
                                     0xffffffffffffffffULL};
    const std::uint64_t bases[] = {0, 42, 0xffffffffffffff00ULL};
    for (const std::uint64_t stride : strides) {
        for (const std::uint64_t base : bases) {
            std::set<std::uint64_t> seen;
            for (int i = 0; i < 1000; ++i)
                seen.insert(cell_seed(base, stride, i));
            EXPECT_EQ(seen.size(), 1000u)
                << "aliased seeds at base=" << base
                << " stride=" << stride;
        }
    }
    // The old failure mode, pinned: stride 2^63 aliases indices 0 and
    // 2 under the additive rule...
    const std::uint64_t s = 1ULL << 63;
    EXPECT_EQ(42 + 0 * s, 42 + 2 * s);
    // ...but not under the mix64 derivation.
    EXPECT_NE(cell_seed(42, s, 0), cell_seed(42, s, 2));
}

TEST(SweepDeath, ZeroSeedStrideIsRejected)
{
    SweepConfig config;
    config.sets = {workload::workload_set("l1")};
    config.policies = {"PPM"};
    config.n_seeds = 2;
    config.seed_stride = 0;
    config.base.duration = kSecond;
    config.jobs = 1;
    EXPECT_DEATH(run_sweep(config), "seed stride");
}

TEST(Sweep, TracesAreByteIdenticalForAnyJobCount)
{
    // Each cell owns its TraceBus, sinks and recorder, so the full
    // traced series -- not just the summary -- must be bit-identical
    // whether the cells run serially or on four workers.
    auto make_cell = [](std::uint64_t seed) {
        return [seed]() {
            RunParams p;
            p.duration = 5 * kSecond;
            p.trace = true;
            p.seed = seed;
            return run_set(workload::workload_set("l1"), p).traces;
        };
    };
    std::vector<std::function<metrics::TraceRecorder()>> cells;
    for (int k = 0; k < 4; ++k)
        cells.push_back(make_cell(42 + 100 * static_cast<std::uint64_t>(k)));
    const auto serial = run_cells<metrics::TraceRecorder>(cells, 1);
    const auto parallel = run_cells<metrics::TraceRecorder>(cells, 4);
    ASSERT_EQ(serial.size(), 4u);
    for (std::size_t k = 0; k < 4; ++k) {
        EXPECT_FALSE(serial[k].names().empty());
        EXPECT_EQ(metrics::first_difference(serial[k], parallel[k]), "")
            << "cell " << k;
    }
}

TEST(Sweep, RunSetAvgMatchesAnyJobCount)
{
    RunParams params;
    params.duration = 10 * kSecond;
    const auto& set = workload::workload_set("l2");
    expect_identical(run_set_avg(set, params, 2, 1),
                     run_set_avg(set, params, 2, 4));
}

TEST(Sweep, RunSetAvgReproducesPinnedDigest)
{
    // A faulted, capped PPM run whose seeds give every kind of field
    // non-zero values: shares, totals (energy, migrations, market
    // rounds, fault retries), the peak and the per-task vectors.
    RunParams params;
    params.tdp = 4.0;
    params.duration = 10 * kSecond;
    std::string error;
    ASSERT_TRUE(fault::parse_fault_spec("sensor,dvfs,seed=9,rate=20",
                                        &params.faults, &error))
        << error;
    const sim::RunSummary avg =
        run_set_avg(workload::workload_set("h3"), params, 3, 1);
    EXPECT_GT(avg.any_below_miss, 0.0);
    EXPECT_GT(avg.over_tdp_fraction, 0.0);
    EXPECT_GT(avg.migrations, 0);
    EXPECT_GT(avg.market_rounds, 0);
    EXPECT_GT(avg.fault_retries, 0);
    EXPECT_EQ(test::fnv1a(sim::summary_fingerprint(avg)),
              0x5e5755d67e2b12fbULL);
}

} // namespace
} // namespace ppm::experiment
