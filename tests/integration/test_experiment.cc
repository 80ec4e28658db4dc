/** @file Tests for the one-call experiment runner. */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "experiment/experiment.hh"
#include "metrics/telemetry.hh"

namespace ppm::experiment {
namespace {

TEST(Experiment, RunsEveryPolicyByName)
{
    const auto& set = workload::workload_set("l2");
    for (const char* policy : {"PPM", "HPM", "HL"}) {
        RunParams params;
        params.policy = policy;
        params.duration = 20 * kSecond;
        const RunResult r = run_set(set, params);
        EXPECT_EQ(r.summary.governor, policy);
        EXPECT_GT(r.summary.avg_power, 0.1);
        EXPECT_GE(r.summary.any_below_miss, 0.0);
        EXPECT_LE(r.summary.any_below_miss, 1.0);
    }
}

TEST(Experiment, TraceFlagPopulatesRecorder)
{
    RunParams params;
    params.duration = 10 * kSecond;
    params.trace = true;
    const RunResult r = run_set(workload::workload_set("l1"), params);
    EXPECT_FALSE(r.traces.series("chip_power_w").empty());
}

TEST(Experiment, SeedAveragingIsMeanOfRuns)
{
    RunParams params;
    params.duration = 20 * kSecond;
    RunParams p1 = params;
    p1.seed = cell_seed(params.seed, 100, 0);
    const auto a = run_set(workload::workload_set("l3"), p1).summary;
    RunParams p2 = params;
    p2.seed = cell_seed(params.seed, 100, 1);
    const auto b = run_set(workload::workload_set("l3"), p2).summary;
    const auto avg = run_set_avg(workload::workload_set("l3"), params, 2);
    EXPECT_NEAR(avg.avg_power, (a.avg_power + b.avg_power) / 2.0, 1e-9);
    EXPECT_NEAR(avg.any_below_miss,
                (a.any_below_miss + b.any_below_miss) / 2.0, 1e-9);
    // Every field must reflect both seeds, not just seed 0.
    EXPECT_NEAR(avg.energy, (a.energy + b.energy) / 2.0, 1e-9);
    EXPECT_DOUBLE_EQ(avg.peak_temp_c,
                     std::max(a.peak_temp_c, b.peak_temp_c));
    EXPECT_EQ(avg.thermal_cycles,
              (a.thermal_cycles + b.thermal_cycles) / 2);
    EXPECT_EQ(avg.migrations, (a.migrations + b.migrations) / 2);
    EXPECT_EQ(avg.vf_transitions,
              (a.vf_transitions + b.vf_transitions) / 2);
    ASSERT_EQ(avg.task_below.size(), a.task_below.size());
    for (std::size_t t = 0; t < avg.task_below.size(); ++t) {
        EXPECT_NEAR(avg.task_below[t],
                    (a.task_below[t] + b.task_below[t]) / 2.0, 1e-9);
        EXPECT_NEAR(avg.task_outside[t],
                    (a.task_outside[t] + b.task_outside[t]) / 2.0, 1e-9);
    }
}

TEST(Experiment, ExtraSinkStreamsMarketTelemetry)
{
    // A caller-owned streaming sink attached via RunParams receives
    // the periodic samples AND the per-round market telemetry, plus
    // the final counters record.
    std::ostringstream os;
    metrics::JsonlSink sink(os);
    RunParams params;
    params.duration = 5 * kSecond;
    params.extra_sink = &sink;
    run_set(workload::workload_set("l1"), params);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"type\":\"sample\""), std::string::npos);
    EXPECT_NE(out.find("\"type\":\"market_round\""), std::string::npos);
    EXPECT_NE(out.find("\"task0_bid\""), std::string::npos);
    EXPECT_NE(out.find("\"core0_price\""), std::string::npos);
    EXPECT_NE(out.find("\"cluster0_freeze\""), std::string::npos);
    EXPECT_NE(out.find("\"allowance\""), std::string::npos);
    EXPECT_NE(out.find("\"state\":"), std::string::npos);
    EXPECT_NE(out.find("\"type\":\"counters\""), std::string::npos);
}

TEST(Experiment, ExtraSinkDoesNotPerturbSummary)
{
    RunParams plain;
    plain.duration = 10 * kSecond;
    const auto a = run_set(workload::workload_set("l1"), plain).summary;

    std::ostringstream os;
    metrics::CsvStreamSink sink(os);
    RunParams traced = plain;
    traced.extra_sink = &sink;
    const auto b = run_set(workload::workload_set("l1"), traced).summary;

    EXPECT_EQ(sim::summary_fingerprint(a), sim::summary_fingerprint(b));
    EXPECT_FALSE(os.str().empty());
}

TEST(ExperimentDeath, ExtraSinkRejectedForMultiSeed)
{
    std::ostringstream os;
    metrics::CsvStreamSink sink(os);
    RunParams params;
    params.duration = kSecond;
    params.extra_sink = &sink;
    EXPECT_DEATH(run_set_avg(workload::workload_set("l1"), params, 2, 1),
                 "single-run");
}

TEST(Experiment, OnlineSpeedupFlagReachesGovernor)
{
    RunParams params;
    params.duration = 10 * kSecond;
    params.online_speedup = true;
    const RunResult r = run_set(workload::workload_set("m1"), params);
    EXPECT_EQ(r.summary.governor, "PPM");
}

TEST(ExperimentDeath, UnknownPolicyIsFatal)
{
    EXPECT_EXIT(make_governor("FOO", 4.0, {}),
                ::testing::ExitedWithCode(1), "unknown policy");
}

} // namespace
} // namespace ppm::experiment
