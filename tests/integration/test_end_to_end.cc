/**
 * @file
 * Integration tests across the full stack: the three governors on
 * real workload sets, reproducing the qualitative claims of the
 * paper's evaluation (Section 5) at test-sized durations.
 */

#include <gtest/gtest.h>

#include "baselines/hl_governor.hh"
#include "baselines/hpm_governor.hh"
#include "hw/platform.hh"
#include "market/ppm_governor.hh"
#include "sim/simulation.hh"
#include "workload/sets.hh"

namespace ppm {
namespace {

sim::RunSummary
run_policy(const std::string& policy, const std::string& set_name,
           Watts tdp, SimTime duration)
{
    const auto& set = workload::workload_set(set_name);
    const auto specs = workload::instantiate(set, 42, 1,
                                             duration + 60 * kSecond);
    std::unique_ptr<sim::Governor> gov;
    if (policy == "PPM") {
        market::PpmGovernorConfig cfg;
        cfg.market.w_tdp = tdp;
        cfg.market.w_th = tdp < 1e8 ? tdp - 0.6 : tdp - 0.5;
        cfg.big_speedup = workload::big_speedups(set);
        gov = std::make_unique<market::PpmGovernor>(cfg);
    } else if (policy == "HPM") {
        baselines::HpmConfig cfg;
        cfg.tdp = tdp;
        gov = std::make_unique<baselines::HpmGovernor>(cfg);
    } else {
        baselines::HlConfig cfg;
        cfg.tdp = tdp;
        gov = std::make_unique<baselines::HlGovernor>(cfg);
    }
    sim::SimConfig sim_cfg;
    sim_cfg.duration = duration;
    sim_cfg.tdp_for_metrics = tdp;
    sim::Simulation simulation(hw::tc2_chip(), specs, std::move(gov),
                               sim_cfg);
    return simulation.run();
}

constexpr SimTime kShortRun = 120 * kSecond;

TEST(EndToEnd, PpmMeetsQosOnLightSet)
{
    const auto s = run_policy("PPM", "l2", 1e9, kShortRun);
    EXPECT_LT(s.any_below_miss, 0.15);
}

TEST(EndToEnd, PpmMeetsQosOnHeavySet)
{
    const auto s = run_policy("PPM", "h2", 1e9, kShortRun);
    EXPECT_LT(s.any_below_miss, 0.15);
}

TEST(EndToEnd, HlWinsLightSetsButBurnsPower)
{
    const auto hl = run_policy("HL", "l1", 1e9, kShortRun);
    const auto ppm = run_policy("PPM", "l1", 1e9, kShortRun);
    EXPECT_LE(hl.any_below_miss, ppm.any_below_miss + 0.02);
    EXPECT_GT(hl.avg_power, 1.5 * ppm.avg_power);
}

TEST(EndToEnd, PpmBeatsHlOnHeavySets)
{
    const auto hl = run_policy("HL", "h2", 1e9, kShortRun);
    const auto ppm = run_policy("PPM", "h2", 1e9, kShortRun);
    EXPECT_LT(ppm.any_below_miss + 0.2, hl.any_below_miss);
}

TEST(EndToEnd, PpmBeatsHpmOnHeavySets)
{
    const auto hpm = run_policy("HPM", "h2", 1e9, kShortRun);
    const auto ppm = run_policy("PPM", "h2", 1e9, kShortRun);
    EXPECT_LT(ppm.any_below_miss, hpm.any_below_miss);
}

TEST(EndToEnd, AllPoliciesRespect4WTdpOnAverage)
{
    for (const char* policy : {"PPM", "HPM", "HL"}) {
        const auto s = run_policy(policy, "m2", 4.0, kShortRun);
        EXPECT_LT(s.avg_power, 4.2) << policy;
    }
}

TEST(EndToEnd, TdpCapDegradesQosGracefullyForPpm)
{
    // Under the 4 W cap PPM still beats HL (which loses its big
    // cluster entirely), cf. Figure 6.
    const auto ppm = run_policy("PPM", "m2", 4.0, kShortRun);
    const auto hl = run_policy("HL", "m2", 4.0, kShortRun);
    EXPECT_LT(ppm.any_below_miss + 0.2, hl.any_below_miss);
}

TEST(EndToEnd, DeterministicAcrossRuns)
{
    const auto a = run_policy("PPM", "m1", 1e9, 60 * kSecond);
    const auto b = run_policy("PPM", "m1", 1e9, 60 * kSecond);
    EXPECT_EQ(sim::summary_fingerprint(a), sim::summary_fingerprint(b));
}

TEST(EndToEnd, PpmScalesToOctaCoreChip)
{
    // The framework is platform-agnostic: a heavy set on the
    // 4+4 octa-core big.LITTLE is easily satisfiable and the
    // big cluster actually gets used.
    const auto& set = workload::workload_set("h3");
    const auto specs = workload::instantiate(set, 42, 1,
                                             200 * kSecond);
    market::PpmGovernorConfig cfg;
    cfg.big_speedup = workload::big_speedups(set);
    sim::SimConfig sim_cfg;
    sim_cfg.duration = 120 * kSecond;
    sim::Simulation sim(hw::octa_big_little_chip(), specs,
                        std::make_unique<market::PpmGovernor>(cfg),
                        sim_cfg);
    const auto summary = sim.run();
    EXPECT_LT(summary.any_below_miss, 0.15);
    EXPECT_LT(summary.avg_power, 8.0);
}

TEST(EndToEnd, MigrationCountsStayReasonable)
{
    // PPM approves at most one movement per LBT invocation
    // (every 96 ms) -> hard upper bound, and in practice far fewer.
    const auto s = run_policy("PPM", "m3", 1e9, kShortRun);
    EXPECT_LT(s.migrations, 120 * 1000 / 96);
}

} // namespace
} // namespace ppm
