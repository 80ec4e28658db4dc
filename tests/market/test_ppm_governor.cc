/**
 * @file
 * Tests for the PPM governor: end-to-end behaviour of the market +
 * LBT stack bound to a live simulation.
 */

#include <gtest/gtest.h>

#include "hw/platform.hh"
#include "market/ppm_governor.hh"
#include "sim/simulation.hh"
#include "tests/test_util.hh"

namespace ppm::market {
namespace {

sim::Simulation
make_sim(std::vector<workload::TaskSpec> specs, PpmGovernorConfig cfg,
         SimTime duration, std::vector<CoreId> placement = {})
{
    sim::SimConfig sim_cfg;
    sim_cfg.duration = duration;
    sim_cfg.placement = std::move(placement);
    return sim::Simulation(hw::tc2_chip(), specs,
                           std::make_unique<PpmGovernor>(cfg), sim_cfg);
}

TEST(PpmGovernor, SatisfiesFeasibleWorkload)
{
    // Three modest tasks, one per LITTLE core after balancing.
    std::vector<workload::TaskSpec> specs{
        test::steady_spec("a", 1, 400.0),
        test::steady_spec("b", 1, 400.0),
        test::steady_spec("c", 1, 400.0),
    };
    auto sim = make_sim(specs, PpmGovernorConfig{}, 60 * kSecond);
    const auto summary = sim.run();
    EXPECT_LT(summary.any_below_miss, 0.10);
}

TEST(PpmGovernor, SetsFrequencyNearDemandNotMax)
{
    // One 400 PU task: the LITTLE cluster should settle well below
    // its maximum frequency (energy proportionality).
    std::vector<workload::TaskSpec> specs{
        test::steady_spec("solo", 1, 400.0)};
    auto sim = make_sim(specs, PpmGovernorConfig{}, 60 * kSecond);
    sim.run();
    EXPECT_LE(sim.chip().cluster(0).mhz(), 700.0);
    EXPECT_GE(sim.chip().cluster(0).mhz(), 400.0);
}

TEST(PpmGovernor, GatesIdleBigCluster)
{
    std::vector<workload::TaskSpec> specs{
        test::steady_spec("solo", 1, 300.0)};
    auto sim = make_sim(specs, PpmGovernorConfig{}, 30 * kSecond);
    sim.run();
    EXPECT_FALSE(sim.chip().cluster(1).powered());
}

TEST(PpmGovernor, UsesBigClusterWhenLittleInsufficient)
{
    // Four 700 PU tasks cannot fit on three LITTLE cores (pairs
    // exceed 1000 PU): at least one task must end up on big.
    std::vector<workload::TaskSpec> specs{
        test::steady_spec("a", 1, 700.0),
        test::steady_spec("b", 1, 700.0),
        test::steady_spec("c", 1, 700.0),
        test::steady_spec("d", 1, 700.0),
    };
    auto sim = make_sim(specs, PpmGovernorConfig{}, 120 * kSecond);
    const auto summary = sim.run();
    int on_big = 0;
    for (TaskId t = 0; t < 4; ++t) {
        if (sim.chip().cluster_of(sim.scheduler().core_of(t)) == 1)
            ++on_big;
    }
    EXPECT_GE(on_big, 1);
    EXPECT_LT(summary.any_below_miss, 0.25);
}

TEST(PpmGovernor, RespectsTdpOnAverage)
{
    PpmGovernorConfig cfg;
    cfg.market.w_tdp = 3.0;
    cfg.market.w_th = 2.2;
    std::vector<workload::TaskSpec> specs{
        test::steady_spec("a", 1, 900.0), test::steady_spec("b", 1, 900.0),
        test::steady_spec("c", 1, 900.0), test::steady_spec("d", 1, 900.0),
        test::steady_spec("e", 1, 900.0),
    };
    sim::SimConfig sim_cfg;
    sim_cfg.duration = 120 * kSecond;
    sim_cfg.tdp_for_metrics = 3.0;
    sim::Simulation sim(hw::tc2_chip(), specs,
                        std::make_unique<PpmGovernor>(cfg), sim_cfg);
    const auto summary = sim.run();
    EXPECT_LT(summary.avg_power, 3.1);
    // Transient overshoots are bounded by the emergency response.
    EXPECT_LT(summary.over_tdp_fraction, 0.3);
}

TEST(PpmGovernor, PriorityTaskWinsUnderContention)
{
    // Two 700 PU tasks pinned to one LITTLE core (LBT disabled):
    // together they exceed the core's 1000 PU, and the priority-7
    // task must meet its range far more often.
    PpmGovernorConfig cfg;
    cfg.enable_lbt = false;
    std::vector<workload::TaskSpec> specs{
        test::steady_spec("vip", 7, 700.0),
        test::steady_spec("low", 1, 700.0),
    };
    auto sim = make_sim(specs, cfg, 120 * kSecond, {0, 0});
    const auto summary = sim.run();
    EXPECT_LT(summary.task_below[0] + 0.2, summary.task_below[1]);
}

TEST(PpmGovernor, NiceValuesTrackPurchases)
{
    PpmGovernorConfig cfg;
    cfg.enable_lbt = false;
    std::vector<workload::TaskSpec> specs{
        test::steady_spec("vip", 7, 700.0),
        test::steady_spec("low", 1, 700.0),
    };
    auto sim = make_sim(specs, cfg, 30 * kSecond, {0, 0});
    sim.run();
    // Both start on core 0; the high-priority task buys more supply,
    // so the low-priority task carries the larger nice value.
    EXPECT_LE(sim.scheduler().nice_of(0), sim.scheduler().nice_of(1));
}

TEST(PpmGovernor, AutoBidPeriodFollowsShortestTaskPeriod)
{
    // Paper Section 3.4: bid period = max(sched epoch, shortest task
    // period).  A 30 hb/s task has a 33.3 ms period -> 34 ms at the
    // 1 ms tick.
    PpmGovernorConfig cfg;
    cfg.bid_period = 0;  // Auto.
    std::vector<workload::TaskSpec> specs{
        test::steady_spec("video", 1, 300.0, 1.6, /*target_hr=*/30.0),
        test::steady_spec("slow", 1, 300.0, 1.6, /*target_hr=*/5.0),
    };
    auto gov = std::make_unique<PpmGovernor>(cfg);
    auto* gp = gov.get();
    sim::SimConfig sim_cfg;
    sim_cfg.duration = kSecond;
    sim::Simulation sim(hw::tc2_chip(), specs, std::move(gov), sim_cfg);
    sim.run();
    EXPECT_EQ(gp->bid_period(), 34 * kMillisecond);
}

TEST(PpmGovernor, AutoBidPeriodFloorsAtSchedEpoch)
{
    // A 200 hb/s task would imply a 5 ms period; the Linux scheduling
    // epoch (10 ms) is the floor.
    PpmGovernorConfig cfg;
    cfg.bid_period = 0;
    std::vector<workload::TaskSpec> specs{
        test::steady_spec("fast", 1, 300.0, 1.6, /*target_hr=*/200.0)};
    auto gov = std::make_unique<PpmGovernor>(cfg);
    auto* gp = gov.get();
    sim::SimConfig sim_cfg;
    sim_cfg.duration = kSecond;
    sim::Simulation sim(hw::tc2_chip(), specs, std::move(gov), sim_cfg);
    sim.run();
    EXPECT_EQ(gp->bid_period(), 10 * kMillisecond);
}

TEST(PpmGovernor, EmitsMarketRoundTelemetry)
{
    // With tracing on, every bid round must land one market_round
    // record on the bus: task bids, core prices, cluster freeze
    // state, the chip allowance and the chip state.
    std::vector<workload::TaskSpec> specs{
        test::steady_spec("a", 1, 400.0),
        test::steady_spec("b", 1, 400.0),
    };
    sim::SimConfig sim_cfg;
    sim_cfg.duration = 10 * kSecond;
    sim_cfg.trace = true;
    sim::Simulation sim(
        hw::tc2_chip(), specs,
        std::make_unique<PpmGovernor>(PpmGovernorConfig{}), sim_cfg);
    sim.run();

    const auto& rec = sim.recorder();
    for (const char* series :
         {"round", "chip_state", "allowance", "total_demand",
          "total_supply", "task0_bid", "task0_supply", "task1_savings",
          "core0_price", "core0_base_price", "cluster0_freeze",
          "cluster0_level", "cluster0_power_w"}) {
        EXPECT_FALSE(rec.series(series).empty()) << series;
    }
    // One record per 32 ms bid round over 10 s.
    EXPECT_GT(rec.series("task0_bid").size(), 100u);
    // The histogram and counter channels ride along.
    EXPECT_NE(sim.bus().histogram("market_allowance"), nullptr);
    EXPECT_GE(sim.bus().counter("bid_freeze_epochs"), 1);
}

TEST(PpmGovernor, NoTelemetryOverheadWhenDisabled)
{
    // Identical runs with and without tracing must produce identical
    // summaries: telemetry observes the market, never steers it.
    std::vector<workload::TaskSpec> specs{
        test::steady_spec("a", 1, 400.0),
        test::steady_spec("b", 1, 400.0),
    };
    sim::SimConfig plain_cfg;
    plain_cfg.duration = 20 * kSecond;
    sim::Simulation plain(
        hw::tc2_chip(), specs,
        std::make_unique<PpmGovernor>(PpmGovernorConfig{}), plain_cfg);
    const auto a = plain.run();

    sim::SimConfig traced_cfg = plain_cfg;
    traced_cfg.trace = true;
    sim::Simulation traced(
        hw::tc2_chip(), specs,
        std::make_unique<PpmGovernor>(PpmGovernorConfig{}), traced_cfg);
    const auto b = traced.run();

    EXPECT_EQ(sim::summary_fingerprint(a), sim::summary_fingerprint(b));
}

TEST(PpmGovernor, StableWorkloadSettlesVfTransitions)
{
    // After convergence, a steady workload should cause almost no
    // further V-F transitions (thermal-cycling avoidance, delta
    // hysteresis).
    std::vector<workload::TaskSpec> specs{
        test::steady_spec("a", 1, 500.0),
        test::steady_spec("b", 1, 500.0),
    };
    auto sim = make_sim(specs, PpmGovernorConfig{}, 30 * kSecond);
    sim.run();
    const long early = sim.vf_transitions();
    // 30 more seconds of steady state.
    sim::SimConfig cfg2;
    (void)cfg2;
    // Continue the same simulation.
    // (run() already consumed the duration; step manually.)
    for (int i = 0; i < 30000; ++i)
        sim.step();
    const long late = sim.vf_transitions();
    EXPECT_LE(late - early, 6);
}

} // namespace
} // namespace ppm::market
