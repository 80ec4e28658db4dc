/**
 * @file
 * Tests for dynamic task arrival and departure ("tasks enter/exit
 * the system", Section 3.2.4): the scheduler's active flags, the
 * market's agent lifecycle, QoS lifetime masking, and the PPM
 * governor's end-to-end adaptation.
 */

#include <gtest/gtest.h>

#include "hw/platform.hh"
#include "market/market.hh"
#include "market/ppm_governor.hh"
#include "sim/simulation.hh"
#include "tests/market/market_test_util.hh"
#include "tests/test_util.hh"

namespace ppm {
namespace {

using sim::SimConfig;

TEST(DynamicTasks, InactiveTaskReceivesNoCycles)
{
    hw::Chip chip = hw::tc2_chip();
    sched::Scheduler sched(&chip, {});
    workload::Task a(0, test::steady_spec("a", 1, 500.0));
    workload::Task b(1, test::steady_spec("b", 1, 500.0));
    sched.add_task(&a, 0);
    sched.add_task(&b, 0);
    sched.set_active(1, false);
    chip.cluster(0).set_level(7);
    for (SimTime t = 0; t < kSecond; t += kMillisecond)
        sched.tick(t, kMillisecond);
    // The supply windows are one second: the run's every grant.
    EXPECT_DOUBLE_EQ(b.hrm().supply(kSecond), 0.0);
    // The active co-runner absorbs the whole core.
    EXPECT_NEAR(a.hrm().supply(kSecond), 1000.0, 1.0);
    EXPECT_TRUE(sched.tasks_on(0).size() == 1);
}

TEST(DynamicTasks, ReactivationRestoresScheduling)
{
    hw::Chip chip = hw::tc2_chip();
    sched::Scheduler sched(&chip, {});
    workload::Task a(0, test::steady_spec("a", 1, 500.0));
    sched.add_task(&a, 0);
    sched.set_active(0, false);
    sched.tick(0, kMillisecond);
    // Both ticks lie inside one supply window.
    EXPECT_DOUBLE_EQ(a.hrm().supply(kMillisecond), 0.0);
    sched.set_active(0, true);
    sched.tick(kMillisecond, kMillisecond);
    EXPECT_GT(a.hrm().supply(2 * kMillisecond), 0.0);
}

TEST(DynamicTasks, MarketExcludesDepartedAgent)
{
    hw::Chip chip = market::test::paper_chip();
    market::Market market(&chip, market::test::paper_config());
    market.add_task(0, 1, 0);
    market.add_task(1, 1, 0);
    market.set_demand(0, 150.0);
    market.set_demand(1, 150.0);
    for (int i = 0; i < 5; ++i)
        market.round();
    const Pu before = market.task(0).supply;
    EXPECT_LT(before, 300.0);

    // Task 1 exits: its money leaves the market and task 0 gets the
    // whole core supply.
    market.set_task_active(1, false);
    for (int i = 0; i < 5; ++i)
        market.round();
    EXPECT_DOUBLE_EQ(market.task(1).supply, 0.0);
    EXPECT_DOUBLE_EQ(market.task(1).savings, 0.0);
    EXPECT_NEAR(market.task(0).supply, chip.cluster(0).supply(), 1e-6);
    EXPECT_EQ(market::test::tasks_on(market, 0).size(), 1u);
}

TEST(DynamicTasks, ArrivalRejoinsBidding)
{
    hw::Chip chip = market::test::paper_chip();
    market::Market market(&chip, market::test::paper_config());
    market.add_task(0, 1, 0);
    market.add_task(1, 1, 0);
    market.set_task_active(1, false);
    market.set_demand(0, 150.0);
    for (int i = 0; i < 5; ++i)
        market.round();

    market.set_task_active(1, true);
    market.set_demand(1, 150.0);
    for (int i = 0; i < 10; ++i)
        market.round();
    EXPECT_GT(market.task(1).supply, 100.0);
    // Allowance redistribution now covers both agents.
    EXPECT_NEAR(market.task(0).allowance, market.task(1).allowance,
                1e-9);
}

TEST(DynamicTasks, DepartureFreesAllowanceForSurvivors)
{
    hw::Chip chip = market::test::paper_chip();
    market::Market market(&chip, market::test::paper_config());
    market.add_task(0, 1, 0);
    market.add_task(1, 1, 0);
    market.set_demand(0, 100.0);
    market.set_demand(1, 100.0);
    market.round();
    const Money shared = market.task(0).allowance;
    market.set_task_active(1, false);
    market.round();
    EXPECT_NEAR(market.task(0).allowance, 2.0 * shared, 1e-9);
    EXPECT_DOUBLE_EQ(market.task(1).allowance, 0.0);
}

TEST(DynamicTasks, LifetimesDriveActivation)
{
    std::vector<workload::TaskSpec> specs{
        test::steady_spec("always", 1, 300.0),
        test::steady_spec("visitor", 1, 300.0),
    };
    SimConfig cfg;
    cfg.duration = 30 * kSecond;
    cfg.lifetimes = {{0, SimConfig::Lifetime::kForever},
                     {10 * kSecond, 20 * kSecond}};
    market::PpmGovernorConfig gov_cfg;
    sim::Simulation sim(
        hw::tc2_chip(), specs,
        std::make_unique<market::PpmGovernor>(gov_cfg), cfg);
    // The visitor's PU-seconds so far: its supply window is one
    // second, so reading it at each whole second sums every grant.
    double visitor = 0.0;
    const auto run_to = [&sim, &visitor](SimTime stop) {
        while (sim.now() < stop) {
            sim.step();
            if (sim.now() % kSecond == 0)
                visitor += sim.tasks()[1]->hrm().supply(sim.now());
        }
    };
    // Run to t = 5 s: the visitor has not arrived.
    run_to(5 * kSecond);
    EXPECT_FALSE(sim.task_alive(1));
    EXPECT_FALSE(sim.scheduler().active(1));
    EXPECT_DOUBLE_EQ(visitor, 0.0);
    // t = 15 s: the visitor runs.
    run_to(15 * kSecond);
    EXPECT_TRUE(sim.scheduler().active(1));
    EXPECT_GT(visitor, 0.0);
    // t = 21 s: departed; capture progress and verify it freezes.
    run_to(21 * kSecond);
    EXPECT_FALSE(sim.scheduler().active(1));
    const double at_departure = visitor;
    run_to(25 * kSecond);
    EXPECT_DOUBLE_EQ(visitor, at_departure);
}

TEST(DynamicTasks, QosExcludesDepartedTasks)
{
    // The visitor never runs outside [10, 20] s; its absence must not
    // count as a miss.
    std::vector<workload::TaskSpec> specs{
        test::steady_spec("always", 1, 300.0),
        test::steady_spec("visitor", 1, 300.0),
    };
    SimConfig cfg;
    cfg.duration = 60 * kSecond;
    cfg.lifetimes = {{0, SimConfig::Lifetime::kForever},
                     {10 * kSecond, 20 * kSecond}};
    market::PpmGovernorConfig gov_cfg;
    sim::Simulation sim(
        hw::tc2_chip(), specs,
        std::make_unique<market::PpmGovernor>(gov_cfg), cfg);
    const auto summary = sim.run();
    // A feasible workload: nothing should be missing for long, and in
    // particular not the whole 50 s the visitor is absent.
    EXPECT_LT(summary.any_below_miss, 0.15);
    EXPECT_LT(summary.task_below[1], 0.5);
}

TEST(DynamicTasks, GovernorGatesClusterAfterDeparture)
{
    // A heavy visitor forces the big cluster on; after it departs,
    // the governor should migrate back / power the big cluster off.
    std::vector<workload::TaskSpec> specs{
        test::steady_spec("light", 1, 300.0),
        test::steady_spec("burst-a", 1, 900.0),
        test::steady_spec("burst-b", 1, 900.0),
        test::steady_spec("burst-c", 1, 900.0),
    };
    SimConfig cfg;
    cfg.duration = 120 * kSecond;
    cfg.lifetimes = {
        {0, SimConfig::Lifetime::kForever},
        {10 * kSecond, 40 * kSecond},
        {10 * kSecond, 40 * kSecond},
        {10 * kSecond, 40 * kSecond},
    };
    market::PpmGovernorConfig gov_cfg;
    sim::Simulation sim(
        hw::tc2_chip(), specs,
        std::make_unique<market::PpmGovernor>(gov_cfg), cfg);
    sim.run();
    // Long after the burst, the lone 300 PU task does not justify the
    // big cluster.
    EXPECT_FALSE(sim.chip().cluster(1).powered());
    EXPECT_LE(sim.chip().cluster(0).mhz(), 700.0);
}

} // namespace
} // namespace ppm
