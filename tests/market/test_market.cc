/**
 * @file
 * Unit and property tests for the market mechanism beyond the
 * paper's running examples: allowance distribution, price discovery
 * invariants, state transitions, freezing, market conservation
 * properties over randomized scenarios, and regressions for the
 * market-correctness fixes (starvation guard, bid-floor deflation,
 * frozen-bid clamping, pending base resets).
 */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "hw/platform.hh"
#include "market/market.hh"
#include "tests/market/market_test_util.hh"

namespace ppm::market {
namespace {

TEST(Market, InitialBidsAndPriorityAllowances)
{
    hw::Chip chip = test::paper_chip();
    Market market(&chip, test::paper_config());
    market.add_task(0, 3, 0);
    market.add_task(1, 1, 0);
    market.set_demand(0, 100.0);
    market.set_demand(1, 100.0);
    market.round();
    // Allowance split 3:1 by priority.
    EXPECT_NEAR(market.task(0).allowance, 4.5 * 0.75, 1e-9);
    EXPECT_NEAR(market.task(1).allowance, 4.5 * 0.25, 1e-9);
}

TEST(Market, TelemetrySnapshotMirrorsRoundState)
{
    hw::Chip chip = test::paper_chip();
    Market market(&chip, test::paper_config());
    market.add_task(0, 2, 0);
    market.add_task(1, 1, 0);
    market.set_demand(0, 200.0);
    market.set_demand(1, 100.0);

    MarketTelemetry snap;
    market.set_telemetry(&snap);
    const RoundReport report = market.round();

    EXPECT_EQ(snap.round, 1);
    EXPECT_EQ(snap.report.state, report.state);
    EXPECT_DOUBLE_EQ(snap.report.allowance, report.allowance);
    ASSERT_EQ(snap.tasks.size(), 2u);
    EXPECT_DOUBLE_EQ(snap.tasks[0].bid, market.task(0).bid);
    EXPECT_DOUBLE_EQ(snap.tasks[0].supply, market.task(0).supply);
    EXPECT_DOUBLE_EQ(snap.tasks[1].allowance, market.task(1).allowance);
    ASSERT_EQ(snap.cores.size(),
              static_cast<std::size_t>(chip.num_cores()));
    EXPECT_DOUBLE_EQ(snap.cores[0].price, market.core(0).price);
    ASSERT_EQ(snap.clusters.size(),
              static_cast<std::size_t>(chip.num_clusters()));
    EXPECT_EQ(snap.clusters[0].level, chip.cluster(0).level());
    EXPECT_DOUBLE_EQ(snap.clusters[0].mhz, chip.cluster(0).mhz());
    EXPECT_TRUE(snap.clusters[0].powered);

    // Detach: the next round must leave the snapshot untouched.
    market.set_telemetry(nullptr);
    market.round();
    EXPECT_EQ(snap.round, 1);
}

TEST(Market, AllowanceClampFlaggedInReport)
{
    hw::Chip chip = test::paper_chip();
    PpmConfig cfg = test::paper_config();
    cfg.max_allowance = cfg.initial_allowance;  // Already at the cap.
    Market market(&chip, cfg);
    market.add_task(0, 1, 0);
    market.set_demand(0, 600.0);  // Deficit: allowance wants to grow.
    market.set_cluster_power(0, 0.5);
    RoundReport last;
    bool clamped = false;
    for (int i = 0; i < 10; ++i) {
        last = market.round();
        clamped = clamped || last.allowance_clamped;
    }
    EXPECT_TRUE(clamped);
    EXPECT_LE(market.global_allowance(), cfg.max_allowance + 1e-12);
}

TEST(Market, PurchasesExhaustSupplyExactly)
{
    hw::Chip chip = test::paper_chip();
    Market market(&chip, test::paper_config());
    market.add_task(0, 2, 0);
    market.add_task(1, 1, 0);
    market.set_demand(0, 150.0);
    market.set_demand(1, 150.0);
    for (int i = 0; i < 5; ++i)
        market.round();
    // s_t = b_t / P_c with P_c = sum(b)/S_c implies sum(s) == S_c.
    EXPECT_NEAR(market.task(0).supply + market.task(1).supply,
                chip.cluster(0).supply(), 1e-6);
}

TEST(Market, BidFloorRespected)
{
    hw::Chip chip = test::paper_chip();
    Market market(&chip, test::paper_config());
    market.add_task(0, 1, 0);
    market.set_demand(0, 0.0);  // No demand: bid decays.
    for (int i = 0; i < 50; ++i)
        market.round();
    EXPECT_GE(market.task(0).bid, market.config().min_bid - 1e-12);
}

TEST(Market, BidCapAtAllowancePlusSavings)
{
    hw::Chip chip = test::paper_chip();
    PpmConfig cfg = test::paper_config();
    cfg.initial_allowance = 1.0;  // Tight money.
    Market market(&chip, cfg);
    market.add_task(0, 1, 0);
    market.add_task(1, 1, 0);
    market.set_demand(0, 600.0);
    market.set_demand(1, 600.0);
    // Hold power high so the allowance cannot grow (threshold).
    for (int i = 0; i < 30; ++i) {
        market.set_cluster_power(0, 2.0);
        market.round();
        const auto& t = market.task(0);
        EXPECT_LE(t.bid, t.allowance + t.savings + 1e-9);
    }
}

TEST(Market, EmergencyShrinksAllowance)
{
    hw::Chip chip = test::paper_chip();
    Market market(&chip, test::paper_config());
    market.add_task(0, 1, 0);
    market.set_demand(0, 200.0);
    market.set_cluster_power(0, 3.0);  // Above the 2.25 W TDP.
    market.round();
    const Money a1 = market.global_allowance();
    market.set_cluster_power(0, 3.0);
    market.round();
    EXPECT_EQ(market.state(), ChipState::kEmergency);
    EXPECT_LT(market.global_allowance(), a1);
}

TEST(Market, ThresholdFreezesAllowance)
{
    hw::Chip chip = test::paper_chip();
    Market market(&chip, test::paper_config());
    market.add_task(0, 1, 0);
    market.set_demand(0, 500.0);  // Unmet demand at 300 PU.
    market.set_cluster_power(0, 2.0);  // Threshold band.
    market.round();
    market.set_cluster_power(0, 2.0);
    market.round();
    const Money frozen = market.global_allowance();
    for (int i = 0; i < 5; ++i) {
        market.set_cluster_power(0, 2.0);
        market.round();
        EXPECT_EQ(market.state(), ChipState::kThreshold);
        EXPECT_NEAR(market.global_allowance(), frozen, 1e-9);
    }
}

TEST(Market, NormalGrowsAllowanceOnlyWithDeficit)
{
    hw::Chip chip = test::paper_chip();
    Market market(&chip, test::paper_config());
    market.add_task(0, 1, 0);
    market.set_demand(0, 100.0);  // Satisfiable at 300 PU.
    market.round();
    market.round();
    const Money a = market.global_allowance();
    market.round();
    EXPECT_NEAR(market.global_allowance(), a, 1e-9);  // No deficit.
}

TEST(Market, CrossClusterDeficitStillGrowsAllowance)
{
    // A starving cluster must trigger allowance growth even when
    // another cluster has surplus supply (the global D < S).
    hw::Chip chip = test::paper_chip(1, 2);
    Market market(&chip, test::paper_config());
    market.add_task(0, 1, 0);  // Cluster 0: needs 500 > 300.
    market.add_task(1, 1, 1);  // Cluster 1: tiny demand.
    market.set_demand(0, 500.0);
    market.set_demand(1, 10.0);
    market.round();
    market.round();
    const Money a2 = market.global_allowance();
    market.round();
    EXPECT_GT(market.global_allowance(), a2);
}

TEST(Market, ConstrainedCoreIsHighestDemand)
{
    hw::Chip chip = test::paper_chip(3, 1);
    Market market(&chip, test::paper_config());
    market.add_task(0, 1, 0);
    market.add_task(1, 1, 1);
    market.add_task(2, 1, 2);
    market.set_demand(0, 100.0);
    market.set_demand(1, 250.0);
    market.set_demand(2, 50.0);
    market.round();
    EXPECT_EQ(market.constrained_core(0), 1);
}

TEST(Market, EmptyClusterHasNoConstrainedCore)
{
    hw::Chip chip = test::paper_chip(1, 2);
    Market market(&chip, test::paper_config());
    market.add_task(0, 1, 0);
    market.set_demand(0, 100.0);
    market.round();
    EXPECT_EQ(market.constrained_core(1), kInvalidId);
}

TEST(Market, AllowanceDistributionFormulaExact)
{
    // Two clusters, equal priorities: A_v = A * (W - W_v) / W
    // (Section 3.2.3).  W = 1.0 + 3.0 = 4.0, so cluster 0 receives
    // A * 3/4 and cluster 1 receives A * 1/4.
    hw::Chip chip = test::paper_chip(1, 2);
    Market market(&chip, test::paper_config());
    market.add_task(0, 1, 0);
    market.add_task(1, 1, 1);
    market.set_demand(0, 100.0);
    market.set_demand(1, 100.0);
    market.set_cluster_power(0, 1.0);
    market.set_cluster_power(1, 3.0);
    market.round();
    const Money a = market.global_allowance();
    EXPECT_NEAR(market.task(0).allowance, a * 0.75, 1e-9);
    EXPECT_NEAR(market.task(1).allowance, a * 0.25, 1e-9);
}

TEST(Market, CoreAllowanceSplitsByPrioritySums)
{
    // One cluster, two cores: A_c = A_v * R_c / R_v, then
    // a_t = A_c * r_t / R_c (Section 3.2.3).
    hw::Chip chip = test::paper_chip(2, 1);
    Market market(&chip, test::paper_config());
    market.add_task(0, 3, 0);  // Core 0: R_c = 3 + 1.
    market.add_task(1, 1, 0);
    market.add_task(2, 2, 1);  // Core 1: R_c = 2.
    for (TaskId t = 0; t < 3; ++t)
        market.set_demand(t, 50.0);
    market.round();
    const Money a = market.global_allowance();
    // R = 6: core 0 gets 4/6 A, core 1 gets 2/6 A.
    EXPECT_NEAR(market.task(0).allowance, a * (4.0 / 6.0) * 0.75, 1e-9);
    EXPECT_NEAR(market.task(1).allowance, a * (4.0 / 6.0) * 0.25, 1e-9);
    EXPECT_NEAR(market.task(2).allowance, a * (2.0 / 6.0), 1e-9);
}

TEST(Market, AllowanceInverseToPower)
{
    // Cluster 1 draws more power, so its task receives less
    // allowance at equal priority (A_v = A * (W - W_v)/W).
    hw::Chip chip = test::paper_chip(1, 2);
    Market market(&chip, test::paper_config());
    market.add_task(0, 1, 0);
    market.add_task(1, 1, 1);
    market.set_demand(0, 100.0);
    market.set_demand(1, 100.0);
    market.set_cluster_power(0, 0.2);
    market.set_cluster_power(1, 0.8);
    market.round();
    EXPECT_GT(market.task(0).allowance, market.task(1).allowance);
    // And the cluster allowances still sum to the global allowance.
    EXPECT_NEAR(market.task(0).allowance + market.task(1).allowance,
                market.global_allowance(), 1e-9);
}

TEST(Market, DeflationStepsSupplyDown)
{
    hw::Chip chip = test::paper_chip();
    chip.cluster(0).set_level(3);  // Start at 600 PU.
    Market market(&chip, test::paper_config());
    market.add_task(0, 1, 0);
    market.set_demand(0, 500.0);
    market.round();  // Base price established at 600 PU.
    market.set_demand(0, 50.0);  // Demand collapses.
    int downs = 0;
    for (int i = 0; i < 30; ++i) {
        const RoundReport r = market.round();
        downs += r.vf_changes;
    }
    EXPECT_EQ(chip.cluster(0).level(), 0);
    EXPECT_GE(downs, 3);
}

TEST(Market, TaskCoreReassignmentTracked)
{
    hw::Chip chip = test::paper_chip(2, 1);
    Market market(&chip, test::paper_config());
    market.add_task(0, 1, 0);
    market.set_demand(0, 100.0);
    market.round();
    EXPECT_EQ(test::tasks_on(market, 0).size(), 1u);
    market.set_task_core(0, 1);
    market.round();
    EXPECT_TRUE(test::tasks_on(market, 0).empty());
    EXPECT_EQ(test::tasks_on(market, 1).size(), 1u);
    EXPECT_GT(market.task(0).supply, 0.0);
}

/**
 * Property tests over randomized demands: market invariants that must
 * hold in every round of every scenario.
 */
class MarketPropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(MarketPropertyTest, InvariantsHoldUnderRandomDemands)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    const int cores = 1 + static_cast<int>(rng.uniform_int(0, 2));
    const int clusters = 1 + static_cast<int>(rng.uniform_int(0, 1));
    hw::Chip chip = test::paper_chip(cores, clusters);
    PpmConfig cfg = test::paper_config();
    cfg.savings_cap_frac = rng.uniform(0.5, 5.0);
    Market market(&chip, cfg);
    const int tasks = 2 + static_cast<int>(rng.uniform_int(0, 5));
    for (TaskId t = 0; t < tasks; ++t) {
        market.add_task(t, 1 + static_cast<int>(rng.uniform_int(0, 6)),
                        static_cast<CoreId>(
                            rng.uniform_int(0, chip.num_cores() - 1)));
    }
    std::vector<Money> prev_savings(static_cast<std::size_t>(tasks),
                                    0.0);
    for (int round = 0; round < 60; ++round) {
        for (TaskId t = 0; t < tasks; ++t)
            market.set_demand(t, rng.uniform(0.0, 700.0));
        for (ClusterId v = 0; v < chip.num_clusters(); ++v)
            market.set_cluster_power(v, rng.uniform(0.0, 3.5));
        market.round();

        Money allowance_sum = 0.0;
        for (TaskId t = 0; t < tasks; ++t) {
            const TaskState& ts = market.task(t);
            // Bids stay within [min_bid, allowance + savings], where
            // the savings are the balance available at bid time
            // (i.e. before this round's accrual/spend).
            EXPECT_GE(ts.bid, cfg.min_bid - 1e-12);
            EXPECT_LE(ts.bid,
                      std::max(cfg.min_bid,
                               ts.allowance
                                   + prev_savings[static_cast<
                                       std::size_t>(t)])
                          + 1e-9);
            // Savings are non-negative; the cap limits new accrual
            // (balances may exceed a shrunken cap but never grow
            // above it).
            EXPECT_GE(ts.savings, -1e-12);
            EXPECT_LE(ts.savings,
                      std::max(prev_savings[static_cast<std::size_t>(t)],
                               cfg.savings_cap_frac * ts.allowance)
                          + 1e-9);
            EXPECT_GE(ts.supply, -1e-12);
            allowance_sum += ts.allowance;
            prev_savings[static_cast<std::size_t>(t)] = ts.savings;
        }
        // The distributed allowances never exceed the global pool.
        EXPECT_LE(allowance_sum, market.global_allowance() + 1e-6);

        // Per-core conservation: purchases exactly exhaust the supply
        // the core offered at price discovery (a V-F step at the end
        // of the round takes effect in the next round).
        for (CoreId c = 0; c < chip.num_cores(); ++c) {
            const auto on_core = test::tasks_on(market, c);
            if (on_core.empty())
                continue;
            Pu total = 0.0;
            for (TaskId t : on_core)
                total += market.task(t).supply;
            EXPECT_NEAR(total, market.core(c).supply, 1e-6);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, MarketPropertyTest,
                         ::testing::Range(1, 21));


/**
 * Market-correctness regressions: the starvation guard of the
 * hierarchical allowance distribution and the control_supply() edge
 * cases around bid floors, frozen bids and mid-transition topology
 * loss.  The suite keeps its historical name so the test ids stay
 * stable.
 */

TEST(ParallelClearing, StarvationGuardFeedsStuckSensorCluster)
{
    // Regression for the cluster-weight starvation gap: cluster 0's
    // sensor is stuck at a reading at/above the whole chip's power
    // while cluster 1 reads zero, so cluster 0's power-derived weight
    // collapses to max(0, W - W_0) = 0.  Without the guard its tasks
    // receive no allowance at all -- forever, since a cluster that
    // gets no money cannot lower its own reading.
    hw::Chip chip = test::paper_chip(1, 2);
    PpmConfig cfg = test::paper_config();
    cfg.w_tdp = 10.0;
    cfg.w_th = 9.0;
    Market market(&chip, cfg);
    market.add_task(0, 1, 0);  // Cluster 0 (faulty sensor).
    market.add_task(1, 1, 1);  // Cluster 1 (healthy).
    market.set_demand(0, 200.0);
    market.set_demand(1, 200.0);
    for (int r = 0; r < 5; ++r) {
        market.set_cluster_power(0, 5.0);
        market.set_cluster_power(1, 0.0);
        market.round();
        // The starved cluster gets its priority share of the existing
        // weight mass; the healthy cluster keeps a positive share.
        EXPECT_GT(market.task(0).allowance, 0.0) << "round " << r;
        EXPECT_GT(market.task(1).allowance, 0.0) << "round " << r;
        EXPECT_LE(market.task(0).allowance + market.task(1).allowance,
                  market.global_allowance() + 1e-9);
    }
    // Both task agents can trade: neither supply is pinned at zero.
    EXPECT_GT(market.task(0).supply, 0.0);
    EXPECT_GT(market.task(1).supply, 0.0);
}

TEST(ParallelClearing, BidFloorDeflationWaitsForAllBids)
{
    // The bid-floor walk is the only deflation channel once the price
    // is pinned: with the bids at b_min and the base price tracked
    // down to the pinned price (via the demand-rounding-blocked
    // path), neither band trigger can fire.  Stage exactly that state
    // at level 1, then check the walk's two gates: it must hold while
    // the lower level does not cover the demand, hold while ANY bid
    // sits above the floor, and only then step down.
    hw::Chip chip = test::paper_chip();
    Market market(&chip, test::paper_config());
    // Eight symmetric agents at 45 PU each: the joint 360 PU inflates
    // 300 -> 400 and then blocks band deflation (300 < 360), while
    // each agent's floor-bid share (400/8 = 50 PU) over-supplies it,
    // so every bid decays to exactly b_min and the price pins with
    // the base tracked down onto it.
    const int kTasks = 8;
    for (TaskId t = 0; t < kTasks; ++t) {
        market.add_task(t, 1, 0);
        market.set_demand(t, 45.0);
    }
    const Money floor = market.config().min_bid;
    for (int r = 0; r < 120; ++r) {
        market.set_cluster_power(0, test::paper_power(
            chip.cluster(0).supply()));
        market.round();
    }
    ASSERT_EQ(chip.cluster(0).level(), 1);
    for (TaskId t = 0; t < kTasks; ++t)
        ASSERT_NEAR(market.task(t).bid, floor, 1e-9) << "task " << t;
    // Gate 1 (coverage): price pinned, but 300 PU < 360 PU of
    // demand, so the walk must hold the level indefinitely.
    for (int r = 0; r < 10; ++r) {
        market.set_cluster_power(0, 0.8);
        market.round();
        EXPECT_EQ(chip.cluster(0).level(), 1);
    }
    // Demand collapses so level 0 now covers it -- but one agent's
    // bid pops above the floor (still inside the price band, so the
    // band triggers stay quiet).
    for (TaskId t = 0; t < kTasks; ++t)
        market.set_demand(t, 30.0);
    market.task(0).bid = 0.02;
    bool stepped_down = false;
    for (int r = 0; r < 20 && !stepped_down; ++r) {
        const Money bid_before = market.task(0).bid;
        market.set_cluster_power(0, 0.8);
        market.round();
        if (chip.cluster(0).level() == 0) {
            stepped_down = true;
            // Gate 2 (all-floor): the down-step waited until every
            // bid had decayed back to b_min.
            for (TaskId t = 0; t < kTasks; ++t)
                EXPECT_NEAR(market.task(t).bid, floor, 1e-9);
        } else if (bid_before > floor + 1e-9) {
            // While the popped bid was above the floor when the round
            // began, the walk must have held the level.
            EXPECT_EQ(chip.cluster(0).level(), 1) << "round " << r;
        }
    }
    EXPECT_TRUE(stepped_down);
    EXPECT_EQ(chip.cluster(0).supply(), 300.0);
}

TEST(ParallelClearing, FrozenBidsStillClampInEmergency)
{
    // A V-F transition freezes the bids for one round; an emergency
    // in that same round (power reading far above W_tdp) collapses
    // the allowance, and the bound b <= a + m must cut the frozen bid
    // anyway -- emergency response is never deferred.  A twin market
    // with a healthy reading shows the freeze alone does not cut.
    auto make = [](hw::Chip* chip) {
        PpmConfig cfg = test::paper_config();
        // No banked savings: the clamp bound is the allowance alone,
        // so the emergency contraction is visible in one round.
        cfg.savings_cap_frac = 0.0;
        Market m(chip, cfg);
        m.add_task(0, 1, 0);
        m.set_demand(0, 250.0);
        return m;
    };
    hw::Chip chip_hot = test::paper_chip();
    hw::Chip chip_ref = test::paper_chip();
    Market hot = make(&chip_hot);
    Market ref = make(&chip_ref);
    // Converge, then force an up-step so the next round runs frozen.
    auto drive = [](Market& m, Pu demand, Watts power) {
        m.set_demand(0, demand);
        m.set_cluster_power(0, power);
        m.round();
    };
    for (int r = 0; r < 5; ++r) {
        drive(hot, 250.0, 0.8);
        drive(ref, 250.0, 0.8);
    }
    ASSERT_FALSE(hot.bids_frozen(0));
    int guard = 0;
    while (!hot.bids_frozen(0) && guard++ < 20) {
        drive(hot, 380.0, 0.8);
        drive(ref, 380.0, 0.8);
    }
    ASSERT_TRUE(hot.bids_frozen(0));
    ASSERT_TRUE(ref.bids_frozen(0));
    const Money bid_before = hot.task(0).bid;
    ASSERT_EQ(ref.task(0).bid, bid_before);
    // The frozen round: hot sees a runaway reading, ref stays benign.
    drive(hot, 380.0, 50.0);
    drive(ref, 380.0, 0.8);
    EXPECT_LT(hot.task(0).bid, bid_before);
    EXPECT_LE(hot.task(0).bid,
              hot.task(0).allowance + hot.task(0).savings + 1e-12);
    EXPECT_GE(ref.task(0).bid, bid_before);
}

TEST(ParallelClearing, PendingBaseResetSurvivesMidTransitionLoss)
{
    // A V-F change leaves pending_base_reset armed for the next
    // round.  If the cluster then goes dark mid-transition -- power
    // gated, or every task gone -- control_supply() must clear the
    // freeze machinery instead of anchoring a base price on garbage,
    // and the market must keep working once the cluster returns.
    hw::Chip chip = test::paper_chip();
    Market market(&chip, test::paper_config());
    market.add_task(0, 1, 0);
    market.set_demand(0, 250.0);
    market.set_cluster_power(0, 0.8);
    market.round();
    market.set_demand(0, 380.0);
    int guard = 0;
    while (!market.bids_frozen(0) && guard++ < 20) {
        market.set_cluster_power(0, 0.8);
        market.round();
    }
    ASSERT_TRUE(market.bids_frozen(0));
    // Mid-transition power gating: the pending reset must not anchor.
    chip.cluster(0).set_powered(false);
    market.set_cluster_power(0, 0.0);
    market.round();
    EXPECT_FALSE(market.bids_frozen(0));
    EXPECT_TRUE(market.sane());
    // The cluster returns; the market converges again from scratch.
    chip.cluster(0).set_powered(true);
    for (int r = 0; r < 30; ++r) {
        market.set_cluster_power(0, test::paper_power(
            chip.cluster(0).supply()));
        market.round();
    }
    EXPECT_TRUE(market.sane());
    EXPECT_GE(chip.cluster(0).supply(), 380.0);
    EXPECT_GT(market.task(0).supply, 0.0);

    // Same interleaving, but the transition dies because the last
    // task exits: the constrained core disappears instead.
    market.set_demand(0, 550.0);
    guard = 0;
    while (!market.bids_frozen(0) && guard++ < 20) {
        market.set_cluster_power(0, test::paper_power(
            chip.cluster(0).supply()));
        market.round();
    }
    ASSERT_TRUE(market.bids_frozen(0));
    market.set_task_active(0, false);
    market.set_cluster_power(0, 0.8);
    market.round();
    EXPECT_FALSE(market.bids_frozen(0));
    EXPECT_TRUE(market.sane());
    market.set_task_active(0, true);
    market.set_demand(0, 250.0);
    for (int r = 0; r < 10; ++r) {
        market.set_cluster_power(0, test::paper_power(
            chip.cluster(0).supply()));
        market.round();
    }
    EXPECT_TRUE(market.sane());
    EXPECT_GT(market.task(0).supply, 0.0);
}

} // namespace
} // namespace ppm::market
