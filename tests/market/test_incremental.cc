/**
 * @file
 * Invalidation-precision tests for the incremental active-set
 * clearing engine.  Each test drives a standalone market to a
 * bitwise fixed point (the round early-exits with an empty active
 * set), perturbs exactly one input channel, and asserts the next
 * round recomputes the affected entries -- and *only* those, where
 * the channel's blast radius is provably contained.  The assertions
 * read the bookkeeping active set (Market::last_round_recomputed()),
 * which is maintained whether or not PpmConfig::incremental actually
 * skips the clean entries, so every test also runs with the flag off
 * and must see identical counters (the lockstep test checks the full
 * state bit-for-bit).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "hw/platform.hh"
#include "market/market.hh"
#include "tests/market/market_test_util.hh"

namespace ppm::market {
namespace {

/** Bitwise double equality (the engine's own change criterion). */
bool
bits_equal(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/**
 * Steady 2-cluster x 2-core fixture: four tasks, one per core, with
 * demands far below the lowest V-F supply so every bid deflates to
 * the clamped floor and the market reaches an exact fixed point.
 */
struct SteadyFixture {
    hw::Chip chip = test::paper_chip(2, 2);
    Market market{&chip, test::paper_config()};

    SteadyFixture()
    {
        for (TaskId t = 0; t < 4; ++t) {
            market.add_task(t, 1, t);
            market.set_demand(t, 40.0 + 10.0 * t);
        }
        market.set_cluster_power(0, 0.5);
        market.set_cluster_power(1, 0.5);
    }

    /**
     * Round until the active set drains empty.  Returns the number
     * of rounds it took; fails the test if 300 rounds don't settle
     * (the fixture is constructed so they always do).
     */
    int settle()
    {
        for (int i = 0; i < 300; ++i) {
            if (market.round().early_exit)
                return i + 1;
        }
        ADD_FAILURE() << "fixture did not reach a bitwise fixed point";
        return -1;
    }

    /** Did the last round recompute task `t`? */
    bool recomputed(TaskId t) const
    {
        const std::vector<TaskId>& r = market.last_round_recomputed();
        return std::find(r.begin(), r.end(), t) != r.end();
    }
};

TEST(Incremental, SteadyStateReachesEarlyExitAndStaysThere)
{
    SteadyFixture f;
    ASSERT_GT(f.settle(), 0);
    // The fixed point is absorbing: ten more rounds with untouched
    // inputs all collapse to the O(cores + clusters) early exit.
    for (int i = 0; i < 10; ++i) {
        const RoundReport r = f.market.round();
        EXPECT_TRUE(r.early_exit);
        EXPECT_EQ(r.tasks_recomputed, 0);
        EXPECT_EQ(r.tasks_skipped, 4);
        EXPECT_EQ(r.cores_recomputed, 0);
        EXPECT_EQ(r.cores_skipped, 4);
        EXPECT_TRUE(f.market.last_round_recomputed().empty());
    }
    const sim::ClearingStats& st = f.market.clearing_stats();
    EXPECT_GE(st.rounds_early_exit, 10);
    EXPECT_EQ(st.task_slots, 4 * st.rounds);
    EXPECT_GT(st.tasks_skipped, 0);
}

TEST(Incremental, BitEqualInputRewritesKeepTheFixedPoint)
{
    SteadyFixture f;
    ASSERT_GT(f.settle(), 0);
    // Re-posting bit-identical inputs is not a change: the engine
    // compares bits, not write events.
    f.market.set_demand(0, 40.0);
    f.market.set_demand(3, 70.0);
    f.market.set_cluster_power(0, 0.5);
    f.market.set_tdp(test::paper_config().w_tdp,
                     test::paper_config().w_th);
    const RoundReport r = f.market.round();
    EXPECT_TRUE(r.early_exit);
    EXPECT_EQ(r.tasks_recomputed, 0);
}

TEST(Incremental, DemandChangeStaysWithinTheCluster)
{
    SteadyFixture f;
    ASSERT_GT(f.settle(), 0);
    // Task 0 lives on core 0 (cluster 0); tasks 2 and 3 live on
    // cluster 1.  A demand change that stays below the supply of the
    // lowest V-F level moves no cluster level and no allowance, so
    // the blast radius is cluster 0 alone.
    f.market.set_demand(0, 90.0);
    const RoundReport r = f.market.round();
    EXPECT_FALSE(r.early_exit);
    EXPECT_TRUE(f.recomputed(0));
    EXPECT_FALSE(f.recomputed(2));
    EXPECT_FALSE(f.recomputed(3));
    EXPECT_LE(r.tasks_recomputed, 2);
    // The core fold sees the new demand immediately.
    EXPECT_DOUBLE_EQ(f.market.core(0).demand, 90.0);
}

TEST(Incremental, TdpRewriteReachesEveryTask)
{
    SteadyFixture f;
    ASSERT_GT(f.settle(), 0);
    // Dropping W_tdp below the standing 1.0 W chip power flips the
    // chip agent into emergency; the allowance contraction is a
    // global signal, so every task re-enters the active set.
    f.market.set_tdp(0.8, 0.6);
    const RoundReport r = f.market.round();
    EXPECT_FALSE(r.early_exit);
    EXPECT_EQ(r.state, ChipState::kEmergency);
    EXPECT_EQ(r.tasks_recomputed, 4);
    EXPECT_EQ(r.tasks_skipped, 0);
}

TEST(Incremental, PowerReadingChangeReachesEveryTask)
{
    SteadyFixture f;
    ASSERT_GT(f.settle(), 0);
    // Same channel from the other side: the thresholds stand still
    // and the reading crosses them (2.25 W TDP in paper_config).
    f.market.set_cluster_power(0, 3.0);
    const RoundReport r = f.market.round();
    EXPECT_FALSE(r.early_exit);
    EXPECT_EQ(r.state, ChipState::kEmergency);
    EXPECT_EQ(r.tasks_recomputed, 4);
}

TEST(Incremental, TaskExitAndReAdmissionRecomputeTheTask)
{
    SteadyFixture f;
    ASSERT_GT(f.settle(), 0);
    // Exit: the departing agent's money leaves circulation and its
    // core's fold loses a bid, so the task is in the next active set.
    f.market.set_task_active(2, false);
    f.market.round();
    EXPECT_TRUE(f.recomputed(2));
    ASSERT_GT(f.settle(), 0);
    EXPECT_EQ(f.market.task(2).supply, 0.0);
    // Re-admission starts the agent afresh with the initial bid.
    f.market.set_task_active(2, true);
    const RoundReport r = f.market.round();
    EXPECT_FALSE(r.early_exit);
    EXPECT_TRUE(f.recomputed(2));
    ASSERT_GT(f.settle(), 0);
    EXPECT_GT(f.market.task(2).supply, 0.0);
}

TEST(Incremental, MigrationRecomputesTheMovedTask)
{
    SteadyFixture f;
    ASSERT_GT(f.settle(), 0);
    // Move task 0 from core 0 to core 1 (same cluster: the cluster
    // demand sum is unchanged, so no V-F or allowance movement).
    f.market.set_task_core(0, 1);
    const RoundReport r = f.market.round();
    EXPECT_FALSE(r.early_exit);
    EXPECT_TRUE(f.recomputed(0));
    EXPECT_FALSE(f.recomputed(2));
    EXPECT_FALSE(f.recomputed(3));
    // Both core folds moved: source lost the demand, target gained it.
    EXPECT_DOUBLE_EQ(f.market.core(0).demand, 0.0);
    EXPECT_DOUBLE_EQ(f.market.core(1).demand, 40.0 + 50.0);
    ASSERT_GT(f.settle(), 0);
}

TEST(Incremental, MutableHookForcesAFullRecompute)
{
    SteadyFixture f;
    ASSERT_GT(f.settle(), 0);
    // The mutable task()/core() overloads are the repair/nice back
    // door: the caller may rewrite any field behind the dirty
    // tracking's back, so taking the reference forfeits every memo.
    f.market.task(1).priority = 3;
    const RoundReport r = f.market.round();
    EXPECT_FALSE(r.early_exit);
    EXPECT_EQ(r.tasks_recomputed, 4);
    EXPECT_EQ(r.cores_recomputed, 4);
    ASSERT_GT(f.settle(), 0);

    f.market.core(3);  // Taking the reference is enough.
    const RoundReport r2 = f.market.round();
    EXPECT_EQ(r2.tasks_recomputed, 4);
}

TEST(Incremental, ExternalVfStepInvalidatesThePricedCluster)
{
    SteadyFixture f;
    ASSERT_GT(f.settle(), 0);
    // Step cluster 1's V-F level behind the market's back -- the
    // stand-in for every external supply channel (safe-mode clamps,
    // power gating, deferred faulted DVFS).  The price loop reads
    // chip supplies fresh each round and bit-compares, so the change
    // needs no explicit hook to reach the purchase pass.
    const int before = f.chip.cluster(1).level();
    f.chip.cluster(1).set_level(before + 1);
    const RoundReport r = f.market.round();
    EXPECT_TRUE(f.recomputed(2));
    EXPECT_TRUE(f.recomputed(3));
    EXPECT_FALSE(f.recomputed(0));
    EXPECT_FALSE(f.recomputed(1));
    EXPECT_EQ(r.tasks_recomputed, 2);
    // Note the *core folds* stay clean: the demand and bid sums are
    // unchanged (every bid sits at the floor), so only the purchase
    // pass re-runs for the re-priced tasks.
}

/**
 * Lockstep differential: two markets on identical chips, one with
 * incrementality on and one with it off, driven through every
 * mutation channel.  After each round the complete observable state
 * must match bit for bit -- including the skip counters, which count
 * bookkeeping (not skipping) and are therefore mode-invariant.
 */
TEST(Incremental, LockstepOnOffIsBitIdentical)
{
    hw::Chip chip_a = test::paper_chip(2, 2);
    hw::Chip chip_b = test::paper_chip(2, 2);
    PpmConfig on = test::paper_config();
    on.incremental = true;
    PpmConfig off = test::paper_config();
    off.incremental = false;
    Market a(&chip_a, on);
    Market b(&chip_b, off);
    for (TaskId t = 0; t < 4; ++t) {
        a.add_task(t, 1 + static_cast<int>(t) % 2, t);
        b.add_task(t, 1 + static_cast<int>(t) % 2, t);
        a.set_demand(t, 120.0 + 60.0 * t);
        b.set_demand(t, 120.0 + 60.0 * t);
    }

    auto mutate = [&](Market& m, hw::Chip& chip, int round) {
        m.set_cluster_power(0, 1.0);
        m.set_cluster_power(1, 0.8);
        switch (round) {
        case 10: m.set_demand(1, 480.0); break;
        case 20: m.set_task_core(0, 2); break;          // Migrate.
        case 30: m.set_task_active(3, false); break;    // Exit.
        case 40: m.set_tdp(1.2, 0.9); break;            // Emergency.
        case 50: m.set_tdp(test::paper_config().w_tdp,  // Recover.
                           test::paper_config().w_th);
                 break;
        case 60: m.set_task_active(3, true); break;     // Re-admit.
        case 70: m.task(2).priority = 4; break;         // Nice.
        case 80: chip.cluster(0).set_level(3); break;   // V-F jump.
        default: break;
        }
    };

    for (int round = 0; round < 100; ++round) {
        mutate(a, chip_a, round);
        mutate(b, chip_b, round);
        const RoundReport ra = a.round();
        const RoundReport rb = b.round();
        ASSERT_EQ(ra.tasks_recomputed, rb.tasks_recomputed)
            << "round " << round;
        ASSERT_EQ(ra.tasks_skipped, rb.tasks_skipped);
        ASSERT_EQ(ra.cores_recomputed, rb.cores_recomputed);
        ASSERT_EQ(ra.cores_skipped, rb.cores_skipped);
        ASSERT_EQ(ra.early_exit, rb.early_exit);
        ASSERT_TRUE(bits_equal(ra.allowance, rb.allowance));
        ASSERT_TRUE(bits_equal(ra.total_supply, rb.total_supply));
        ASSERT_EQ(a.last_round_recomputed(), b.last_round_recomputed());
        for (TaskId t = 0; t < 4; ++t) {
            const TaskState& ta = a.task(t);
            const TaskState& tb = b.task(t);
            ASSERT_TRUE(bits_equal(ta.bid, tb.bid))
                << "task " << t << " bid diverged at round " << round;
            ASSERT_TRUE(bits_equal(ta.supply, tb.supply));
            ASSERT_TRUE(bits_equal(ta.allowance, tb.allowance));
            ASSERT_TRUE(bits_equal(ta.savings, tb.savings));
        }
        for (CoreId c = 0; c < 4; ++c) {
            ASSERT_TRUE(bits_equal(a.core(c).price, b.core(c).price))
                << "core " << c << " price diverged at round " << round;
            ASSERT_TRUE(bits_equal(a.core(c).supply, b.core(c).supply));
        }
        ASSERT_EQ(chip_a.cluster(0).level(), chip_b.cluster(0).level());
        ASSERT_EQ(chip_a.cluster(1).level(), chip_b.cluster(1).level());
    }
    // Both sides kept the same books.
    EXPECT_EQ(a.clearing_stats().tasks_skipped,
              b.clearing_stats().tasks_skipped);
    EXPECT_EQ(a.clearing_stats().rounds_early_exit,
              b.clearing_stats().rounds_early_exit);
}

} // namespace
} // namespace ppm::market
