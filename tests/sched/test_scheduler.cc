/** @file Unit tests for the proportional-share scheduler substrate. */

#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "hw/platform.hh"
#include "sched/scheduler.hh"
#include "tests/test_util.hh"

namespace ppm::sched {
namespace {

class SchedulerTest : public ::testing::Test
{
  protected:
    SchedulerTest() : chip_(hw::tc2_chip()), sched_(&chip_, {}) {}

    workload::Task& add(const workload::TaskSpec& spec, CoreId core)
    {
        tasks_.push_back(std::make_unique<workload::Task>(
            static_cast<TaskId>(tasks_.size()), spec));
        sched_.add_task(tasks_.back().get(), core);
        cycles_.push_back(0.0);
        return *tasks_.back();
    }

    /** One tick, adding each task's grant to cycles(). */
    void tick(SimTime now, SimTime dt)
    {
        sched_.tick(now, dt);
        for (std::size_t t = 0; t < tasks_.size(); ++t) {
            cycles_[t] += sched_.task_supply_last(static_cast<TaskId>(t)) *
                          kCyclesPerPuSecond * to_seconds(dt);
        }
    }

    void run(SimTime from, SimTime until, SimTime dt = kMillisecond)
    {
        for (SimTime t = from; t < until; t += dt)
            tick(t, dt);
    }

    /** Cycles task `t` was granted over the ticks so far. */
    Cycles cycles(TaskId t) const
    {
        return cycles_[static_cast<std::size_t>(t)];
    }

    /** Task `t`'s share of core `c` over the last second of ticks. */
    double share(TaskId t, CoreId c, SimTime now) const
    {
        return tasks_[static_cast<std::size_t>(t)]->hrm().supply(now) /
               chip_.core_supply(c);
    }

    hw::Chip chip_;
    Scheduler sched_;
    std::vector<std::unique_ptr<workload::Task>> tasks_;
    std::vector<Cycles> cycles_;
};

TEST_F(SchedulerTest, SingleGreedyTaskConsumesWholeCore)
{
    add(test::steady_spec("t0", 1, 500.0), 0);
    chip_.cluster(0).set_level(7);  // 1000 PU.
    run(0, kSecond);
    // A greedy task alone eats the entire supply regardless of demand.
    EXPECT_NEAR(cycles(0), 1000.0 * kCyclesPerPuSecond, 1e6);
    EXPECT_NEAR(sched_.core_utilization(0), 1.0, 1e-9);
}

TEST_F(SchedulerTest, EqualWeightsSplitEvenly)
{
    add(test::steady_spec("a", 1, 600.0), 0);
    add(test::steady_spec("b", 1, 600.0), 0);
    chip_.cluster(0).set_level(7);
    run(0, kSecond);
    EXPECT_NEAR(cycles(0), cycles(1), 1e3);
    EXPECT_NEAR(cycles(0), 500.0 * kCyclesPerPuSecond, 1e6);
}

TEST_F(SchedulerTest, NiceWeightsSkewShares)
{
    add(test::steady_spec("fav", 1, 900.0), 0);
    add(test::steady_spec("poor", 1, 900.0), 0);
    sched_.set_nice(0, 0);
    sched_.set_nice(1, 5);  // weight 335 vs 1024.
    chip_.cluster(0).set_level(7);
    run(0, kSecond);
    const double ratio = cycles(0) / cycles(1);
    EXPECT_NEAR(ratio, 1024.0 / 335.0, 0.01);
}

TEST_F(SchedulerTest, SelfPacedTaskReturnsSlack)
{
    // A self-paced task at its target rate leaves the rest to the
    // greedy co-runner (water-filling).
    add(test::steady_spec("paced", 1, 200.0, 1.6, 20.0,
                          /*self_pace=*/20.0), 0);
    add(test::steady_spec("greedy", 1, 900.0), 0);
    chip_.cluster(0).set_level(7);
    run(0, kSecond);
    // Paced task: 20 hb/s * (200/20) PU-s per hb = 200 PU-seconds.
    EXPECT_NEAR(cycles(0), 200.0 * kCyclesPerPuSecond, 2e6);
    EXPECT_NEAR(cycles(1), 800.0 * kCyclesPerPuSecond, 2e6);
}

TEST_F(SchedulerTest, SelfPacedAloneIdlesCore)
{
    add(test::steady_spec("paced", 1, 200.0, 1.6, 20.0, 20.0), 0);
    chip_.cluster(0).set_level(7);
    run(0, kSecond);
    EXPECT_NEAR(sched_.core_utilization(0), 0.2, 0.01);
}

TEST_F(SchedulerTest, MigrationChargesPenalty)
{
    add(test::steady_spec("t", 1, 500.0), 0);
    chip_.cluster(0).set_level(7);
    run(0, 100 * kMillisecond);
    const Cycles before = cycles(0);
    // Cross-cluster migration at min LITTLE frequency costs 2.16 ms.
    chip_.cluster(0).set_level(0);
    const SimTime cost = sched_.migrate(0, 3, 100 * kMillisecond);
    EXPECT_EQ(cost, 2160);
    EXPECT_EQ(sched_.core_of(0), 3);
    EXPECT_EQ(sched_.migrations(), 1);
    // The task is blocked during the penalty: tick 2 ms, no progress.
    tick(100 * kMillisecond, 2 * kMillisecond);
    EXPECT_DOUBLE_EQ(cycles(0), before);
    // After the penalty elapses it runs on the big core.
    run(103 * kMillisecond, 203 * kMillisecond);
    EXPECT_GT(cycles(0), before);
}

TEST_F(SchedulerTest, MigrateToSameCoreIsFree)
{
    add(test::steady_spec("t", 1, 500.0), 2);
    EXPECT_EQ(sched_.migrate(0, 2, 0), 0);
    EXPECT_EQ(sched_.migrations(), 0);
}

TEST_F(SchedulerTest, TasksOnReportsPlacement)
{
    add(test::steady_spec("a", 1, 100.0), 0);
    add(test::steady_spec("b", 1, 100.0), 0);
    add(test::steady_spec("c", 1, 100.0), 4);
    EXPECT_EQ(sched_.tasks_on(0).size(), 2u);
    EXPECT_EQ(sched_.tasks_on(4).size(), 1u);
    EXPECT_TRUE(sched_.tasks_on(1).empty());
}

TEST_F(SchedulerTest, GatedClusterStarvesTasks)
{
    add(test::steady_spec("t", 1, 500.0), 0);
    chip_.cluster(0).set_powered(false);
    run(0, 100 * kMillisecond);
    EXPECT_DOUBLE_EQ(cycles(0), 0.0);
    EXPECT_DOUBLE_EQ(sched_.core_utilization(0), 0.0);
}

TEST_F(SchedulerTest, LoadSignalSaturatesForGreedyTask)
{
    add(test::steady_spec("t", 1, 500.0), 0);
    chip_.cluster(0).set_level(7);
    run(0, kSecond);
    EXPECT_GT(sched_.task_load(0), 0.99);
    EXPECT_GT(share(0, 0, kSecond), 0.99);
}

TEST_F(SchedulerTest, CpuShareReflectsContention)
{
    add(test::steady_spec("a", 1, 900.0), 0);
    add(test::steady_spec("b", 1, 900.0), 0);
    chip_.cluster(0).set_level(7);
    run(0, kSecond);
    EXPECT_NEAR(share(0, 0, kSecond), 0.5, 0.02);
    EXPECT_NEAR(share(1, 0, kSecond), 0.5, 0.02);
    // Both remain fully runnable.
    EXPECT_GT(sched_.task_load(0), 0.99);
}

TEST_F(SchedulerTest, SupplyLastTracksAllocation)
{
    add(test::steady_spec("a", 1, 900.0), 0);
    add(test::steady_spec("b", 1, 900.0), 0);
    chip_.cluster(0).set_level(7);  // 1000 PU.
    run(0, 100 * kMillisecond);
    EXPECT_NEAR(sched_.task_supply_last(0), 500.0, 1.0);
    EXPECT_NEAR(sched_.task_supply_last(1), 500.0, 1.0);
}

TEST_F(SchedulerTest, BigCoreRunsFasterPerHeartbeat)
{
    // Same spec on a LITTLE and a big core: the big core emits
    // speedup-times more heartbeats per cycle.
    add(test::steady_spec("little", 1, 500.0, 2.0), 0);
    add(test::steady_spec("big", 1, 500.0, 2.0), 3);
    chip_.cluster(0).set_level(7);  // 1000 PU.
    chip_.cluster(1).set_level(3);  // 800 PU.
    run(0, kSecond);
    // The heart-rate window is one second: the run's every beat.
    const double hb_little = tasks_[0]->heart_rate(kSecond);
    const double hb_big = tasks_[1]->heart_rate(kSecond);
    // LITTLE: 1000 PU / (500/20) -> 40 hb; big: 800 / (250/20) -> 64.
    EXPECT_NEAR(hb_little, 40.0, 0.5);
    EXPECT_NEAR(hb_big, 64.0, 0.5);
}

/** The bit pattern of `x`, so comparisons tell 0.0 from -0.0. */
std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

TEST_F(SchedulerTest, ReplayStepMatchesTick)
{
    // The macro-stepped engine steps a boundary tick through the slot
    // cache (begin_replay() + replay_tick()), the per-tick loop through
    // tick().  Two schedulers running the same tasks, one stepped each
    // way, must publish the same bits after every tick, across a level
    // change and back, a nice change, a migration (its charge blocks
    // the task) and a task going inactive.
    hw::Chip replay_chip = hw::tc2_chip();
    Scheduler replay(&replay_chip, {});
    std::vector<std::unique_ptr<workload::Task>> replay_tasks;
    const workload::TaskSpec specs[] = {
        test::steady_spec("greedy", 1, 900.0),
        test::steady_spec("paced", 2, 200.0, 1.6, 20.0, 20.0),
        test::steady_spec("big", 1, 500.0, 2.0)};
    const CoreId cores[] = {0, 0, 3};
    for (std::size_t i = 0; i < 3; ++i) {
        add(specs[i], cores[i]);
        replay_tasks.push_back(std::make_unique<workload::Task>(
            static_cast<TaskId>(i), specs[i]));
        replay.add_task(replay_tasks.back().get(), cores[i]);
    }
    const auto set_level = [&](ClusterId v, int level) {
        chip_.cluster(v).set_level(level);
        replay_chip.cluster(v).set_level(level);
    };
    set_level(0, 7);
    set_level(1, 3);

    const SimTime dt = kMillisecond;
    SimTime now = 0;
    // `ticks` ticks both ways; returns the slot-cache misses.
    const auto step = [&](int ticks) {
        int misses = 0;
        for (int i = 0; i < ticks; ++i, now += dt) {
            sched_.tick(now, dt);
            if (!replay.begin_replay(now, dt))
                ++misses;
            replay.replay_tick(now, dt);
            for (CoreId c = 0; c < chip_.num_cores(); ++c) {
                EXPECT_EQ(bits(sched_.core_utilization(c)),
                          bits(replay.core_utilization(c)))
                    << "core " << c << " at " << now;
            }
            for (TaskId t = 0; t < 3; ++t) {
                const workload::Task& a = sched_.task(t);
                const workload::Task& b = replay.task(t);
                EXPECT_EQ(bits(sched_.task_supply_last(t)),
                          bits(replay.task_supply_last(t)))
                    << "task " << t << " at " << now;
                EXPECT_EQ(bits(sched_.task_load(t)),
                          bits(replay.task_load(t)))
                    << "task " << t << " at " << now;
                EXPECT_EQ(bits(a.hrm().heart_rate(now + dt)),
                          bits(b.hrm().heart_rate(now + dt)))
                    << "task " << t << " at " << now;
                EXPECT_EQ(bits(a.hrm().supply(now + dt)),
                          bits(b.hrm().supply(now + dt)))
                    << "task " << t << " at " << now;
            }
        }
        return misses;
    };

    EXPECT_EQ(step(50), 1);
    set_level(0, 4);
    EXPECT_EQ(step(30), 1);
    // The supply returns to the first plan's, but the cache holds the
    // latest plan, so the lookup misses and rebuilds.
    set_level(0, 7);
    EXPECT_EQ(step(30), 1);

    sched_.set_nice(1, 5);
    replay.set_nice(1, 5);
    EXPECT_EQ(step(30), 1);

    // Every tick of the charge misses (a blocked task never caches).
    const SimTime charge = sched_.migrate(0, 4, now);
    ASSERT_EQ(replay.migrate(0, 4, now), charge);
    ASSERT_GT(charge, dt);
    const int blocked = static_cast<int>((charge + dt - 1) / dt);
    EXPECT_EQ(step(blocked + 30), blocked + 1);

    sched_.set_active(2, false);
    replay.set_active(2, false);
    EXPECT_EQ(step(30), 1);
}

TEST_F(SchedulerTest, LoadWeightFollowsDt)
{
    // The load EWMA's weight 1 - exp(-dt/tau) is computed once per dt.
    // Ticked at 1 ms, then 10 ms, then 1 ms again, every task_load must
    // be the recurrence with the weight of that tick's dt, bit for bit,
    // through tick() and through the slot cache alike: a weight kept
    // from an earlier dt misses.  Every task wants more than any core
    // supplies, so its runnable fraction is 1, or 0 while a migration
    // charge blocks it.
    hw::Chip replay_chip = hw::tc2_chip();
    Scheduler replay(&replay_chip, {});
    std::vector<std::unique_ptr<workload::Task>> replay_tasks;
    const CoreId cores[] = {0, 0, 3};
    for (std::size_t i = 0; i < 3; ++i) {
        const auto spec =
            test::steady_spec("greedy" + std::to_string(i), 1, 5000.0);
        add(spec, cores[i]);
        replay_tasks.push_back(std::make_unique<workload::Task>(
            static_cast<TaskId>(i), spec));
        replay.add_task(replay_tasks.back().get(), cores[i]);
    }
    for (hw::Chip* chip : {&chip_, &replay_chip}) {
        chip->cluster(0).set_level(7);
        chip->cluster(1).set_level(3);
    }

    std::vector<double> expected(3, 0.0);
    SimTime now = 0;
    const auto run_at = [&](SimTime dt, int ticks) {
        const double weight = 1.0 - std::exp(-to_seconds(dt) / 0.1);
        for (int i = 0; i < ticks; ++i, now += dt) {
            for (TaskId t = 0; t < 3; ++t) {
                const double frac =
                    sched_.blocked_until(t) <= now ? 1.0 : 0.0;
                auto& x = expected[static_cast<std::size_t>(t)];
                x += weight * (frac - x);
            }
            sched_.tick(now, dt);
            replay.begin_replay(now, dt);
            replay.replay_tick(now, dt);
            for (TaskId t = 0; t < 3; ++t) {
                const double x = expected[static_cast<std::size_t>(t)];
                EXPECT_EQ(bits(sched_.task_load(t)), bits(x))
                    << "task " << t << " at " << now;
                EXPECT_EQ(bits(replay.task_load(t)), bits(x))
                    << "task " << t << " at " << now;
            }
        }
    };

    run_at(kMillisecond, 5);
    // A migration charge: the task's fraction is 0 until it ends.
    const SimTime charge = sched_.migrate(0, 4, now);
    ASSERT_EQ(replay.migrate(0, 4, now), charge);
    ASSERT_GT(charge, kMillisecond);
    run_at(kMillisecond, 15);
    run_at(10 * kMillisecond, 20);
    run_at(kMillisecond, 20);
}

} // namespace
} // namespace ppm::sched
