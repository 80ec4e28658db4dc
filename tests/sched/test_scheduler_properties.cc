/**
 * @file
 * Property tests for the proportional-share scheduler: conservation,
 * fairness and cap invariants over randomized task sets (TEST_P
 * sweeps, cf. the repository's testing conventions).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "hw/platform.hh"
#include "sched/nice.hh"
#include "sched/scheduler.hh"
#include "tests/test_util.hh"

namespace ppm::sched {
namespace {

class SchedulerPropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(SchedulerPropertyTest, ConservationAndFairness)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
    hw::Chip chip = hw::tc2_chip();
    for (ClusterId v = 0; v < chip.num_clusters(); ++v) {
        chip.cluster(v).set_level(static_cast<int>(rng.uniform_int(
            0, chip.cluster(v).vf().levels() - 1)));
    }
    Scheduler sched(&chip, {});

    const int n = 2 + static_cast<int>(rng.uniform_int(0, 8));
    std::vector<std::unique_ptr<workload::Task>> tasks;
    for (TaskId t = 0; t < n; ++t) {
        // Mix of greedy and self-paced tasks with random demands.
        const double demand = rng.uniform(50.0, 900.0);
        const double pace =
            rng.chance(0.4) ? rng.uniform(5.0, 30.0) : 0.0;
        std::string name = "t";
        name += std::to_string(t);
        tasks.push_back(std::make_unique<workload::Task>(
            t, test::steady_spec(name, 1, demand, 1.8, 20.0, pace)));
        sched.add_task(tasks.back().get(),
                       static_cast<CoreId>(
                           rng.uniform_int(0, chip.num_cores() - 1)));
        sched.set_nice(t, static_cast<int>(rng.uniform_int(-5, 10)));
        if (rng.chance(0.2))
            sched.set_active(t, false);
    }

    // Cycles granted per task, from each tick's supply.
    std::vector<Cycles> cycles(static_cast<std::size_t>(n), 0.0);
    for (SimTime now = 0; now < kSecond; now += kMillisecond) {
        sched.tick(now, kMillisecond);
        for (TaskId t = 0; t < n; ++t) {
            cycles[static_cast<std::size_t>(t)] +=
                sched.task_supply_last(t) * kCyclesPerPuSecond *
                to_seconds(kMillisecond);
        }
    }

    // Per-core conservation: granted cycles never exceed capacity,
    // and a core with a greedy active task is fully utilized.
    for (CoreId c = 0; c < chip.num_cores(); ++c) {
        EXPECT_LE(sched.core_utilization(c), 1.0 + 1e-9);
        EXPECT_GE(sched.core_utilization(c), 0.0);
        bool has_greedy = false;
        for (TaskId t : sched.tasks_on(c)) {
            if (tasks[static_cast<std::size_t>(t)]
                    ->spec().self_pace_hr <= 0.0)
                has_greedy = true;
        }
        if (has_greedy && chip.core_supply(c) > 0.0) {
            EXPECT_NEAR(sched.core_utilization(c), 1.0, 1e-6);
        }
    }

    // Inactive tasks never progress.
    for (TaskId t = 0; t < n; ++t) {
        if (!sched.active(t)) {
            EXPECT_DOUBLE_EQ(cycles[static_cast<std::size_t>(t)], 0.0);
        }
    }

    // Weight fairness between greedy co-runners on the same core:
    // cycle ratios track nice-weight ratios.
    for (CoreId c = 0; c < chip.num_cores(); ++c) {
        std::vector<TaskId> greedy;
        for (TaskId t : sched.tasks_on(c)) {
            if (tasks[static_cast<std::size_t>(t)]
                    ->spec().self_pace_hr <= 0.0)
                greedy.push_back(t);
        }
        for (std::size_t i = 1; i < greedy.size(); ++i) {
            const double cyc_a = cycles[static_cast<std::size_t>(greedy[0])];
            const double cyc_b = cycles[static_cast<std::size_t>(greedy[i])];
            if (cyc_b <= 0.0)
                continue;
            const double weight_ratio =
                weight_for_nice(sched.nice_of(greedy[0]))
                / weight_for_nice(sched.nice_of(greedy[i]));
            EXPECT_NEAR(cyc_a / cyc_b, weight_ratio,
                        0.05 * weight_ratio)
                << "core " << c;
        }
    }
}

TEST_P(SchedulerPropertyTest, SelfPacedNeverExceedsPace)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
    hw::Chip chip = hw::tc2_chip();
    chip.cluster(0).set_level(7);
    Scheduler sched(&chip, {});
    const double pace = rng.uniform(5.0, 40.0);
    const double demand = rng.uniform(100.0, 600.0);
    workload::Task task(
        0, test::steady_spec("p", 1, demand, 1.8, 20.0, pace));
    sched.add_task(&task, 0);
    Cycles granted = 0.0;
    for (SimTime now = 0; now < 2 * kSecond; now += kMillisecond) {
        sched.tick(now, kMillisecond);
        granted += sched.task_supply_last(0) * kCyclesPerPuSecond *
                   to_seconds(kMillisecond);
    }
    // Work per hb = demand/20 PU-s; pace hb/s for 2 s.
    const Cycles expected =
        pace * 2.0 * demand / 20.0 * kCyclesPerPuSecond;
    EXPECT_LE(granted, expected * 1.001);
    EXPECT_GE(granted, expected * 0.95);
}

INSTANTIATE_TEST_SUITE_P(RandomTaskSets, SchedulerPropertyTest,
                         ::testing::Range(1, 16));

} // namespace
} // namespace ppm::sched
