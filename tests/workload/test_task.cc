/** @file Unit tests for the phase-structured task model. */

#include <gtest/gtest.h>

#include "tests/test_util.hh"
#include "workload/task.hh"

namespace ppm::workload {
namespace {

TaskSpec
two_phase_spec()
{
    TaskSpec spec;
    spec.name = "two-phase";
    spec.priority = 1;
    spec.min_hr = 19.0;
    spec.max_hr = 21.0;
    // Phase 0: 10 s, 1e6 cycles/hb on LITTLE; phase 1: 5 s, twice
    // the work per heartbeat.
    spec.phases.push_back(Phase{10 * kSecond, 1e6, 0.5e6});
    spec.phases.push_back(Phase{5 * kSecond, 2e6, 1e6});
    return spec;
}

TEST(Task, HeartbeatsFromGrantedCycles)
{
    Task t(0, two_phase_spec());
    t.advance(0, kSecond, 5e6, hw::CoreClass::kLittle);
    // One tick of one second: the HRM windows hold exactly its sample.
    EXPECT_DOUBLE_EQ(t.heart_rate(kSecond), 5.0);
    EXPECT_DOUBLE_EQ(t.hrm().supply(kSecond) * kCyclesPerPuSecond, 5e6);
}

TEST(Task, BigCoreCostsLess)
{
    Task t(0, two_phase_spec());
    t.advance(0, kSecond, 5e6, hw::CoreClass::kBig);
    EXPECT_DOUBLE_EQ(t.heart_rate(kSecond), 10.0);
}

TEST(Task, PhaseAdvancesByWallClock)
{
    Task t(0, two_phase_spec());
    EXPECT_EQ(t.phase_index(), 0);
    t.advance(0, 10 * kSecond, 0.0, hw::CoreClass::kLittle);
    EXPECT_EQ(t.phase_index(), 1);
    t.advance(10 * kSecond, 5 * kSecond, 0.0, hw::CoreClass::kLittle);
    EXPECT_EQ(t.phase_index(), 0);  // Loops.
}

TEST(Task, PhaseLoopAcrossMultiplePeriods)
{
    Task t(0, two_phase_spec());
    // 3 full loops (45 s) plus 12 s -> inside phase 1.
    t.advance(0, 57 * kSecond, 0.0, hw::CoreClass::kLittle);
    EXPECT_EQ(t.phase_index(), 1);
}

TEST(Task, TrueDemandPerPhaseAndClass)
{
    Task t(0, two_phase_spec());
    // Phase 0: target 20 hb/s * 1e6 cycles / 1e6 = 20 PU on LITTLE.
    EXPECT_DOUBLE_EQ(t.true_demand(hw::CoreClass::kLittle), 20.0);
    EXPECT_DOUBLE_EQ(t.true_demand(hw::CoreClass::kBig), 10.0);
    t.advance(0, 10 * kSecond, 0.0, hw::CoreClass::kLittle);
    EXPECT_DOUBLE_EQ(t.true_demand(hw::CoreClass::kLittle), 40.0);
}

TEST(Task, GreedyTaskDesiresUnbounded)
{
    Task t(0, two_phase_spec());
    EXPECT_GT(t.desired_cycles(kMillisecond, hw::CoreClass::kLittle),
              1e18);
}

TEST(Task, SelfPacedDesiresBounded)
{
    TaskSpec spec = test::steady_spec("p", 1, 200.0, 1.6, 20.0, 20.0);
    Task t(0, spec);
    // 20 hb/s * 1 ms * (200/20) PU-s/hb * 1e6 = 200e3 cycles.
    EXPECT_NEAR(t.desired_cycles(kMillisecond, hw::CoreClass::kLittle),
                200e3, 1.0);
}

TEST(Task, HrmSeesProgress)
{
    Task t(0, two_phase_spec());
    for (SimTime now = 0; now < kSecond; now += 10 * kMillisecond) {
        t.advance(now, 10 * kMillisecond, 20e6 * 0.01,
                  hw::CoreClass::kLittle);
    }
    EXPECT_NEAR(t.heart_rate(kSecond), 20.0, 0.5);
}

TEST(TaskDeath, RejectsEmptyPhases)
{
    TaskSpec spec;
    spec.name = "bad";
    spec.priority = 1;
    spec.min_hr = 1.0;
    spec.max_hr = 2.0;
    EXPECT_DEATH(Task(0, spec), "phase");
}

TEST(TaskDeath, RejectsBadPriority)
{
    TaskSpec spec = two_phase_spec();
    spec.priority = 0;
    EXPECT_DEATH(Task(0, spec), "priority");
}

} // namespace
} // namespace ppm::workload
