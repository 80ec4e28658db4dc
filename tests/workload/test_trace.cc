/** @file Unit tests for trace-driven task construction. */

#include <sstream>

#include <gtest/gtest.h>

#include "workload/trace.hh"

namespace ppm::workload {
namespace {

TEST(Trace, ParsesSimpleCsv)
{
    std::istringstream in("0,400\n10,800\n30,200\n");
    const auto trace = load_demand_trace(in);
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace[0].time, 0);
    EXPECT_DOUBLE_EQ(trace[0].demand, 400.0);
    EXPECT_EQ(trace[1].time, 10 * kSecond);
    EXPECT_EQ(trace[2].time, 30 * kSecond);
    EXPECT_DOUBLE_EQ(trace[2].demand, 200.0);
}

TEST(Trace, SkipsCommentsHeaderAndBlanks)
{
    std::istringstream in(
        "# a comment\n"
        "time_s,demand_pu\n"
        "\n"
        "0,100\n"
        "  5.5 , 250 \n");
    const auto trace = load_demand_trace(in);
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[1].time, 5500 * kMillisecond);
    EXPECT_DOUBLE_EQ(trace[1].demand, 250.0);
}

TEST(TraceDeath, RejectsNonMonotoneTimes)
{
    std::istringstream in("0,100\n5,200\n5,300\n");
    EXPECT_EXIT(load_demand_trace(in), ::testing::ExitedWithCode(1),
                "strictly increasing");
}

TEST(TraceDeath, RejectsEmptyTrace)
{
    std::istringstream in("# nothing\n");
    EXPECT_EXIT(load_demand_trace(in), ::testing::ExitedWithCode(1),
                "empty");
}

TEST(TraceDeath, RejectsNonZeroStart)
{
    std::istringstream in("1,100\n");
    EXPECT_EXIT(load_demand_trace(in), ::testing::ExitedWithCode(1),
                "start at time 0");
}

TEST(TraceDeath, RejectsMalformedRow)
{
    // No comma; trailing garbage on either field; a third column;
    // 1e400, which strtod reads as infinity.
    for (const char* rows :
         {"0;100\n", "0,100\n0.5x,200\n", "0,100x\n", "0,100,7\n",
          "0,100\n1e400,200\n"}) {
        std::istringstream in(rows);
        EXPECT_EXIT(load_demand_trace(in), ::testing::ExitedWithCode(1),
                    "expected")
            << rows;
    }
    // Finite, but 1e13 s is more microseconds than SimTime holds.
    std::istringstream huge("0,100\n1e13,200\n");
    EXPECT_EXIT(load_demand_trace(huge), ::testing::ExitedWithCode(1),
                "line 2: time 1e13 s is out of range");
}

TEST(TraceDeath, MissingFileIsFatal)
{
    EXPECT_EXIT(load_demand_trace_file("/nonexistent/trace.csv"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(Trace, PhasesMatchSegments)
{
    std::istringstream in("0,400\n10,800\n30,200\n");
    const auto trace = load_demand_trace(in);
    const auto phases =
        phases_from_trace(trace, /*speedup=*/2.0, /*target_hr=*/20.0,
                          /*tail=*/5 * kSecond);
    ASSERT_EQ(phases.size(), 3u);
    EXPECT_EQ(phases[0].duration, 10 * kSecond);
    EXPECT_EQ(phases[1].duration, 20 * kSecond);
    EXPECT_EQ(phases[2].duration, 5 * kSecond);
    // 400 PU at 20 hb/s -> 20e6 cycles/hb on LITTLE, half on big.
    EXPECT_DOUBLE_EQ(phases[0].work_per_hb_little, 20e6);
    EXPECT_DOUBLE_EQ(phases[0].work_per_hb_big, 10e6);
}

TEST(Trace, ZeroDemandFloored)
{
    std::istringstream in("0,0\n");
    const auto phases = phases_from_trace(load_demand_trace(in), 1.6,
                                          20.0);
    // Floor of 1 PU keeps the phase work positive.
    EXPECT_DOUBLE_EQ(phases[0].work_per_hb_little,
                     1.0 * kCyclesPerPuSecond / 20.0);
}

TEST(Trace, TaskSpecDrivesTask)
{
    std::istringstream in("0,400\n10,800\n");
    const TaskSpec spec = make_trace_task_spec(
        "traced", 2, load_demand_trace(in), 2.0, 20.0);
    EXPECT_EQ(spec.priority, 2);
    EXPECT_DOUBLE_EQ(spec.min_hr, 19.0);
    EXPECT_DOUBLE_EQ(spec.max_hr, 21.0);
    Task task(0, spec);
    EXPECT_DOUBLE_EQ(task.true_demand(hw::CoreClass::kLittle), 400.0);
    task.advance(0, 10 * kSecond, 0.0, hw::CoreClass::kLittle);
    EXPECT_DOUBLE_EQ(task.true_demand(hw::CoreClass::kLittle), 800.0);
    EXPECT_DOUBLE_EQ(task.true_demand(hw::CoreClass::kBig), 400.0);
}

} // namespace
} // namespace ppm::workload
