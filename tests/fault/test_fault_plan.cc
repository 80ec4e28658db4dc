/**
 * @file
 * FaultSpec parsing and FaultPlan compilation: the whole schedule is
 * fixed before the run, so the same (spec, chip, duration) must always
 * yield the same events, on the tick grid, inside the run window.
 */

#include <gtest/gtest.h>

#include "fault/fault.hh"

namespace ppm::fault {
namespace {

TEST(FaultSpecParse, ClassTokensAndKnobs)
{
    FaultSpec spec;
    std::string error;
    ASSERT_TRUE(parse_fault_spec(
        "seed=9,sensor,dvfs,rate=12,duration_ms=200,noise_w=0.25,"
        "delay_ms=16,stale_ms=300,staleness_ms=100,retries=2,"
        "backoff_ms=2",
        &spec, &error))
        << error;
    EXPECT_EQ(spec.seed, 9u);
    EXPECT_TRUE(spec.sensor);
    EXPECT_TRUE(spec.dvfs);
    EXPECT_FALSE(spec.migration);
    EXPECT_FALSE(spec.offline);
    EXPECT_DOUBLE_EQ(spec.rate_per_min, 12.0);
    EXPECT_EQ(spec.mean_duration, 200 * kMillisecond);
    EXPECT_DOUBLE_EQ(spec.noise_sigma_w, 0.25);
    EXPECT_EQ(spec.dvfs_delay, 16 * kMillisecond);
    EXPECT_EQ(spec.stale_age, 300 * kMillisecond);
    EXPECT_EQ(spec.staleness_bound, 100 * kMillisecond);
    EXPECT_EQ(spec.max_retries, 2);
    EXPECT_EQ(spec.retry_backoff, 2 * kMillisecond);
}

TEST(FaultSpecParse, AllEnablesEveryClass)
{
    FaultSpec spec;
    ASSERT_TRUE(parse_fault_spec("all", &spec, nullptr));
    EXPECT_TRUE(spec.sensor && spec.dvfs && spec.migration &&
                spec.offline);
    EXPECT_TRUE(spec.any());
}

TEST(FaultSpecParse, RejectsMalformedInput)
{
    FaultSpec spec;
    std::string error;
    // Unknown class.
    EXPECT_FALSE(parse_fault_spec("gamma_rays", &spec, &error));
    EXPECT_NE(error.find("gamma_rays"), std::string::npos);
    // Unknown key.
    EXPECT_FALSE(parse_fault_spec("sensor,frobnicate=3", &spec, &error));
    EXPECT_NE(error.find("frobnicate"), std::string::npos);
    // Non-numeric value.
    EXPECT_FALSE(parse_fault_spec("sensor,rate=abc", &spec, &error));
    // Out-of-range values.
    EXPECT_FALSE(parse_fault_spec("sensor,rate=0", &spec, &error));
    EXPECT_FALSE(parse_fault_spec("sensor,rate=-3", &spec, &error));
    EXPECT_FALSE(parse_fault_spec("sensor,seed=-1", &spec, &error));
    EXPECT_FALSE(parse_fault_spec("sensor,duration_ms=0", &spec,
                                  &error));
    // Values their type cannot hold: seeds and retries are integers,
    // and a time's microseconds must fit SimTime.
    for (const char* text :
         {"sensor,seed=1e30", "sensor,seed=7.0", "sensor,seed=7x",
          "sensor,seed=18446744073709551616", "sensor,seed= 7",
          "sensor,retries=1.5", "sensor,retries=1e20",
          "sensor,retries=2147483648", "sensor,retries=-1",
          "sensor,duration_ms=1e300", "sensor,backoff_ms=1e16",
          "sensor,stale_ms=9223372036854776", "sensor,rate=12x",
          "sensor,noise_w=inf"}) {
        error.clear();
        EXPECT_FALSE(parse_fault_spec(text, &spec, &error)) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
    // No class enabled.
    EXPECT_FALSE(parse_fault_spec("seed=4,rate=8", &spec, &error));
    EXPECT_FALSE(parse_fault_spec("", &spec, &error));
}

TEST(FaultSpecParse, SeedsAndRetriesAreExactIntegers)
{
    FaultSpec spec;
    std::string error;
    // 2^53 + 1: a double would silently round it to 2^53.
    ASSERT_TRUE(parse_fault_spec("sensor,seed=9007199254740993", &spec,
                                 &error))
        << error;
    EXPECT_EQ(spec.seed, 9007199254740993u);
    ASSERT_TRUE(parse_fault_spec("sensor,seed=18446744073709551615",
                                 &spec, &error))
        << error;
    EXPECT_EQ(spec.seed, 18446744073709551615u);
    ASSERT_TRUE(parse_fault_spec("sensor,retries=2147483647", &spec,
                                 &error))
        << error;
    EXPECT_EQ(spec.max_retries, 2147483647);
    // Fractional ms times still parse.
    ASSERT_TRUE(parse_fault_spec("sensor,delay_ms=0.5", &spec, &error))
        << error;
    EXPECT_EQ(spec.dvfs_delay, 500);
}

TEST(FaultSpecParse, FailureLeavesOutputUntouched)
{
    FaultSpec spec;
    spec.seed = 77;
    spec.sensor = true;
    EXPECT_FALSE(parse_fault_spec("bogus", &spec, nullptr));
    EXPECT_EQ(spec.seed, 77u);
    EXPECT_TRUE(spec.sensor);
}

FaultSpec
all_spec(std::uint64_t seed)
{
    FaultSpec spec;
    spec.sensor = spec.dvfs = spec.migration = spec.offline = true;
    spec.seed = seed;
    spec.rate_per_min = 20.0;
    return spec;
}

TEST(FaultPlanCompile, DeterministicForSameInputs)
{
    const FaultPlan a =
        FaultPlan::compile(all_spec(11), 2, 5, 10 * kSecond);
    const FaultPlan b =
        FaultPlan::compile(all_spec(11), 2, 5, 10 * kSecond);
    ASSERT_EQ(a.events().size(), b.events().size());
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        const FaultEvent& x = a.events()[i];
        const FaultEvent& y = b.events()[i];
        EXPECT_EQ(x.kind, y.kind);
        EXPECT_EQ(x.start, y.start);
        EXPECT_EQ(x.end, y.end);
        EXPECT_EQ(x.target, y.target);
        EXPECT_DOUBLE_EQ(x.magnitude, y.magnitude);
        EXPECT_EQ(x.delay, y.delay);
        EXPECT_EQ(x.salt, y.salt);
    }
}

TEST(FaultPlanCompile, SeedChangesTheSchedule)
{
    const FaultPlan a =
        FaultPlan::compile(all_spec(1), 2, 5, 10 * kSecond);
    const FaultPlan b =
        FaultPlan::compile(all_spec(2), 2, 5, 10 * kSecond);
    ASSERT_EQ(a.events().size(), b.events().size());
    bool any_diff = false;
    for (std::size_t i = 0; i < a.events().size(); ++i)
        any_diff |= a.events()[i].start != b.events()[i].start;
    EXPECT_TRUE(any_diff);
}

TEST(FaultPlanCompile, ClassGatingSelectsKinds)
{
    FaultSpec spec;
    spec.sensor = true;
    spec.seed = 3;
    const FaultPlan plan =
        FaultPlan::compile(spec, 2, 5, 10 * kSecond);
    ASSERT_FALSE(plan.empty());
    for (const FaultEvent& ev : plan.events()) {
        EXPECT_TRUE(ev.kind == FaultKind::kSensorDrop ||
                    ev.kind == FaultKind::kSensorStuck ||
                    ev.kind == FaultKind::kSensorNoise ||
                    ev.kind == FaultKind::kSensorStale)
            << fault_kind_name(ev.kind);
    }
}

TEST(FaultPlanCompile, EventsLandOnTickGridInsideRun)
{
    constexpr SimTime kTick = kMillisecond;
    constexpr SimTime kDuration = 10 * kSecond;
    const FaultPlan plan =
        FaultPlan::compile(all_spec(5), 2, 5, kDuration, kTick);
    ASSERT_FALSE(plan.empty());
    SimTime prev_start = 0;
    for (const FaultEvent& ev : plan.events()) {
        EXPECT_GE(ev.start, kTick);
        EXPECT_GT(ev.end, ev.start);
        EXPECT_LE(ev.end, kDuration);
        EXPECT_EQ(ev.start % kTick, 0);
        EXPECT_EQ(ev.end % kTick, 0);
        EXPECT_GE(ev.start, prev_start);  // Sorted by start.
        prev_start = ev.start;
    }
}

TEST(FaultPlanCompile, OfflineTargetsAreValidCores)
{
    FaultSpec spec;
    spec.offline = true;
    spec.seed = 8;
    spec.rate_per_min = 30.0;
    const FaultPlan plan =
        FaultPlan::compile(spec, 2, 5, 10 * kSecond);
    for (const FaultEvent& ev : plan.events()) {
        ASSERT_EQ(ev.kind, FaultKind::kCoreOffline);
        EXPECT_GE(ev.target, 0);
        EXPECT_LT(ev.target, 5);
    }
}

} // namespace
} // namespace ppm::fault
