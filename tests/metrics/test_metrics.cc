/** @file Unit tests for the QoS tracker and trace recorder. */

#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "metrics/qos.hh"
#include "metrics/recorder.hh"
#include "metrics/telemetry.hh"
#include "snapshot/archive.hh"
#include "tests/test_util.hh"

namespace ppm::metrics {
namespace {

/** Feed a task a constant rate so its HRM reads `hr` hb/s. */
void
drive(workload::Task& task, double hr, SimTime until)
{
    const Cycles w =
        task.work_per_hb(hw::CoreClass::kLittle);
    for (SimTime t = 0; t < until; t += 10 * kMillisecond) {
        task.advance(t, 10 * kMillisecond, hr * 0.01 * w,
                     hw::CoreClass::kLittle);
    }
}

TEST(QosTracker, BelowAndOutsideChannels)
{
    // Target 20 hb/s, range [19, 21].
    workload::Task low(0, test::steady_spec("low", 1, 400.0));
    workload::Task ok(1, test::steady_spec("ok", 1, 400.0));
    workload::Task high(2, test::steady_spec("high", 1, 400.0));
    drive(low, 10.0, 2 * kSecond);
    drive(ok, 20.0, 2 * kSecond);
    drive(high, 40.0, 2 * kSecond);

    QosTracker qos(3);
    std::vector<workload::Task*> tasks{&low, &ok, &high};
    qos.sample(tasks, 2 * kSecond, kMillisecond);

    EXPECT_DOUBLE_EQ(qos.task_below_fraction(0), 1.0);
    EXPECT_DOUBLE_EQ(qos.task_below_fraction(1), 0.0);
    EXPECT_DOUBLE_EQ(qos.task_below_fraction(2), 0.0);
    EXPECT_DOUBLE_EQ(qos.task_outside_fraction(2), 1.0);
    EXPECT_DOUBLE_EQ(qos.any_below_fraction(), 1.0);
    EXPECT_DOUBLE_EQ(qos.any_outside_fraction(), 1.0);
}

TEST(QosTracker, WarmupExcluded)
{
    workload::Task low(0, test::steady_spec("low", 1, 400.0));
    QosTracker qos(1);
    std::vector<workload::Task*> tasks{&low};
    // Sampled before the warmup boundary: ignored entirely.
    qos.sample(tasks, kSecond, kMillisecond, /*warmup=*/2 * kSecond);
    EXPECT_DOUBLE_EQ(qos.any_below_fraction(), 0.0);
    // After warmup, a starved task counts.
    qos.sample(tasks, 3 * kSecond, kMillisecond, 2 * kSecond);
    EXPECT_DOUBLE_EQ(qos.any_below_fraction(), 1.0);
}

TEST(QosTracker, AnyChannelIsUnionNotSum)
{
    workload::Task a(0, test::steady_spec("a", 1, 400.0));
    workload::Task b(1, test::steady_spec("b", 1, 400.0));
    drive(a, 20.0, 2 * kSecond);  // In range.
    drive(b, 20.0, 2 * kSecond);
    QosTracker qos(2);
    std::vector<workload::Task*> tasks{&a, &b};
    qos.sample(tasks, 2 * kSecond, kMillisecond);
    EXPECT_DOUBLE_EQ(qos.any_below_fraction(), 0.0);
}

TEST(QosTracker, AllDeadIntervalDoesNotDiluteAnyChannels)
{
    // One task, alive for only part of the run; while it is dead the
    // any-task channels must accrue no time at all.  Before the fix
    // the dead interval entered the denominators as "QoS met", halving
    // the reported miss fraction.
    workload::Task starved(0, test::steady_spec("s", 1, 400.0));
    QosTracker qos(1);
    std::vector<workload::Task*> tasks{&starved};
    const std::vector<bool> dead{false};
    const std::vector<bool> alive{true};
    // 1 s with no live task, then 1 s starved (HRM reads 0 hb/s).
    qos.sample(tasks, kSecond, kSecond, 0, &dead);
    qos.sample(tasks, 2 * kSecond, kSecond, 0, &alive);
    EXPECT_DOUBLE_EQ(qos.any_below_fraction(), 1.0);
    EXPECT_DOUBLE_EQ(qos.any_outside_fraction(), 1.0);
    EXPECT_DOUBLE_EQ(qos.task_below_fraction(0), 1.0);
}

/** A tracker's snapshot bytes: every per-task and any-task counter. */
std::string
qos_bytes(QosTracker& q)
{
    snap::Writer out;
    out(q);
    return out.payload();
}

TEST(QosTracker, SpanMasksMatchPerTickSamples)
{
    // Then four tasks, the last with no reference range, drift across
    // their bands under random per-span heart-rate levels, so the
    // per-task verdicts flip inside spans and overlap across tasks.
    // One tracker samples every tick; the other gets the same ticks
    // as SpanHits masks, judged by SpanHits::mark(), through one
    // sample_span() per span.  Spans run 0 to SpanHits::kMaxTicks
    // ticks, with random lifetime masks (an all-dead one included) or
    // none.
    const SimTime dt = kMillisecond;
    // First a band whose both edges are exactly the rate read: the
    // strict comparisons must agree with sample() at equality.
    {
        workload::Task probe(0, test::steady_spec("probe", 1, 400.0));
        drive(probe, 20.0, 2 * kSecond);
        workload::TaskSpec spec = test::steady_spec("edge", 1, 400.0);
        spec.min_hr = spec.max_hr = probe.heart_rate(2 * kSecond);
        workload::Task edge(0, spec);
        drive(edge, 20.0, 2 * kSecond);
        std::vector<workload::Task*> one{&edge};
        QosTracker per_tick(1);
        QosTracker span(1);
        per_tick.sample(one, 2 * kSecond, dt);
        SpanHits hits;
        hits.mark(edge.hrm().band(), 0, edge.heart_rate(2 * kSecond));
        span.sample_span(1, dt, &hits);
        ASSERT_EQ(qos_bytes(span), qos_bytes(per_tick));
    }
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        Rng rng(seed);
        std::vector<workload::Task> owned;
        for (TaskId i = 0; i < 4; ++i) {
            workload::TaskSpec spec =
                test::steady_spec("t" + std::to_string(i), 1, 400.0);
            if (i == 3)
                spec.min_hr = spec.max_hr = 0.0;
            owned.emplace_back(i, spec);
        }
        std::vector<workload::Task*> tasks;
        for (workload::Task& t : owned)
            tasks.push_back(&t);
        QosTracker per_tick(4);
        QosTracker span(4);
        const double levels[] = {0.0, 10.0, 18.9, 19.5, 20.5, 21.1, 40.0};
        SimTime now = 0;
        for (int round = 0; round < 120; ++round) {
            const long n = rng.uniform_int(0, SpanHits::kMaxTicks);
            std::vector<bool> alive(4);
            for (std::size_t i = 0; i < 4; ++i)
                alive[i] = rng.chance(0.7);
            const std::vector<bool>* mask =
                rng.chance(0.3) ? nullptr : &alive;
            double hr[4];
            for (double& h : hr)
                h = levels[rng.uniform_int(0, 6)];
            std::vector<SpanHits> hits(4);
            for (long k = 0; k < n; ++k) {
                for (std::size_t i = 0; i < 4; ++i) {
                    const Cycles w =
                        tasks[i]->work_per_hb(hw::CoreClass::kLittle);
                    tasks[i]->advance(now, dt, hr[i] * to_seconds(dt) * w,
                                      hw::CoreClass::kLittle);
                }
                now += dt;
                per_tick.sample(tasks, now, dt, 0, mask);
                for (std::size_t i = 0; i < 4; ++i)
                    hits[i].mark(tasks[i]->hrm().band(), k,
                                 tasks[i]->heart_rate(now));
            }
            span.sample_span(n, dt, hits.data(), mask);
            ASSERT_EQ(qos_bytes(span), qos_bytes(per_tick))
                << "seed " << seed << " round " << round;
        }
        EXPECT_GT(per_tick.any_below_fraction(), 0.0);
        EXPECT_LT(per_tick.any_outside_fraction(), 1.0);
    }
}

TEST(TraceRecorder, StoresSeries)
{
    TraceRecorder rec;
    rec.record("power", kSecond, 1.5);
    rec.record("power", 2 * kSecond, 2.5);
    rec.record("mhz", kSecond, 600.0);
    ASSERT_EQ(rec.series("power").size(), 2u);
    EXPECT_DOUBLE_EQ(rec.series("power")[1].value, 2.5);
    EXPECT_TRUE(rec.series("unknown").empty());
    EXPECT_EQ(rec.names().size(), 2u);
}

TEST(TraceRecorder, CsvHasHeaderAndRows)
{
    TraceRecorder rec;
    rec.record("a", kSecond, 1.0);
    rec.record("b", 2 * kSecond, 2.0);
    std::ostringstream os;
    rec.write_csv(os);
    const std::string csv = os.str();
    EXPECT_NE(csv.find("time_s,a,b"), std::string::npos);
    EXPECT_NE(csv.find("1.000,1.000000,"), std::string::npos);
    EXPECT_NE(csv.find("2.000,,2.000000"), std::string::npos);
}

TEST(TraceRecorder, DuplicateTimestampsDoNotDesyncCsvCursor)
{
    // Two samples of "a" share one timestamp.  The cursor walk used to
    // emit the first and leave the cursor behind, silently dropping
    // every later "a" sample from the CSV; the last value per
    // (series, time) must win and later rows must still line up.
    TraceRecorder rec;
    rec.record("a", kSecond, 1.0);
    rec.record("a", kSecond, 2.0);
    rec.record("a", 2 * kSecond, 3.0);
    rec.record("b", 2 * kSecond, 4.0);
    std::ostringstream os;
    rec.write_csv(os);
    EXPECT_EQ(os.str(),
              "time_s,a,b\n"
              "1.000,2.000000,\n"
              "2.000,3.000000,4.000000\n");
}

/** Every bit of `v`, as first_difference() prints it. */
std::string
fmt_exact(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Two series, "a" with two samples and "b" with one. */
TraceRecorder
sample_recorder(double a1 = 1.25)
{
    TraceRecorder rec;
    rec.record("a", 100 * kMillisecond, 1.5);
    rec.record("a", 200 * kMillisecond, a1);
    rec.record("b", 200 * kMillisecond, 4.0);
    return rec;
}

TEST(TraceRecorder, FirstDifferenceOfEqualRecordersIsEmpty)
{
    EXPECT_EQ(first_difference(sample_recorder(), sample_recorder()), "");
    EXPECT_EQ(first_difference(TraceRecorder{}, TraceRecorder{}), "");
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(first_difference(sample_recorder(nan), sample_recorder(nan)),
              "");
}

TEST(TraceRecorder, FirstDifferenceNamesSeriesSampleTimeAndValue)
{
    const TraceRecorder base = sample_recorder();

    // Below the CSV's 6 decimals: equal text, named difference.
    const TraceRecorder moved = sample_recorder(1.25 + 1e-7);
    std::ostringstream csv_base;
    std::ostringstream csv_moved;
    base.write_csv(csv_base);
    moved.write_csv(csv_moved);
    EXPECT_EQ(csv_base.str(), csv_moved.str());
    EXPECT_EQ(first_difference(base, moved),
              "a sample 1: t=0.2 s, 1.25 vs t=0.2 s, " +
                  fmt_exact(1.25 + 1e-7));
    EXPECT_EQ(first_difference(sample_recorder(0.0), sample_recorder(-0.0)),
              "a sample 1: t=0.2 s, 0 vs t=0.2 s, -0");

    TraceRecorder later;
    later.record("a", 100 * kMillisecond, 1.5);
    later.record("a", 201 * kMillisecond, 1.25);
    EXPECT_EQ(first_difference(base, later),
              "a sample 1: t=0.2 s, 1.25 vs t=0.201 s, 1.25");

    TraceRecorder longer = sample_recorder();
    longer.record("b", 300 * kMillisecond, 5.0);
    EXPECT_EQ(first_difference(base, longer),
              "b sample 1: end of series vs t=0.3 s, 5");

    TraceRecorder other = sample_recorder();
    other.record("c", kSecond, 1.0);
    EXPECT_EQ(first_difference(base, other), "series (none) vs c");
    TraceRecorder renamed;
    renamed.record("a", 100 * kMillisecond, 1.5);
    renamed.record("a", 200 * kMillisecond, 1.25);
    renamed.record("c", 200 * kMillisecond, 4.0);
    EXPECT_EQ(first_difference(base, renamed), "series b vs c");
}

TEST(TraceRecorder, MeanAfterWindow)
{
    TraceRecorder rec;
    rec.record("x", 0, 10.0);
    rec.record("x", kSecond, 20.0);
    rec.record("x", 2 * kSecond, 30.0);
    EXPECT_DOUBLE_EQ(rec.mean_after("x", kSecond), 25.0);
    EXPECT_DOUBLE_EQ(rec.mean_after("x", 0), 20.0);
    EXPECT_DOUBLE_EQ(rec.mean_after("x", 10 * kSecond), 0.0);
}

} // namespace
} // namespace ppm::metrics
