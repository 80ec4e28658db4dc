/**
 * @file
 * Invariant-checker properties: the summary fingerprint is a total,
 * bit-sensitive key (identical summaries fingerprint identically, any
 * field change -- including a 1-ulp float change and the fault
 * counters -- changes it), simple clean scenarios really check clean,
 * check_scenario is deterministic, the comparator of its differentials
 * names every part that differs and the first record in it that does,
 * bit for bit, below any text precision, and every checked-in fixture under
 * tests/fuzz/fixtures/ stays fixed (each one is a shrunken reproducer
 * of a bug this invariant suite once caught).
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/fuzz/check.hh"
#include "src/fuzz/scenario.hh"
#include "src/metrics/telemetry.hh"

namespace ppm::fuzz {
namespace {

sim::RunSummary
sample_summary()
{
    sim::RunSummary s;
    s.governor = "PPM";
    s.any_below_miss = 0.125;
    s.avg_power = 1.75;
    s.energy = 7.5;
    s.migrations = 3;
    s.vf_transitions = 11;
    s.task_below = {0.0, 0.5};
    s.task_outside = {0.25, 0.5};
    s.faults_injected = 2;
    return s;
}

TEST(SummaryFingerprint, IdenticalSummariesAgree)
{
    EXPECT_EQ(summary_fingerprint(sample_summary()),
              summary_fingerprint(sample_summary()));
}

TEST(SummaryFingerprint, SensitiveToEveryKindOfField)
{
    const std::string base = summary_fingerprint(sample_summary());

    sim::RunSummary s = sample_summary();
    s.avg_power = std::nextafter(s.avg_power, 2.0);  // 1 ulp.
    EXPECT_NE(summary_fingerprint(s), base);

    s = sample_summary();
    s.migrations += 1;  // Integer counter.
    EXPECT_NE(summary_fingerprint(s), base);

    s = sample_summary();
    s.task_below[1] = 0.75;  // Per-task vector element.
    EXPECT_NE(summary_fingerprint(s), base);

    s = sample_summary();
    s.faults_injected = 0;  // Fault accounting is part of the key.
    EXPECT_NE(summary_fingerprint(s), base);

    s = sample_summary();
    s.governor = "HL";
    EXPECT_NE(summary_fingerprint(s), base);
}

/** Every bit of `v`, as difference() prints it. */
std::string
fmt_exact(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** The market round every planted stream below starts from. */
metrics::TraceEvent
sample_round()
{
    metrics::TraceEvent e("market_round", 1248 * kMillisecond);
    e.set("state", std::string("nominal"));
    e.set("task3_bid", 0.5);
    e.set("allowance", 0.0);
    return e;
}

/** Feed `sink` a sample, `round`, then another sample. */
void
feed(metrics::TraceSink& sink, const metrics::TraceEvent& round)
{
    sink.sample("chip_power_w", 1247 * kMillisecond, 1.5);
    sink.event(round);
    sink.sample("chip_power_w", 1248 * kMillisecond, 1.75);
}

/** A run output with every compared part non-empty. */
RunOutput
sample_output(const metrics::TraceEvent& round = sample_round())
{
    RunOutput out;
    out.summary = sample_summary();
    feed(out.stream, round);
    out.traced.record("chip_power_w", 100 * kMillisecond, 1.5);
    out.traced.record("chip_power_w", 200 * kMillisecond, 1.25);
    return out;
}

/** sample_round() with numeric field `key` set to `value`. */
metrics::TraceEvent
round_with(const std::string& key, double value)
{
    metrics::TraceEvent e = sample_round();
    for (auto& [k, v] : e.num)
        if (k == key)
            v = value;
    return e;
}

/** The JSONL text a run's stream would have rendered. */
std::string
jsonl_of(const metrics::TraceEvent& round)
{
    std::ostringstream os;
    metrics::JsonlSink sink(os);
    feed(sink, round);
    return os.str();
}

/** The wide CSV a recorder would have rendered. */
std::string
csv_of(const metrics::TraceRecorder& rec)
{
    std::ostringstream os;
    rec.write_csv(os);
    return os.str();
}

/**
 * The comparator is the oracle of every differential, so a planted
 * change in any part it compares must be reported, and named: a
 * difference() that always said "equal" would leave every clean
 * fixture clean.
 */
TEST(Difference, NamesEachPlantedChange)
{
    const RunOutput base = sample_output();
    EXPECT_EQ(difference(base, sample_output()), "");

    RunOutput run = base;
    run.summary.avg_power = std::nextafter(run.summary.avg_power, 2.0);
    EXPECT_EQ(difference(base, run), "summary fingerprints differ");

    const std::string stream =
        "telemetry streams differ at record 1 (event market_round at "
        "t=1.248 s, task3_bid: 0.5 vs 0.75)";
    EXPECT_EQ(difference(base, sample_output(round_with("task3_bid", 0.75))),
              stream);

    run = base;
    run.traced.record("chip_power_w", 300 * kMillisecond, 1.0);
    const std::string traced =
        "traced series differ at chip_power_w sample 2: end of series "
        "vs t=0.3 s, 1";
    EXPECT_EQ(difference(base, run), traced);

    FleetOutput fleet;
    fleet.fleet = base;
    fleet.chip0 = base;
    EXPECT_EQ(difference(fleet, fleet), "");
    FleetOutput other = fleet;
    other.fleet = sample_output(round_with("task3_bid", 0.75));
    EXPECT_EQ(difference(fleet, other), "fleet " + stream);
    other = fleet;
    other.chip0 = run;
    EXPECT_EQ(difference(fleet, other), "chip 0 " + traced);
}

/**
 * Changes the old text comparison could not see -- below JSONL's
 * %.9g or the wide CSV's 6 decimals, or in the sign of a zero -- and
 * changes to every other part of a record are each named by record
 * or series, time and field.
 */
TEST(Difference, NamesChangesBelowTheTextPrecision)
{
    const RunOutput base = sample_output();
    const double bid = std::nextafter(0.5, 1.0);  // 1 ulp.
    EXPECT_EQ(jsonl_of(sample_round()),
              jsonl_of(round_with("task3_bid", bid)));
    EXPECT_EQ(difference(base, sample_output(round_with("task3_bid", bid))),
              "telemetry streams differ at record 1 (event market_round at "
              "t=1.248 s, task3_bid: 0.5 vs " + fmt_exact(bid) + ")");

    RunOutput run = sample_output();
    run.traced = {};
    run.traced.record("chip_power_w", 100 * kMillisecond, 1.5);
    run.traced.record("chip_power_w", 200 * kMillisecond, 1.25 + 1e-7);
    EXPECT_EQ(csv_of(base.traced), csv_of(run.traced));
    EXPECT_EQ(difference(base, run),
              "traced series differ at chip_power_w sample 1: t=0.2 s, 1.25 "
              "vs t=0.2 s, " + fmt_exact(1.25 + 1e-7));

    EXPECT_EQ(difference(base, sample_output(round_with("allowance", -0.0))),
              "telemetry streams differ at record 1 (event market_round at "
              "t=1.248 s, allowance: 0 vs -0)");

    metrics::TraceEvent safe = sample_round();
    safe.str[0].second = "safe";
    EXPECT_EQ(difference(base, sample_output(safe)),
              "telemetry streams differ at record 1 (event market_round at "
              "t=1.248 s, state: \"nominal\" vs \"safe\")");

    metrics::TraceEvent renamed = sample_round();
    renamed.type = "ppm_epoch";
    EXPECT_EQ(difference(base, sample_output(renamed)),
              "telemetry streams differ at record 1: event market_round "
              "at t=1.248 s vs event ppm_epoch at t=1.248 s");

    run = RunOutput{};
    run.summary = sample_summary();
    run.stream.sample("chip_power_w", 1247 * kMillisecond, 1.5);
    run.stream.event(sample_round());
    run.traced = base.traced;
    EXPECT_EQ(difference(base, run),
              "telemetry streams differ at record 2: sample chip_power_w "
              "at t=1.248 s vs end of stream");

    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(difference(sample_output(round_with("allowance", nan)),
                         sample_output(round_with("allowance", nan))),
              "");
}

/** A small, fault-free, single-phase scenario that must be clean. */
Scenario
trivial_scenario()
{
    Scenario sc;
    sc.seed = 1;
    sc.shape = PlatformShape::kTc2;
    sc.duration = 1500 * kMillisecond;
    sc.warmup = 500 * kMillisecond;
    TaskGene g;
    g.priority = 1;
    g.demand_little = 150.0;
    g.big_speedup = 1.8;
    g.target_hr = 25.0;
    sc.tasks.push_back(g);
    return sc;
}

TEST(CheckScenario, TrivialScenarioIsClean)
{
    const std::vector<Violation> v = check_scenario(trivial_scenario());
    EXPECT_TRUE(v.empty()) << v.front().invariant << " ["
                           << v.front().policy << "] "
                           << v.front().detail;
}

TEST(CheckScenario, IsDeterministic)
{
    const Scenario sc = generate_scenario(scenario_seed(2026, 7));
    const std::vector<Violation> a = check_scenario(sc);
    const std::vector<Violation> b = check_scenario(sc);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].invariant, b[i].invariant);
        EXPECT_EQ(a[i].policy, b[i].policy);
        EXPECT_EQ(a[i].detail, b[i].detail);
    }
}

/**
 * Regression lock: every fixture is a minimized reproducer of a bug
 * the fuzzer once surfaced; each must parse and check clean now that
 * the bug is fixed.  A failure here means a fixed bug regressed.
 */
TEST(Fixtures, EveryCheckedInFixtureStaysFixed)
{
    const std::filesystem::path dir = PPM_FUZZ_FIXTURE_DIR;
    ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
    int n = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".scenario")
            continue;
        ++n;
        std::ifstream in(entry.path());
        ASSERT_TRUE(in) << entry.path();
        std::ostringstream text;
        text << in.rdbuf();
        Scenario sc;
        std::string error;
        ASSERT_TRUE(parse_scenario(text.str(), &sc, &error))
            << entry.path() << ": " << error;
        const std::vector<Violation> v = check_scenario(sc);
        EXPECT_TRUE(v.empty())
            << entry.path() << " regressed: " << v.front().invariant
            << " [" << v.front().policy << "] " << v.front().detail;
    }
    EXPECT_GE(n, 2) << "fixture directory unexpectedly empty";
}

} // namespace
} // namespace ppm::fuzz
