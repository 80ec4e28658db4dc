/**
 * @file
 * Invariant-checker properties: the summary fingerprint is a total,
 * bit-sensitive key (identical summaries fingerprint identically, any
 * field change -- including a 1-ulp float change and the fault
 * counters -- changes it), simple clean scenarios really check clean,
 * check_scenario is deterministic, the comparator of its differentials
 * names every part that differs, and every checked-in fixture under
 * tests/fuzz/fixtures/ stays fixed (each one is a shrunken reproducer
 * of a bug this invariant suite once caught).
 */

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/fuzz/check.hh"
#include "src/fuzz/scenario.hh"

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

/** A run output with every compared part non-empty. */
RunOutput
sample_output()
{
    RunOutput out;
    out.summary = sample_summary();
    out.jsonl = "{\"type\":\"market_round\",\"t\":32000}\n";
    out.trace_csv = "time_s,series,value\n0.1,chip_power,1.5\n";
    return out;
}

/** `text` with its byte `i` changed. */
std::string
flip_byte(std::string text, std::size_t i)
{
    text.at(i) ^= 1;
    return text;
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

    run = base;
    run.jsonl = flip_byte(run.jsonl, 5);
    const std::string n = std::to_string(base.jsonl.size());
    EXPECT_EQ(difference(base, run),
              "telemetry streams differ (" + n + " vs " + n + " bytes)");

    run = base;
    run.trace_csv = flip_byte(run.trace_csv, run.trace_csv.size() - 2);
    EXPECT_EQ(difference(base, run), "traced series differ");

    FleetOutput fleet;
    fleet.fleet = base;
    fleet.chip0 = base;
    EXPECT_EQ(difference(fleet, fleet), "");
    FleetOutput other = fleet;
    other.fleet.jsonl = flip_byte(other.fleet.jsonl, 0);
    EXPECT_EQ(difference(fleet, other),
              "fleet telemetry streams differ (" + n + " vs " + n +
                  " bytes)");
    other = fleet;
    other.chip0.trace_csv = flip_byte(other.chip0.trace_csv, 0);
    EXPECT_EQ(difference(fleet, other), "chip 0 traced series differ");
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
