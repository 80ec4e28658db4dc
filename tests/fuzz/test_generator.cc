/**
 * @file
 * Generator-level properties of the fuzz scenario model: replay
 * determinism (same seed => byte-identical scenario, serialize/parse
 * round-trips exactly), campaign seed derivation (no stream aliasing
 * between nearby indices), distribution sanity (every platform shape,
 * fault plans, lifetimes and TDP caps all actually occur, and every
 * drawn parameter stays inside its documented range), and strictness
 * of the fixture parser.
 */

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "src/fuzz/scenario.hh"

namespace ppm::fuzz {
namespace {

TEST(ScenarioSeed, DerivationIsCollisionFreeNearby)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t base : {0ull, 1ull, 2ull, 0xdeadbeefull}) {
        for (std::uint64_t i = 0; i < 512; ++i)
            seen.insert(scenario_seed(base, i));
    }
    // 4 bases x 512 indices, all distinct: sequential bases must not
    // alias each other's index streams (base+1, i == base, i+1 would).
    EXPECT_EQ(seen.size(), 4u * 512u);
}

TEST(ScenarioGenerator, SameSeedIsByteIdentical)
{
    for (std::uint64_t seed : {1ull, 7ull, 999ull, 123456789ull}) {
        const Scenario a = generate_scenario(scenario_seed(seed, 0));
        const Scenario b = generate_scenario(scenario_seed(seed, 0));
        EXPECT_EQ(serialize(a), serialize(b)) << "seed " << seed;
    }
}

TEST(ScenarioGenerator, SerializationRoundTripsExactly)
{
    for (std::uint64_t i = 0; i < 64; ++i) {
        const Scenario sc = generate_scenario(scenario_seed(42, i));
        const std::string text = serialize(sc);
        Scenario parsed;
        std::string error;
        ASSERT_TRUE(parse_scenario(text, &parsed, &error))
            << "index " << i << ": " << error;
        EXPECT_EQ(serialize(parsed), text) << "index " << i;
    }
}

TEST(ScenarioGenerator, DistributionCoversEveryDimension)
{
    int tc2 = 0, octa = 0, synthetic = 0;
    int faulted = 0, capped = 0, staggered = 0, pinned = 0;
    int traced = 0, multi_phase = 0;
    for (std::uint64_t i = 0; i < 300; ++i) {
        const Scenario sc = generate_scenario(scenario_seed(1, i));
        switch (sc.shape) {
        case PlatformShape::kTc2: ++tc2; break;
        case PlatformShape::kOcta: ++octa; break;
        case PlatformShape::kSynthetic: ++synthetic; break;
        }
        faulted += sc.has_faults ? 1 : 0;
        capped += sc.tdp > 0.0 ? 1 : 0;
        traced += sc.trace ? 1 : 0;
        staggered += lifetimes(sc).empty() ? 0 : 1;
        pinned += placement(sc).empty() ? 0 : 1;
        for (const TaskGene& g : sc.tasks)
            multi_phase += g.n_phases > 1 ? 1 : 0;
    }
    EXPECT_GT(tc2, 0);
    EXPECT_GT(octa, 0);
    EXPECT_GT(synthetic, 0);
    EXPECT_GT(faulted, 0);
    EXPECT_GT(capped, 0);
    EXPECT_GT(traced, 0);
    EXPECT_GT(staggered, 0);
    EXPECT_GT(pinned, 0);
    EXPECT_GT(multi_phase, 0);
}

TEST(ScenarioGenerator, EveryDrawStaysInRange)
{
    for (std::uint64_t i = 0; i < 300; ++i) {
        const Scenario sc = generate_scenario(scenario_seed(3, i));
        EXPECT_GT(sc.duration, sc.warmup);
        EXPECT_GT(sc.warmup, 0);
        EXPECT_GE(sc.tasks.size(), 1u);
        EXPECT_LE(sc.tasks.size(), 10u);
        const hw::Chip chip = make_chip(sc);
        EXPECT_GE(chip.num_clusters(), 1);
        for (const TaskGene& g : sc.tasks) {
            EXPECT_GE(g.priority, 1);
            EXPECT_GT(g.demand_little, 0.0);
            EXPECT_GE(g.big_speedup, 1.0);
            EXPECT_GT(g.target_hr, 0.0);
            EXPECT_GE(g.n_phases, 1);
            EXPECT_GE(g.arrival, 0);
            if (g.departure != sim::SimConfig::Lifetime::kForever) {
                EXPECT_GE(g.departure, g.arrival);
            }
            if (g.core != kInvalidId) {
                EXPECT_GE(g.core, 0);
                EXPECT_LT(g.core, chip.num_cores());
            }
        }
        const auto specs = make_specs(sc);
        EXPECT_EQ(specs.size(), sc.tasks.size());
        if (sc.has_faults) {
            EXPECT_TRUE(sc.faults.any());
        }
    }
}

TEST(ScenarioParser, RejectsMalformedInput)
{
    const auto rejects = [](const std::string& text) {
        Scenario sc;
        std::string error;
        const bool ok = parse_scenario(text, &sc, &error);
        EXPECT_FALSE(ok) << "accepted: " << text;
        if (!ok) {
            EXPECT_FALSE(error.empty());
        }
    };
    rejects("");                      // No tasks at all.
    rejects("duration_ms=1000\nwarmup_ms=500\n");
    rejects("bogus_key=1\ntask=1,100,1.5,20,0,1,0,0,0,-1,-1\n");
    rejects("duration_ms=zzz\ntask=1,100,1.5,20,0,1,0,0,0,-1,-1\n");
    rejects("duration_ms=1000x\ntask=1,100,1.5,20,0,1,0,0,0,-1,-1\n");
    // Warmup must precede the end of the run.
    rejects("duration_ms=1000\nwarmup_ms=1000\n"
            "task=1,100,1.5,20,0,1,0,0,0,-1,-1\n");
    // Task lines need all 11 fields.
    rejects("duration_ms=1000\nwarmup_ms=100\ntask=1,100\n");
    rejects("duration_ms=1000\nwarmup_ms=100\n"
            "task=1,nan,1.5,20,0,1,0,0,0,-1,-1\n");
}

TEST(ScenarioParser, AcceptsCommentsAndRoundTripOutput)
{
    const Scenario sc = generate_scenario(scenario_seed(5, 17));
    const std::string text =
        "# a comment line\n\n" + serialize(sc) + "# trailing comment\n";
    Scenario parsed;
    std::string error;
    ASSERT_TRUE(parse_scenario(text, &parsed, &error)) << error;
    EXPECT_EQ(serialize(parsed), serialize(sc));
}

} // namespace
} // namespace ppm::fuzz
