/**
 * @file
 * Shrinker search properties, exercised through the ShrinkOracle seam
 * with synthetic oracles (no live simulator bug needed): convergence
 * to the minimal scenario a threshold-style oracle admits, the
 * never-larger-in-any-dimension guarantee, preservation of the target
 * (invariant, policy) key when a candidate trips a *different*
 * violation, budget exhaustion behaviour, and the panic on an input
 * that does not reproduce at all.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/fuzz/shrink.hh"

namespace ppm::fuzz {
namespace {

Violation
make_violation(const std::string& invariant, const std::string& policy)
{
    Violation v;
    v.invariant = invariant;
    v.policy = policy;
    v.detail = "synthetic";
    return v;
}

/** A busy scenario with something to shrink in every dimension. */
Scenario
busy_scenario()
{
    Scenario sc = generate_scenario(scenario_seed(11, 0));
    sc.duration = 8 * kSecond;
    sc.warmup = kSecond;
    sc.trace = true;
    sc.has_faults = true;
    sc.faults.sensor = true;
    sc.faults.dvfs = true;
    sc.tasks.resize(1);
    while (sc.tasks.size() < 6)
        sc.tasks.push_back(sc.tasks.front());
    return sc;
}

TEST(Shrink, ConvergesToOracleThreshold)
{
    // Violates iff at least 3 tasks remain and the run is >= 2 s: the
    // minimum admissible scenario has exactly 3 tasks and the shortest
    // duration the shrinker's passes reach at or above 2 s.
    const ShrinkOracle oracle = [](const Scenario& sc) {
        std::vector<Violation> out;
        if (sc.tasks.size() >= 3 && sc.duration >= 2 * kSecond)
            out.push_back(make_violation("macro-vs-tick", "PPM"));
        return out;
    };
    const Scenario sc = busy_scenario();
    const ShrinkResult r = shrink(
        sc, make_violation("macro-vs-tick", "PPM"), 400, oracle);
    EXPECT_EQ(r.scenario.tasks.size(), 3u);
    EXPECT_GE(r.scenario.duration, 2 * kSecond);
    EXPECT_LT(r.scenario.duration, sc.duration);
    EXPECT_EQ(r.violation.invariant, "macro-vs-tick");
    EXPECT_EQ(r.violation.policy, "PPM");
    EXPECT_GT(r.evaluations, 0);
    EXPECT_LE(r.evaluations, 400);
    // The result still reproduces by construction.
    EXPECT_FALSE(oracle(r.scenario).empty());
}

TEST(Shrink, NeverGrowsAnyDimension)
{
    const ShrinkOracle oracle = [](const Scenario& sc) {
        std::vector<Violation> out;
        if (!sc.tasks.empty())
            out.push_back(make_violation("summary-sanity", "HL"));
        return out;
    };
    const Scenario sc = busy_scenario();
    const ShrinkResult r = shrink(
        sc, make_violation("summary-sanity", "HL"), 300, oracle);
    EXPECT_LE(r.scenario.tasks.size(), sc.tasks.size());
    EXPECT_LE(r.scenario.duration, sc.duration);
    EXPECT_LE(r.scenario.warmup, sc.warmup);
    EXPECT_LE(r.scenario.trace, sc.trace);
    EXPECT_LE(r.scenario.has_faults, sc.has_faults);
    // An always-reproducing oracle shrinks to the floor: one task, no
    // faults, no tracing.
    EXPECT_EQ(r.scenario.tasks.size(), 1u);
    EXPECT_FALSE(r.scenario.has_faults);
    EXPECT_FALSE(r.scenario.trace);
}

TEST(Shrink, HoldsTargetKeyWhenCandidatesTripOtherViolations)
{
    // Dropping below 4 tasks flips the violation to a different
    // invariant: those candidates must be rejected, so the result
    // keeps >= 4 tasks and the original key.
    const ShrinkOracle oracle = [](const Scenario& sc) {
        std::vector<Violation> out;
        if (sc.tasks.size() >= 4)
            out.push_back(make_violation("macro-vs-tick", "HPM"));
        else
            out.push_back(make_violation("market-budget", "PPM"));
        return out;
    };
    const ShrinkResult r =
        shrink(busy_scenario(), make_violation("macro-vs-tick", "HPM"),
               300, oracle);
    EXPECT_EQ(r.scenario.tasks.size(), 4u);
    EXPECT_EQ(r.violation.invariant, "macro-vs-tick");
    EXPECT_EQ(r.violation.policy, "HPM");
}

TEST(Shrink, RespectsEvaluationBudget)
{
    int calls = 0;
    const ShrinkOracle oracle = [&calls](const Scenario& sc) {
        ++calls;
        std::vector<Violation> out;
        if (!sc.tasks.empty())
            out.push_back(make_violation("tdp-duty", "PPM"));
        return out;
    };
    const ShrinkResult r = shrink(
        busy_scenario(), make_violation("tdp-duty", "PPM"), 10, oracle);
    EXPECT_LE(r.evaluations, 10);
    EXPECT_EQ(r.evaluations, calls);
    EXPECT_GE(r.scenario.tasks.size(), 1u);
}

TEST(ShrinkDeathTest, PanicsWhenInputDoesNotReproduce)
{
    const ShrinkOracle oracle = [](const Scenario&) {
        return std::vector<Violation>{};
    };
    EXPECT_DEATH(shrink(busy_scenario(),
                        make_violation("macro-vs-tick", "PPM"), 100,
                        oracle),
                 "violat");
}

} // namespace
} // namespace ppm::fuzz
