/** @file Unit tests for the RC thermal model. */

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "hw/thermal.hh"
#include "snapshot/archive.hh"

namespace ppm::hw {
namespace {

ThermalParams
one_node(double r = 10.0, double c = 1.0, double ambient = 30.0)
{
    ThermalParams p;
    p.ambient_c = ambient;
    p.nodes.push_back({r, c});
    return p;
}

TEST(Thermal, StartsAtAmbient)
{
    ThermalModel m(one_node());
    EXPECT_DOUBLE_EQ(m.temperature(0), 30.0);
    EXPECT_DOUBLE_EQ(m.peak_temperature(), 30.0);
}

TEST(Thermal, SteadyStateIsAmbientPlusPR)
{
    // 4 W x 10 K/W -> +40 K; run long past the 10 s time constant.
    ThermalModel m(one_node());
    for (int i = 0; i < 100000; ++i)
        m.advance({4.0}, kMillisecond, 1);
    EXPECT_NEAR(m.temperature(0), 70.0, 0.1);
}

TEST(Thermal, TimeConstantIs63PercentAtTau)
{
    ThermalModel m(one_node(10.0, 1.0));  // tau = 10 s.
    for (int i = 0; i < 10000; ++i)
        m.advance({4.0}, kMillisecond, 1);
    // After exactly tau, 63.2% of the 40 K rise.
    EXPECT_NEAR(m.temperature(0), 30.0 + 40.0 * 0.632, 0.2);
}

TEST(Thermal, CoolsBackToAmbient)
{
    ThermalModel m(one_node());
    for (int i = 0; i < 50000; ++i)
        m.advance({4.0}, kMillisecond, 1);
    for (int i = 0; i < 100000; ++i)
        m.advance({0.0}, kMillisecond, 1);
    EXPECT_NEAR(m.temperature(0), 30.0, 0.1);
    // The peak remembers the hot phase.
    EXPECT_NEAR(m.peak_temperature(), 70.0, 0.5);
}

TEST(Thermal, LargeStepIsStable)
{
    // The exponential integrator must not overshoot for dt >> tau.
    ThermalModel m(one_node());
    m.advance({4.0}, 1000 * kSecond, 1);
    EXPECT_NEAR(m.temperature(0), 70.0, 1e-6);
}

TEST(Thermal, CountsThermalCycles)
{
    ThermalModel m(one_node());
    m.set_cycle_threshold(3.0);
    // Alternate hot/cold long enough for >3 K swings.
    for (int cycle = 0; cycle < 5; ++cycle) {
        for (int i = 0; i < 5000; ++i)
            m.advance({6.0}, kMillisecond, 1);
        for (int i = 0; i < 5000; ++i)
            m.advance({0.5}, kMillisecond, 1);
    }
    EXPECT_GE(m.thermal_cycles(), 4);
    EXPECT_LE(m.thermal_cycles(), 5);
}

TEST(Thermal, SteadyPowerCausesNoCycles)
{
    ThermalModel m(one_node());
    for (int i = 0; i < 100000; ++i)
        m.advance({3.0}, kMillisecond, 1);
    EXPECT_EQ(m.thermal_cycles(), 0);
}

TEST(Thermal, Tc2DefaultsMatchEnvelope)
{
    ThermalModel m(ThermalModel::tc2_defaults());
    ASSERT_EQ(m.num_nodes(), 2);
    // Peak powers: LITTLE ~2 W, big ~6.2 W.
    for (int i = 0; i < 200000; ++i)
        m.advance({2.0, 6.2}, kMillisecond, 1);
    EXPECT_NEAR(m.temperature(0), 54.0, 1.0);
    EXPECT_NEAR(m.temperature(1), 79.6, 1.0);
}

/** The model's archive bytes (its visit() list). */
std::string
archive_of(ThermalModel& m)
{
    snap::Writer w;
    w(m);
    return w.finalize();
}

TEST(Thermal, AdvanceMatchesSingleSteps)
{
    // advance(p, dt, n) must leave the bits of n advance(p, dt, 1)
    // calls, on both sides of the kernel's dispatch: the compile-time
    // count (2) and the run-time one.  A third model,
    // restored from the archive before each call and so computing its
    // decays afresh, catches a decay left stale by a change of dt.
    Rng rng(29);
    for (std::size_t count = 1; count <= 8; ++count) {
        SCOPED_TRACE("nodes " + std::to_string(count));
        ThermalParams params;
        params.ambient_c = 25.0;
        for (std::size_t v = 0; v < count; ++v)
            params.nodes.push_back(
                {rng.uniform(4.0, 16.0), rng.uniform(0.02, 0.2)});
        ThermalModel bulk(params);
        ThermalModel single(params);

        const auto both = [&](const std::vector<Watts>& power, SimTime dt,
                              long n) {
            ThermalModel fresh(params);
            snap::Reader r;
            ASSERT_EQ(r.open(archive_of(bulk)), snap::LoadStatus::kOk);
            r(fresh);
            bulk.advance(power, dt, n);
            fresh.advance(power, dt, n);
            for (long i = 0; i < n; ++i)
                single.advance(power, dt, 1);
            for (ClusterId v = 0; v < static_cast<ClusterId>(count); ++v) {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(bulk.temperature(v)),
                          std::bit_cast<std::uint64_t>(single.temperature(v)))
                    << "node " << v;
            }
            EXPECT_EQ(std::bit_cast<std::uint64_t>(bulk.peak_temperature()),
                      std::bit_cast<std::uint64_t>(single.peak_temperature()));
            EXPECT_EQ(bulk.thermal_cycles(), single.thermal_cycles());
            const std::string bytes = archive_of(bulk);
            EXPECT_EQ(bytes, archive_of(single));
            EXPECT_EQ(bytes, archive_of(fresh));
        };
        const auto held = [&](double lo, double hi) {
            std::vector<Watts> power(count);
            for (Watts& p : power)
                p = rng.uniform(lo, hi);
            return power;
        };

        // Random powers held for random stretches.
        for (int stretch = 0; stretch < 30; ++stretch)
            both(held(0.0, 6.0), kMillisecond, rng.uniform_int(1, 400));
        // Hot/cold swings, each well past the 3 K threshold.
        for (int swing = 0; swing < 3; ++swing) {
            both(held(5.0, 6.0), kMillisecond, 2'000);
            both(held(0.0, 0.2), kMillisecond, 2'000);
        }
        EXPECT_GE(bulk.thermal_cycles(), 2);
        // The same powers at a long dt and back: a decay kept from
        // the previous dt would miss the fresh model's bits.
        const std::vector<Watts> warm = held(1.0, 3.0);
        both(warm, 1000 * kSecond, 2);
        both(warm, kMillisecond, 50);
        // A cool-down long past the joint fixed point, where the kernel
        // stops early: one more step must change no bit.
        const std::vector<Watts> idle(count, 0.0);
        both(idle, kMillisecond, 100'000);
        const std::string rested = archive_of(single);
        single.advance(idle, kMillisecond, 1);
        EXPECT_EQ(archive_of(single), rested) << "not at the fixed point";
        bulk.advance(idle, kMillisecond, 1);
        both(idle, kMillisecond, 1'000);
    }
}

TEST(ThermalDeath, RejectsEmptyNodes)
{
    EXPECT_DEATH(ThermalModel(ThermalParams{}), "at least one node");
}

} // namespace
} // namespace ppm::hw
