/** @file Unit tests for the RC thermal model. */

#include <gtest/gtest.h>

#include "hw/thermal.hh"

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
    EXPECT_DOUBLE_EQ(m.max_temperature(), 30.0);
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

TEST(ThermalDeath, RejectsEmptyNodes)
{
    EXPECT_DEATH(ThermalModel(ThermalParams{}), "at least one node");
}

} // namespace
} // namespace ppm::hw
