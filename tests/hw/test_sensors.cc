/** @file Unit tests for the hwmon-style sensor bank. */

#include <gtest/gtest.h>

#include "hw/sensors.hh"

namespace ppm::hw {
namespace {

TEST(SensorBank, InstantaneousReadings)
{
    SensorBank bank(2);
    bank.record(0, 1.5, kMillisecond, 1);
    bank.record(1, 3.0, kMillisecond, 1);
    EXPECT_DOUBLE_EQ(bank.instantaneous(0), 1.5);
    EXPECT_DOUBLE_EQ(bank.instantaneous(1), 3.0);
    EXPECT_DOUBLE_EQ(bank.instantaneous_chip(), 4.5);
}

TEST(SensorBank, EnergyIntegration)
{
    SensorBank bank(1);
    // 2 W for 500 ms = 1 J.
    for (int i = 0; i < 500; ++i)
        bank.record(0, 2.0, kMillisecond, 1);
    EXPECT_NEAR(bank.energy(0), 1.0, 1e-9);
    EXPECT_NEAR(bank.chip_energy(), 1.0, 1e-9);
}

TEST(SensorBank, AverageSinceMark)
{
    SensorBank bank(1);
    bank.record(0, 4.0, kMillisecond, 1);
    bank.mark();
    // After the mark: 1 W for 10 ms then 3 W for 10 ms -> 2 W average.
    for (int i = 0; i < 10; ++i)
        bank.record(0, 1.0, kMillisecond, 1);
    for (int i = 0; i < 10; ++i)
        bank.record(0, 3.0, kMillisecond, 1);
    EXPECT_NEAR(bank.average_since_mark(0), 2.0, 1e-9);
    EXPECT_NEAR(bank.chip_average_since_mark(), 2.0, 1e-9);
}

TEST(SensorBank, AverageFallsBackToInstantaneous)
{
    SensorBank bank(1);
    bank.record(0, 5.0, kMillisecond, 1);
    bank.mark();
    // No time elapsed since the mark.
    EXPECT_DOUBLE_EQ(bank.average_since_mark(0), 5.0);
}

TEST(SensorBank, PerClusterEnergySeparated)
{
    SensorBank bank(2);
    bank.record(0, 1.0, kSecond, 1);
    bank.record(1, 2.0, kSecond, 1);
    EXPECT_NEAR(bank.energy(0), 1.0, 1e-9);
    EXPECT_NEAR(bank.energy(1), 2.0, 1e-9);
    EXPECT_NEAR(bank.chip_energy(), 3.0, 1e-9);
}

TEST(SensorBank, SkippedChannelDoesNotCorruptOthers)
{
    // Channel time is tracked per channel: never recording channel 1
    // must not distort channel 0's average (the old implementation
    // advanced a single clock on channel-0 records only).
    SensorBank bank(2);
    bank.mark();
    for (int i = 0; i < 10; ++i)
        bank.record(0, 2.0, kMillisecond, 1);
    EXPECT_NEAR(bank.average_since_mark(0), 2.0, 1e-9);
    // The idle channel has no elapsed time: falls back to its last
    // instantaneous reading (0 W), not a division by channel 0's time.
    EXPECT_DOUBLE_EQ(bank.average_since_mark(1), 0.0);
}

TEST(SensorBank, UnevenRecordCountsKeepAveragesExact)
{
    // Channels recorded at different cadences (e.g. a cluster gated
    // off mid-epoch) each average over their own elapsed time.
    SensorBank bank(2);
    bank.mark();
    for (int i = 0; i < 20; ++i)
        bank.record(0, 1.0, kMillisecond, 1);
    for (int i = 0; i < 5; ++i)
        bank.record(1, 4.0, kMillisecond, 1);
    EXPECT_NEAR(bank.average_since_mark(0), 1.0, 1e-9);
    EXPECT_NEAR(bank.average_since_mark(1), 4.0, 1e-9);
}

TEST(SensorBank, DoubleRecordCountsTwiceOnThatChannelOnly)
{
    SensorBank bank(2);
    bank.mark();
    // Channel 0 recorded twice per tick (2 x 10 ms), channel 1 once.
    for (int i = 0; i < 10; ++i) {
        bank.record(0, 3.0, kMillisecond, 1);
        bank.record(0, 1.0, kMillisecond, 1);
        bank.record(1, 2.0, kMillisecond, 1);
    }
    EXPECT_NEAR(bank.average_since_mark(0), 2.0, 1e-9);
    EXPECT_NEAR(bank.average_since_mark(1), 2.0, 1e-9);
    EXPECT_NEAR(bank.energy(0), 0.04, 1e-9);
    EXPECT_NEAR(bank.energy(1), 0.02, 1e-9);
}

TEST(SensorBank, TicksRecordedAtOnceMatchOneByOne)
{
    // n ticks in one record() leave the energy, the averaging window
    // and the reading exactly as n records of one tick do.
    SensorBank one(1);
    SensorBank many(1);
    one.record(0, 5.0, kMillisecond, 1);
    many.record(0, 5.0, kMillisecond, 1);
    one.mark();
    many.mark();
    for (int i = 0; i < 777; ++i)
        one.record(0, 1.3, kMillisecond, 1);
    many.record(0, 1.3, kMillisecond, 777);
    EXPECT_EQ(many.energy(0), one.energy(0));
    EXPECT_EQ(many.average_since_mark(0), one.average_since_mark(0));
    EXPECT_EQ(many.instantaneous(0), 1.3);
}

TEST(SensorBankDeath, RejectsBadChannel)
{
    SensorBank bank(1);
    EXPECT_DEATH(bank.record(3, 1.0, kMillisecond, 1), "out of range");
}

} // namespace
} // namespace ppm::hw
