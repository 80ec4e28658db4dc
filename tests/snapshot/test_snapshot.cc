/**
 * @file
 * Crash-consistent snapshot/restore tests: the archive's primitive
 * round-trips and corruption taxonomy, and the hard product
 * guarantee -- a run killed at an arbitrary simulated time, saved,
 * restored into a freshly constructed simulation (or fleet) and run
 * to completion is byte-identical to the uninterrupted run: summary
 * fingerprints, streamed telemetry (concatenated across the kill)
 * and traced time series, for every policy, both stepping engines,
 * and chip-fault-injected fleets.
 */

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/hl_governor.hh"
#include "baselines/hpm_governor.hh"
#include "common/stats.hh"
#include "fault/fault.hh"
#include "fleet/fleet.hh"
#include "hw/platform.hh"
#include "market/ppm_governor.hh"
#include "metrics/telemetry.hh"
#include "sim/simulation.hh"
#include "snapshot/archive.hh"
#include "tests/test_util.hh"

namespace ppm {
namespace {

// ---------------------------------------------------------------
// Archive primitives.

TEST(Archive, PrimitivesRoundTrip)
{
    snap::Writer w;
    w.u8(0xab);
    w.b(true);
    w.b(false);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefULL);
    w.i64(-42);
    w.i32(-7);
    w.f64(3.141592653589793);
    w.f64(-0.0);
    w.f64(std::numeric_limits<double>::quiet_NaN());
    w.str("hello snapshot");
    w(std::vector<double>{1.5, -2.5, 0.0});
    w(std::vector<long>{-1, 0, 1LL << 40});
    w(std::vector<int>{3, -4});
    w(std::vector<unsigned char>{0, 255, 17});
    w(std::vector<bool>{true, false, true});

    snap::Reader r;
    ASSERT_EQ(r.open(w.finalize()), snap::LoadStatus::kOk);
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_TRUE(r.b());
    EXPECT_FALSE(r.b());
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_EQ(r.i32(), -7);
    EXPECT_EQ(r.f64(), 3.141592653589793);
    const double neg_zero = r.f64();
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero));
    EXPECT_TRUE(std::isnan(r.f64()));
    EXPECT_EQ(r.str(), "hello snapshot");
    std::vector<double> dv;
    r(dv);
    EXPECT_EQ(dv, (std::vector<double>{1.5, -2.5, 0.0}));
    std::vector<long> lv;
    r(lv);
    EXPECT_EQ(lv, (std::vector<long>{-1, 0, 1LL << 40}));
    std::vector<int> iv;
    r(iv);
    EXPECT_EQ(iv, (std::vector<int>{3, -4}));
    std::vector<unsigned char> uv;
    r(uv);
    EXPECT_EQ(uv, (std::vector<unsigned char>{0, 255, 17}));
    std::vector<bool> bv;
    r(bv);
    EXPECT_EQ(bv, (std::vector<bool>{true, false, true}));
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(Archive, CorruptionTaxonomy)
{
    snap::Writer w;
    w.u64(123456789);
    w.f64(2.5);
    const std::string good = w.finalize();

    snap::Reader r;
    ASSERT_EQ(r.open(good), snap::LoadStatus::kOk);

    // Truncated: shorter than the header, and shorter than the
    // payload the header promises.
    EXPECT_EQ(r.open(good.substr(0, 10)), snap::LoadStatus::kTruncated);
    EXPECT_EQ(r.open(good.substr(0, good.size() - 1)),
              snap::LoadStatus::kTruncated);
    EXPECT_EQ(r.open(""), snap::LoadStatus::kTruncated);
    // Trailing garbage is a size mismatch, not silently ignored.
    EXPECT_EQ(r.open(good + "x"), snap::LoadStatus::kTruncated);

    // Bad magic: not a snapshot at all.
    std::string bad_magic = good;
    bad_magic[0] = 'X';
    EXPECT_EQ(r.open(bad_magic), snap::LoadStatus::kBadMagic);

    // Version mismatch.
    std::string bad_version = good;
    bad_version[8] = static_cast<char>(snap::kFormatVersion + 1);
    EXPECT_EQ(r.open(bad_version), snap::LoadStatus::kBadVersion);
    // Every older version has another layout: it must be refused,
    // not misread.
    for (std::uint32_t v = 1; v < snap::kFormatVersion; ++v) {
        std::string old = good;
        old[8] = static_cast<char>(v);
        EXPECT_EQ(r.open(old), snap::LoadStatus::kBadVersion) << "v" << v;
    }

    // Flipped payload bit: right shape, wrong checksum.
    std::string bad_payload = good;
    bad_payload[good.size() - 1] =
        static_cast<char>(bad_payload[good.size() - 1] ^ 0x01);
    EXPECT_EQ(r.open(bad_payload), snap::LoadStatus::kBadChecksum);

    EXPECT_STREQ(snap::load_status_name(snap::LoadStatus::kOk), "ok");
    EXPECT_STREQ(snap::load_status_name(snap::LoadStatus::kTruncated),
                 "truncated");
    EXPECT_STREQ(snap::load_status_name(snap::LoadStatus::kBadMagic),
                 "bad magic");
    EXPECT_STREQ(snap::load_status_name(snap::LoadStatus::kBadVersion),
                 "version mismatch");
    EXPECT_STREQ(
        snap::load_status_name(snap::LoadStatus::kBadChecksum),
        "checksum mismatch");
}

TEST(Archive, ReadFileMissingIsTruncated)
{
    snap::Reader r;
    EXPECT_EQ(snap::read_file("/nonexistent/p.ppmsnap", &r),
              snap::LoadStatus::kTruncated);
}

// ---------------------------------------------------------------
// Simulation kill-and-resume equivalence.

std::unique_ptr<sim::Governor>
make_policy(const std::string& policy, bool online = false)
{
    if (policy == "PPM") {
        market::PpmGovernorConfig cfg;
        cfg.market.w_tdp = 3.5;
        cfg.market.w_th = 2.9;
        cfg.big_speedup = {1.7, 1.5, 1.6};
        cfg.online_speedup = online;
        return std::make_unique<market::PpmGovernor>(cfg);
    }
    if (policy == "HPM") {
        baselines::HpmConfig cfg;
        cfg.tdp = 3.5;
        return std::make_unique<baselines::HpmGovernor>(cfg);
    }
    baselines::HlConfig cfg;
    cfg.tdp = 3.5;
    return std::make_unique<baselines::HlGovernor>(cfg);
}

std::vector<workload::TaskSpec>
specs()
{
    return {
        test::steady_spec("encode", 2, 420.0, 1.7, 25.0),
        test::steady_spec("decode", 1, 250.0, 1.5, 20.0),
        test::steady_spec("background", 1, 120.0, 1.6, 10.0, 0.5),
    };
}

sim::SimConfig
base_config(bool macro_step)
{
    sim::SimConfig cfg;
    cfg.duration = 5 * kSecond;
    cfg.warmup = kSecond;
    cfg.tdp_for_metrics = 3.5;
    cfg.macro_step = macro_step;
    return cfg;
}

/**
 * Run the scenario whole, then split at `at` through a real archive
 * (header, checksum, trailing-byte check), and compare everything.
 */
void
expect_split_matches(const std::string& policy, sim::SimConfig cfg,
                     SimTime at, bool online = false)
{
    std::ostringstream full_os;
    metrics::JsonlSink full_sink(full_os);
    sim::Simulation full(hw::tc2_chip(), specs(),
                         make_policy(policy, online), cfg);
    full.bus().add_sink(&full_sink);
    const sim::RunSummary full_summary = full.run();

    snap::Writer w;
    std::ostringstream os1;
    {
        metrics::JsonlSink sink(os1);
        sim::Simulation first(hw::tc2_chip(), specs(),
                              make_policy(policy, online), cfg);
        first.bus().add_sink(&sink);
        first.run_until(at);
        first.save(w);
    }
    std::ostringstream os2;
    metrics::JsonlSink sink2(os2);
    sim::Simulation second(hw::tc2_chip(), specs(),
                           make_policy(policy, online), cfg);
    second.bus().add_sink(&sink2);
    snap::Reader r;
    ASSERT_EQ(r.open(w.finalize()), snap::LoadStatus::kOk);
    second.load(r);
    ASSERT_EQ(r.remaining(), 0u);
    second.run_until(cfg.duration);
    const sim::RunSummary split_summary = second.finish();

    EXPECT_EQ(sim::summary_fingerprint(split_summary),
              sim::summary_fingerprint(full_summary))
        << policy << " summary diverged across a snapshot at " << at;
    EXPECT_EQ(os1.str() + os2.str(), full_os.str())
        << policy << " telemetry diverged across a snapshot at " << at;
}

TEST(SnapshotRestore, EveryPolicyBothEnginesBitExact)
{
    for (const char* policy : {"PPM", "HPM", "HL"}) {
        for (const bool macro : {true, false}) {
            // Mid-run, not on a governor epoch (1.3 s), and just
            // after warmup closes.
            expect_split_matches(policy, base_config(macro),
                                 1300 * kMillisecond);
            expect_split_matches(policy, base_config(macro),
                                 1001 * kMillisecond);
        }
    }
}

TEST(SnapshotRestore, LifetimesAndPlacementSurviveRestore)
{
    for (const char* policy : {"PPM", "HPM", "HL"}) {
        sim::SimConfig cfg = base_config(true);
        cfg.lifetimes.resize(3);
        cfg.lifetimes[1].arrival = 800 * kMillisecond;
        cfg.lifetimes[2].departure = 2 * kSecond;
        cfg.placement = {0, 3, 4};
        // Snapshot lands between the arrival and the departure, so
        // the restored process replays a partially admitted economy.
        expect_split_matches(policy, cfg, 1500 * kMillisecond);
    }
}

TEST(SnapshotRestore, OnlineEstimatorStateSurvivesRestore)
{
    expect_split_matches("PPM", base_config(true),
                         2200 * kMillisecond, /*online=*/true);
}

TEST(SnapshotRestore, SaveIsDeterministic)
{
    // Two saves of the same trajectory produce the same bytes --
    // crash-consistency depends on the payload being a pure function
    // of simulation state.
    auto save_at = [](SimTime at) {
        sim::Simulation s(hw::tc2_chip(), specs(), make_policy("PPM"),
                          base_config(true));
        s.run_until(at);
        snap::Writer w;
        s.save(w);
        return w.finalize();
    };
    EXPECT_EQ(save_at(1300 * kMillisecond),
              save_at(1300 * kMillisecond));
    EXPECT_NE(save_at(1300 * kMillisecond),
              save_at(1400 * kMillisecond));
}

TEST(SnapshotRestore, ChainedSnapshotsCompose)
{
    // Save at t1, restore, run to t2, save again, restore again --
    // periodic checkpointing (--snapshot-every) composes.
    const sim::SimConfig cfg = base_config(true);
    std::ostringstream full_os;
    metrics::JsonlSink full_sink(full_os);
    sim::Simulation full(hw::tc2_chip(), specs(), make_policy("PPM"),
                         cfg);
    full.bus().add_sink(&full_sink);
    const sim::RunSummary full_summary = full.run();

    snap::Writer w1;
    std::ostringstream os1;
    {
        metrics::JsonlSink sink(os1);
        sim::Simulation s(hw::tc2_chip(), specs(), make_policy("PPM"),
                          cfg);
        s.bus().add_sink(&sink);
        s.run_until(1200 * kMillisecond);
        s.save(w1);
    }
    snap::Writer w2;
    std::ostringstream os2;
    {
        metrics::JsonlSink sink(os2);
        sim::Simulation s(hw::tc2_chip(), specs(), make_policy("PPM"),
                          cfg);
        s.bus().add_sink(&sink);
        snap::Reader r;
        ASSERT_EQ(r.open(w1.finalize()), snap::LoadStatus::kOk);
        s.load(r);
        s.run_until(3100 * kMillisecond);
        s.save(w2);
    }
    std::ostringstream os3;
    metrics::JsonlSink sink3(os3);
    sim::Simulation s(hw::tc2_chip(), specs(), make_policy("PPM"),
                      cfg);
    s.bus().add_sink(&sink3);
    snap::Reader r;
    ASSERT_EQ(r.open(w2.finalize()), snap::LoadStatus::kOk);
    s.load(r);
    s.run_until(cfg.duration);
    const sim::RunSummary chained = s.finish();

    EXPECT_EQ(sim::summary_fingerprint(chained),
              sim::summary_fingerprint(full_summary));
    EXPECT_EQ(os1.str() + os2.str() + os3.str(), full_os.str());
}

// ---------------------------------------------------------------
// Fleet kill-and-resume equivalence (chip faults included).

fleet::FleetConfig
fleet_config(int chips, bool chip_faults)
{
    fleet::FleetConfig fc;
    fc.chips = chips;
    fc.epoch = 96 * kMillisecond;
    fc.supervisor.total_budget = 3.5 * chips;
    fc.sim = base_config(true);
    fc.make_chip = [](int) { return hw::tc2_chip(); };
    fc.make_governor =
        [](int, Watts budget) -> std::unique_ptr<sim::Governor> {
        market::PpmGovernorConfig cfg;
        cfg.market.w_tdp = budget;
        cfg.market.w_th = market::derive_w_th(budget);
        cfg.big_speedup = {1.7, 1.5, 1.6};
        return std::make_unique<market::PpmGovernor>(cfg);
    };
    for (int c = 0; c < chips; ++c) {
        fleet::ChipWorkload wl;
        wl.specs = specs();
        fc.workloads.push_back(std::move(wl));
    }
    if (chip_faults) {
        fault::FaultSpec spec;
        spec.seed = 99;
        spec.chip_fail = true;
        spec.chip_recover = true;
        spec.chip_rate_per_min = 30.0;
        fc.fleet_faults = fault::FleetFaultPlan::compile(
            spec, chips, fc.sim.duration, fc.epoch);
    }
    return fc;
}

void
expect_fleet_split_matches(int chips, bool chip_faults, SimTime at)
{
    std::ostringstream full_fleet_os, full_chip_os;
    metrics::JsonlSink full_fleet_sink(full_fleet_os);
    metrics::JsonlSink full_chip_sink(full_chip_os);
    fleet::Fleet full(fleet_config(chips, chip_faults));
    full.bus().add_sink(&full_fleet_sink);
    full.shard(0).bus().add_sink(&full_chip_sink);
    const fleet::FleetResult full_res = full.run();

    snap::Writer w;
    std::ostringstream fleet_os1, chip_os1;
    {
        metrics::JsonlSink fleet_sink(fleet_os1);
        metrics::JsonlSink chip_sink(chip_os1);
        fleet::Fleet first(fleet_config(chips, chip_faults));
        first.bus().add_sink(&fleet_sink);
        first.shard(0).bus().add_sink(&chip_sink);
        while (first.now() < at && first.run_epoch()) {
        }
        first.save(w);
    }
    std::ostringstream fleet_os2, chip_os2;
    metrics::JsonlSink fleet_sink2(fleet_os2);
    metrics::JsonlSink chip_sink2(chip_os2);
    fleet::Fleet second(fleet_config(chips, chip_faults));
    second.bus().add_sink(&fleet_sink2);
    second.shard(0).bus().add_sink(&chip_sink2);
    snap::Reader r;
    ASSERT_EQ(r.open(w.finalize()), snap::LoadStatus::kOk);
    second.load(r);
    ASSERT_EQ(r.remaining(), 0u);
    const fleet::FleetResult split_res = second.run();

    EXPECT_EQ(sim::summary_fingerprint(split_res.combined),
              sim::summary_fingerprint(full_res.combined));
    EXPECT_EQ(fleet_os1.str() + fleet_os2.str(), full_fleet_os.str());
    EXPECT_EQ(chip_os1.str() + chip_os2.str(), full_chip_os.str());
    // Fault accounting is cumulative across the kill.
    EXPECT_EQ(split_res.chip_failures, full_res.chip_failures);
    EXPECT_EQ(split_res.evacuations, full_res.evacuations);
    EXPECT_EQ(split_res.evac_landed, full_res.evac_landed);
    EXPECT_EQ(split_res.evac_pending_end, full_res.evac_pending_end);
    EXPECT_EQ(split_res.final_health, full_res.final_health);
}

TEST(SnapshotRestore, FleetBitExactAcrossBarrierSnapshot)
{
    expect_fleet_split_matches(4, false, 1300 * kMillisecond);
}

TEST(SnapshotRestore, FaultedFleetBitExactAcrossSnapshot)
{
    // Snapshot lands mid-run of a failing/recovering fleet: health,
    // rosters and the pending-evacuation queue all travel.
    expect_fleet_split_matches(4, true, 1300 * kMillisecond);
    expect_fleet_split_matches(4, true, 2500 * kMillisecond);
}

// ---------------------------------------------------------------
// Payload layout.

/** Size and FNV-1a of a payload, as one comparable string. */
std::string
layout_of(const snap::Writer& w)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%zu:%016llx", w.payload().size(),
                  static_cast<unsigned long long>(
                      test::fnv1a(w.payload())));
    return buf;
}

/**
 * Save a traced, fault-injected run with lifetime windows at 2.5 s,
 * after the departure and inside the fault schedule.
 */
std::string
single_chip_layout(const std::string& policy)
{
    sim::SimConfig cfg = base_config(true);
    cfg.lifetimes.resize(3);
    cfg.lifetimes[1].arrival = 800 * kMillisecond;
    cfg.lifetimes[2].departure = 2 * kSecond;
    cfg.placement = {0, 3, 4};
    cfg.trace = true;
    fault::FaultSpec spec;
    std::string error;
    EXPECT_TRUE(fault::parse_fault_spec("all,seed=7,rate=30", &spec,
                                        &error))
        << error;
    cfg.faults = fault::FaultPlan::compile(spec, 2, 5, cfg.duration);
    sim::Simulation s(hw::tc2_chip(), specs(),
                      make_policy(policy, /*online=*/true), cfg);
    s.run_until(2500 * kMillisecond);
    snap::Writer w;
    s.save(w);
    return layout_of(w);
}

TEST(Archive, PayloadLayoutPinned)
{
    // The archive bytes are a format: a refactor of the serializers
    // must leave them unchanged, and a deliberate layout change bumps
    // kFormatVersion and re-pins these.  Together the four runs reach
    // every serialized class: the PPM market, online estimator and
    // watchdog; both baselines' controllers; the fault injector and
    // sensor guards; tracing's recorder series and bus histograms;
    // and the fleet's supervisor, rosters, evacuation queue and
    // mid-run admission logs.
    EXPECT_EQ(single_chip_layout("PPM"), "59748:f5ef2c5973702493");
    EXPECT_EQ(single_chip_layout("HPM"), "13676:79f52a9d08ea88ff");
    EXPECT_EQ(single_chip_layout("HL"), "3876:bbb31d40177acb1f");

    std::ostringstream os;
    metrics::JsonlSink sink(os);
    fleet::Fleet f(fleet_config(4, true));
    f.bus().add_sink(&sink);
    while (f.bus().counter("fleet.evacuations") == 0 && f.run_epoch()) {
    }
    ASSERT_GT(f.bus().counter("fleet.evacuations"), 0);
    snap::Writer w;
    f.save(w);
    EXPECT_EQ(layout_of(w), "13219:1e0e67117f67aaf3");
}

TEST(SnapshotRestore, SimulationLoadRejectsWrongShape)
{
    // A snapshot from a different task count dies loudly, not
    // silently: the admission log replay asserts on the spec table.
    sim::Simulation donor(hw::tc2_chip(), specs(), make_policy("PPM"),
                          base_config(true));
    donor.run_until(kSecond);
    snap::Writer w;
    donor.save(w);

    std::vector<workload::TaskSpec> fewer = specs();
    fewer.pop_back();
    market::PpmGovernorConfig cfg;
    cfg.market.w_tdp = 3.5;
    cfg.market.w_th = 2.9;
    cfg.big_speedup = {1.7, 1.5};
    sim::Simulation other(hw::tc2_chip(), fewer,
                          std::make_unique<market::PpmGovernor>(cfg),
                          base_config(true));
    snap::Reader r;
    ASSERT_EQ(r.open(w.finalize()), snap::LoadStatus::kOk);
    EXPECT_DEATH(other.load(r), "");
}

TEST(SnapshotRestore, ForgedCountDiesBeforeAllocating)
{
    // A checksummed payload whose first field -- the admission log's
    // count -- claims 2^40 entries.  Every element encodes at least
    // one byte, so the count is checked against the bytes left and
    // the load dies on the underrun assertion instead of resizing a
    // vector to 2^40 entries.
    snap::Writer w;
    w.u64(1ULL << 40);
    w.f64(0.0);
    sim::Simulation s(hw::tc2_chip(), specs(), make_policy("PPM"),
                      base_config(true));
    snap::Reader r;
    ASSERT_EQ(r.open(w.finalize()), snap::LoadStatus::kOk);
    EXPECT_DEATH(s.load(r), "underrun");
}

TEST(SnapshotRestore, ForgedRingCapacityDiesBeforeAllocating)
{
    // A window-rate ring saved with no live runs but a forged
    // capacity: no run bytes follow, so the payload bound cannot
    // catch it.  Only capacities grow() produces load -- 0 or a power
    // of two from 8 to kMaxRingRuns -- so neither 2^40 (too large to
    // allocate) nor 12 (breaks the masked ring index) resizes the
    // ring.
    for (std::size_t capacity : {std::size_t{1} << 40, std::size_t{12}}) {
        snap::Writer w;
        w(kSecond, capacity, std::size_t{0}, 0L, 0.0);
        snap::Reader r;
        ASSERT_EQ(r.open(w.finalize()), snap::LoadStatus::kOk);
        WindowRate rate(kSecond);
        EXPECT_DEATH(r(rate), "window ring capacity");
    }
}

} // namespace
} // namespace ppm
