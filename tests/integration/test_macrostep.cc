/**
 * @file
 * Equivalence tests for the event-horizon macro-stepping engine: for
 * any scenario, a run with SimConfig::macro_step enabled must produce
 * exactly the same RunSummary -- every field, at full precision -- as
 * the historical tick-by-tick loop, including the horizon edge cases
 * (events landing exactly on governor epochs, zero-length lifetimes,
 * arrivals at the end of the run, a warmup edge inside a governor
 * epoch) and trace-capped horizons.  The archive cases compare the
 * complete snapshot payload, so every HRM window's run structure,
 * ring capacity and running sum must match too, not just the summary.
 * A federated fleet must match too: its barriers read the chips'
 * sensors between intervals.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/hl_governor.hh"
#include "baselines/hpm_governor.hh"
#include "experiment/experiment.hh"
#include "fleet/fleet.hh"
#include "hw/platform.hh"
#include "market/ppm_governor.hh"
#include "metrics/telemetry.hh"
#include "sim/simulation.hh"
#include "snapshot/archive.hh"
#include "tests/test_util.hh"
#include "workload/sets.hh"

namespace ppm {
namespace {

std::unique_ptr<sim::Governor>
make_policy(const std::string& policy)
{
    if (policy == "PPM") {
        market::PpmGovernorConfig cfg;
        cfg.market.w_tdp = 3.5;
        cfg.market.w_th = 2.9;
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

/** Run the scenario twice, macro-stepped and per-tick, and compare. */
void
expect_macro_matches_per_tick(const std::string& policy,
                              sim::SimConfig cfg)
{
    cfg.macro_step = true;
    sim::Simulation macro(hw::tc2_chip(), specs(), make_policy(policy),
                          cfg);
    cfg.macro_step = false;
    sim::Simulation tick(hw::tc2_chip(), specs(), make_policy(policy),
                         cfg);
    EXPECT_EQ(sim::summary_fingerprint(macro.run()),
              sim::summary_fingerprint(tick.run()))
        << policy << " diverged from the per-tick loop";
}

sim::SimConfig
base_config()
{
    sim::SimConfig cfg;
    cfg.duration = 6 * kSecond;
    cfg.warmup = kSecond;
    cfg.tdp_for_metrics = 3.5;
    return cfg;
}

TEST(Macrostep, MacroMatchesPerTickWithLifetimes)
{
    for (const char* policy : {"PPM", "HPM", "HL"}) {
        sim::SimConfig cfg = base_config();
        cfg.lifetimes.resize(3);
        cfg.lifetimes[1].arrival = 800 * kMillisecond;
        cfg.lifetimes[2].departure = 2 * kSecond;
        expect_macro_matches_per_tick(policy, cfg);
    }
}

TEST(Macrostep, SimultaneousEventsOnEpochBoundary)
{
    // A departure landing exactly on a 32 ms governor epoch while
    // another task arrives on the very same tick: the horizon must
    // close on the edge without double-applying either event.
    for (const char* policy : {"PPM", "HPM", "HL"}) {
        sim::SimConfig cfg = base_config();
        cfg.lifetimes.resize(3);
        cfg.lifetimes[1].departure = 2048 * kMillisecond;  // 64 epochs.
        cfg.lifetimes[2].arrival = 2048 * kMillisecond;
        expect_macro_matches_per_tick(policy, cfg);
    }
}

TEST(Macrostep, ZeroLengthLifetime)
{
    // arrival == departure: the task is never alive.  The horizon caps
    // for both edges collapse onto the same tick.
    sim::SimConfig cfg = base_config();
    cfg.lifetimes.resize(3);
    cfg.lifetimes[1].arrival = 1500 * kMillisecond;
    cfg.lifetimes[1].departure = 1500 * kMillisecond;
    expect_macro_matches_per_tick("PPM", cfg);
}

TEST(Macrostep, ArrivalExactlyAtDuration)
{
    // An arrival on the run's final edge never executes; the duration
    // cap must win without the lifetime cap underflowing the horizon.
    sim::SimConfig cfg = base_config();
    cfg.lifetimes.resize(3);
    cfg.lifetimes[1].arrival = cfg.duration;
    expect_macro_matches_per_tick("PPM", cfg);
}

TEST(Macrostep, WarmupEdgeInsideGovernorEpoch)
{
    // The warmup edge closes a replay interval like a lifetime edge:
    // the boundary step that takes the warmup snapshot must land on the
    // same tick as in the per-tick loop, whether the edge sits on the
    // tick grid or between two ticks, and in either case inside a
    // 32 ms governor epoch (1216 ms < edge < 1248 ms).
    for (const SimTime warmup : {1240 * kMillisecond, SimTime{1234567}}) {
        for (const char* policy : {"PPM", "HPM", "HL"}) {
            sim::SimConfig cfg = base_config();
            cfg.warmup = warmup;
            expect_macro_matches_per_tick(policy, cfg);
        }
    }
}

/** Where two runs' snapshot payloads differ; empty when they match. */
std::string
payload_difference(const sim::Simulation& a, const sim::Simulation& b)
{
    snap::Writer wa;
    snap::Writer wb;
    a.save(wa);
    b.save(wb);
    const std::string& x = wa.payload();
    const std::string& y = wb.payload();
    if (x == y)
        return {};
    std::size_t first = 0;
    while (first < x.size() && first < y.size() && x[first] == y[first])
        ++first;
    return "payloads of " + std::to_string(x.size()) + " and " +
           std::to_string(y.size()) + " bytes first differ at byte " +
           std::to_string(first);
}

/**
 * Advance the scenario macro-stepped and per tick through run_until()
 * and require identical snapshot payloads at 1.3 s, 3.7 s and 4.999 s.
 */
void
expect_archives_match_per_tick(const sim::SimConfig& base,
                               const std::string& what)
{
    for (const char* policy : {"PPM", "HPM", "HL"}) {
        sim::SimConfig cfg = base;
        cfg.macro_step = true;
        sim::Simulation macro(hw::tc2_chip(), specs(),
                              make_policy(policy), cfg);
        cfg.macro_step = false;
        sim::Simulation tick(hw::tc2_chip(), specs(), make_policy(policy),
                             cfg);
        for (const SimTime at : {1300 * kMillisecond, 3700 * kMillisecond,
                                 4999 * kMillisecond}) {
            macro.run_until(at);
            tick.run_until(at);
            EXPECT_EQ(payload_difference(macro, tick), "")
                << what << ", " << policy << " at " << at << " us";
        }
    }
}

TEST(Macrostep, ArchiveBytesMatchPerTick)
{
    expect_archives_match_per_tick(base_config(), "plain");

    sim::SimConfig lives = base_config();
    lives.lifetimes.resize(3);
    lives.lifetimes[1].arrival = 800 * kMillisecond;
    lives.lifetimes[2].departure = 2 * kSecond;
    expect_archives_match_per_tick(lives, "lifetimes");

    sim::SimConfig off_grid = base_config();
    off_grid.warmup = 1234567;  // Between two ticks.
    expect_archives_match_per_tick(off_grid, "off-grid warmup");
}

/** The m2 set's run under `p`, built as ppm_run builds it. */
std::unique_ptr<sim::Simulation>
m2_simulation(const experiment::RunParams& p)
{
    const auto& set = workload::workload_set("m2");
    return experiment::make_simulation(
        workload::instantiate(set, p.seed, p.priority,
                              p.duration + 100 * kSecond),
        workload::big_speedups(set), p);
}

TEST(Macrostep, IntervalLeavesTheSensorsAtItsPower)
{
    // HPM on m2, uncapped: around 300 ms an interval's water-fill
    // differs from its boundary tick's (a task whose migration charge
    // ends inside the boundary tick runs again from the interval's
    // first tick), so the interval runs at another power than the
    // boundary tick.  Its last replayed tick leaves the sensors
    // reading that power, and the archives saved there hold the
    // readings.  Each save gets runs of its own, as ppm_run's
    // --snapshot-at does: a run_until() stop splits an interval and
    // the step after it refreshes the sensors.
    experiment::RunParams p;
    p.policy = "HPM";
    p.duration = 2 * kSecond;
    for (const SimTime at :
         {290 * kMillisecond, 300 * kMillisecond, 320 * kMillisecond}) {
        p.macro_step = true;
        const auto macro = m2_simulation(p);
        p.macro_step = false;
        const auto tick = m2_simulation(p);
        macro->run_until(at);
        tick->run_until(at);
        EXPECT_EQ(payload_difference(*macro, *tick), "") << at << " us";
    }
}

/** ppm_run's fleet of 4 chips on m2 under HPM at 4 W each, with a
 *  100-ms supervisor epoch, for 1 s. */
fleet::FleetResult
capped_m2_fleet(bool macro_step)
{
    const auto& set = workload::workload_set("m2");
    const std::vector<double> speedups = workload::big_speedups(set);
    fleet::FleetConfig fc;
    fc.chips = 4;
    fc.epoch = 100 * kMillisecond;
    fc.supervisor.total_budget = 4 * 4.0;
    fc.sim.duration = kSecond;
    fc.sim.tdp_for_metrics = 4.0;
    fc.sim.macro_step = macro_step;
    for (int c = 0; c < fc.chips; ++c) {
        fleet::ChipWorkload wl;
        wl.specs = workload::instantiate(
            set, c == 0 ? 42 : experiment::cell_seed(42, 777, c), 1,
            fc.sim.duration + 100 * kSecond);
        fc.workloads.push_back(std::move(wl));
    }
    fc.make_chip = [](int) { return hw::tc2_chip(); };
    fc.make_governor = [&speedups](int, Watts budget) {
        return experiment::make_governor("HPM", budget, speedups);
    };
    fleet::Fleet fleet(std::move(fc));
    return fleet.run();
}

TEST(Macrostep, CappedFleetMatchesPerTick)
{
    // The settlement barrier reads each chip's instantaneous power
    // into the supervisor's budgets.  A 100-ms epoch is no multiple of
    // HPM's 32-ms wake, so barriers fall where an interval ended, and
    // the interval must leave the reading the per-tick loop leaves.
    const fleet::FleetResult macro = capped_m2_fleet(true);
    const fleet::FleetResult tick = capped_m2_fleet(false);
    EXPECT_EQ(sim::summary_fingerprint(macro.combined),
              sim::summary_fingerprint(tick.combined));
    ASSERT_EQ(macro.per_chip.size(), tick.per_chip.size());
    for (std::size_t c = 0; c < macro.per_chip.size(); ++c) {
        EXPECT_EQ(sim::summary_fingerprint(macro.per_chip[c]),
                  sim::summary_fingerprint(tick.per_chip[c]))
            << "chip " << c;
    }
}

/** Ticks the engine advanced, by the paths EngineStats counts. */
long
counted_ticks(const sim::EngineStats& st)
{
    return st.step_ticks + st.bulk_ticks + st.span_ticks;
}

TEST(Macrostep, EngineStatsAccountForEveryTick)
{
    for (const char* policy : {"PPM", "HPM", "HL"}) {
        sim::SimConfig cfg = base_config();
        cfg.lifetimes.resize(3);
        cfg.lifetimes[2].departure = 2 * kSecond;
        const long ticks = cfg.duration / cfg.tick;

        cfg.macro_step = true;
        sim::Simulation macro(hw::tc2_chip(), specs(), make_policy(policy),
                              cfg);
        macro.run_until(3 * kSecond);
        snap::Writer w;
        macro.save(w);
        macro.run();
        const sim::EngineStats& st = macro.engine_stats();
        EXPECT_EQ(counted_ticks(st), ticks) << policy;
        long closed = 0;
        for (const long c : st.closed_by)
            closed += c;
        EXPECT_EQ(closed, st.bulk_intervals + st.span_intervals) << policy;
        EXPECT_GT(st.span_ticks, 0) << policy;
        EXPECT_GT(st.closed_by[sim::EngineStats::kWake], 0) << policy;
        EXPECT_EQ(st.closed_by[sim::EngineStats::kWarmup], 1) << policy;
        EXPECT_EQ(st.closed_by[sim::EngineStats::kLifetime], 1) << policy;
        // Every boundary tick and every interval start looks up the
        // slot cache once; an interval start ends in a replay, a power
        // veto or a refused rest.
        EXPECT_EQ(st.cache_hits + st.cache_misses,
                  st.step_ticks + closed + st.power_vetoes +
                      st.rest_refused)
            << policy;

        // A restored run counts from the restore, not from zero time.
        sim::Simulation restored(hw::tc2_chip(), specs(),
                                 make_policy(policy), cfg);
        snap::Reader r;
        ASSERT_EQ(r.open(w.finalize()), snap::LoadStatus::kOk);
        restored.load(r);
        EXPECT_EQ(counted_ticks(restored.engine_stats()), 0) << policy;
        restored.run();
        EXPECT_EQ(counted_ticks(restored.engine_stats()),
                  ticks - 3 * kSecond / cfg.tick)
            << policy;

        // The per-tick loop steps every tick at the boundary, through
        // Scheduler::tick() alone: it makes no slot-cache lookup.
        cfg.macro_step = false;
        sim::Simulation tick(hw::tc2_chip(), specs(), make_policy(policy),
                             cfg);
        tick.run();
        const sim::EngineStats& ts = tick.engine_stats();
        EXPECT_EQ(ts.step_ticks, ticks) << policy;
        EXPECT_EQ(counted_ticks(ts), ticks) << policy;
        EXPECT_EQ(ts.cache_hits + ts.cache_misses, 0) << policy;
    }
}

TEST(Macrostep, HlRestMatchesPerTick)
{
    // HL on m2 sits at a bitwise fixed point for about eight
    // stretches of 2.5-17 s in the first minute, and rests through its
    // wakes there.  The rest must take far fewer intervals than the
    // per-tick loop takes wakes, yet leave the same summary, and the
    // same archive at three saves inside the first stretch, where HL's
    // timers lag behind until save() catches them up.
    for (const Watts tdp : {1e9, 4.0}) {
        experiment::RunParams p;
        p.policy = "HL";
        p.tdp = tdp;
        p.duration = 60 * kSecond;
        p.macro_step = true;
        const auto macro = m2_simulation(p);
        p.macro_step = false;
        const auto tick = m2_simulation(p);
        // The per-tick loop, counting the ticks at which HL wakes.
        long wakes = 0;
        const auto tick_until = [&tick, &wakes](SimTime stop) {
            while (tick->now() < stop) {
                if (tick->governor().next_wake(tick->now()) <= tick->now())
                    ++wakes;
                tick->step();
            }
        };
        for (const SimTime at : {5300 * kMillisecond, 11717 * kMillisecond,
                                 17001 * kMillisecond}) {
            macro->run_until(at);
            tick_until(at);
            EXPECT_LT(macro->governor().next_wake(at), at)
                << tdp << " W: the save at " << at
                << " us is not inside a rest";
            EXPECT_EQ(payload_difference(*macro, *tick), "")
                << tdp << " W at " << at << " us";
        }
        const std::string macro_fp = sim::summary_fingerprint(macro->run());
        tick_until(p.duration);
        EXPECT_EQ(macro_fp, sim::summary_fingerprint(tick->finish()))
            << tdp << " W";
        const sim::EngineStats& st = macro->engine_stats();
        EXPECT_GT(st.rest_intervals, 0) << tdp << " W";
        EXPECT_LT(2 * (st.bulk_intervals + st.span_intervals), wakes)
            << tdp << " W";
    }
}

TEST(Macrostep, TraceSinkCapsHorizonToSamplingGrid)
{
    // With the recorder attached and a 3 ms sampling period (not a
    // multiple of any governor epoch), every sample must be taken at
    // exactly the same tick -- and hold exactly the same bits -- as
    // in the per-tick loop.
    sim::SimConfig cfg = base_config();
    cfg.duration = 3 * kSecond;
    cfg.trace = true;
    cfg.trace_period = 3 * kMillisecond;

    cfg.macro_step = true;
    sim::Simulation macro(hw::tc2_chip(), specs(), make_policy("PPM"),
                          cfg);
    cfg.macro_step = false;
    sim::Simulation tick(hw::tc2_chip(), specs(), make_policy("PPM"),
                         cfg);
    const std::string macro_fp = sim::summary_fingerprint(macro.run());
    const std::string tick_fp = sim::summary_fingerprint(tick.run());
    EXPECT_EQ(macro_fp, tick_fp);

    EXPECT_FALSE(macro.recorder().names().empty());
    EXPECT_EQ(metrics::first_difference(macro.recorder(), tick.recorder()),
              "")
        << "traced time series diverged under macro-stepping";
}

} // namespace
} // namespace ppm
