/**
 * @file
 * End-to-end fault injection: determinism under macro-stepping, the
 * injector's actuation semantics (deferred/failed DVFS, migration
 * retry, core offlining), and graceful degradation of all three
 * governors (no crashes, no NaN telemetry, safe-mode entry/exit,
 * bounded cap violations while sensors lie).
 */

#include <cmath>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "baselines/hl_governor.hh"
#include "baselines/hpm_governor.hh"
#include "hw/platform.hh"
#include "market/ppm_governor.hh"
#include "sim/simulation.hh"
#include "tests/test_util.hh"

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
standard_specs()
{
    return {
        test::steady_spec("encode", 2, 420.0, 1.7, 25.0),
        test::steady_spec("decode", 1, 250.0, 1.5, 20.0),
        test::steady_spec("background", 1, 120.0, 1.6, 10.0, 0.5),
    };
}

struct ScenarioResult {
    sim::RunSummary summary;
    std::string output;  ///< Summary fingerprint + wide trace CSV.
};

ScenarioResult
run_scenario(const std::string& policy, const fault::FaultPlan& plan,
             bool macro, SimTime duration = 6 * kSecond)
{
    sim::SimConfig cfg;
    cfg.duration = duration;
    cfg.warmup = kSecond;
    cfg.trace = true;
    cfg.trace_period = 500 * kMillisecond;
    cfg.tdp_for_metrics = 3.5;
    cfg.macro_step = macro;
    cfg.faults = plan;
    sim::Simulation sim(hw::tc2_chip(), standard_specs(),
                        make_policy(policy), cfg);
    ScenarioResult r;
    r.summary = sim.run();
    std::ostringstream out;
    out << sim::summary_fingerprint(r.summary);
    sim.recorder().write_csv(out);
    r.output = out.str();
    return r;
}

fault::FaultPlan
compiled_plan(const std::string& classes, SimTime duration,
              double rate = 30.0)
{
    fault::FaultSpec spec;
    std::string error;
    const std::string text = classes + ",seed=7,rate=" +
                             std::to_string(rate);
    EXPECT_TRUE(fault::parse_fault_spec(text, &spec, &error)) << error;
    return fault::FaultPlan::compile(spec, 2, 5, duration);
}

class FaultGovernanceTest
    : public ::testing::TestWithParam<const char*>
{
};

/**
 * The acceptance bar of the fault layer: with a seeded all-class plan
 * active, macro-stepping must replay the exact per-tick behaviour --
 * every summary field and every traced byte.
 */
TEST_P(FaultGovernanceTest, MacroStepMatchesPerTickUnderInjection)
{
    const fault::FaultPlan plan = compiled_plan("all", 6 * kSecond);
    const ScenarioResult macro = run_scenario(GetParam(), plan, true);
    const ScenarioResult tick = run_scenario(GetParam(), plan, false);
    EXPECT_EQ(macro.output, tick.output)
        << "fault edges must bound the event-horizon engine";
}

TEST_P(FaultGovernanceTest, EmptyPlanReportsZeroFaultActivity)
{
    const ScenarioResult r =
        run_scenario(GetParam(), fault::FaultPlan{}, true);
    EXPECT_EQ(r.summary.faults_injected, 0);
    EXPECT_EQ(r.summary.sensor_fallbacks, 0);
    EXPECT_EQ(r.summary.fault_retries, 0);
    EXPECT_EQ(r.summary.safe_mode_entries, 0);
    EXPECT_EQ(r.summary.watchdog_trips, 0);
    EXPECT_DOUBLE_EQ(r.summary.safe_mode_seconds, 0.0);
    EXPECT_DOUBLE_EQ(r.summary.over_tdp_during_fault, 0.0);
}

/**
 * Every fault class alone, against every governor: the run completes,
 * every summary number is finite, and no traced sample is NaN/inf.
 */
TEST_P(FaultGovernanceTest, EachFaultClassDegradesGracefully)
{
    for (const char* cls : {"sensor", "dvfs", "migration", "offline"}) {
        const ScenarioResult r = run_scenario(
            GetParam(), compiled_plan(cls, 6 * kSecond), true);
        SCOPED_TRACE(cls);
        EXPECT_GT(r.summary.faults_injected, 0);
        EXPECT_TRUE(std::isfinite(r.summary.avg_power));
        EXPECT_GE(r.summary.avg_power, 0.0);
        EXPECT_TRUE(std::isfinite(r.summary.any_below_miss));
        EXPECT_GE(r.summary.over_tdp_during_fault, 0.0);
        EXPECT_LE(r.summary.over_tdp_during_fault, 1.0);
        EXPECT_EQ(r.output.find("nan"), std::string::npos);
        EXPECT_EQ(r.output.find("inf"), std::string::npos);
    }
}

/**
 * A long total sensor blackout must push every governor through the
 * full degradation arc: fallback reads, safe-mode entry (clamp to the
 * lowest level), and safe-mode exit once fresh readings return --
 * with chip power held within a bounded duty cycle of the TDP while
 * the sensors were lying.
 */
TEST_P(FaultGovernanceTest, SensorBlackoutEntersAndExitsSafeMode)
{
    fault::FaultPlan plan;
    fault::FaultEvent ev;
    ev.kind = fault::FaultKind::kSensorDrop;
    ev.start = kSecond;
    ev.end = 4 * kSecond;
    ev.target = kInvalidId;  // All clusters.
    plan.add(ev);
    const ScenarioResult r =
        run_scenario(GetParam(), plan, true, 7 * kSecond);
    EXPECT_GT(r.summary.sensor_fallbacks, 0);
    EXPECT_GE(r.summary.safe_mode_entries, 1);
    EXPECT_GT(r.summary.safe_mode_seconds, 0.0);
    // Exit is recorded too: safe mode cannot outlast the blackout by
    // more than one decision epoch on each side.
    EXPECT_LT(r.summary.safe_mode_seconds, 3.5);
    // Clamped to the lowest level for most of the window, the chip
    // spends at most a small duty cycle above the TDP.
    EXPECT_LE(r.summary.over_tdp_during_fault, 0.25);
}

INSTANTIATE_TEST_SUITE_P(AllGovernors, FaultGovernanceTest,
                         ::testing::Values("PPM", "HPM", "HL"));

// ---------------------------------------------------------------------------
// Injector actuation semantics, driven directly (no governor in the
// loop): build a Simulation for its chip/scheduler wiring and poke the
// injector by hand.

struct InjectorRig {
    explicit InjectorRig(fault::FaultPlan plan)
    {
        sim::SimConfig cfg;
        cfg.duration = 20 * kSecond;
        cfg.faults = std::move(plan);
        sim = std::make_unique<sim::Simulation>(
            hw::tc2_chip(), standard_specs(), make_policy("HL"), cfg);
        inj = sim->fault_injector();
        EXPECT_NE(inj, nullptr);
    }
    std::unique_ptr<sim::Simulation> sim;
    fault::FaultInjector* inj = nullptr;
};

TEST(FaultInjector, DvfsDelayLandsExactlyLate)
{
    fault::FaultPlan plan;
    fault::FaultEvent ev;
    ev.kind = fault::FaultKind::kDvfsDelay;
    ev.start = kSecond;
    ev.end = 2 * kSecond;
    ev.target = 0;
    ev.delay = 50 * kMillisecond;
    plan.add(ev);
    InjectorRig rig(std::move(plan));
    hw::Cluster& cl = rig.sim->chip().cluster(0);
    const int before = cl.level();
    const int target = before == 0 ? 1 : 0;

    rig.inj->tick(kSecond);
    EXPECT_FALSE(rig.inj->request_level(0, target));
    EXPECT_EQ(cl.level(), before);  // Deferred, not applied.
    // The landing time is a horizon edge for the macro-step engine.
    EXPECT_EQ(rig.inj->next_edge(kSecond),
              kSecond + 50 * kMillisecond);

    rig.inj->tick(kSecond + 49 * kMillisecond);
    EXPECT_EQ(cl.level(), before);
    rig.inj->tick(kSecond + 50 * kMillisecond);
    EXPECT_EQ(cl.level(), target);  // Landed exactly `delay` late.
    EXPECT_GE(rig.inj->stats().dvfs_deferred, 1);
}

TEST(FaultInjector, DvfsFailDropsAfterRetryBudget)
{
    fault::FaultPlan plan;
    fault::FaultEvent ev;
    ev.kind = fault::FaultKind::kDvfsFail;
    ev.start = kSecond;
    ev.end = 10 * kSecond;  // Fails for the whole retry budget.
    ev.target = 0;
    plan.add(ev);
    plan.max_retries = 1;
    plan.retry_backoff = 4 * kMillisecond;
    InjectorRig rig(std::move(plan));
    hw::Cluster& cl = rig.sim->chip().cluster(0);
    const int before = cl.level();
    const int target = before == 0 ? 1 : 0;

    rig.inj->tick(kSecond);
    EXPECT_FALSE(rig.inj->request_level(0, target));
    // Attempts at +4 ms and (backoff doubled) +12 ms, then dropped.
    rig.inj->tick(kSecond + 4 * kMillisecond);
    rig.inj->tick(kSecond + 12 * kMillisecond);
    rig.inj->tick(kSecond + 100 * kMillisecond);
    EXPECT_EQ(cl.level(), before);
    EXPECT_GE(rig.inj->stats().dvfs_retries, 2);
    EXPECT_GE(rig.inj->stats().dropped_actions, 1);
}

TEST(FaultInjector, DvfsFailSucceedsOnceWindowCloses)
{
    fault::FaultPlan plan;
    fault::FaultEvent ev;
    ev.kind = fault::FaultKind::kDvfsFail;
    ev.start = kSecond;
    ev.end = kSecond + 6 * kMillisecond;
    ev.target = 0;
    plan.add(ev);
    InjectorRig rig(std::move(plan));
    hw::Cluster& cl = rig.sim->chip().cluster(0);
    const int target = cl.level() == 0 ? 1 : 0;

    rig.inj->tick(kSecond);
    EXPECT_FALSE(rig.inj->request_level(0, target));
    rig.inj->tick(kSecond + 4 * kMillisecond);   // Still failing.
    EXPECT_NE(cl.level(), target);
    rig.inj->tick(kSecond + 12 * kMillisecond);  // Window closed.
    EXPECT_EQ(cl.level(), target);  // Retry-with-backoff recovered.
}

TEST(FaultInjector, MigrationFailRetriesUntilItLands)
{
    fault::FaultPlan plan;
    fault::FaultEvent ev;
    ev.kind = fault::FaultKind::kMigrationFail;
    ev.start = kSecond;
    ev.end = kSecond + 6 * kMillisecond;
    plan.add(ev);
    InjectorRig rig(std::move(plan));
    sched::Scheduler& sched = rig.sim->scheduler();
    const CoreId from = sched.core_of(0);
    const CoreId to = from == 0 ? 1 : 0;

    rig.inj->tick(kSecond);
    EXPECT_FALSE(rig.inj->request_migration(0, to, kSecond));
    EXPECT_EQ(sched.core_of(0), from);  // Queued, not moved.
    rig.inj->tick(kSecond + 4 * kMillisecond);   // Retry inside window.
    EXPECT_EQ(sched.core_of(0), from);
    rig.inj->tick(kSecond + 12 * kMillisecond);  // Window closed.
    EXPECT_EQ(sched.core_of(0), to);
    EXPECT_GE(rig.inj->stats().migration_retries, 1);
}

TEST(FaultInjector, MigrationSlowMultipliesLatency)
{
    fault::FaultPlan plan;
    fault::FaultEvent ev;
    ev.kind = fault::FaultKind::kMigrationSlow;
    ev.start = kSecond;
    ev.end = 2 * kSecond;
    ev.magnitude = 5.0;
    plan.add(ev);
    InjectorRig rig(std::move(plan));
    EXPECT_DOUBLE_EQ(rig.inj->migration_cost_scale(500 * kMillisecond),
                     1.0);
    EXPECT_DOUBLE_EQ(
        rig.inj->migration_cost_scale(1500 * kMillisecond), 5.0);
    EXPECT_DOUBLE_EQ(rig.inj->migration_cost_scale(2 * kSecond), 1.0);
}

TEST(FaultInjector, OfflineEvacuatesAndRestores)
{
    fault::FaultPlan plan;
    fault::FaultEvent ev;
    ev.kind = fault::FaultKind::kCoreOffline;
    ev.start = kSecond;
    ev.end = 2 * kSecond;
    ev.target = 0;
    plan.add(ev);
    InjectorRig rig(std::move(plan));
    hw::Chip& chip = rig.sim->chip();
    sched::Scheduler& sched = rig.sim->scheduler();
    ASSERT_TRUE(chip.core_online(0));
    const bool had_tasks = !sched.tasks_on(0).empty();

    rig.inj->tick(kSecond);
    EXPECT_FALSE(chip.core_online(0));
    EXPECT_TRUE(sched.tasks_on(0).empty());  // Victims evacuated.
    if (had_tasks) {
        EXPECT_GE(rig.inj->stats().offline_events, 1);
    }
    // Restoration is a horizon edge.
    EXPECT_EQ(rig.inj->next_edge(kSecond + kMillisecond),
              2 * kSecond);

    rig.inj->tick(2 * kSecond);
    EXPECT_TRUE(chip.core_online(0));
}

TEST(FaultInjector, RejectsMigrationToOfflineCore)
{
    fault::FaultPlan plan;
    fault::FaultEvent ev;
    ev.kind = fault::FaultKind::kCoreOffline;
    ev.start = kSecond;
    ev.end = 2 * kSecond;
    ev.target = 1;
    plan.add(ev);
    InjectorRig rig(std::move(plan));
    rig.inj->tick(kSecond);
    const long dropped = rig.inj->stats().dropped_actions;
    EXPECT_FALSE(rig.inj->request_migration(0, 1, kSecond));
    EXPECT_EQ(rig.inj->stats().dropped_actions, dropped + 1);
}

TEST(FaultInjector, NoiseOffsetIsPureAndBounded)
{
    fault::FaultEvent ev;
    ev.kind = fault::FaultKind::kSensorNoise;
    ev.start = kSecond;
    ev.end = 2 * kSecond;
    ev.magnitude = 0.5;
    ev.salt = 0xfeedface;
    fault::FaultPlan plan;
    plan.add(ev);
    InjectorRig rig(std::move(plan));
    for (SimTime t = kSecond; t < 2 * kSecond;
         t += 100 * kMillisecond) {
        const double a = rig.inj->noise_offset(ev, 0, t);
        const double b = rig.inj->noise_offset(ev, 0, t);
        EXPECT_EQ(a, b);  // Stateless: same inputs, same bits.
        EXPECT_LE(std::fabs(a), 3.0 * ev.magnitude + 1e-12);
    }
    // Different clusters and times decorrelate.
    EXPECT_NE(rig.inj->noise_offset(ev, 0, kSecond),
              rig.inj->noise_offset(ev, 1, kSecond));
}

TEST(FaultInjector, NextEdgeWalksTheSchedule)
{
    fault::FaultPlan plan;
    fault::FaultEvent a;
    a.kind = fault::FaultKind::kSensorDrop;
    a.start = kSecond;
    a.end = 2 * kSecond;
    plan.add(a);
    fault::FaultEvent b = a;
    b.start = 3 * kSecond;
    b.end = 4 * kSecond;
    plan.add(b);
    InjectorRig rig(std::move(plan));
    const auto* inj = rig.inj;
    EXPECT_EQ(inj->next_edge(0), kSecond);
    EXPECT_EQ(inj->next_edge(kSecond), 2 * kSecond);
    EXPECT_EQ(inj->next_edge(2 * kSecond), 3 * kSecond);
    EXPECT_EQ(inj->next_edge(3 * kSecond), 4 * kSecond);
    EXPECT_EQ(inj->next_edge(4 * kSecond),
              fault::FaultInjector::kNoEdge);
    EXPECT_FALSE(inj->any_fault_active(500 * kMillisecond));
    EXPECT_TRUE(inj->any_fault_active(kSecond));
    EXPECT_TRUE(inj->sensor_fault_active(3500 * kMillisecond));
    EXPECT_FALSE(inj->sensor_fault_active(2500 * kMillisecond));
}

// ---------------------------------------------------------------------------
// SensorGuard: fallback, safe-mode entry and exit.

TEST(SensorGuard, NullInjectorNeverEntersSafeMode)
{
    fault::SensorGuard guard;
    guard.init(2, nullptr);
    EXPECT_FALSE(guard.safe_mode());
    guard.update_safe_mode(kSecond);
    EXPECT_FALSE(guard.safe_mode());
}

TEST(SensorGuard, BlackoutTripsSafeModeAndRecovers)
{
    fault::FaultPlan plan;
    fault::FaultEvent ev;
    ev.kind = fault::FaultKind::kSensorDrop;
    ev.start = kSecond;
    ev.end = 2 * kSecond;
    ev.target = kInvalidId;
    plan.add(ev);  // staleness_bound stays at the 250 ms default.
    InjectorRig rig(std::move(plan));
    rig.sim->step();  // Prime the sensor bank.
    fault::SensorGuard guard;
    guard.init(2, rig.inj);
    const hw::SensorBank& bank = rig.sim->sensors();

    // Clean epoch: reads cache last-good values.
    const Watts clean = guard.read_chip_instantaneous(bank, 0);
    guard.update_safe_mode(0);
    EXPECT_FALSE(guard.safe_mode());

    // Early blackout: fallback served, age still under the bound.
    const Watts early =
        guard.read_chip_instantaneous(bank, kSecond + kMillisecond);
    EXPECT_EQ(early, clean);  // Last-good, bit for bit.
    guard.update_safe_mode(kSecond + kMillisecond);
    EXPECT_FALSE(guard.safe_mode());

    // Deep blackout: age exceeds the bound -> safe mode.
    guard.read_chip_instantaneous(bank,
                                  kSecond + 300 * kMillisecond);
    guard.update_safe_mode(kSecond + 300 * kMillisecond);
    EXPECT_TRUE(guard.safe_mode());
    EXPECT_GE(rig.inj->stats().safe_mode_entries, 1);

    // Fresh readings return -> safe mode exits, and the time spent
    // safe was accounted.
    guard.read_chip_instantaneous(bank, 2 * kSecond);
    guard.update_safe_mode(2 * kSecond);
    EXPECT_FALSE(guard.safe_mode());
    EXPECT_GT(rig.inj->stats().safe_mode_time, 0);
}

} // namespace
} // namespace ppm
