/**
 * @file
 * Fleet federation tests: the supervisor market's settlement algebra,
 * the 1-chip fleet's bit-exact equivalence to a plain Simulation
 * (including the committed golden fixture), byte-determinism across
 * shard-pool worker counts, budget reallocation toward loaded chips,
 * cross-chip floating-task placement, and the run_until()/finish()
 * slicing and mid-run admission primitives the fleet engine rests on.
 */

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault.hh"
#include "fleet/fleet.hh"
#include "hw/platform.hh"
#include "market/ppm_governor.hh"
#include "metrics/telemetry.hh"
#include "sim/simulation.hh"
#include "tests/test_util.hh"

#ifndef PPM_GOLDEN_DIR
#define PPM_GOLDEN_DIR "tests/golden"
#endif

namespace ppm {
namespace {

std::string
fmt_exact(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** The exact PPM configuration of the golden hot-path fixture. */
market::PpmGovernorConfig
golden_ppm_config()
{
    market::PpmGovernorConfig cfg;
    cfg.market.w_tdp = 3.5;
    cfg.market.w_th = 2.9;
    return cfg;
}

/** The golden fixture's workload (see test_golden_equivalence.cc). */
std::vector<workload::TaskSpec>
golden_specs()
{
    return {
        test::steady_spec("encode", 2, 420.0, 1.7, 25.0),
        test::steady_spec("decode", 1, 250.0, 1.5, 20.0),
        test::steady_spec("background", 1, 120.0, 1.6, 10.0, 0.5),
    };
}

/** The golden fixture's SimConfig (lifetimes included). */
sim::SimConfig
golden_sim_config()
{
    sim::SimConfig cfg;
    cfg.duration = 6 * kSecond;
    cfg.warmup = kSecond;
    cfg.trace = true;
    cfg.trace_period = 500 * kMillisecond;
    cfg.tdp_for_metrics = 3.5;
    cfg.lifetimes.resize(3);
    cfg.lifetimes[1].arrival = 800 * kMillisecond;
    cfg.lifetimes[2].departure = 2 * kSecond;
    return cfg;
}

// ----------------------------------------------------------------
// SupervisorMarket units.

TEST(SupervisorMarket, ConservesCappedBudget)
{
    fleet::SupervisorConfig cfg;
    cfg.total_budget = 14.0;
    fleet::SupervisorMarket m(cfg, 4);
    EXPECT_DOUBLE_EQ(m.initial_budget(), 3.5);

    const std::vector<fleet::ChipSignal> signals = {
        {3.3, 120.0}, {1.2, 0.0}, {5.0, 400.0}, {0.4, 10.0}};
    ASSERT_TRUE(m.settle(signals));
    double sum = 0.0;
    for (const Watts b : m.budgets()) {
        EXPECT_GE(b, cfg.floor_w);
        sum += b;
    }
    EXPECT_NEAR(sum, 14.0, 1e-9 * 14.0);
    for (const double p : m.prices())
        EXPECT_GT(p, 0.0);
    EXPECT_GT(m.lambda(), 0.0);
    EXPECT_EQ(m.epochs(), 1);
}

TEST(SupervisorMarket, SingleChipGetsTheBudgetVerbatim)
{
    fleet::SupervisorConfig cfg;
    cfg.total_budget = 3.5;
    fleet::SupervisorMarket m(cfg, 1);
    EXPECT_EQ(m.initial_budget(), 3.5);
    ASSERT_TRUE(m.settle({{10.0, 500.0}}));
    // Bitwise: no floor/remainder arithmetic may rewrite the budget.
    EXPECT_EQ(m.budgets()[0], 3.5);
}

TEST(SupervisorMarket, UncappedNeverMovesBudgets)
{
    fleet::SupervisorConfig cfg;  // Default budget: uncapped sentinel.
    fleet::SupervisorMarket m(cfg, 3);
    const std::vector<Watts> before = m.budgets();
    EXPECT_FALSE(m.settle({{4.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}}));
    EXPECT_EQ(m.budgets(), before);
    EXPECT_EQ(m.lambda(), 0.0);
    // Prices degenerate to raw wants: placement spreads by load.
    EXPECT_EQ(m.cheapest_chip(), 1);
}

TEST(SupervisorMarket, EvenSplitWhenFloorsExceedBudget)
{
    fleet::SupervisorConfig cfg;
    cfg.total_budget = 3.0;
    cfg.floor_w = 1.0;  // 4 floors > 3 W budget.
    fleet::SupervisorMarket m(cfg, 4);
    ASSERT_TRUE(m.settle(std::vector<fleet::ChipSignal>(4)));
    for (const Watts b : m.budgets())
        EXPECT_DOUBLE_EQ(b, 0.75);
}

TEST(SupervisorMarket, CheapestChipTieBreaksToLowestId)
{
    fleet::SupervisorConfig cfg;
    cfg.total_budget = 9.0;
    fleet::SupervisorMarket m(cfg, 3);
    EXPECT_EQ(m.cheapest_chip(), -1);  // Before the first settle.
    ASSERT_TRUE(m.settle(std::vector<fleet::ChipSignal>(
        3, fleet::ChipSignal{2.0, 50.0})));
    EXPECT_EQ(m.cheapest_chip(), 0);
}

// ----------------------------------------------------------------
// Fleet engine.

/** A fleet wrapping the golden scenario on `chips` chips. */
fleet::FleetConfig
golden_fleet_config(int chips, int jobs)
{
    fleet::FleetConfig fc;
    fc.chips = chips;
    fc.epoch = 96 * kMillisecond;
    fc.supervisor.total_budget = 3.5 * chips;
    fc.sim = golden_sim_config();
    fc.jobs = jobs;
    fc.make_chip = [](int) { return hw::tc2_chip(); };
    fc.make_governor =
        [](int, Watts) -> std::unique_ptr<sim::Governor> {
        return std::make_unique<market::PpmGovernor>(
            golden_ppm_config());
    };
    for (int c = 0; c < chips; ++c) {
        fleet::ChipWorkload wl;
        wl.specs = golden_specs();
        wl.lifetimes = golden_sim_config().lifetimes;
        fc.workloads.push_back(std::move(wl));
    }
    return fc;
}

TEST(Fleet, OneChipFleetMatchesPlainSimulationByteForByte)
{
    // Plain run with both streaming sinks.
    std::ostringstream plain_csv_os, plain_jsonl_os;
    metrics::CsvStreamSink plain_csv(plain_csv_os);
    metrics::JsonlSink plain_jsonl(plain_jsonl_os);
    sim::Simulation plain(hw::tc2_chip(), golden_specs(),
                          std::make_unique<market::PpmGovernor>(
                              golden_ppm_config()),
                          golden_sim_config());
    plain.bus().add_sink(&plain_csv);
    plain.bus().add_sink(&plain_jsonl);
    const sim::RunSummary plain_summary = plain.run();

    // Same scenario through a 1-chip fleet.
    std::ostringstream fleet_csv_os, fleet_jsonl_os;
    metrics::CsvStreamSink fleet_csv(fleet_csv_os);
    metrics::JsonlSink fleet_jsonl(fleet_jsonl_os);
    fleet::Fleet fleet(golden_fleet_config(1, 1));
    fleet.shard(0).bus().add_sink(&fleet_csv);
    fleet.shard(0).bus().add_sink(&fleet_jsonl);
    const fleet::FleetResult res = fleet.run();

    EXPECT_EQ(sim::summary_fingerprint(res.combined),
              sim::summary_fingerprint(plain_summary));
    EXPECT_EQ(fleet_jsonl_os.str(), plain_jsonl_os.str());
    EXPECT_EQ(fleet_csv_os.str(), plain_csv_os.str());
    EXPECT_FALSE(plain.recorder().names().empty());
    EXPECT_EQ(metrics::first_difference(fleet.shard(0).recorder(),
                                        plain.recorder()),
              "");
    // The settlement never rewrote the lone chip's budget.
    EXPECT_EQ(res.final_budgets.size(), 1u);
    EXPECT_EQ(res.final_budgets[0], 3.5);
    EXPECT_GT(res.supervisor_epochs, 0);
}

/**
 * The acceptance criterion verbatim: a 1-chip fleet must reproduce
 * the committed golden fixture bit-exactly.  Rebuilds the golden
 * file's exact output string (test_golden_equivalence.cc) from a
 * fleet-driven run and compares it to the bytes on disk.
 */
TEST(Fleet, OneChipFleetReproducesGoldenFixture)
{
    std::ostringstream csv_stream, jsonl_stream;
    metrics::CsvStreamSink csv_sink(csv_stream);
    metrics::JsonlSink jsonl_sink(jsonl_stream);
    fleet::Fleet fleet(golden_fleet_config(1, 1));
    fleet.shard(0).bus().add_sink(&csv_sink);
    fleet.shard(0).bus().add_sink(&jsonl_sink);
    const sim::RunSummary s = fleet.run().combined;
    std::ostringstream wide_csv;
    fleet.shard(0).recorder().write_csv(wide_csv);

    std::ostringstream out;
    out << "governor " << s.governor << '\n'
        << "any_below_miss " << fmt_exact(s.any_below_miss) << '\n'
        << "any_outside_miss " << fmt_exact(s.any_outside_miss) << '\n'
        << "avg_power " << fmt_exact(s.avg_power) << '\n'
        << "avg_power_post_warmup "
        << fmt_exact(s.avg_power_post_warmup) << '\n'
        << "energy " << fmt_exact(s.energy) << '\n'
        << "migrations " << s.migrations << '\n'
        << "vf_transitions " << s.vf_transitions << '\n'
        << "over_tdp_fraction " << fmt_exact(s.over_tdp_fraction) << '\n'
        << "over_tdp_post_warmup "
        << fmt_exact(s.over_tdp_post_warmup) << '\n'
        << "peak_temp_c " << fmt_exact(s.peak_temp_c) << '\n'
        << "thermal_cycles " << s.thermal_cycles << '\n';
    for (std::size_t t = 0; t < s.task_below.size(); ++t) {
        out << "task" << t << "_below " << fmt_exact(s.task_below[t])
            << '\n'
            << "task" << t << "_outside "
            << fmt_exact(s.task_outside[t]) << '\n';
    }
    const auto stream_block = [&out](const char* name,
                                     const std::string& bytes) {
        char fp[32];
        std::snprintf(fp, sizeof(fp), "%016" PRIx64, test::fnv1a(bytes));
        out << name << "_bytes " << bytes.size() << '\n'
            << name << "_fnv1a64 " << fp << '\n';
        std::istringstream is(bytes);
        std::string line;
        for (int i = 0; i < 4 && std::getline(is, line); ++i)
            out << name << "_head " << line << '\n';
    };
    stream_block("wide_csv", wide_csv.str());
    stream_block("stream_csv", csv_stream.str());
    stream_block("jsonl", jsonl_stream.str());

    const std::string path =
        std::string(PPM_GOLDEN_DIR) + "/hotpath_PPM.txt";
    std::ifstream f(path, std::ios::binary);
    ASSERT_TRUE(f.good()) << "missing golden file " << path;
    std::stringstream golden;
    golden << f.rdbuf();
    EXPECT_EQ(golden.str(), out.str())
        << "a 1-chip fleet diverged from the committed golden fixture";
}

/** One federated run's observable bytes. */
struct FleetBytes {
    std::string summary;
    std::string fleet_jsonl;
    std::string chip0_jsonl;
    std::vector<Watts> final_budgets;
    long epochs = 0;
};

FleetBytes
run_golden_fleet(int chips, int jobs)
{
    std::ostringstream fleet_os, chip_os;
    metrics::JsonlSink fleet_sink(fleet_os), chip_sink(chip_os);
    fleet::Fleet fleet(golden_fleet_config(chips, jobs));
    fleet.bus().add_sink(&fleet_sink);
    fleet.shard(0).bus().add_sink(&chip_sink);
    const fleet::FleetResult res = fleet.run();
    return {sim::summary_fingerprint(res.combined), fleet_os.str(),
            chip_os.str(), res.final_budgets, res.supervisor_epochs};
}

TEST(Fleet, JobsCountNeverChangesBytes)
{
    const FleetBytes serial = run_golden_fleet(3, 1);
    for (const int jobs : {2, 4}) {
        const FleetBytes pooled = run_golden_fleet(3, jobs);
        EXPECT_EQ(pooled.summary, serial.summary) << "jobs=" << jobs;
        EXPECT_EQ(pooled.fleet_jsonl, serial.fleet_jsonl)
            << "jobs=" << jobs;
        EXPECT_EQ(pooled.chip0_jsonl, serial.chip0_jsonl)
            << "jobs=" << jobs;
        EXPECT_EQ(pooled.final_budgets, serial.final_budgets)
            << "jobs=" << jobs;
        EXPECT_EQ(pooled.epochs, serial.epochs) << "jobs=" << jobs;
    }
}

/** PPM governor with the fleet-share budget for loaded/idle chips. */
std::unique_ptr<sim::Governor>
budgeted_ppm(Watts budget)
{
    market::PpmGovernorConfig cfg;
    cfg.market.w_tdp = budget;
    cfg.market.w_th = market::derive_w_th(budget);
    return std::make_unique<market::PpmGovernor>(cfg);
}

TEST(Fleet, BudgetFlowsTowardTheLoadedChip)
{
    fleet::FleetConfig fc;
    fc.chips = 2;
    fc.epoch = 96 * kMillisecond;
    fc.supervisor.total_budget = 5.0;
    // The tc2 chip draws well under a watt per busy cluster, so the
    // default 1 W floor would clamp both wants and tie the prices;
    // drop it below real chip power to expose the settlement.
    fc.supervisor.floor_w = 0.2;
    fc.sim.duration = 4 * kSecond;
    fc.sim.tdp_for_metrics = 2.5;
    fc.make_chip = [](int) { return hw::tc2_chip(); };
    fc.make_governor = [](int, Watts budget) {
        return budgeted_ppm(budget);
    };
    fleet::ChipWorkload heavy;
    heavy.specs = {test::steady_spec("h0", 2, 700.0, 1.8, 30.0),
                   test::steady_spec("h1", 1, 650.0, 1.7, 30.0),
                   test::steady_spec("h2", 1, 600.0, 1.6, 25.0)};
    fleet::ChipWorkload light;
    light.specs = {test::steady_spec("l0", 1, 40.0, 1.5, 5.0)};
    fc.workloads = {heavy, light};

    fleet::Fleet fleet(std::move(fc));
    const fleet::FleetResult res = fleet.run();
    ASSERT_EQ(res.final_budgets.size(), 2u);
    EXPECT_GT(res.final_budgets[0], res.final_budgets[1])
        << "the loaded chip should out-bid the idle one";
    const double sum = res.final_budgets[0] + res.final_budgets[1];
    EXPECT_NEAR(sum, 5.0, 1e-9 * 5.0);
}

TEST(Fleet, FloatingTasksLandOnTheCheapestChip)
{
    fleet::FleetConfig fc;
    fc.chips = 2;
    fc.epoch = 96 * kMillisecond;
    fc.supervisor.total_budget = 5.0;
    fc.supervisor.floor_w = 0.2;  // Below real tc2 power; see above.
    fc.sim.duration = 4 * kSecond;
    fc.sim.tdp_for_metrics = 2.5;
    fc.make_chip = [](int) { return hw::tc2_chip(); };
    fc.make_governor = [](int, Watts budget) {
        return budgeted_ppm(budget);
    };
    fleet::ChipWorkload heavy;
    heavy.specs = {test::steady_spec("h0", 2, 700.0, 1.8, 30.0),
                   test::steady_spec("h1", 1, 650.0, 1.7, 30.0),
                   test::steady_spec("h2", 1, 600.0, 1.6, 25.0)};
    fleet::ChipWorkload light;
    light.specs = {test::steady_spec("l0", 1, 40.0, 1.5, 5.0)};
    fc.workloads = {heavy, light};

    fleet::FloatingTask mid;
    mid.spec = test::steady_spec("float0", 1, 100.0, 1.6, 10.0);
    mid.big_speedup = 1.6;
    mid.arrival = kSecond;
    fleet::FloatingTask late;
    late.spec = test::steady_spec("float1", 1, 100.0, 1.6, 10.0);
    late.arrival = 100 * kSecond;  // Past the run: never admitted.
    fc.floating = {mid, late};

    fleet::Fleet fleet(std::move(fc));
    const fleet::FleetResult res = fleet.run();
    EXPECT_EQ(res.admitted, 1);
    ASSERT_EQ(res.placements.size(), 2u);
    EXPECT_EQ(res.placements[0], 1)
        << "the idle chip is cheaper and must win the placement";
    EXPECT_EQ(res.placements[1], -1);
    // The floating task's QoS rides the landing chip's summary.
    EXPECT_EQ(res.per_chip[1].task_below.size(), 2u);
    EXPECT_EQ(res.per_chip[0].task_below.size(), 3u);
}

TEST(Fleet, FloatingTaskWaitsWhileEveryChipIsInEmergency)
{
    // Floating tasks pass the same admission check as evacuations: a
    // 0.4 W fleet cannot clear two heavy tasks on either chip, so
    // both markets sit in emergency, and the cheapest chip turns the
    // task away at every barrier from its arrival to the run end.
    fleet::FleetConfig fc;
    fc.chips = 2;
    fc.epoch = 96 * kMillisecond;
    fc.supervisor.total_budget = 0.4;
    fc.supervisor.floor_w = 0.1;
    fc.sim.duration = 3 * kSecond;
    fc.sim.tdp_for_metrics = 0.2;
    fc.make_chip = [](int) { return hw::tc2_chip(); };
    fc.make_governor = [](int, Watts budget) {
        return budgeted_ppm(budget);
    };
    fleet::ChipWorkload heavy;
    heavy.specs = {test::steady_spec("h0", 2, 700.0, 1.8, 30.0),
                   test::steady_spec("h1", 1, 650.0, 1.7, 30.0)};
    fc.workloads = {heavy, heavy};

    fleet::FloatingTask task;
    task.spec = test::steady_spec("float0", 1, 100.0, 1.6, 10.0);
    task.arrival = kSecond;
    fc.floating = {task};

    fleet::Fleet fleet(std::move(fc));
    const fleet::FleetResult res = fleet.run();
    EXPECT_EQ(res.admitted, 0);
    EXPECT_GT(res.rejections, 0);
    ASSERT_EQ(res.placements.size(), 1u);
    EXPECT_EQ(res.placements[0], -1);
    EXPECT_EQ(res.per_chip[0].task_below.size(), 2u);
    EXPECT_EQ(res.per_chip[1].task_below.size(), 2u);
}

// ----------------------------------------------------------------
// The simulation primitives the fleet engine rests on.

TEST(Simulation, RunUntilSlicesMatchOneShotRun)
{
    const auto build = [](std::ostringstream& os,
                          metrics::JsonlSink& sink) {
        auto sim = std::make_unique<sim::Simulation>(
            hw::tc2_chip(), golden_specs(),
            std::make_unique<market::PpmGovernor>(golden_ppm_config()),
            golden_sim_config());
        sim->bus().add_sink(&sink);
        (void)os;
        return sim;
    };
    std::ostringstream os_a, os_b;
    metrics::JsonlSink sink_a(os_a), sink_b(os_b);
    auto one_shot = build(os_a, sink_a);
    const sim::RunSummary a = one_shot->run();

    auto sliced = build(os_b, sink_b);
    // Arbitrary uneven tick-aligned slices, incl. a zero-length one.
    sliced->run_until(700 * kMillisecond);
    sliced->run_until(700 * kMillisecond);
    sliced->run_until(1900 * kMillisecond);
    sliced->run_until(6 * kSecond);
    const sim::RunSummary b = sliced->finish();

    EXPECT_EQ(sim::summary_fingerprint(a), sim::summary_fingerprint(b));
    EXPECT_EQ(os_a.str(), os_b.str());
}

TEST(Simulation, AdmitTaskMidRunJoinsTheEconomy)
{
    sim::SimConfig cfg;
    cfg.duration = 4 * kSecond;
    cfg.tdp_for_metrics = 3.5;
    sim::Simulation sim(hw::tc2_chip(),
                        {test::steady_spec("base", 1, 200.0, 1.6, 20.0)},
                        std::make_unique<market::PpmGovernor>(
                            golden_ppm_config()),
                        cfg);
    sim.run_until(2 * kSecond);
    const TaskId id = sim.admit_task(
        test::steady_spec("joiner", 2, 150.0, 1.8, 15.0),
        {2 * kSecond, sim::SimConfig::Lifetime::kForever}, 1.8);
    EXPECT_EQ(id, 1);
    sim.run_until(4 * kSecond);
    const sim::RunSummary s = sim.finish();
    ASSERT_EQ(s.task_below.size(), 2u);
    ASSERT_EQ(s.task_outside.size(), 2u);
    // The joiner lived half the run and was actually served.
    EXPECT_LT(s.task_outside[1], 1.0);
}

// ----------------------------------------------------------------
// Chip failure, evacuation and recovery.

/** The golden fleet with a hand-built chip-fault schedule. */
fleet::FleetConfig
faulted_fleet_config(int chips,
                     const std::vector<fault::FleetFaultEvent>& events)
{
    fleet::FleetConfig fc = golden_fleet_config(chips, 1);
    for (const fault::FleetFaultEvent& ev : events)
        fc.fleet_faults.add(ev);
    return fc;
}

/** A fail event on the epoch grid. */
fault::FleetFaultEvent
fail_at(SimTime t, int chip)
{
    fault::FleetFaultEvent ev;
    ev.kind = fault::FleetFaultKind::kChipFail;
    ev.time = t;
    ev.chip = chip;
    return ev;
}

fault::FleetFaultEvent
recover_at(SimTime t, int chip)
{
    fault::FleetFaultEvent ev;
    ev.kind = fault::FleetFaultKind::kChipRecover;
    ev.time = t;
    ev.chip = chip;
    return ev;
}

TEST(FleetFaults, EmptyPlanLeavesTheRunByteIdentical)
{
    // Every barrier runs the one health-aware path, so an empty plan
    // must leave it inert: no chip leaves health, the masked
    // settlement runs the unmasked arithmetic and no health series is
    // sampled.  The bytes are pinned from the fault-free run of
    // golden_fleet_config(3, 1), so they also lock the 3-chip
    // combine of the per-chip summaries.
    std::ostringstream fleet_os, chip_os;
    metrics::JsonlSink fleet_sink(fleet_os), chip_sink(chip_os);
    fleet::Fleet fleet(
        faulted_fleet_config(3, {}));  // Explicitly empty plan.
    fleet.bus().add_sink(&fleet_sink);
    fleet.shard(0).bus().add_sink(&chip_sink);
    const fleet::FleetResult res = fleet.run();

    EXPECT_EQ(test::fnv1a(sim::summary_fingerprint(res.combined)),
              0x4a8f1aff5b50e800ULL);
    ASSERT_EQ(res.per_chip.size(), 3u);
    for (const sim::RunSummary& chip : res.per_chip)
        EXPECT_EQ(test::fnv1a(sim::summary_fingerprint(chip)),
                  0xa48e7e6895c5b2aaULL);
    EXPECT_EQ(fleet_os.str().size(), 66675u);
    EXPECT_EQ(test::fnv1a(fleet_os.str()), 0x1539a8ce9094be06ULL);
    EXPECT_EQ(chip_os.str().size(), 179960u);
    EXPECT_EQ(test::fnv1a(chip_os.str()), 0x02bf539ef8410910ULL);
    EXPECT_EQ(res.supervisor_epochs, 63);
    EXPECT_EQ(res.final_budgets, std::vector<Watts>(3, 3.5));
    EXPECT_EQ(res.chip_failures, 0);
    EXPECT_EQ(res.evacuations, 0);
    EXPECT_FALSE(res.all_chips_failed);
}

TEST(FleetFaults, FailureEvacuatesAndConservesTasks)
{
    fleet::Fleet fleet(faulted_fleet_config(
        3, {fail_at(2016 * kMillisecond, 1)}));
    const fleet::FleetResult res = fleet.run();

    EXPECT_EQ(res.chip_failures, 1);
    EXPECT_EQ(res.chip_recoveries, 0);
    // At 2016 ms the golden workload has two live tasks on chip 1
    // (task 2 departed at 2 s); both must be pulled off, and
    // conservation must hold exactly.
    EXPECT_EQ(res.evacuations, 2);
    EXPECT_EQ(res.evacuations, res.evac_landed + res.evac_pending_end);
    EXPECT_EQ(res.evac_landed, 2) << "two healthy chips had room";
    ASSERT_EQ(res.final_health.size(), 3u);
    EXPECT_EQ(res.final_health[1], 2);
    EXPECT_EQ(res.final_health[0], 0);
    EXPECT_EQ(res.final_health[2], 0);
    // The dead chip is out of the settlement: survivors carry the
    // whole fleet budget.
    ASSERT_EQ(res.final_budgets.size(), 3u);
    EXPECT_NEAR(res.final_budgets[0] + res.final_budgets[2], 10.5,
                1e-9 * 10.5);
    EXPECT_FALSE(res.all_chips_failed);
}

TEST(FleetFaults, LastSurvivorGetsTheFleetBudgetVerbatim)
{
    // Kill chips 1 and 2; chip 0 is the last survivor, and the
    // 1-chip settlement path must hand it the total bitwise -- no
    // floor/remainder arithmetic may rewrite it.
    fleet::Fleet fleet(faulted_fleet_config(
        3, {fail_at(960 * kMillisecond, 1),
            fail_at(1920 * kMillisecond, 2)}));
    const fleet::FleetResult res = fleet.run();

    EXPECT_EQ(res.chip_failures, 2);
    ASSERT_EQ(res.final_budgets.size(), 3u);
    EXPECT_EQ(res.final_budgets[0], 10.5);
    EXPECT_FALSE(res.all_chips_failed);
    EXPECT_EQ(res.evacuations, res.evac_landed + res.evac_pending_end);
}

TEST(FleetFaults, AllChipsFailedEndsCleanlyAndLoudly)
{
    fleet::Fleet fleet(faulted_fleet_config(
        2, {fail_at(960 * kMillisecond, 0),
            fail_at(960 * kMillisecond, 1)}));
    const fleet::FleetResult res = fleet.run();

    EXPECT_TRUE(res.all_chips_failed);
    EXPECT_EQ(res.chip_failures, 2);
    // Nowhere to land: every evacuated task stays queued to the end.
    EXPECT_GT(res.evacuations, 0);
    EXPECT_EQ(res.evac_landed, 0);
    EXPECT_EQ(res.evac_pending_end, res.evacuations);
    ASSERT_EQ(res.final_health.size(), 2u);
    EXPECT_EQ(res.final_health[0], 2);
    EXPECT_EQ(res.final_health[1], 2);
}

TEST(FleetFaults, RecoveryLandsOnTheBarrierAndDrainsTheQueue)
{
    // 2-chip fleet: chip 1 dies, then recovers; after recovery the
    // pending queue drains and the chip rejoins the settlement.
    fleet::Fleet fleet(faulted_fleet_config(
        2, {fail_at(960 * kMillisecond, 1),
            recover_at(2976 * kMillisecond, 1)}));
    const fleet::FleetResult res = fleet.run();

    EXPECT_EQ(res.chip_failures, 1);
    EXPECT_EQ(res.chip_recoveries, 1);
    EXPECT_EQ(res.evacuations, res.evac_landed + res.evac_pending_end);
    ASSERT_EQ(res.final_health.size(), 2u);
    EXPECT_EQ(res.final_health[1], 0) << "recovered to healthy";
    // Back in the settlement: both chips hold budget at the end.
    ASSERT_EQ(res.final_budgets.size(), 2u);
    EXPECT_GT(res.final_budgets[1], 0.0);
    EXPECT_NEAR(res.final_budgets[0] + res.final_budgets[1], 7.0,
                1e-9 * 7.0);
}

TEST(FleetFaults, CompiledPlanIsDeterministicAndOnTheGrid)
{
    fault::FaultSpec spec;
    spec.seed = 7;
    spec.chip_fail = true;
    spec.chip_degrade = true;
    spec.chip_recover = true;
    spec.chip_rate_per_min = 30.0;
    const SimTime duration = 6 * kSecond;
    const SimTime epoch = 96 * kMillisecond;
    const fault::FleetFaultPlan a =
        fault::FleetFaultPlan::compile(spec, 4, duration, epoch);
    const fault::FleetFaultPlan b =
        fault::FleetFaultPlan::compile(spec, 4, duration, epoch);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.events().size(), b.events().size());
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        const fault::FleetFaultEvent& ea = a.events()[i];
        const fault::FleetFaultEvent& eb = b.events()[i];
        EXPECT_EQ(ea.kind, eb.kind);
        EXPECT_EQ(ea.time, eb.time);
        EXPECT_EQ(ea.chip, eb.chip);
        EXPECT_EQ(ea.factor, eb.factor);
        // Transitions land on settlement barriers only.
        EXPECT_EQ(ea.time % epoch, 0) << "event " << i;
        EXPECT_GE(ea.chip, 0);
        EXPECT_LT(ea.chip, 4);
        EXPECT_LE(ea.time, duration);
    }
}

} // namespace
} // namespace ppm
