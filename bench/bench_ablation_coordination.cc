/**
 * @file
 * Ablation: the value of coordinating the three knobs (the paper's
 * central design argument, Section 1: "employing multiple
 * energy-saving features requires a coordinated approach").
 *
 * Four PPM variants on a light, a medium and a heavy workload set:
 *   full      -- DVFS + load balancing + migration (the framework),
 *   no-lbt    -- DVFS only; tasks stay on their initial cores,
 *   no-dvfs   -- LBT only; every cluster pinned at maximum frequency,
 *   neither   -- static placement at maximum frequency.
 */

#include <cstdio>
#include <iostream>
#include <memory>

#include "common/table.hh"
#include "harness.hh"
#include "hw/platform.hh"
#include "market/ppm_governor.hh"
#include "sim/simulation.hh"
#include "workload/sets.hh"

namespace {

using namespace ppm;

sim::RunSummary
run_variant(const workload::WorkloadSet& set, bool lbt, bool dvfs)
{
    market::PpmGovernorConfig cfg;
    cfg.enable_lbt = lbt;
    cfg.market.dvfs_enabled = dvfs;
    cfg.big_speedup = workload::big_speedups(set);
    sim::SimConfig sim_cfg;
    sim_cfg.duration = 300 * kSecond;
    sim::Simulation sim(hw::tc2_chip(), workload::instantiate(set, 42),
                        std::make_unique<market::PpmGovernor>(cfg),
                        sim_cfg);
    return sim.run();
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace ppm;
    std::printf("Ablation: knob coordination (PPM variants, 300 s, "
                "no TDP, seed 42)\n\n");
    struct Variant {
        const char* name;
        bool lbt;
        bool dvfs;
    };
    const std::vector<Variant> variants{{"full", true, true},
                                        {"no-lbt", false, true},
                                        {"no-dvfs", true, false},
                                        {"neither", false, false}};
    const std::vector<const char*> set_names{"l1", "m2", "h2"};

    std::vector<std::function<sim::RunSummary()>> cells;
    for (const char* name : set_names) {
        const auto& set = workload::workload_set(name);
        for (const Variant& v : variants) {
            cells.push_back(
                [&set, v]() { return run_variant(set, v.lbt, v.dvfs); });
        }
    }
    const auto results =
        bench::run_cells<sim::RunSummary>(cells,
                                          bench::jobs_arg(argc, argv));

    Table table({"Workload", "variant", "QoS miss", "avg power [W]",
                 "migrations"});
    std::size_t i = 0;
    for (const char* name : set_names) {
        for (const Variant& v : variants) {
            const sim::RunSummary& s = results[i++];
            table.add_row({name, v.name, fmt_percent(s.any_below_miss),
                           fmt_double(s.avg_power, 2),
                           std::to_string(s.migrations)});
        }
    }
    table.print(std::cout);
    std::printf("\nexpected shape: no-lbt starves whoever shares a "
                "core with a heavy task;\nno-dvfs meets QoS by burning "
                "maximum-frequency power; only the full,\ncoordinated "
                "framework gets both.\n");
    return 0;
}
