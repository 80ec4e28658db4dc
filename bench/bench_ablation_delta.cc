/**
 * @file
 * Ablation: the tolerance factor delta (Section 3.2.2).
 *
 * The paper argues that small delta makes cluster agents react faster
 * but causes frequent V-F transitions (thermal cycling), while large
 * delta is sluggish.  This bench sweeps delta on a medium workload
 * and reports QoS, power and the number of V-F transitions.
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

int
main(int argc, char** argv)
{
    using namespace ppm;
    std::printf("Ablation: tolerance factor delta "
                "(workload m2, 300 s, no TDP)\n\n");

    const auto& set = workload::workload_set("m2");
    struct Cell {
        bool rounding;
        double delta;
    };
    std::vector<Cell> grid;
    for (bool rounding : {false, true}) {
        for (double delta : {0.05, 0.1, 0.2, 0.4, 0.8})
            grid.push_back({rounding, delta});
    }
    std::vector<std::function<sim::RunSummary()>> cells;
    for (const Cell& cell : grid) {
        cells.push_back([&set, cell]() {
            market::PpmGovernorConfig cfg;
            cfg.market.tolerance = cell.delta;
            cfg.market.demand_rounding = cell.rounding;
            cfg.big_speedup = workload::big_speedups(set);
            sim::SimConfig sim_cfg;
            sim_cfg.duration = 300 * kSecond;
            sim::Simulation sim(
                hw::tc2_chip(), workload::instantiate(set, 42),
                std::make_unique<market::PpmGovernor>(cfg), sim_cfg);
            return sim.run();
        });
    }
    const auto results =
        bench::run_cells<sim::RunSummary>(cells,
                                          bench::jobs_arg(argc, argv));

    Table table({"delta", "rounding", "QoS miss", "avg power [W]",
                 "V-F transitions", "migrations"});
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const sim::RunSummary& s = results[i];
        table.add_row({fmt_double(grid[i].delta, 2),
                       grid[i].rounding ? "on" : "off",
                       fmt_percent(s.any_below_miss),
                       fmt_double(s.avg_power, 2),
                       std::to_string(s.vf_transitions),
                       std::to_string(s.migrations)});
    }
    table.print(std::cout);
    std::printf("\nexpected shape (rounding off, the paper's raw "
                "dynamics): smaller delta ->\nmore V-F transitions "
                "(thermal cycling), larger delta -> sluggish.  With\n"
                "demand rounding on, the limit cycle is damped and "
                "delta matters less.\n");
    return 0;
}
