/**
 * @file
 * Thermal-budget sweep: the same medium workload run under
 * progressively tighter TDP caps (the "battery saver" knob), showing
 * how the price-theory manager trades quality of service for power.
 *
 * At 8 W (the chip's real TDP) everything fits; as the cap tightens
 * the chip agent's allowance control pushes the system into the
 * threshold band near each cap, QoS degrades gracefully, and the
 * measured power tracks the cap from below.
 *
 * Usage: thermal_budget [set-name]
 */

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "common/table.hh"
#include "hw/platform.hh"
#include "market/ppm_governor.hh"
#include "sim/simulation.hh"
#include "workload/sets.hh"

int
main(int argc, char** argv)
{
    using namespace ppm;
    const std::string set_name = argc > 1 ? argv[1] : "m2";
    const auto& set = workload::workload_set(set_name);

    std::printf("thermal budget sweep on workload %s (120 s per point)"
                "\n\n", set.name.c_str());
    Table table({"budget [W]", "QoS miss", "avg power [W]",
                 "time > budget", "V-F transitions"});
    for (double budget : {8.0, 6.0, 5.0, 4.0, 3.0, 2.5}) {
        market::PpmGovernorConfig cfg;
        cfg.market.w_tdp = budget;
        cfg.market.w_th = budget - 0.6;
        cfg.big_speedup = workload::big_speedups(set);
        sim::SimConfig sim_cfg;
        sim_cfg.duration = 120 * kSecond;
        sim_cfg.tdp_for_metrics = budget;
        sim::Simulation sim(
            hw::tc2_chip(), workload::instantiate(set, 42),
            std::make_unique<market::PpmGovernor>(cfg), sim_cfg);
        const sim::RunSummary s = sim.run();
        table.add_row({fmt_double(budget, 1),
                       fmt_percent(s.any_below_miss),
                       fmt_double(s.avg_power, 2),
                       fmt_percent(s.over_tdp_fraction),
                       std::to_string(s.vf_transitions)});
    }
    table.print(std::cout);
    return 0;
}
