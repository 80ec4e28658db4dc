/**
 * @file
 * Ablation: the TDP buffer zone width W_tdp - W_th (Section 3.2.3).
 *
 * The paper: a large buffer reduces oscillation around the TDP and
 * reaches stability quickly but under-utilizes the chip; a small
 * buffer utilizes the chip better at the price of oscillation.  This
 * bench sweeps the buffer width on a heavy workload under a 4 W TDP
 * and reports QoS, power, time above the TDP, and V-F transitions.
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
    constexpr Watts kTdp = 4.0;
    std::printf("Ablation: TDP buffer width Wtdp - Wth "
                "(workload h2, 300 s, TDP 4 W)\n\n");

    const auto& set = workload::workload_set("h2");
    const std::vector<double> buffers{0.2, 0.5, 1.0, 1.5, 2.0};
    std::vector<std::function<sim::RunSummary()>> cells;
    for (double buffer : buffers) {
        cells.push_back([&set, buffer]() {
            market::PpmGovernorConfig cfg;
            cfg.market.w_tdp = kTdp;
            cfg.market.w_th = kTdp - buffer;
            cfg.big_speedup = workload::big_speedups(set);
            sim::SimConfig sim_cfg;
            sim_cfg.duration = 300 * kSecond;
            sim_cfg.tdp_for_metrics = kTdp;
            sim::Simulation sim(
                hw::tc2_chip(), workload::instantiate(set, 42),
                std::make_unique<market::PpmGovernor>(cfg), sim_cfg);
            return sim.run();
        });
    }
    const auto results =
        bench::run_cells<sim::RunSummary>(cells,
                                          bench::jobs_arg(argc, argv));

    Table table({"buffer [W]", "QoS miss", "avg power [W]",
                 "time > TDP", "V-F transitions"});
    for (std::size_t i = 0; i < buffers.size(); ++i) {
        const sim::RunSummary& s = results[i];
        table.add_row({fmt_double(buffers[i], 1),
                       fmt_percent(s.any_below_miss),
                       fmt_double(s.avg_power, 2),
                       fmt_percent(s.over_tdp_fraction),
                       std::to_string(s.vf_transitions)});
    }
    table.print(std::cout);
    std::printf("\nexpected shape: wider buffer -> less oscillation "
                "above the TDP but\nlower utilization (higher QoS "
                "miss); narrower buffer -> the reverse.\n");
    return 0;
}
