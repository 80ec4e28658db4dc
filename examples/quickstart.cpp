/**
 * @file
 * Quickstart: run the price-theory power manager (PPM) on the
 * TC2-like big.LITTLE platform with one of the paper's workload sets
 * and print a run summary.
 *
 * Usage: quickstart [set-name] [seconds]
 *   set-name  one of l1..l3, m1..m3, h1..h3 (default m2)
 *   seconds   simulated duration (default 60)
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "hw/platform.hh"
#include "market/ppm_governor.hh"
#include "sim/simulation.hh"
#include "workload/sets.hh"

int
main(int argc, char** argv)
{
    using namespace ppm;

    const std::string set_name = argc > 1 ? argv[1] : "m2";
    const double seconds = argc > 2 ? std::atof(argv[2]) : 60.0;

    // 1. The platform: 3x Cortex-A7-like + 2x Cortex-A15-like.
    hw::Chip chip = hw::tc2_chip();

    // 2. The workload: one of the paper's Table 6 sets.
    const workload::WorkloadSet& set = workload::workload_set(set_name);
    const auto specs = workload::instantiate(set, /*base_seed=*/42);
    std::printf("workload %s (%s, intensity %.2f): %zu tasks\n",
                set.name.c_str(),
                workload::intensity_class_name(set.expected_class),
                workload::intensity(set, 3000.0), specs.size());

    // 3. The governor: PPM with an 8 W TDP (the platform's real TDP).
    market::PpmGovernorConfig cfg;
    cfg.market.w_tdp = 8.0;
    cfg.market.w_th = 7.0;
    cfg.big_speedup = workload::big_speedups(set);

    // 4. Run.
    sim::SimConfig sim_cfg;
    sim_cfg.duration = static_cast<SimTime>(seconds * kSecond);
    sim::Simulation simulation(
        std::move(chip), specs,
        std::make_unique<market::PpmGovernor>(cfg), sim_cfg);
    const sim::RunSummary summary = simulation.run();

    // 5. Report.
    std::printf("governor        : %s\n", summary.governor.c_str());
    std::printf("QoS miss (any)  : %.1f%% of time below reference range\n",
                100.0 * summary.any_below_miss);
    std::printf("avg chip power  : %.2f W\n", summary.avg_power);
    std::printf("energy          : %.1f J\n", summary.energy);
    std::printf("migrations      : %ld\n", summary.migrations);
    std::printf("V-F transitions : %ld\n", summary.vf_transitions);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        std::printf("  task %-16s prio %d  miss %.1f%%\n",
                    specs[i].name.c_str(), specs[i].priority,
                    100.0 * summary.task_below[i]);
    }
    return 0;
}
