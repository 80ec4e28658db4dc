/**
 * @file
 * Ablation: what the LBT module's cross-core-type demand knowledge is
 * worth (Section 5.2 discusses the off-line profiling step; its
 * elimination through an online model is the paper's stated future
 * work).  Three PPM variants on the Table 6 sets:
 *
 *   offline  -- per-task speedups from the benchmark profiles
 *               (the paper's configuration),
 *   online   -- speedups learned at runtime from HRM observations,
 *   none     -- a single default speedup for every task.
 */

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "common/table.hh"
#include "harness.hh"
#include "hw/platform.hh"
#include "market/ppm_governor.hh"
#include "sim/simulation.hh"
#include "workload/sets.hh"

namespace {

using namespace ppm;

sim::RunSummary
run_variant(const workload::WorkloadSet& set, const char* variant,
            std::uint64_t seed)
{
    market::PpmGovernorConfig cfg;
    if (std::string(variant) == "offline") {
        cfg.big_speedup = workload::big_speedups(set);
    } else if (std::string(variant) == "online") {
        cfg.online_speedup = true;
    }  // "none": defaults only.
    sim::SimConfig sim_cfg;
    sim_cfg.duration = 300 * kSecond;
    sim::Simulation sim(hw::tc2_chip(), workload::instantiate(set, seed),
                        std::make_unique<market::PpmGovernor>(cfg),
                        sim_cfg);
    return sim.run();
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace ppm;
    std::printf("Ablation: offline vs online vs no cross-core-type "
                "profiling\n(PPM, 300 s, no TDP, averaged over 2 "
                "seeds)\n\n");
    const std::vector<const char*> set_names{"l2", "m2", "h2"};
    const std::vector<const char*> variants{"offline", "online", "none"};
    const std::vector<std::uint64_t> seeds{42ull, 142ull};

    // One cell per (set, variant, seed), enumerated seed-innermost so
    // the seed pairs sit adjacent for the per-variant reduction.
    std::vector<std::function<sim::RunSummary()>> cells;
    for (const char* name : set_names) {
        const auto& set = workload::workload_set(name);
        for (const char* variant : variants) {
            for (std::uint64_t seed : seeds) {
                cells.push_back([&set, variant, seed]() {
                    return run_variant(set, variant, seed);
                });
            }
        }
    }
    const auto results =
        bench::run_cells<sim::RunSummary>(cells,
                                          bench::jobs_arg(argc, argv));

    Table table({"Workload", "offline miss", "online miss", "none miss",
                 "offline W", "online W", "none W"});
    std::size_t i = 0;
    for (const char* name : set_names) {
        std::vector<std::string> misses;
        std::vector<std::string> powers;
        for (std::size_t v = 0; v < variants.size(); ++v) {
            std::vector<sim::RunSummary> per_seed;
            for (std::size_t s = 0; s < seeds.size(); ++s)
                per_seed.push_back(results[i++]);
            const sim::RunSummary avg = bench::aggregate_summaries(per_seed);
            misses.push_back(fmt_percent(avg.any_below_miss));
            powers.push_back(fmt_double(avg.avg_power, 2));
        }
        table.add_row({name, misses[0], misses[1], misses[2], powers[0],
                       powers[1], powers[2]});
    }
    table.print(std::cout);
    std::printf("\nexpected shape: offline and online comparable; "
                "'none' mis-speculates\ncross-cluster demands and "
                "loses QoS or power on heterogeneous sets.\n");
    return 0;
}
