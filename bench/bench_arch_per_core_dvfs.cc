/**
 * @file
 * Architecture what-if (extension bench): per-cluster vs per-core
 * DVFS under PPM.
 *
 * The paper's platform can only scale voltage/frequency per cluster,
 * which forces every core in a cluster to the constrained core's
 * level -- the reason the LBT module's balancing matters so much.
 * This bench reruns PPM on an architecture with the same core types
 * and counts but one core per V-F domain ("per-core DVFS"), isolating
 * how much energy the shared domain costs.
 *
 * Expected shape: equal or better QoS and lower power with per-core
 * DVFS (unconstrained cores stop over-clocking), at the price of more
 * V-F regulators in silicon.
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

/** TC2 core mix with one core per V-F domain. */
hw::Chip
per_core_dvfs_chip()
{
    std::vector<hw::Chip::ClusterSpec> specs;
    for (int i = 0; i < 3; ++i) {
        specs.push_back(hw::Chip::ClusterSpec{hw::little_core_params(),
                                              hw::little_vf_table(), 1});
    }
    for (int i = 0; i < 2; ++i) {
        specs.push_back(hw::Chip::ClusterSpec{hw::big_core_params(),
                                              hw::big_vf_table(), 1});
    }
    return hw::Chip(specs);
}

sim::RunSummary
run_on(hw::Chip chip, const workload::WorkloadSet& set,
       std::uint64_t seed)
{
    market::PpmGovernorConfig cfg;
    cfg.big_speedup = workload::big_speedups(set);
    sim::SimConfig sim_cfg;
    sim_cfg.duration = 300 * kSecond;
    sim::Simulation sim(std::move(chip), workload::instantiate(set, seed),
                        std::make_unique<market::PpmGovernor>(cfg),
                        sim_cfg);
    return sim.run();
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace ppm;
    std::printf("Per-cluster vs per-core DVFS under PPM "
                "(300 s, no TDP, seed 42)\n\n");
    const std::vector<const char*> set_names{"l1", "m2", "h2"};

    // Two cells per set: the TC2 shared-domain chip, then the
    // per-core-domain chip.
    std::vector<std::function<sim::RunSummary()>> cells;
    for (const char* name : set_names) {
        const auto& set = workload::workload_set(name);
        cells.push_back(
            [&set]() { return run_on(hw::tc2_chip(), set, 42); });
        cells.push_back(
            [&set]() { return run_on(per_core_dvfs_chip(), set, 42); });
    }
    const auto results =
        bench::run_cells<sim::RunSummary>(cells,
                                          bench::jobs_arg(argc, argv));

    Table table({"Workload", "domain", "QoS miss", "avg power [W]",
                 "V-F transitions"});
    std::size_t i = 0;
    for (const char* name : set_names) {
        for (const char* domain : {"per-cluster", "per-core"}) {
            const sim::RunSummary& s = results[i++];
            table.add_row({name, domain, fmt_percent(s.any_below_miss),
                           fmt_double(s.avg_power, 2),
                           std::to_string(s.vf_transitions)});
        }
    }
    table.print(std::cout);
    return 0;
}
