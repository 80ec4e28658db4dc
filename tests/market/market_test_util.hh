/**
 * @file
 * Shared fixtures for the market tests: the toy single-cluster,
 * single-core platform of the paper's running examples (Tables 1-3),
 * with discrete supplies {300, 400, 500, 600} PU and the synthetic
 * power curve of Table 3 (<=400 PU -> 0.8 W, 500 PU -> 2 W,
 * 600 PU -> 3 W).
 */

#ifndef PPM_TESTS_MARKET_TEST_UTIL_HH
#define PPM_TESTS_MARKET_TEST_UTIL_HH

#include <vector>

#include "hw/platform.hh"
#include "market/market.hh"

namespace ppm::market::test {

/** The running example's platform: one cluster with one core. */
inline hw::Chip
paper_chip(int cores_per_cluster = 1, int clusters = 1)
{
    hw::VfTable table(std::vector<hw::VfPoint>{
        {300, 1.0}, {400, 1.0}, {500, 1.0}, {600, 1.0}});
    std::vector<hw::Chip::ClusterSpec> specs;
    for (int v = 0; v < clusters; ++v) {
        specs.push_back(hw::Chip::ClusterSpec{hw::little_core_params(),
                                              table,
                                              cores_per_cluster});
    }
    return hw::Chip(specs);
}

/** Market parameters of the running examples. */
inline PpmConfig
paper_config()
{
    PpmConfig cfg;
    cfg.tolerance = 0.2;         // delta in Tables 2-3.
    cfg.min_bid = 0.01;
    cfg.initial_bid = 1.0;       // Table 1 starts at $1.
    cfg.initial_allowance = 4.5; // Table 3 starts at $4.5.
    cfg.savings_cap_frac = 10.0; // Loose cap, as in the example.
    cfg.w_tdp = 2.25;            // Table 3.
    cfg.w_th = 1.75;             // Table 3.
    cfg.demand_slack = 0.0;        // The example uses exact deficits,
    cfg.money_anchor_rate = 0.0;   // no money-supply decay, and
    cfg.allowance_growth_cap = 1.0;// uncapped allowance growth.
    cfg.emergency_savings_tax = 0.0;  // Allowance contraction only.
    return cfg;
}

/** Active tasks the market maps to core `c`, in id order. */
inline std::vector<TaskId>
tasks_on(const Market& market, CoreId c)
{
    std::vector<TaskId> out;
    for (const TaskState& t : market.tasks()) {
        if (t.core == c && t.active)
            out.push_back(t.id);
    }
    return out;
}

/** Table 3's synthetic power curve as a function of supply. */
inline Watts
paper_power(Pu supply)
{
    if (supply >= 600.0)
        return 3.0;
    if (supply >= 500.0)
        return 2.0;
    return 0.8;
}

} // namespace ppm::market::test

#endif // PPM_TESTS_MARKET_TEST_UTIL_HH
