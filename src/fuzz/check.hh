/**
 * @file
 * Differential execution and invariant checking of one fuzz scenario.
 *
 * A scenario is executed several ways -- every policy, macro-stepped
 * vs per-tick, and (for PPM) incremental vs full-recompute clearing,
 * fleet shards on one worker vs many, and snapshot restores -- and
 * the runs are compared byte-for-byte: the full-precision
 * RunSummary fingerprint, the JSONL telemetry stream (every market
 * round, every field), and the traced time series when the scenario
 * records them.  On top of the differentials, global invariants are
 * checked per run: market budget conservation round by round, summary
 * sanity (finite, fractions in range, energy/power consistency), and
 * fault-counter consistency (clean runs report zero fault activity;
 * faulty runs stay within the compiled plan).
 */

#ifndef PPM_FUZZ_CHECK_HH
#define PPM_FUZZ_CHECK_HH

#include <string>
#include <vector>

#include "fuzz/scenario.hh"
#include "sim/simulation.hh"

namespace ppm::fuzz {

/** One invariant violation found while checking a scenario. */
struct Violation {
    /**
     * Stable invariant slug: "macro-vs-tick", "market-budget",
     * "summary-sanity", "fault-counters",
     * "tdp-duty", "incremental", "fleet-single", "fleet-jobs",
     * "fleet-determinism", "fleet-budget", "fleet-incremental",
     * "fleet-conservation", "fleet-fault-jobs", "snapshot-restore"
     * or "fleet-snapshot-restore".  The shrinker reproduces on
     * (invariant, policy).
     */
    std::string invariant;
    std::string policy;  ///< "PPM", "HPM" or "HL".
    std::string detail;  ///< Human-readable one-liner.
};

/**
 * Full-precision rendering of every RunSummary field (including the
 * fault counters), used as the comparison key of every differential
 * (macro-vs-tick, incremental, fleet, snapshot): two runs are equivalent iff their fingerprints are
 * byte-identical.
 */
std::string summary_fingerprint(const sim::RunSummary& s);

/**
 * Execute `sc` differentially under every policy and return every
 * violation found (empty = scenario is clean).  Deterministic: the
 * same scenario always produces the same violations in the same
 * order.
 */
std::vector<Violation> check_scenario(const Scenario& sc);

} // namespace ppm::fuzz

#endif // PPM_FUZZ_CHECK_HH
