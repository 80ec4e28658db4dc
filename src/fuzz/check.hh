/**
 * @file
 * Differential execution and invariant checking of one fuzz scenario.
 *
 * A scenario is executed several ways -- every policy, macro-stepped
 * vs per-tick (for HL also with no sink attached, the only way it
 * rests through its wakes), and (for PPM) incremental vs
 * full-recompute clearing, fleet shards on one worker vs many, and
 * snapshot restores -- and the runs are compared bit for bit, as
 * recorded, by one comparator, difference(): the full-precision
 * RunSummary fingerprint, the telemetry stream (every bus record,
 * every field, each number as the double it was), and the traced time
 * series when the scenario records them; for a fleet, its combined
 * summary and fleet stream, then chip 0's three parts.  On
 * top of the differentials, global invariants are checked per run:
 * market budget conservation round by round, summary sanity (finite,
 * fractions in range, energy/power consistency), and fault-counter
 * consistency (clean runs report zero fault activity; faulty runs
 * stay within the compiled plan).
 */

#ifndef PPM_FUZZ_CHECK_HH
#define PPM_FUZZ_CHECK_HH

#include <cstddef>
#include <string>
#include <vector>

#include "fleet/fleet.hh"
#include "fuzz/scenario.hh"
#include "metrics/recorder.hh"
#include "metrics/telemetry.hh"
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

/** The comparison key of every differential (sim/simulation.hh). */
using sim::summary_fingerprint;

/** Everything one single-chip execution of a scenario produces. */
struct RunOutput {
    sim::RunSummary summary;
    metrics::StreamLog stream;      ///< Every bus record, as recorded.
    metrics::TraceRecorder traced;  ///< Traced series; empty unless traced.
    std::string audit_error;        ///< First market audit failure.
    std::size_t plan_events = 0;    ///< Compiled fault windows.
};

/** Everything one federated execution of a scenario produces. */
struct FleetOutput {
    RunOutput fleet;  ///< Combined summary and the fleet bus stream.
    RunOutput chip0;  ///< Shard 0's summary, stream and traced series.
    fleet::FleetResult result;  ///< Fault and placement counters.
    std::string budget_error;   ///< First fleet budget audit failure.
};

/**
 * The first part in which two runs differ, and where in it:
 * "summary fingerprints differ", "telemetry streams differ at <the
 * first differing record>" or "traced series differ at <the first
 * differing sample>" (metrics::first_difference); empty when the runs
 * match bit for bit.
 */
std::string difference(const RunOutput& a, const RunOutput& b);

/**
 * The same for two fleets: the fleet's own parts first ("fleet
 * ..."), then chip 0's ("chip 0 ...").
 */
std::string difference(const FleetOutput& a, const FleetOutput& b);

/**
 * Execute `sc` differentially under every policy and return every
 * violation found (empty = scenario is clean).  Deterministic: the
 * same scenario always produces the same violations in the same
 * order.
 */
std::vector<Violation> check_scenario(const Scenario& sc);

} // namespace ppm::fuzz

#endif // PPM_FUZZ_CHECK_HH
