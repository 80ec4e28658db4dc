/**
 * @file
 * Property-based scenario model for the differential fuzzer.
 *
 * A Scenario is a fully concrete description of one randomized
 * experiment: a platform shape, a workload (parametric task "genes"
 * materialized into TaskSpecs), per-task lifetimes and placement, a
 * TDP level, governor knobs and an optional fault plan.  Scenarios
 * are generated deterministically from a single seed (same seed =>
 * byte-identical scenario), serialize to a line-oriented text format
 * (the checked-in regression fixtures under tests/fuzz/fixtures/),
 * and can be shrunk dimension by dimension while a violation
 * reproduces (see shrink.hh).
 */

#ifndef PPM_FUZZ_SCENARIO_HH
#define PPM_FUZZ_SCENARIO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "fault/fault.hh"
#include "hw/platform.hh"
#include "sim/simulation.hh"
#include "workload/task.hh"

namespace ppm::fuzz {

/** Platform shape of a scenario. */
enum class PlatformShape {
    kTc2,        ///< The paper's 3+2-core big.LITTLE evaluation chip.
    kOcta,       ///< Odroid-XU3-like 4+4 big.LITTLE.
    kSynthetic,  ///< synthetic_chip(synth_clusters, synth_cores).
};

/** Stable lowercase shape name ("tc2", "octa", "synthetic"). */
const char* platform_shape_name(PlatformShape s);

/**
 * Parametric description of one generated task.  Materialized into a
 * workload::TaskSpec by make_specs(): `n_phases` demand phases are
 * drawn from Rng(phase_seed), scaled around `demand_little` by up to
 * +/-`phase_amp`.
 */
struct TaskGene {
    int priority = 1;            ///< Market priority r_t (>= 1).
    Pu demand_little = 200.0;    ///< Mean demand on a LITTLE core.
    double big_speedup = 1.6;    ///< LITTLE/big cycles-per-hb ratio.
    double target_hr = 20.0;     ///< Target heart rate (hb/s).
    double self_pace_hr = 0.0;   ///< > 0: task sleeps above this rate.
    int n_phases = 1;            ///< Phase count (1 = steady).
    double phase_amp = 0.0;      ///< Demand scale amplitude (+/-).
    std::uint64_t phase_seed = 0;///< Phase layout stream.
    SimTime arrival = 0;         ///< Lifetime start.
    SimTime departure = sim::SimConfig::Lifetime::kForever;
    CoreId core = kInvalidId;    ///< Initial core; -1 = default.
};

/** One fully concrete fuzz scenario. */
struct Scenario {
    std::uint64_t seed = 0;      ///< Generator seed (provenance).
    PlatformShape shape = PlatformShape::kTc2;
    int synth_clusters = 2;      ///< kSynthetic only.
    int synth_cores = 2;         ///< kSynthetic only.
    Watts tdp = 0.0;             ///< TDP cap; 0 = uncapped.
    SimTime duration = 4 * kSecond;
    SimTime warmup = kSecond;    ///< QoS accounting start.
    bool trace = false;          ///< Compare traced time series too.
    SimTime trace_period = kSecond;
    /**
     * Always 1: the market clears inline.  Kept only because the
     * benchmark's fuzz workload (perfbench/fuzz.cc) still reads it.
     */
    int clearing_jobs = 1;
    bool online_speedup = false; ///< PPM: learn speedups online.
    bool has_faults = false;     ///< Fault plan enabled?
    fault::FaultSpec faults;     ///< Compiled against the chip at run.
    /**
     * > 1 federates the scenario: the same chip/workload replicated
     * on this many shards under a shared fleet budget (tdp x chips),
     * exercising the fleet-* invariants in check.cc.  1 = single-chip
     * only (the fleet-single differential still runs).
     */
    int fleet_chips = 1;
    /**
     * Incremental active-set clearing (PpmConfig::incremental) for
     * the scenario's *primary* run.  check.cc always also runs the
     * flag's complement and requires bit-identical summaries and
     * telemetry (the incremental differential); the gene
     * exists so fixture files pin the mode a bug was found under and
     * so shrinking can try the full-recompute path first.
     */
    bool incremental = true;
    /**
     * Chip-level fault classes (chip-fail / chip-degrade /
     * chip-recover) for federated scenarios, stored in `faults`'
     * chip-scope fields and compiled into a FleetFaultPlan by
     * check.cc.  Inert unless fleet_chips > 1.  Drawn last so the
     * earlier genes of a given seed are unchanged from older grammar
     * versions.
     */
    bool has_fleet_faults = false;
    /**
     * > 0 runs the snapshot differential: the scenario executes to
     * this simulated time, saves a snapshot, restores it into a
     * freshly constructed simulation (or fleet) and runs to the end;
     * the stitched run must match the uninterrupted one bit for bit
     * (summary fingerprint, the telemetry stream logged across both
     * halves and the traced time series).  0 = differential off.
     */
    SimTime snapshot_at = 0;
    std::vector<TaskGene> tasks; ///< At least one.
};

/**
 * Seed of scenario `index` in a fuzz campaign with base seed `base`.
 * mix64-derived, so distinct indices never share an RNG stream (cf.
 * experiment::cell_seed).
 */
std::uint64_t scenario_seed(std::uint64_t base, std::uint64_t index);

/**
 * Generate the scenario of `seed`: a pure function of its argument --
 * calling it twice yields byte-identical scenarios (serialize() and
 * compare to check).  Every generated scenario is valid: platform
 * dimensions >= 1, task parameters within the library's asserted
 * ranges, lifetimes on the tick grid, placement within the chip.
 */
Scenario generate_scenario(std::uint64_t seed);

/** Build the scenario's chip. */
hw::Chip make_chip(const Scenario& sc);

/** Materialize the task genes into TaskSpecs. */
std::vector<workload::TaskSpec> make_specs(const Scenario& sc);

/** Per-task big-core speedups (feeds PPM's demand estimator). */
std::vector<double> big_speedups(const Scenario& sc);

/**
 * Per-task lifetime windows; empty when every task runs for the whole
 * simulation (so the clean-scenario hot path stays lifetime-free).
 */
std::vector<sim::SimConfig::Lifetime> lifetimes(const Scenario& sc);

/**
 * Explicit initial placement (by task id); empty when no gene pins a
 * core.  Genes without a pin fall back to round-robin over cluster 0,
 * mirroring the simulation's default placement.
 */
std::vector<CoreId> placement(const Scenario& sc);

/**
 * Serialize to the fixture text format: `key=value` lines, one
 * `task=` line per gene, `#` comments ignored on parse.  The format
 * round-trips exactly: parse_scenario(serialize(sc)) == sc.
 */
std::string serialize(const Scenario& sc);

/**
 * Parse a serialized scenario.  Returns false and fills `*error`
 * with a one-line message on malformed input.
 */
bool parse_scenario(const std::string& text, Scenario* out,
                    std::string* error);

} // namespace ppm::fuzz

#endif // PPM_FUZZ_SCENARIO_HH
