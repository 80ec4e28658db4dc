/**
 * @file
 * One-call experiment runner: the highest-level public API.
 *
 * Wires a platform, a workload and a named policy ("PPM", "HPM" or
 * "HL") into a Simulation and runs it.  Used by the command-line
 * driver, the benchmark harnesses and downstream code that just wants
 * "run workload X under policy Y with TDP Z".
 */

#ifndef PPM_EXPERIMENT_EXPERIMENT_HH
#define PPM_EXPERIMENT_EXPERIMENT_HH

#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "metrics/recorder.hh"
#include "metrics/telemetry.hh"
#include "sim/simulation.hh"
#include "workload/sets.hh"

namespace ppm {
class ThreadPool;
} // namespace ppm

namespace ppm::experiment {

/** Parameters of one policy run. */
struct RunParams {
    std::string policy = "PPM";       ///< "PPM", "HPM" or "HL".
    Watts tdp = 1e9;                  ///< TDP cap (1e9 = none).
    SimTime duration = 300 * kSecond; ///< Simulated time.
    std::uint64_t seed = 42;          ///< Workload phase seed.
    int priority = 1;                 ///< Priority for all tasks.
    bool trace = false;               ///< Record time series.
    bool online_speedup = false;      ///< PPM: learn speedups online.
    bool macro_step = true;           ///< Event-horizon time advance
                                      ///< (see SimConfig::macro_step);
                                      ///< false = per-tick loop.

    /**
     * Incremental active-set clearing (PpmConfig::incremental).
     * Results are bit-identical on or off; off recomputes every
     * entry each round (debugging escape hatch, `--no-incremental`).
     * Ignored by the baselines.
     */
    bool incremental = true;

    /**
     * Extra telemetry sink (streaming CSV/JSONL) attached to the
     * simulation's TraceBus for the duration of the run.  Not owned;
     * must outlive the run.  Single-run only: multi-seed aggregation
     * (run_set_avg, sweeps) would interleave cells into one stream,
     * so those paths reject a non-null sink.
     */
    metrics::TraceSink* extra_sink = nullptr;

    /**
     * Fault-injection spec; faults.any() == false (the default) runs
     * a perfect platform.  Compiled into a deterministic FaultPlan
     * against the chip topology and run duration at run time.
     */
    fault::FaultSpec faults;
};

/** Result of one run: summary plus optional traces. */
struct RunResult {
    sim::RunSummary summary;
    metrics::TraceRecorder traces;
    /**
     * Host wall-clock seconds spent simulating this cell.  Diagnostic
     * only: it depends on machine load, so deterministic consumers
     * (the sweep reductions, the bench tables) must not print it into
     * their comparable output.
     */
    double wall_seconds = 0.0;
    /** The engine counters of this run (a side channel, like
     *  wall_seconds: macro-stepped and per-tick runs differ). */
    sim::EngineStats engine;
};

/**
 * Build the governor `policy` with TDP `tdp`.  `big_speedups` feeds
 * PPM's cross-core-type demand estimator (empty = defaults); the
 * baselines ignore it, `online_speedup` and `incremental`
 * (PpmConfig::incremental).  Every policy ignores the fifth and sixth
 * parameters (the market clears inline); they remain only so that
 * existing callers keep compiling.  fatal() on an unknown policy
 * name.
 */
std::unique_ptr<sim::Governor>
make_governor(const std::string& policy, Watts tdp,
              const std::vector<double>& big_speedups,
              bool online_speedup = false, int /*ignored*/ = 1,
              ThreadPool* /*ignored*/ = nullptr,
              bool incremental = true);

/** Run one of the paper's Table 6 sets on a fresh TC2-like chip. */
RunResult run_set(const workload::WorkloadSet& set,
                  const RunParams& params);

/**
 * Build, without running it, the simulation of explicit task specs
 * on a fresh TC2-like chip: the SimConfig, the fault plan, the
 * governor (`big_speedups` feeds PPM's demand estimator, empty =
 * defaults) and `params.extra_sink`.  For callers that step the run
 * themselves (snapshots); run_specs() runs it to the end.
 */
std::unique_ptr<sim::Simulation>
make_simulation(const std::vector<workload::TaskSpec>& specs,
                const std::vector<double>& big_speedups,
                const RunParams& params);

/** Run make_simulation(specs, big_speedups, params) to the end. */
RunResult run_specs(const std::vector<workload::TaskSpec>& specs,
                    const std::vector<double>& big_speedups,
                    const RunParams& params);

/**
 * Seed of cell `index` on a multi-seed axis with base seed `base` and
 * spacing key `stride`.  Derived through mix64 (bijective), so
 * distinct indices can never share an RNG stream -- unlike the
 * historical `base + index * stride`, which collapsed the whole axis
 * onto one seed at stride 0 and could alias cells when
 * `index * stride` overflowed.  panic()s on stride == 0 or a negative
 * index.
 */
std::uint64_t cell_seed(std::uint64_t base, std::uint64_t stride,
                        int index);

/**
 * Reduce per-seed summaries into one cross-seed summary by walking
 * sim::RunSummary::fields(), which says how each field averages.
 * The governor name is taken from the first summary.  panic()s on an
 * empty input or mismatched task counts.
 */
sim::RunSummary
aggregate_summaries(const std::vector<sim::RunSummary>& summaries);

/**
 * Run `set` `n_seeds` times (seed i = cell_seed(params.seed, 100, i))
 * and return the aggregate_summaries() reduction of the per-seed
 * runs.  Seeds run in parallel on up to `jobs` threads, the calling
 * thread included (0 = one per hardware thread); the result is
 * identical for every `jobs` value.
 */
sim::RunSummary run_set_avg(const workload::WorkloadSet& set,
                            RunParams params, int n_seeds = 3,
                            int jobs = 0);

} // namespace ppm::experiment

#endif // PPM_EXPERIMENT_EXPERIMENT_HH
