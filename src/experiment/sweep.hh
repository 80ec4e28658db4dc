/**
 * @file
 * Deterministic parallel experiment sweeps.
 *
 * Every figure and table of the paper's evaluation is a sweep over
 * (workload set x policy x seed) cells; each cell is one independent
 * Simulation.  This module enumerates the cells, runs them on a
 * ThreadPool, and reduces the results in a fixed cell order, so the
 * output is bit-identical regardless of worker count or completion
 * order.
 *
 * Determinism / thread-safety audit (why cells may run concurrently):
 *  - Each cell constructs its own Chip, Scheduler, SensorBank,
 *    ThermalModel, Governor and Rng; no simulation state is shared.
 *  - The workload tables (workload::all_profiles(),
 *    workload::standard_workload_sets()) and the platform parameter
 *    helpers are function-local statics: C++11 guarantees race-free
 *    one-time construction, and they are immutable afterwards.
 *  - The global log level (common/logging.cc) is an std::atomic, so
 *    workers may log while the main thread configures verbosity.
 *  - Host wall-clock timing (RunResult::wall_seconds) is the only
 *    nondeterministic output; reductions never consume it.
 */

#ifndef PPM_EXPERIMENT_SWEEP_HH
#define PPM_EXPERIMENT_SWEEP_HH

#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/thread_pool.hh"
#include "experiment/experiment.hh"

namespace ppm::experiment {

/**
 * Run arbitrary cell functions on up to `jobs` threads, the calling
 * thread included (0 = one per hardware thread), and return their
 * results *in input order*.  With jobs == 1, or with a single cell,
 * the cells run inline on the calling thread, in order (no pool is
 * constructed) -- the serial fallback used for debugging and
 * determinism comparisons.  Otherwise a pool of jobs - 1 workers and
 * the caller claim the cells in index order, each writing its result
 * into its own pre-sized slot; every cell runs, and the exception of
 * the lowest-index throwing cell propagates to the caller.
 *
 * Takes the cell vector by value: cell closures capture whole
 * RunParams/spec payloads, so callers that reuse their vector should
 * pass a copy explicitly.
 *
 * This is the generic layer under run_sweep(): benches whose cells
 * are custom governor configurations (the ablations) rather than
 * named policies build their own cell closures and reduce here.
 */
template <typename T>
std::vector<T>
run_cells(std::vector<std::function<T()>> cells, int jobs = 0)
{
    std::vector<std::optional<T>> slots(cells.size());
    const auto pool = cells.size() > 1 ? ThreadPool::for_threads(jobs)
                                       : nullptr;
    ThreadPool::for_chunks(pool.get(), cells.size(), 1,
                           [&](std::size_t begin, std::size_t end) {
                               for (std::size_t i = begin; i < end; ++i)
                                   slots[i].emplace(cells[i]());
                           });
    std::vector<T> results;
    results.reserve(slots.size());
    for (auto& slot : slots)
        results.push_back(std::move(*slot));
    return results;
}

/** A (set x policy x seed) sweep specification. */
struct SweepConfig {
    std::vector<workload::WorkloadSet> sets;  ///< Outermost axis.
    std::vector<std::string> policies;        ///< Middle axis.
    int n_seeds = 3;              ///< Innermost axis (>= 1).
    /**
     * Spacing key of the seed axis: seed i =
     * cell_seed(base.seed, seed_stride, i) (see experiment.hh).  Must
     * be >= 1 -- run_sweep() rejects 0, which under the historical
     * `base.seed + i * stride` rule silently collapsed every cell
     * onto one RNG stream.
     */
    std::uint64_t seed_stride = 100;
    RunParams base;               ///< Shared params (policy/seed overridden).
    int jobs = 0;                 ///< Workers; 0 = hardware threads.
};

/**
 * Results of a sweep, indexed (set, policy, seed) in the enumeration
 * order of SweepConfig.  Cell results are stored seed-major within
 * policy within set.
 */
class SweepResult
{
  public:
    SweepResult(int n_sets, int n_policies, int n_seeds,
                std::vector<RunResult> cells);

    int n_sets() const { return n_sets_; }
    int n_policies() const { return n_policies_; }
    int n_seeds() const { return n_seeds_; }

    /** Full result of one cell. */
    const RunResult& cell(int set, int policy, int seed) const;

    /** Summary of one cell. */
    const sim::RunSummary& summary(int set, int policy, int seed) const
    {
        return cell(set, policy, seed).summary;
    }

    /** aggregate_summaries() over the seed axis of one (set, policy). */
    sim::RunSummary averaged(int set, int policy) const;

    /** Sum of per-cell wall-clock seconds (diagnostic only). */
    double total_wall_seconds() const;

  private:
    int n_sets_;
    int n_policies_;
    int n_seeds_;
    std::vector<RunResult> cells_;
};

/**
 * Enumerate and run every (set x policy x seed) cell of `config`.
 * The reduction order is fixed by the config axes, so the returned
 * object -- and anything printed from it -- is bit-identical for any
 * `jobs` value.  Traces are only recorded if config.base.trace is set
 * (beware memory: one recorder per cell).
 */
SweepResult run_sweep(const SweepConfig& config);

} // namespace ppm::experiment

#endif // PPM_EXPERIMENT_SWEEP_HH
