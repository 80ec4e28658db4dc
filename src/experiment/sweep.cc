#include "experiment/sweep.hh"

#include "common/logging.hh"

namespace ppm::experiment {

SweepResult::SweepResult(int n_sets, int n_policies, int n_seeds,
                         std::vector<RunResult> cells)
    : n_sets_(n_sets), n_policies_(n_policies), n_seeds_(n_seeds),
      cells_(std::move(cells))
{
    PPM_ASSERT(static_cast<std::size_t>(n_sets_) *
                       static_cast<std::size_t>(n_policies_) *
                       static_cast<std::size_t>(n_seeds_) ==
                   cells_.size(),
               "cell count must match the sweep dimensions");
}

const RunResult&
SweepResult::cell(int set, int policy, int seed) const
{
    PPM_ASSERT(set >= 0 && set < n_sets_, "set index out of range");
    PPM_ASSERT(policy >= 0 && policy < n_policies_,
               "policy index out of range");
    PPM_ASSERT(seed >= 0 && seed < n_seeds_, "seed index out of range");
    const std::size_t index =
        (static_cast<std::size_t>(set) *
             static_cast<std::size_t>(n_policies_) +
         static_cast<std::size_t>(policy)) *
            static_cast<std::size_t>(n_seeds_) +
        static_cast<std::size_t>(seed);
    return cells_[index];
}

sim::RunSummary
SweepResult::averaged(int set, int policy) const
{
    std::vector<sim::RunSummary> seeds;
    seeds.reserve(static_cast<std::size_t>(n_seeds_));
    for (int i = 0; i < n_seeds_; ++i)
        seeds.push_back(summary(set, policy, i));
    return aggregate_summaries(seeds);
}

double
SweepResult::total_wall_seconds() const
{
    double total = 0.0;
    for (const RunResult& c : cells_)
        total += c.wall_seconds;
    return total;
}

SweepResult
run_sweep(const SweepConfig& config)
{
    PPM_ASSERT(!config.sets.empty(), "sweep needs at least one set");
    PPM_ASSERT(!config.policies.empty(),
               "sweep needs at least one policy");
    PPM_ASSERT(config.n_seeds >= 1, "sweep needs at least one seed");
    PPM_ASSERT(config.seed_stride >= 1,
               "seed stride must be >= 1 (0 would alias every cell "
               "onto one RNG stream)");
    PPM_ASSERT(config.base.extra_sink == nullptr,
               "streaming sinks are single-run; cells would interleave");

    std::vector<std::function<RunResult()>> cells;
    cells.reserve(config.sets.size() * config.policies.size() *
                  static_cast<std::size_t>(config.n_seeds));
    for (const workload::WorkloadSet& set : config.sets) {
        for (const std::string& policy : config.policies) {
            for (int i = 0; i < config.n_seeds; ++i) {
                RunParams params = config.base;
                params.policy = policy;
                params.seed =
                    cell_seed(config.base.seed, config.seed_stride, i);
                cells.push_back([set, params]() {
                    return run_set(set, params);
                });
            }
        }
    }

    const std::size_t n_cells = cells.size();
    std::vector<RunResult> results =
        run_cells<RunResult>(std::move(cells), config.jobs);
    SweepResult sweep(static_cast<int>(config.sets.size()),
                      static_cast<int>(config.policies.size()),
                      config.n_seeds, std::move(results));
    inform("sweep: %zu cells, %.2f s simulated wall-clock total",
           n_cells, sweep.total_wall_seconds());
    return sweep;
}

} // namespace ppm::experiment
