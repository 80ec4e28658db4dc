/**
 * @file
 * Load Balancing and Task migration (LBT) module (Section 3.3).
 *
 * Given the market's steady state, the LBT module speculatively
 * evaluates single-task movements -- load balancing to the most
 * over-supplied unconstrained core of the same cluster, or migration
 * to the most over-supplied unconstrained core of another cluster --
 * and proposes at most one movement per invocation:
 *
 *  - if every task currently meets its demand, the movement that
 *    minimizes the aggregate steady-state spending spend(M') without
 *    degrading perf(M') (power-efficiency mode);
 *  - otherwise, the movement that lifts the supply/demand ratio of
 *    the highest-priority unsatisfied task without hurting any
 *    higher-priority task (performance mode).
 *
 * Steady states are estimated exactly as the paper prescribes:
 * demands on the target core type come from an (offline-profiling
 * style) demand estimator, the steady supply is the demand rounded up
 * to the next discrete V-F level, and prices follow the recursion
 * P_{Z+1} = P_Z * (1 + delta) (Equation 2).
 */

#ifndef PPM_MARKET_LBT_HH
#define PPM_MARKET_LBT_HH

#include <functional>
#include <optional>
#include <vector>

#include "market/market.hh"

namespace ppm::market {

/** A proposed single-task movement. */
struct Movement {
    TaskId task = kInvalidId;
    CoreId from = kInvalidId;
    CoreId to = kInvalidId;

    /** Whether the proposal denotes an actual movement. */
    bool valid() const { return task != kInvalidId; }
};

/** The load-balancing and task-migration policy. */
class LbtModule
{
  public:
    /**
     * Estimated steady-state demand of a task if it ran on a core of
     * the given cluster.  The paper obtains this from off-line
     * profiles of each task's average demand per core type.
     */
    using DemandEstimator = std::function<Pu(TaskId, ClusterId)>;

    /**
     * @param market    The market whose mapping is being optimized
     *                  (not owned; must outlive the module).
     * @param estimator Cross-core-type demand estimator.
     */
    LbtModule(const Market* market, DemandEstimator estimator);

    /**
     * Relative cost of one PU-dollar on each cluster, encoding the
     * offline power profiles the paper feeds into LBT speculation
     * (a big-core PU costs more energy than a LITTLE-core PU).
     * Defaults to 1.0 everywhere.
     */
    void set_power_cost(std::vector<double> cost_per_cluster);

    /** Propose at most one intra-cluster movement (load balancing). */
    Movement propose_load_balance() const;

    /** Propose at most one inter-cluster movement (task migration). */
    Movement propose_migration() const;

    /**
     * Distributed variant: only the task agents on cluster `v`'s
     * constrained core contemplate movement (the per-core share of
     * the LBT work measured in the paper's Table 7).
     */
    Movement propose_migration_from(ClusterId v) const;

    /** Steady-state estimate of one mapping (exposed for tests). */
    struct Estimate {
        std::vector<double> ratio;  ///< Per-task s/d, capped at 1.
        Money spend = 0.0;          ///< Aggregate steady-state bids.
    };

    /** Estimate the current mapping (no movement). */
    Estimate estimate_current() const;

    /** Estimate the mapping that applies `move`. */
    Estimate estimate_with(const Movement& move) const;

  private:
    /**
     * Shared implementation for the proposal flavours.  When
     * `source_cluster` is >= 0, only that cluster's constrained core
     * supplies candidates.
     */
    Movement propose(bool inter_cluster,
                     ClusterId source_cluster = kInvalidId) const;

    /** Per-cluster steady-state outcome (internal helper). */
    struct ClusterOutcome {
        std::vector<std::pair<std::size_t, double>> ratios;
        Money spend = 0.0;
    };

    /**
     * Steady-state outcome of cluster `v` under the candidate
     * placement (`core`/`demand` indexed by task position).
     * `members` lists the task positions mapped to cluster `v` under
     * that placement; `fallback_price` seeds the Equation 2
     * recursion when the cluster currently has no market price.
     */
    void estimate_cluster(ClusterId v,
                          const std::vector<std::size_t>& members,
                          const std::vector<CoreId>& core,
                          const std::vector<Pu>& demand,
                          Money fallback_price,
                          ClusterOutcome& out) const;

    /** Steady-state estimate of the mapping after optional `move`. */
    Estimate estimate(const std::optional<Movement>& move) const;

    /**
     * Most over-supplied unconstrained core of cluster `v` given
     * per-core demand sums; kInvalidId when the cluster has no
     * eligible core.  Single-core clusters return their only core.
     */
    CoreId best_target_core(ClusterId v,
                            const std::vector<Pu>& core_demand) const;

    const Market* market_;
    DemandEstimator estimator_;
    std::vector<double> power_cost_;

    /**
     * Reused scratch, so propose() allocates only on its first wake
     * and after an admission: it reserves every list to its per-task
     * bound up front.  The first group lives for one propose() call:
     * placement, demands, chip-wide per-core demand sums, per-cluster
     * members, the baseline outcomes and the candidate list.  The
     * rest serves one candidate, or one estimate_cluster() call
     * (whose per-core demand column of one cluster is `core_demand`).
     */
    struct Scratch {
        std::vector<CoreId> core;
        std::vector<Pu> demand;
        std::vector<Pu> demand_by_core;
        std::vector<std::vector<std::size_t>> members;
        std::vector<ClusterOutcome> base;
        std::vector<double> base_ratio;
        std::vector<Movement> candidates;

        ClusterOutcome src_out;
        ClusterOutcome dst_out;
        std::vector<std::size_t> src_members;
        std::vector<std::size_t> dst_members;
        std::vector<std::vector<std::size_t>> on_core;
        std::vector<Pu> core_demand;
        std::vector<Pu> granted;
        std::vector<std::size_t> active;
        std::vector<std::size_t> hungry;
    };
    mutable Scratch scratch_;
};

/**
 * The paper's perf(M') > perf(M) relation: true iff some task's
 * ratio improves and no task of higher priority degrades.
 */
bool perf_improves(const std::vector<double>& candidate,
                   const std::vector<double>& baseline,
                   const std::vector<int>& priorities);

/** perf(M') >= perf(M): the mirror relation does not hold. */
bool perf_at_least(const std::vector<double>& candidate,
                   const std::vector<double>& baseline,
                   const std::vector<int>& priorities);

} // namespace ppm::market

#endif // PPM_MARKET_LBT_HH
