/**
 * @file
 * The virtual market place at the heart of the framework: task agents
 * bid for Processing Units, core agents discover prices and allocate
 * supply, cluster agents counter price inflation/deflation with DVFS,
 * and the chip agent steers the money supply (global allowance) to
 * keep chip power under the TDP (Sections 3.1-3.2 of the paper).
 *
 * The Market is a pure mechanism: its inputs each round are the task
 * demands and per-cluster power readings; its effects are task supply
 * allocations and cluster V-F levels (written directly to the Chip
 * model it is given).  It contains no scheduling or sensing -- the
 * PpmGovernor adapts a live Simulation onto it, and unit tests /
 * benchmarks can drive it standalone to reproduce Tables 1-3.
 */

#ifndef PPM_MARKET_MARKET_HH
#define PPM_MARKET_MARKET_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "fault/fault.hh"
#include "hw/platform.hh"
#include "market/config.hh"

namespace ppm::snap {
class Writer;
class Reader;
} // namespace ppm::snap

namespace ppm::market {

/** Market-visible state of one task agent. */
struct TaskState {
    TaskId id = kInvalidId;
    int priority = 1;          ///< r_t.
    CoreId core = kInvalidId;  ///< Current mapping c_t.
    bool active = true;        ///< Participates in the market?
    Pu demand = 0.0;           ///< d_t, set each round by the caller.
    Pu supply = 0.0;           ///< s_t, result of the last purchase.
    Money bid = 0.0;           ///< b_t.
    Money allowance = 0.0;     ///< a_t.
    Money savings = 0.0;       ///< m_t.
};

/** Market-visible state of one core agent. */
struct CoreState {
    CoreId id = kInvalidId;
    Money price = 0.0;       ///< P_c from the last price discovery.
    Money base_price = 0.0;  ///< P_Base_c (reset on V-F change).
    bool has_base = false;   ///< Base price established?
    Pu demand = 0.0;         ///< D_c: sum of task demands on the core.
    Pu supply = 0.0;         ///< S_c used in the last price discovery.
};

/** Per-round outcome reported by Market::round(). */
struct RoundReport {
    ChipState state = ChipState::kNormal;  ///< Chip power state.
    Money allowance = 0.0;                 ///< Global allowance A.
    Pu total_demand = 0.0;                 ///< D.
    Pu total_supply = 0.0;                 ///< S.
    Watts chip_power = 0.0;                ///< W used this round.
    int vf_changes = 0;                    ///< Cluster level changes.
    Pu deficit = 0.0;        ///< Unmet demand with V-F headroom.
    Pu raw_deficit = 0.0;    ///< All unmet demand.
    bool allowance_clamped = false;  ///< Allowance hit its floor/cap.

    /**
     * Convergence objective of the tatonnement round: the L2 norm of
     * the per-cluster price-weighted excess demand
     * (D_v - S_v) * P_constrained, taken after price discovery but
     * before the cluster agents act.  Zero at a clearing equilibrium;
     * the adaptive stepper accelerates only while this stalls.
     */
    double excess_l2 = 0.0;

    /**
     * L8 norm of the same excess vector: close to the max-norm, so it
     * isolates the worst cluster where the L2 view can dilute one bad
     * cluster across many converged ones.
     */
    double excess_l8 = 0.0;

    /**
     * Incremental-clearing activity of this round.  A task counts as
     * recomputed when the round's dirty tracking put it in the bidding
     * or purchase pass; a core counts when its demand or bid fold was
     * re-reduced.  The dirty tracking runs whether or not
     * PpmConfig::incremental actually skips the clean entries, so
     * these numbers are identical with incrementality on or off.
     */
    long tasks_recomputed = 0;
    long tasks_skipped = 0;
    long cores_recomputed = 0;
    long cores_skipped = 0;
    /** True when the active set drained empty: no task or core entry
     *  needed recomputation, so the round collapsed to the O(cores +
     *  clusters) chip/cluster-agent work. */
    bool early_exit = false;
};

/**
 * Cumulative incremental-clearing counters across all rounds of one
 * Market (see RoundReport for the per-round definitions).  task_slots
 * and core_slots are the denominators -- sum over rounds of the task
 * and core counts -- so skip rates are skipped/slots.
 */
struct ClearingStats {
    long rounds = 0;
    long task_slots = 0;
    long tasks_skipped = 0;
    long core_slots = 0;
    long cores_skipped = 0;
    long rounds_early_exit = 0;
};

/** Market-visible state of one cluster agent, for telemetry. */
struct ClusterTelemetry {
    ClusterId id = kInvalidId;
    bool freeze_bids = false;   ///< Bids held this round (V-F step).
    bool pending_base_reset = false;  ///< Base re-anchors next round.
    Watts power = 0.0;          ///< Sensor reading fed this round.
    int level = 0;              ///< V-F level after this round.
    double mhz = 0.0;           ///< Frequency after this round.
    bool powered = true;        ///< Power-gate state.
};

/**
 * Full per-round market snapshot: everything the paper's Tables 1-3
 * tabulate, filled by Market::round() when attached via
 * Market::set_telemetry().  Task and core entries are indexed by id;
 * cluster entries by cluster id.
 */
struct MarketTelemetry {
    long round = 0;                        ///< 1-based round number.
    RoundReport report;                    ///< Chip-level outcome.
    std::vector<TaskState> tasks;          ///< Post-round task agents.
    std::vector<CoreState> cores;          ///< Post-round core agents.
    std::vector<ClusterTelemetry> clusters;///< Post-round cluster agents.
};

/** The market mechanism (supply-demand module). */
class Market
{
  public:
    /**
     * @param chip Platform whose V-F levels the cluster agents drive
     *             (not owned; must outlive the market).
     * @param cfg  Mechanism parameters.
     */
    Market(hw::Chip* chip, PpmConfig cfg);

    /** Register a task agent.  Ids must be dense, starting at 0. */
    void add_task(TaskId id, int priority, CoreId initial_core);

    /** Set the task's demand d_t for the upcoming round. */
    void set_demand(TaskId t, Pu demand);

    /** Record the task's new core after an (external) migration. */
    void set_task_core(TaskId t, CoreId core);

    /**
     * Enter or leave the market (task arrival / exit).  A departing
     * agent's money leaves circulation (bid reset, savings wiped);
     * an arriving agent starts afresh with the initial bid.
     */
    void set_task_active(TaskId t, bool active);

    /** Report cluster v's power reading for the upcoming round. */
    void set_cluster_power(ClusterId v, Watts w);

    /**
     * Raw cluster-power write that bypasses the input filter.  Only
     * for the watchdog tests: set_cluster_power() clamps every
     * reading into [0, inf), so exercising the sane()/sanitize()
     * coverage of ClusterCtl::power needs a back door (cf. the
     * mutable task()/core() hooks).
     */
    void set_cluster_power_raw(ClusterId v, Watts w);

    /**
     * Execute one market round: chip-agent allowance update and
     * hierarchical distribution, task-agent bidding, core-agent price
     * discovery and purchases, then cluster-agent inflation/deflation
     * control (which may step V-F levels on the chip, taking effect
     * in the next round's supply).
     */
    RoundReport round();

    /** Number of rounds executed. */
    long rounds() const { return rounds_; }

    /** Cumulative incremental-clearing activity (all rounds so far). */
    const ClearingStats& clearing_stats() const { return clearing_; }

    /**
     * Ids of the tasks the last round's dirty tracking recomputed
     * (ascending).  This is the *bookkeeping* active set -- what an
     * incremental round re-runs and what a full round would have
     * needed to re-run -- so invalidation-precision tests can assert
     * it regardless of PpmConfig::incremental.  Reused across rounds.
     */
    const std::vector<TaskId>& last_round_recomputed() const
    {
        return recomputed_tasks_;
    }

    /**
     * Outcome of the last completed round (zero-initialized before
     * the first).  The fleet supervisor reads the clearing deficit
     * here between rounds without re-running any market logic.
     */
    const RoundReport& last_report() const { return last_report_; }

    /**
     * Retarget the TDP cap and buffer-zone floor mid-run (fleet
     * budget reallocation at a supervisor epoch).  Only the two
     * thresholds move; prices, bids and the allowance carry over, so
     * the market re-converges from its current state under the new
     * cap -- the tatonnement restart the paper's chip agent performs
     * when W_tdp changes.
     */
    void set_tdp(Watts w_tdp, Watts w_th);

    /**
     * Attach (or detach, with nullptr) a telemetry snapshot: every
     * subsequent round() fills `out` with the complete post-round
     * market state.  The snapshot's vectors are reused across rounds,
     * so steady-state rounds allocate nothing.  Zero-cost when
     * detached (the default).
     */
    void set_telemetry(MarketTelemetry* out) { telemetry_ = out; }

    /** State of task `t`. */
    const TaskState& task(TaskId t) const;

    /**
     * Mutable state of task `t`.  Exists for the watchdog machinery
     * and its tests: injecting a non-finite field exercises sane() /
     * sanitize() without relying on a numeric overflow to occur.
     * Taking this reference forfeits the incremental-clearing memos:
     * the next round recomputes every entry (the caller may have
     * rewritten state behind the dirty tracking's back).
     */
    TaskState& task(TaskId t);

    /** State of core `c`. */
    const CoreState& core(CoreId c) const;

    /**
     * Mutable state of core `c`.  Same contract as the mutable task()
     * overload: a hook for the watchdog tests, which need to plant a
     * non-finite supply/price that no public mutator would let in.
     * Also forces the next round to recompute everything.
     */
    CoreState& core(CoreId c);

    /** All task states (indexed by task id). */
    const std::vector<TaskState>& tasks() const { return tasks_; }

    /**
     * Constrained core of cluster `v`: the core with the highest
     * demand sum; kInvalidId if the cluster has no demand.
     */
    CoreId constrained_core(ClusterId v) const;

    /** Chip state decided in the last round. */
    ChipState state() const { return state_; }

    /** Global allowance A. */
    Money global_allowance() const { return allowance_; }

    /** True while cluster `v`'s agents hold bids after a V-F change. */
    bool bids_frozen(ClusterId v) const;

    /** The mechanism parameters. */
    const PpmConfig& config() const { return cfg_; }

    /** The platform the market drives. */
    const hw::Chip& chip() const { return *chip_; }

    /**
     * Route cluster V-F steps through `port` instead of acting on the
     * chip directly (fault injection: a request may land late, fail
     * and be retried, or be dropped).  nullptr (the default) restores
     * direct actuation.
     */
    void set_dvfs_port(fault::DvfsPort* port) { dvfs_port_ = port; }

    /**
     * Watchdog predicate: true while every monetary quantity in the
     * market is finite and correctly signed (bids, supplies, savings,
     * allowances, prices).  A false return means the last bidding
     * round failed to converge to a meaningful allocation.
     */
    bool sane() const;

    /**
     * Watchdog repair: overwrite every non-finite or mis-signed field
     * with a safe value -- task supplies fall back to
     * `fallback_supplies` (the previous cleared allocation, indexed
     * by task id; missing/non-finite entries fall back to 0), bids
     * return to the minimum bid, savings and prices reset, and the
     * global allowance re-anchors to its initial value.
     * @return the number of fields repaired.
     */
    int sanitize(const std::vector<Pu>& fallback_supplies);

    /**
     * Serialize the complete economy between rounds: agent ledgers,
     * cluster controls, the allowance, AND every incremental-clearing
     * memo (stamps, prev_* bit-compare baselines, distribution and
     * circulating-bid folds, group index).  The memos must ride along
     * -- they decide the observable skip counters and recompute sets,
     * which a restored run must continue bit-exactly rather than
     * restart from a force-full round.  Non-owned attachments (chip,
     * DVFS port, telemetry) and round-local scratch are skipped.
     */
    void save(snap::Writer& w) const;
    void load(snap::Reader& r);

  private:
    struct ClusterCtl {
        bool freeze_bids = false;        ///< Bids held this round.
        bool pending_base_reset = false; ///< Base price resets after
                                         ///< the next price discovery.
        Watts power = 0.0;               ///< Latest sensor reading.
        std::uint64_t step = 0;          ///< Adaptive step accumulator
                                         ///< (fixed point, 0 = unseeded).
        int last_dir = 0;                ///< Direction of the last
                                         ///< triggered V-F step.
    };

    /** Cluster hosting task `t`'s current core. */
    ClusterId cluster_of(const TaskState& t) const
    {
        return core_cluster_[static_cast<std::size_t>(t.core)];
    }

    /** The `k`-th entry of the per-core grouping (see rebuild_groups). */
    const TaskState& grouped_task(int k) const
    {
        return tasks_[static_cast<std::size_t>(
            group_task_[static_cast<std::size_t>(k)])];
    }

    /**
     * Rebuild the per-core grouping of active task ids (counting
     * sort, id order preserved within each core) if a mutator dirtied
     * it.  The grouping turns the per-core reductions into
     * independent contiguous folds, so an incremental round re-folds
     * only the dirty cores -- and each core's sum still accumulates
     * in task-id order, the association of a full walk.
     */
    void rebuild_groups();

    /** Per-core demand reduction over the groups.  Folds only the
     *  cores flagged in core_recompute_ when `skip_clean`; the rest
     *  keep their memoized sums. */
    void refresh_core_demands(bool skip_clean);

    /**
     * Per-cluster price-weighted excess demand and its L2/L8 norms
     * (RoundReport::excess_l2/excess_l8), taken after price
     * discovery, before the cluster agents act.
     */
    void compute_excess_objective(RoundReport& report) const;

    /**
     * Adaptive level magnitude for cluster `ctl` triggering in
     * direction `dir` (+1 inflation / -1 deflation): reseeds the
     * accumulator on a direction change, grows it while the chip-wide
     * objective stalls, and returns the level count to step.  Always
     * 1 when adaptive stepping is disabled.
     */
    int step_levels(ClusterCtl& ctl, int dir, bool improving);

    /** Decay `ctl`'s adaptive accumulator after a quiet round. */
    void decay_step(ClusterCtl& ctl);

    /**
     * Chip-agent allowance update; returns the new chip state.
     * `deficit` is the unmet cluster demand that more money could
     * cure (clusters with V-F headroom); `raw_deficit` is all unmet
     * demand.  The allowance grows on `deficit` and is anchored to
     * circulating bids only when `raw_deficit` is zero.
     */
    ChipState update_allowance(Watts chip_power, Pu total_demand,
                               Pu deficit, Pu raw_deficit);

    /**
     * Hierarchical allowance distribution (chip->cluster->core->task).
     * A cluster whose distribution inputs (allowance A, weight vector,
     * group epoch) are bit-unchanged since the last distributing round
     * is skipped when `skip_clean`; recomputed tasks whose allowance
     * bits moved are stamped into alloc_stamp_ for the bid pass's
     * dirty set (stamped in both modes, so the set is mode-invariant).
     */
    void distribute_allowance(Watts chip_power, bool skip_clean,
                              bool global);

    /**
     * Task-agent bidding and savings bookkeeping over `list` (the
     * compacted dirty set) or, with nullptr, over every task.  Each
     * executed task's bid/savings are bit-compared against the
     * prev_bid_/prev_savings_ memos to stamp the change flags the
     * core folds and next round's dirty set consume.
     */
    void place_bids(const std::vector<TaskId>* list);

    /**
     * Core-agent bid folds (cores flagged in core_bid_recompute_, or
     * all when `skip_clean` is false) and the always-on O(cores)
     * price loop -- which re-reads each core's live supply so V-F
     * steps, power gating, safe-mode level clamps and faulted DVFS
     * need no explicit invalidation hooks: any supply or fold change
     * lands in price_changed_now_ by bit-compare.  Returns whether
     * any price moved.
     */
    bool discover_prices(bool skip_clean);

    /** Purchase pass over `list` (nullptr = every task), with supply
     *  change flags against the prev_supply_ memo. */
    void run_purchases(const std::vector<TaskId>* list);

    /**
     * Cluster-agent DVFS decisions; returns number of level changes.
     * `objective` is the round's excess_l2 norm -- the adaptive
     * stepper compares it against the previous round's to decide
     * whether the market is converging.
     */
    int control_supply(double objective);

    /**
     * Step `cl` by `delta` levels through the DVFS port when one is
     * attached, directly otherwise.  Returns whether the hardware
     * level changed *now* (a deferred or failed faulted request
     * returns false, so freeze/base-reset logic stays tied to actual
     * supply changes).
     */
    bool step_cluster(hw::Cluster& cl, int delta);

    /** Fill the attached telemetry snapshot from the post-round state. */
    void fill_telemetry(const RoundReport& report);

    /** Grow the per-task incremental bookkeeping to tasks_.size(). */
    void ensure_incr_capacity();

    /** Flag task `t` as externally dirtied for the upcoming round. */
    void mark_task_ext(TaskId t);

    hw::Chip* chip_;
    PpmConfig cfg_;
    std::vector<TaskState> tasks_;
    std::vector<CoreState> cores_;
    std::vector<ClusterCtl> clusters_;
    Money allowance_ = 0.0;
    ChipState state_ = ChipState::kNormal;
    long rounds_ = 0;
    RoundReport last_report_;  ///< Copy of the last round() result.
    bool allowance_clamped_ = false;  ///< Set by update_allowance().
    MarketTelemetry* telemetry_ = nullptr;  ///< Not owned; may be null.
    fault::DvfsPort* dvfs_port_ = nullptr;  ///< Not owned; may be null.
    std::vector<ClusterId> core_cluster_;   ///< Chip topology, by core.

    // Reusable per-round scratch (capacity kept across rounds) so a
    // steady-state round allocates nothing.
    std::vector<double> scratch_core_prio_;     ///< distribute_allowance.
    std::vector<double> scratch_cluster_prio_;  ///< distribute_allowance.
    std::vector<double> scratch_weight_;        ///< distribute_allowance.
    // Per-core bid folds from discover_prices.  NOT scratch despite
    // living here: an incremental round skips cores outside the bid
    // recompute set and reuses their fold from the previous round, so
    // the vector is a cross-round memo and is serialized in snapshots.
    std::vector<Money> scratch_bid_sum_;        ///< discover_prices.

    // The cached per-core task grouping (see rebuild_groups).
    // groups_dirty_ is set by every mutator that changes a task's core
    // or activity.
    std::vector<int> group_offset_;   ///< cores+1 prefix offsets.
    std::vector<int> group_cursor_;   ///< Counting-sort scratch.
    std::vector<TaskId> group_task_;  ///< Active ids grouped by core.
    bool groups_dirty_ = true;

    // Per-core bid-floor flags for control_supply(), produced by the
    // discover_prices() per-core bid fold.
    std::vector<unsigned char> core_any_task_;
    std::vector<unsigned char> core_all_floor_;

    /** Chip-wide excess objective of the previous round (<0 = none). */
    double prev_objective_ = -1.0;

    // ---- Incremental active-set clearing ----------------------------
    // Dirty tracking for cross-round result reuse.  The bookkeeping
    // below runs on every round regardless of PpmConfig::incremental;
    // the flag only decides whether clean entries are actually
    // *skipped*, so the recompute sets, skip counters and all cleared
    // values are bit-identical with incrementality on or off (the
    // determinism argument lives in ARCHITECTURE.md).  A skip is only
    // taken when every input of the entry's fold is bit-unchanged
    // (memcmp, not ==: -0.0 vs +0.0 print differently, NaNs must stay
    // dirty), so replaying the memoized result is value-identical by
    // construction.

    /** Next round recomputes everything (mutable hooks, sanitize). */
    bool force_full_ = true;
    long groups_epoch_ = 0;    ///< Bumped by each rebuild_groups().
    long round_tag_ = 0;       ///< Stamp value of the current round.

    std::vector<unsigned char> task_ext_;  ///< Mutator-dirtied tasks.
    std::vector<TaskId> ext_list_;         ///< ...as a compact list.
    std::vector<unsigned char> task_carry_;///< Outputs moved last round.
    bool any_carry_ = false;
    std::vector<long> alloc_stamp_;      ///< Allowance bits moved (round).
    std::vector<long> bid_stamp_;        ///< Bid bits moved (round).
    std::vector<long> processed_stamp_;  ///< In this round's active set.

    // Last cleared values, for the bit-compares that decide the change
    // flags (tasks_ itself is overwritten in place by the passes).
    std::vector<Money> prev_bid_;
    std::vector<Money> prev_savings_;
    std::vector<Pu> prev_supply_;

    // Per-core dirt.  core_fold_dirty_ collects the cores whose member
    // bids moved during the bid pass.
    std::vector<unsigned char> core_demand_dirty_;
    std::vector<unsigned char> core_fold_dirty_;
    std::vector<unsigned char> core_recompute_;      ///< Demand-fold set.
    std::vector<unsigned char> core_bid_recompute_;  ///< Bid-fold set.
    std::vector<unsigned char> price_changed_last_;  ///< Prev round.
    std::vector<unsigned char> price_changed_now_;   ///< This round.
    bool any_price_changed_last_ = false;

    // Per-cluster freeze-flag deltas between consecutive bid passes.
    std::vector<unsigned char> freeze_changed_;
    std::vector<unsigned char> freeze_seen_;
    bool any_freeze_changed_ = false;

    // Round-local "anything changed" flags; the passes set them,
    // round() resets them.
    bool flag_any_alloc_ = false;
    bool flag_any_bid_ = false;
    bool flag_any_carry_ = false;

    // distribute_allowance memo: parameters of the last distributing
    // round.  A cluster is clean iff the epoch, global allowance and
    // its weight (plus the weight sum) are bit-unchanged.
    bool dist_valid_ = false;
    long dist_epoch_ = -1;
    Money dist_allowance_ = 0.0;
    double dist_weight_sum_ = 0.0;
    std::vector<double> dist_weight_;

    /** Epoch of the cached priority folds in scratch_core_prio_ /
     *  scratch_cluster_prio_ (integer sums: exact, so reuse is
     *  bit-identical to recomputation). */
    long prio_epoch_ = -1;

    // Circulating-bids fold memo for update_allowance()'s money
    // anchor (task-id association preserved by memoizing the whole
    // fold; invalidated by any bid change or group rebuild).
    Money circ_sum_ = 0.0;
    bool circ_valid_ = false;

    // Cluster-membership index over ALL tasks (inactive included --
    // distribute_allowance writes inactive allowances too), grouped by
    // cluster in task-id order; rebuilt with the core groups.
    std::vector<int> cluster_offset_;
    std::vector<int> cluster_cursor_;
    std::vector<TaskId> cluster_task_;

    // Compacted per-round work lists (scratch, capacity kept).
    std::vector<TaskId> dirty_tasks_;      ///< Bid-pass active set.
    std::vector<TaskId> purchase_tasks_;   ///< Purchase-pass active set.
    std::vector<TaskId> recomputed_tasks_; ///< Union, ascending.

    ClearingStats clearing_;   ///< Cumulative counters.
};

/**
 * Finiteness/sign checks on one agent's state, factored out of
 * Market::sane() so tests can probe them on synthetic garbage (the
 * public mutators filter bad inputs, making in-market corruption
 * unreachable from outside).
 */
bool finite_task_state(const TaskState& t);
bool finite_core_state(const CoreState& c);

} // namespace ppm::market

#endif // PPM_MARKET_MARKET_HH
