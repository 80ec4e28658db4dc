#include "market/market.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.hh"

namespace ppm::market {

namespace {

/**
 * Bit-pattern equality.  The incremental skip rules must compare the
 * exact bytes a full recomputation would produce: operator== treats
 * -0.0 and +0.0 as equal although they serialize differently, and
 * compares every NaN unequal to itself although replaying the same
 * NaN bits is exactly what a deterministic re-execution would do.
 */
inline bool
bits_eq(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

} // namespace

const char*
chip_state_name(ChipState s)
{
    switch (s) {
      case ChipState::kNormal:
        return "normal";
      case ChipState::kThreshold:
        return "threshold";
      case ChipState::kEmergency:
        return "emergency";
    }
    return "?";
}

Market::Market(hw::Chip* chip, PpmConfig cfg)
    : chip_(chip), cfg_(cfg),
      cores_(static_cast<std::size_t>(chip->num_cores())),
      clusters_(static_cast<std::size_t>(chip->num_clusters())),
      allowance_(cfg.initial_allowance)
{
    PPM_ASSERT(chip_ != nullptr, "market needs a chip");
    PPM_ASSERT(cfg_.w_th < cfg_.w_tdp, "W_th must be below W_tdp");
    PPM_ASSERT(cfg_.tolerance > 0.0, "tolerance factor must be positive");
    PPM_ASSERT(cfg_.min_bid > 0.0, "minimum bid must be positive");
    for (CoreId c = 0; c < chip_->num_cores(); ++c) {
        cores_[static_cast<std::size_t>(c)].id = c;
        core_cluster_.push_back(chip_->cluster_of(c));
    }
    group_offset_.assign(cores_.size() + 1, 0);
    core_any_task_.assign(cores_.size(), 0);
    core_all_floor_.assign(cores_.size(), 0);
    const std::size_t ncores = cores_.size();
    scratch_bid_sum_.assign(ncores, 0.0);
    core_demand_dirty_.assign(ncores, 0);
    core_recompute_.assign(ncores, 0);
    core_bid_recompute_.assign(ncores, 0);
    price_changed_last_.assign(ncores, 0);
    price_changed_now_.assign(ncores, 0);
    core_fold_dirty_.assign(ncores, 0);
    const std::size_t ncl = clusters_.size();
    freeze_changed_.assign(ncl, 0);
    freeze_seen_.assign(ncl, 0);
    dist_weight_.assign(ncl, 0.0);
    cluster_offset_.assign(ncl + 1, 0);
}

void
Market::ensure_incr_capacity()
{
    const std::size_t n = tasks_.size();
    if (task_ext_.size() >= n)
        return;
    task_ext_.resize(n, 0);
    task_carry_.resize(n, 0);
    alloc_stamp_.resize(n, 0);
    bid_stamp_.resize(n, 0);
    processed_stamp_.resize(n, 0);
    prev_bid_.resize(n, 0.0);
    prev_savings_.resize(n, 0.0);
    prev_supply_.resize(n, 0.0);
}

void
Market::mark_task_ext(TaskId t)
{
    ensure_incr_capacity();
    const auto i = static_cast<std::size_t>(t);
    if (task_ext_[i] == 0) {
        task_ext_[i] = 1;
        ext_list_.push_back(t);
    }
}

void
Market::rebuild_groups()
{
    if (!groups_dirty_)
        return;
    const std::size_t ncores = cores_.size();
    group_cursor_.assign(ncores, 0);
    for (const TaskState& t : tasks_) {
        if (t.active)
            ++group_cursor_[static_cast<std::size_t>(t.core)];
    }
    group_offset_.resize(ncores + 1);
    group_offset_[0] = 0;
    for (std::size_t c = 0; c < ncores; ++c)
        group_offset_[c + 1] = group_offset_[c] + group_cursor_[c];
    group_task_.resize(
        static_cast<std::size_t>(group_offset_[ncores]));
    for (std::size_t c = 0; c < ncores; ++c)
        group_cursor_[c] = group_offset_[c];
    for (const TaskState& t : tasks_) {
        if (t.active) {
            group_task_[static_cast<std::size_t>(
                group_cursor_[static_cast<std::size_t>(t.core)]++)] =
                t.id;
        }
    }

    // Cluster-membership index over ALL tasks (the allowance
    // distribution writes inactive entries too), same counting sort.
    const std::size_t ncl = clusters_.size();
    cluster_cursor_.assign(ncl, 0);
    for (const TaskState& t : tasks_)
        ++cluster_cursor_[static_cast<std::size_t>(cluster_of(t))];
    cluster_offset_.resize(ncl + 1);
    cluster_offset_[0] = 0;
    for (std::size_t v = 0; v < ncl; ++v)
        cluster_offset_[v + 1] = cluster_offset_[v] + cluster_cursor_[v];
    cluster_task_.resize(static_cast<std::size_t>(cluster_offset_[ncl]));
    for (std::size_t v = 0; v < ncl; ++v)
        cluster_cursor_[v] = cluster_offset_[v];
    for (const TaskState& t : tasks_) {
        cluster_task_[static_cast<std::size_t>(
            cluster_cursor_[static_cast<std::size_t>(cluster_of(t))]++)] =
            t.id;
    }

    groups_dirty_ = false;
    ++groups_epoch_;
    // The active set / bid population changed; the circulating-bids
    // fold can no longer be replayed.
    circ_valid_ = false;
}

void
Market::add_task(TaskId id, int priority, CoreId initial_core)
{
    PPM_ASSERT(id == static_cast<TaskId>(tasks_.size()),
               "task ids must be dense and in order");
    PPM_ASSERT(priority >= 1, "priority must be >= 1");
    PPM_ASSERT(initial_core >= 0 && initial_core < chip_->num_cores(),
               "initial core out of range");
    TaskState t;
    t.id = id;
    t.priority = priority;
    t.core = initial_core;
    t.bid = std::max(cfg_.min_bid, cfg_.initial_bid);
    tasks_.push_back(t);
    groups_dirty_ = true;
    mark_task_ext(id);
}

void
Market::set_demand(TaskId t, Pu demand)
{
    PPM_ASSERT(demand >= 0.0, "demand must be non-negative");
    PPM_ASSERT(t >= 0 && t < static_cast<TaskId>(tasks_.size()),
               "task id out of range");
    TaskState& ts = tasks_[static_cast<std::size_t>(t)];
    // A bit-identical redeclared demand changes nothing downstream;
    // writing it without the dirty marks keeps the entry skippable.
    if (bits_eq(ts.demand, demand))
        return;
    ts.demand = demand;
    mark_task_ext(t);
    core_demand_dirty_[static_cast<std::size_t>(ts.core)] = 1;
}

void
Market::set_task_core(TaskId t, CoreId core)
{
    PPM_ASSERT(core >= 0 && core < chip_->num_cores(),
               "core out of range");
    PPM_ASSERT(t >= 0 && t < static_cast<TaskId>(tasks_.size()),
               "task id out of range");
    TaskState& ts = tasks_[static_cast<std::size_t>(t)];
    if (ts.core == core)
        return;
    ts.core = core;
    groups_dirty_ = true;
    mark_task_ext(t);
}

void
Market::set_task_active(TaskId t, bool active)
{
    PPM_ASSERT(t >= 0 && t < static_cast<TaskId>(tasks_.size()),
               "task id out of range");
    TaskState& ts = tasks_[static_cast<std::size_t>(t)];
    if (ts.active == active)
        return;
    ts.active = active;
    // A departing agent's money leaves circulation; a (re)arriving
    // agent starts afresh.
    ts.bid = std::max(cfg_.min_bid, cfg_.initial_bid);
    ts.savings = 0.0;
    ts.supply = 0.0;
    ts.demand = active ? ts.demand : 0.0;
    groups_dirty_ = true;
    mark_task_ext(t);
    core_demand_dirty_[static_cast<std::size_t>(ts.core)] = 1;
}

void
Market::set_cluster_power(ClusterId v, Watts w)
{
    PPM_ASSERT(v >= 0 && v < chip_->num_clusters(),
               "cluster id out of range");
    clusters_[static_cast<std::size_t>(v)].power = std::max(0.0, w);
}

void
Market::set_tdp(Watts w_tdp, Watts w_th)
{
    PPM_ASSERT(w_th < w_tdp, "w_th must stay below w_tdp");
    PPM_ASSERT(w_tdp > 0.0, "w_tdp must be positive");
    cfg_.w_tdp = w_tdp;
    cfg_.w_th = w_th;
}

void
Market::set_cluster_power_raw(ClusterId v, Watts w)
{
    PPM_ASSERT(v >= 0 && v < chip_->num_clusters(),
               "cluster id out of range");
    clusters_[static_cast<std::size_t>(v)].power = w;
}

const TaskState&
Market::task(TaskId t) const
{
    PPM_ASSERT(t >= 0 && t < static_cast<TaskId>(tasks_.size()),
               "task id out of range");
    return tasks_[static_cast<std::size_t>(t)];
}

TaskState&
Market::task(TaskId t)
{
    PPM_ASSERT(t >= 0 && t < static_cast<TaskId>(tasks_.size()),
               "task id out of range");
    // The caller can rewrite any field behind the dirty tracking's
    // back, so the memos are forfeit (cf. the header contract).
    force_full_ = true;
    return tasks_[static_cast<std::size_t>(t)];
}

const CoreState&
Market::core(CoreId c) const
{
    PPM_ASSERT(c >= 0 && c < static_cast<CoreId>(cores_.size()),
               "core id out of range");
    return cores_[static_cast<std::size_t>(c)];
}

CoreState&
Market::core(CoreId c)
{
    PPM_ASSERT(c >= 0 && c < static_cast<CoreId>(cores_.size()),
               "core id out of range");
    force_full_ = true;
    return cores_[static_cast<std::size_t>(c)];
}

CoreId
Market::constrained_core(ClusterId v) const
{
    const hw::Cluster& cl = chip_->cluster(v);
    CoreId best = kInvalidId;
    Pu best_demand = 0.0;
    for (CoreId c : cl.cores()) {
        const Pu d = cores_[static_cast<std::size_t>(c)].demand;
        if (d > best_demand) {
            best_demand = d;
            best = c;
        }
    }
    return best;
}

bool
Market::bids_frozen(ClusterId v) const
{
    PPM_ASSERT(v >= 0 && v < chip_->num_clusters(),
               "cluster id out of range");
    return clusters_[static_cast<std::size_t>(v)].freeze_bids;
}

void
Market::refresh_core_demands(bool skip_clean)
{
    // Each core's demand folds over its grouped tasks in id order.  A
    // core outside core_recompute_ had no member demand change and no
    // regrouping, so its memoized sum is the bit-exact fold result
    // already.
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        if (skip_clean && core_recompute_[c] == 0)
            continue;
        Pu demand = 0.0;
        for (int k = group_offset_[c]; k < group_offset_[c + 1]; ++k)
            demand += grouped_task(k).demand;
        cores_[c].demand = demand;
    }
}

ChipState
Market::update_allowance(Watts chip_power, Pu total_demand, Pu deficit,
                         Pu raw_deficit)
{
    ChipState state = ChipState::kNormal;
    Money delta = 0.0;
    if (chip_power > cfg_.w_tdp) {
        // Emergency: cut allowance proportionally to the overshoot.
        state = ChipState::kEmergency;
        delta = allowance_ * (cfg_.w_tdp - chip_power) / cfg_.w_tdp;
    } else if (chip_power >= cfg_.w_th) {
        // Threshold: hold the money supply constant.
        state = ChipState::kThreshold;
        delta = 0.0;
    } else {
        // Normal: grow the allowance while the demand is not
        // satisfied in at least one of the clusters, proportionally
        // to the unmet demand.  With no deficit, anchor the money
        // supply to the circulating bids (quantity theory of money)
        // so the allowance scale tracks real spending.
        state = ChipState::kNormal;
        if (deficit > 0.0 && total_demand > 0.0) {
            delta = allowance_
                * std::min(deficit / total_demand,
                           cfg_.allowance_growth_cap);
        } else if (cfg_.money_anchor_rate > 0.0 &&
                   raw_deficit <= 0.0) {
            // The circulating-bids fold accumulates in task-id order;
            // memoizing the finished fold (rather than patching it)
            // keeps the association -- and hence the bits -- identical
            // to the full walk.  Valid while no bid changed and the
            // active set held (any_bid / rebuild_groups invalidate).
            Money circulating;
            if (circ_valid_) {
                circulating = circ_sum_;
            } else {
                circulating = 0.0;
                for (const TaskState& t : tasks_) {
                    if (t.active)
                        circulating += t.bid;
                }
                circ_sum_ = circulating;
                circ_valid_ = true;
            }
            const Money target = cfg_.money_anchor_slack * circulating;
            if (allowance_ > target) {
                delta = -cfg_.money_anchor_rate
                    * (allowance_ - target);
            }
        }
    }
    const Money floor = cfg_.min_bid
        * static_cast<double>(std::max<std::size_t>(1, tasks_.size()));
    const Money unclamped = allowance_ + delta;
    allowance_ = std::clamp(unclamped, floor, cfg_.max_allowance);
    allowance_clamped_ = allowance_ != unclamped;
    return state;
}

void
Market::distribute_allowance(Watts chip_power, bool skip_clean,
                             bool global)
{
    // Priority sums per core and cluster (reusable scratch: the
    // market rounds on the governor's bid cadence, so per-round
    // allocations would land on the simulation hot path).  The core
    // sums fold over the per-core groups; the cluster sums fold over
    // the cluster's cores.  Both are sums of small integers, which
    // doubles represent exactly under any association, so the
    // epoch-cached reuse below equals a recomputation: priorities
    // only move with the groups, and integer sums have one exact
    // value.
    std::vector<double>& core_prio = scratch_core_prio_;
    std::vector<double>& cluster_prio = scratch_cluster_prio_;
    if (prio_epoch_ != groups_epoch_) {
        core_prio.resize(cores_.size());
        cluster_prio.assign(clusters_.size(), 0.0);
        for (std::size_t c = 0; c < cores_.size(); ++c) {
            double prio = 0.0;
            for (int k = group_offset_[c]; k < group_offset_[c + 1]; ++k)
                prio += static_cast<double>(grouped_task(k).priority);
            core_prio[c] = prio;
        }
        for (ClusterId v = 0; v < chip_->num_clusters(); ++v) {
            for (CoreId c : chip_->cluster(v).cores()) {
                cluster_prio[static_cast<std::size_t>(v)] +=
                    core_prio[static_cast<std::size_t>(c)];
            }
        }
        prio_epoch_ = groups_epoch_;
    }

    // Cluster weights: inversely proportional to power consumption
    // (A_v = A * (W - W_v) / W, normalized over clusters that actually
    // host tasks).  Falls back to priority-proportional weights when
    // the power readings carry no signal.
    std::vector<double>& weight = scratch_weight_;
    weight.assign(clusters_.size(), 0.0);
    double weight_sum = 0.0;
    double hosting_prio = 0.0;  ///< Priority mass of hosting clusters.
    for (std::size_t v = 0; v < clusters_.size(); ++v) {
        if (cluster_prio[v] <= 0.0)
            continue;
        hosting_prio += cluster_prio[v];
        double w = chip_power - clusters_[v].power;
        if (chip_power <= 1e-9)
            w = 0.0;
        weight[v] = std::max(0.0, w);
        weight_sum += weight[v];
    }
    if (weight_sum > 1e-12) {
        // Starvation guard: a task-hosting cluster whose power-derived
        // weight collapsed to ~0 (a stuck/stale sensor reading at or
        // above the whole chip's power while every other cluster reads
        // zero) would otherwise receive no allowance at all, forever.
        // Give such a cluster its priority-proportional share of the
        // existing weight mass instead; clusters with healthy readings
        // are untouched (their weights are already positive).
        const double base_sum = weight_sum;
        for (std::size_t v = 0; v < clusters_.size(); ++v) {
            if (cluster_prio[v] <= 0.0 || weight[v] > 1e-12)
                continue;
            weight[v] = base_sum * cluster_prio[v] / hosting_prio;
            weight_sum += weight[v];
        }
    } else {
        for (std::size_t v = 0; v < clusters_.size(); ++v) {
            weight[v] = cluster_prio[v];
            weight_sum += weight[v];
        }
    }
    if (weight_sum <= 1e-12)
        return;  // No tasks anywhere; allowances (and the memo) hold.

    // Chip -> cluster -> core -> task, each level priority-weighted.
    // Every write bit-compares against the standing allowance and
    // stamps the moved entries into the bid pass's dirty set; a
    // cluster whose distribution inputs are bit-unchanged since the
    // last distributing round reproduces every member bit for bit, so
    // the incremental path skips it outright (the stamps still come
    // out identical: unchanged values stamp nothing in either mode).
    auto write_task = [this, &weight, &core_prio, &cluster_prio,
                       weight_sum](std::size_t i) {
        TaskState& t = tasks_[i];
        Money value = 0.0;
        if (t.active) {
            const auto v = static_cast<std::size_t>(cluster_of(t));
            const auto c = static_cast<std::size_t>(t.core);
            const Money cluster_allowance =
                allowance_ * weight[v] / weight_sum;
            const Money core_allowance =
                cluster_allowance * core_prio[c] / cluster_prio[v];
            value = core_allowance * static_cast<double>(t.priority) /
                core_prio[c];
        }
        if (!bits_eq(value, t.allowance)) {
            t.allowance = value;
            alloc_stamp_[i] = round_tag_;
            flag_any_alloc_ = true;
        }
    };

    if (!skip_clean) {
        for (std::size_t i = 0; i < tasks_.size(); ++i)
            write_task(i);
    } else {
        // Rewrite only the members of the dirty clusters.
        for (std::size_t v = 0; v < clusters_.size(); ++v) {
            const bool clean = !global && dist_valid_ &&
                dist_epoch_ == groups_epoch_ &&
                bits_eq(dist_allowance_, allowance_) &&
                bits_eq(dist_weight_sum_, weight_sum) &&
                bits_eq(dist_weight_[v], weight[v]);
            if (clean)
                continue;
            for (int k = cluster_offset_[v]; k < cluster_offset_[v + 1];
                 ++k) {
                write_task(static_cast<std::size_t>(
                    cluster_task_[static_cast<std::size_t>(k)]));
            }
        }
    }

    dist_valid_ = true;
    dist_epoch_ = groups_epoch_;
    dist_allowance_ = allowance_;
    dist_weight_sum_ = weight_sum;
    dist_weight_.assign(weight.begin(), weight.end());
}

void
Market::place_bids(const std::vector<TaskId>* list)
{
    // Purely element-wise over the task agents; the pass only reads
    // the shared core prices and cluster freeze flags.  Skipping an
    // entry is sound only when it sat at a bitwise fixed point last
    // round (bid/savings replayed verbatim) AND every exogenous input
    // -- demand, allowance, savings tax, last round's price, last
    // round's supply, the freeze flag, the rounds_ > 0 branch -- is
    // bit-unchanged; round() assembles exactly that set into `list`.
    // After the body, each executed entry bit-compares its outputs
    // against the prev_* memos: the resulting stamps drive the bid
    // folds, the purchase set and next round's dirty set, and are
    // evaluated over the full range whenever the full range executes,
    // so both modes stamp identically.
    auto agent = [this](std::size_t i) {
        TaskState& t = tasks_[i];
        if (t.active) {
            const bool frozen =
                clusters_[static_cast<std::size_t>(cluster_of(t))]
                    .freeze_bids;
            if (!frozen && rounds_ > 0) {
                const Money price =
                    cores_[static_cast<std::size_t>(t.core)].price;
                t.bid += (t.demand - t.supply) * price;
            }
            // The bid bound b_min <= b <= a + m holds unconditionally
            // -- a frozen bid is still cut when the allowance
            // collapses (emergency response must not be deferred).
            t.bid = std::clamp(t.bid, cfg_.min_bid,
                               std::max(cfg_.min_bid,
                                        t.allowance + t.savings));
            // Savings bookkeeping: unspent allowance accrues,
            // overspend draws down.  Agents do not accrue while bids
            // are frozen during a V-F transition (cf. the flat
            // savings in Table 3's transition rounds).  The cap -- a
            // multiple of the current allowance -- limits *new*
            // accrual but never confiscates an existing balance when
            // the allowance shrinks.
            if (!frozen) {
                const Money cap = cfg_.savings_cap_frac * t.allowance;
                Money next = t.savings + (t.allowance - t.bid);
                if (next > t.savings)
                    next = std::min(next, std::max(t.savings, cap));
                t.savings = std::max(0.0, next);
            }
        }
        // Change flags: an inactive task writes nothing above, but a
        // mutator may have reset its ledger, so the compares run for
        // every executed entry.
        const bool bid_moved = !bits_eq(t.bid, prev_bid_[i]);
        if (bid_moved) {
            prev_bid_[i] = t.bid;
            bid_stamp_[i] = round_tag_;
            core_fold_dirty_[static_cast<std::size_t>(t.core)] = 1;
            flag_any_bid_ = true;
        }
        const bool savings_moved = !bits_eq(t.savings, prev_savings_[i]);
        if (savings_moved)
            prev_savings_[i] = t.savings;
        task_carry_[i] = (bid_moved || savings_moved) ? 1 : 0;
        if (bid_moved || savings_moved)
            flag_any_carry_ = true;
    };

    if (list == nullptr) {
        for (std::size_t i = 0; i < tasks_.size(); ++i)
            agent(i);
    } else {
        for (const TaskId t : *list)
            agent(static_cast<std::size_t>(t));
    }
}

bool
Market::discover_prices(bool skip_clean)
{
    // Sum of bids per core: like refresh_core_demands(), each core
    // folds its grouped tasks in id order.  The same fold derives the
    // per-core bid-floor flags control_supply() consumes: whether the
    // core hosts any active task and whether every one of its bids
    // sits at b_min.  A core outside core_bid_recompute_ had no member
    // bid change and no regrouping, so its memoized fold (and flags)
    // stand.
    std::vector<Money>& bid_sum = scratch_bid_sum_;
    bid_sum.resize(cores_.size());
    const Money floor = cfg_.min_bid + 1e-12;
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        if (skip_clean && core_bid_recompute_[c] == 0)
            continue;
        Money bids = 0.0;
        unsigned char all_floor = 1;
        const int lo = group_offset_[c];
        const int hi = group_offset_[c + 1];
        for (int k = lo; k < hi; ++k) {
            const Money bid = grouped_task(k).bid;
            bids += bid;
            if (bid > floor)
                all_floor = 0;
        }
        bid_sum[c] = bids;
        core_any_task_[c] = hi > lo ? 1 : 0;
        core_all_floor_[c] = all_floor;
    }

    // Price loop: always O(cores), never skipped.  Reading the live
    // core supply and bit-comparing the resulting price is what makes
    // every supply-side channel (cluster V-F steps, power gating,
    // safe-mode clamps, deferred faulted DVFS) an automatic
    // invalidation: any change surfaces here and dirties exactly the
    // tasks that price their purchases off this core.
    bool any_price_moved = false;
    for (CoreState& c : cores_) {
        const auto ci = static_cast<std::size_t>(c.id);
        c.supply = chip_->core_supply(c.id);
        const Money bids = bid_sum[ci];
        const Money price =
            (c.supply > 0.0 && bids > 0.0) ? bids / c.supply : 0.0;
        const unsigned char moved = bits_eq(price, c.price) ? 0 : 1;
        price_changed_now_[ci] = moved;
        any_price_moved |= moved != 0;
        c.price = price;
    }
    return any_price_moved;
}

void
Market::run_purchases(const std::vector<TaskId>* list)
{
    // Purchases: element-wise over the task agents.  supply is a pure
    // function of (active, bid, this round's price), so the active
    // set is exactly the tasks with a stamped bid, a moved core
    // price, or an external mutation; everything else replays its
    // memoized supply bit for bit.
    auto purchase = [this](std::size_t i) {
        TaskState& t = tasks_[i];
        Pu supply = 0.0;
        if (t.active) {
            const CoreState& c = cores_[static_cast<std::size_t>(t.core)];
            supply = c.price > 0.0 ? t.bid / c.price : 0.0;
        }
        t.supply = supply;
        if (!bits_eq(supply, prev_supply_[i])) {
            prev_supply_[i] = supply;
            task_carry_[i] = 1;
            flag_any_carry_ = true;
        }
    };
    if (list == nullptr) {
        for (std::size_t i = 0; i < tasks_.size(); ++i)
            purchase(i);
    } else {
        for (const TaskId t : *list)
            purchase(static_cast<std::size_t>(t));
    }
}

int
Market::control_supply()
{
    if (!cfg_.dvfs_enabled) {
        // Keep the base prices tracking so the market stays
        // well-conditioned even though levels never move.
        for (ClusterId v = 0; v < chip_->num_clusters(); ++v) {
            const CoreId cc = constrained_core(v);
            if (cc != kInvalidId) {
                auto& core = cores_[static_cast<std::size_t>(cc)];
                core.base_price = core.price;
                core.has_base = core.price > 0.0;
            }
        }
        return 0;
    }
    int changes = 0;
    for (ClusterId v = 0; v < chip_->num_clusters(); ++v) {
        auto& ctl = clusters_[static_cast<std::size_t>(v)];
        hw::Cluster& cl = chip_->cluster(v);
        const CoreId constrained = constrained_core(v);
        if (constrained == kInvalidId || !cl.powered()) {
            ctl.freeze_bids = false;
            ctl.pending_base_reset = false;
            continue;
        }
        CoreState& cc = cores_[static_cast<std::size_t>(constrained)];
        if (ctl.pending_base_reset) {
            // First full round at the new V-F level: anchor the base
            // price and release the task agents' bids.
            cc.base_price = cc.price;
            cc.has_base = true;
            ctl.pending_base_reset = false;
            ctl.freeze_bids = false;
            continue;
        }
        if (!cc.has_base) {
            cc.base_price = cc.price;
            cc.has_base = cc.price > 0.0;
            continue;
        }
        const double delta = cfg_.tolerance;
        // The paper's demand rounding: while the chip is in the
        // normal state, never deflate below the supply that covers
        // the constrained core's demand -- prevents the limit cycle
        // between two adjacent levels.  Money-driven deflation in the
        // threshold/emergency states is exempt (the Table 3 descent).
        const bool demand_covered_below = cl.level() == 0 ||
            cl.vf().supply(cl.level() - 1) >= cc.demand;
        const bool may_deflate = !cfg_.demand_rounding ||
            state_ != ChipState::kNormal || demand_covered_below;
        bool changed = false;
        if (cc.price >= cc.base_price * (1.0 + delta)) {
            // Inflation: raise supply.
            changed = step_cluster(cl, +1);
        } else if (cc.price <= cc.base_price * (1.0 - delta)) {
            if (may_deflate) {
                // Deflation: lower supply.
                changed = step_cluster(cl, -1);
            } else {
                // Deflation blocked by demand rounding: accept the
                // lower price as the new base so the inflation trigger
                // stays responsive.
                cc.base_price = cc.price;
            }
        } else if (cl.level() > 0) {
            // Bid-floor deflation: once every bid on the constrained
            // core has fallen to b_min, the price is pinned and can no
            // longer signal over-supply.  The paper expects such a
            // cluster to settle at the minimum frequency that covers
            // its demand, so walk down one level while a lower level
            // suffices.  The flags come from discover_prices()'s
            // reduction pass, replacing the old O(tasks) scan per
            // cluster per round.
            const auto ci = static_cast<std::size_t>(constrained);
            if (core_any_task_[ci] != 0 && core_all_floor_[ci] != 0 &&
                cl.vf().supply(cl.level() - 1) >= cc.demand) {
                changed = step_cluster(cl, -1);
            }
        }
        if (changed) {
            ctl.freeze_bids = true;
            ctl.pending_base_reset = true;
            ++changes;
        }
    }
    return changes;
}

bool
Market::step_cluster(hw::Cluster& cl, int delta)
{
    if (dvfs_port_ != nullptr)
        return dvfs_port_->request_step(cl.id(), delta);
    return cl.step_level(delta);
}

bool
finite_task_state(const TaskState& t)
{
    return std::isfinite(t.demand) && t.demand >= 0.0 &&
        std::isfinite(t.supply) && t.supply >= 0.0 &&
        std::isfinite(t.bid) && std::isfinite(t.savings) &&
        std::isfinite(t.allowance);
}

bool
finite_core_state(const CoreState& c)
{
    return std::isfinite(c.price) && c.price >= 0.0 &&
        std::isfinite(c.base_price) &&
        std::isfinite(c.supply) && c.supply >= 0.0;
}

bool
Market::sane() const
{
    if (!std::isfinite(allowance_) || allowance_ < 0.0)
        return false;
    for (const TaskState& t : tasks_) {
        if (!finite_task_state(t))
            return false;
    }
    for (const CoreState& c : cores_) {
        if (!finite_core_state(c))
            return false;
    }
    // A poisoned power reading corrupts the weight and state machinery
    // of the *next* round, so the watchdog must catch it here, before
    // it is spent.
    for (const ClusterCtl& ctl : clusters_) {
        if (!std::isfinite(ctl.power) || ctl.power < 0.0)
            return false;
    }
    return true;
}

int
Market::sanitize(const std::vector<Pu>& fallback_supplies)
{
    int repaired = 0;
    for (TaskState& t : tasks_) {
        if (!std::isfinite(t.demand) || t.demand < 0.0) {
            t.demand = 0.0;
            ++repaired;
        }
        if (!std::isfinite(t.supply) || t.supply < 0.0) {
            const auto i = static_cast<std::size_t>(t.id);
            const Pu fb = i < fallback_supplies.size()
                ? fallback_supplies[i] : 0.0;
            t.supply = (std::isfinite(fb) && fb >= 0.0) ? fb : 0.0;
            ++repaired;
        }
        if (!std::isfinite(t.bid)) {
            t.bid = cfg_.min_bid;
            ++repaired;
        }
        if (!std::isfinite(t.savings) || t.savings < 0.0) {
            t.savings = 0.0;
            ++repaired;
        }
        if (!std::isfinite(t.allowance)) {
            t.allowance = 0.0;
            ++repaired;
        }
    }
    for (CoreState& c : cores_) {
        if (!std::isfinite(c.price) || c.price < 0.0) {
            c.price = 0.0;
            ++repaired;
        }
        if (!std::isfinite(c.base_price)) {
            c.base_price = 0.0;
            c.has_base = false;
            ++repaired;
        }
        if (!std::isfinite(c.supply) || c.supply < 0.0) {
            c.supply = 0.0;
            ++repaired;
        }
    }
    for (ClusterCtl& ctl : clusters_) {
        if (!std::isfinite(ctl.power) || ctl.power < 0.0) {
            ctl.power = 0.0;
            ++repaired;
        }
    }
    if (!std::isfinite(allowance_) || allowance_ < 0.0) {
        allowance_ = std::clamp(cfg_.initial_allowance,
                                cfg_.min_bid, cfg_.max_allowance);
        ++repaired;
    }
    // Repairs rewrite ledgers wholesale; drop every clearing memo.
    force_full_ = true;
    return repaired;
}

RoundReport
Market::round()
{
    // Every clearing pass reads and writes the task ledger tasks_ in
    // place, folding per-core sums over the grouping index.
    //
    // Incremental active-set clearing rides on top: the dirty
    // tracking below decides, pass by pass, which entries a full
    // recomputation could possibly change, and -- when
    // cfg_.incremental allows skipping -- replays the memoized
    // results for everything else.  The tracking itself runs in both
    // modes so the recompute sets, skip counters and cleared values
    // never depend on the mode; `global` rounds (warm-up, sanitize,
    // mutable-accessor use) recompute everything outright.
    ensure_incr_capacity();
    round_tag_ = rounds_ + 1;
    const bool global = force_full_ || rounds_ < 2;
    const bool skip_clean = cfg_.incremental && !global;
    if (global) {
        prio_epoch_ = -1;
        dist_valid_ = false;
        circ_valid_ = false;
    }
    flag_any_alloc_ = false;
    flag_any_bid_ = false;
    flag_any_carry_ = false;

    const long epoch_before = groups_epoch_;
    rebuild_groups();
    const bool groups_rebuilt = groups_epoch_ != epoch_before;

    // Demand-fold recompute set: regrouping or any member demand
    // change (set_demand marks the hosting core).
    const std::size_t ncores = cores_.size();
    long cores_recomputed = 0;
    for (std::size_t c = 0; c < ncores; ++c) {
        const unsigned char r =
            (global || groups_rebuilt || core_demand_dirty_[c] != 0)
            ? 1 : 0;
        core_recompute_[c] = r;
        core_demand_dirty_[c] = 0;
        cores_recomputed += r;
    }
    refresh_core_demands(skip_clean);

    // Chip demand D: sum over clusters of the constrained core's
    // demand; chip supply S: sum of cluster supplies (Section 2).
    // The deficit tracks per-cluster unmet demand so a starving
    // cluster is not masked by another cluster's surplus.
    Pu total_demand = 0.0;
    Pu total_supply = 0.0;
    Pu deficit = 0.0;
    Pu raw_deficit = 0.0;
    for (ClusterId v = 0; v < chip_->num_clusters(); ++v) {
        const hw::Cluster& cl = chip_->cluster(v);
        const CoreId cc = constrained_core(v);
        Pu cluster_demand = 0.0;
        if (cc != kInvalidId)
            cluster_demand = cores_[static_cast<std::size_t>(cc)].demand;
        total_demand += cluster_demand;
        total_supply += cl.supply();
        const Pu unmet = std::max(
            0.0,
            cluster_demand - cl.supply() * (1.0 + cfg_.demand_slack));
        raw_deficit += unmet;
        // Extra money only helps while the cluster can actually raise
        // its supply; a deficit at the top V-F level must be resolved
        // by the LBT module (or tolerated), not by inflating the
        // money supply forever.
        const bool headroom =
            cl.powered() && cl.level() < cl.vf().levels() - 1;
        if (headroom)
            deficit += unmet;
    }
    Watts chip_power = 0.0;
    for (const ClusterCtl& ctl : clusters_)
        chip_power += ctl.power;

    // The chip agent reacts to a one-round-lagged imbalance: the
    // demands are the ones just declared for this round, but the
    // supplies still reflect the V-F levels chosen at the *end* of
    // the previous round (control_supply runs last) and the power
    // readings accumulated since then -- exactly Table 3's
    // round-by-round evolution.  There is no separate
    // previous-round ledger; the lag lives in when supplies and
    // sensors are sampled.
    state_ = update_allowance(chip_power, total_demand, deficit,
                              raw_deficit);
    bool taxed = false;
    if (state_ == ChipState::kEmergency &&
        cfg_.emergency_savings_tax > 0.0) {
        // Monetary contraction: the TDP response must also curb the
        // banked money or savings-funded bids keep the supply -- and
        // the power -- inflated.  The tax rewrites every agent's
        // savings, so this round's bid pass runs over the full range.
        taxed = true;
        const double keep = 1.0 - cfg_.emergency_savings_tax;
        for (TaskState& t : tasks_)
            t.savings *= keep;
    }
    distribute_allowance(chip_power, skip_clean, global);

    // ----- Bid-pass active set ------------------------------------
    // A task re-bids when any input of its fold moved: an external
    // mutation (demand/core/activity/admission), its own outputs
    // still in motion last round (carry), a moved allowance, a moved
    // price on its core (the bid reads *last* round's price), a
    // flipped freeze flag on its cluster, or a global/tax round.  The
    // scan walks ascending task ids; the skip-everything case never
    // touches the O(tasks) arrays at all.
    const std::size_t ntasks = tasks_.size();
    const bool book_all = global || taxed;
    dirty_tasks_.clear();
    long tasks_recomputed = 0;
    if (book_all) {
        tasks_recomputed = static_cast<long>(ntasks);
    } else {
        const bool any_dirt = !ext_list_.empty() || any_carry_ ||
            flag_any_alloc_ || any_price_changed_last_ ||
            any_freeze_changed_;
        if (any_dirt) {
            for (std::size_t i = 0; i < ntasks; ++i) {
                const TaskState& t = tasks_[i];
                const bool dirty = task_ext_[i] != 0 ||
                    task_carry_[i] != 0 ||
                    alloc_stamp_[i] == round_tag_ ||
                    price_changed_last_[static_cast<std::size_t>(
                        t.core)] != 0 ||
                    freeze_changed_[static_cast<std::size_t>(
                        cluster_of(t))] != 0;
                if (dirty) {
                    dirty_tasks_.push_back(static_cast<TaskId>(i));
                    processed_stamp_[i] = round_tag_;
                }
            }
        }
        tasks_recomputed = static_cast<long>(dirty_tasks_.size());
    }
    place_bids(skip_clean && !book_all ? &dirty_tasks_ : nullptr);

    // ----- Bid-fold recompute set ---------------------------------
    const bool any_bid_moved = flag_any_bid_;
    for (std::size_t c = 0; c < ncores; ++c) {
        const unsigned char r =
            (global || groups_rebuilt || core_fold_dirty_[c] != 0) ? 1
                                                                   : 0;
        core_fold_dirty_[c] = 0;
        core_bid_recompute_[c] = r;
        if (r != 0 && core_recompute_[c] == 0)
            ++cores_recomputed;
    }
    const bool any_price_moved = discover_prices(skip_clean);

    // ----- Purchase active set ------------------------------------
    purchase_tasks_.clear();
    if (!book_all &&
        (any_bid_moved || any_price_moved || !ext_list_.empty())) {
        for (std::size_t i = 0; i < ntasks; ++i) {
            const bool dirty = bid_stamp_[i] == round_tag_ ||
                price_changed_now_[static_cast<std::size_t>(
                    tasks_[i].core)] != 0 ||
                task_ext_[i] != 0;
            if (dirty) {
                purchase_tasks_.push_back(static_cast<TaskId>(i));
                if (processed_stamp_[i] != round_tag_) {
                    processed_stamp_[i] = round_tag_;
                    ++tasks_recomputed;
                }
            }
        }
    }
    run_purchases(skip_clean && !book_all ? &purchase_tasks_
                                          : nullptr);

    // ----- Recomputed union (ascending, test-visible) --------------
    recomputed_tasks_.clear();
    if (book_all) {
        for (std::size_t i = 0; i < ntasks; ++i)
            recomputed_tasks_.push_back(static_cast<TaskId>(i));
    } else if (tasks_recomputed > 0) {
        for (std::size_t i = 0; i < ntasks; ++i) {
            if (processed_stamp_[i] == round_tag_)
                recomputed_tasks_.push_back(static_cast<TaskId>(i));
        }
    }

    RoundReport report;
    const int vf_changes = control_supply();
    ++rounds_;

    // ----- Post-round flag rollover -------------------------------
    // Freeze-flag deltas: the *next* bid pass reads the flags
    // control_supply() just wrote; the last one read freeze_seen_.
    any_freeze_changed_ = false;
    for (std::size_t v = 0; v < clusters_.size(); ++v) {
        const unsigned char now = clusters_[v].freeze_bids ? 1 : 0;
        const unsigned char changed = now != freeze_seen_[v] ? 1 : 0;
        freeze_changed_[v] = changed;
        freeze_seen_[v] = now;
        any_freeze_changed_ |= changed != 0;
    }
    // This round's price moves become next round's bid-input moves
    // (bids read the previous round's prices; purchases this one's).
    std::swap(price_changed_last_, price_changed_now_);
    any_price_changed_last_ = any_price_moved;
    any_carry_ = flag_any_carry_;
    if (any_bid_moved)
        circ_valid_ = false;
    for (const TaskId t : ext_list_)
        task_ext_[static_cast<std::size_t>(t)] = 0;
    ext_list_.clear();
    force_full_ = false;

    // ----- Counters -----------------------------------------------
    report.tasks_recomputed = tasks_recomputed;
    report.tasks_skipped =
        static_cast<long>(ntasks) - tasks_recomputed;
    report.cores_recomputed = cores_recomputed;
    report.cores_skipped =
        static_cast<long>(ncores) - cores_recomputed;
    report.early_exit =
        tasks_recomputed == 0 && cores_recomputed == 0;
    ++clearing_.rounds;
    clearing_.task_slots += static_cast<long>(ntasks);
    clearing_.tasks_skipped += report.tasks_skipped;
    clearing_.core_slots += static_cast<long>(ncores);
    clearing_.cores_skipped += report.cores_skipped;
    if (report.early_exit)
        ++clearing_.rounds_early_exit;

    report.state = state_;
    report.allowance = allowance_;
    report.total_demand = total_demand;
    report.total_supply = total_supply;
    report.chip_power = chip_power;
    report.vf_changes = vf_changes;
    report.deficit = deficit;
    report.raw_deficit = raw_deficit;
    report.allowance_clamped = allowance_clamped_;
    last_report_ = report;
    if (telemetry_ != nullptr)
        fill_telemetry(report);
    return report;
}

void
Market::fill_telemetry(const RoundReport& report)
{
    MarketTelemetry& t = *telemetry_;
    t.round = rounds_;
    t.report = report;
    t.tasks = tasks_;
    t.cores = cores_;
    t.clusters.resize(clusters_.size());
    for (ClusterId v = 0; v < chip_->num_clusters(); ++v) {
        const hw::Cluster& cl = chip_->cluster(v);
        ClusterTelemetry& ct = t.clusters[static_cast<std::size_t>(v)];
        const ClusterCtl& ctl = clusters_[static_cast<std::size_t>(v)];
        ct.id = v;
        ct.freeze_bids = ctl.freeze_bids;
        ct.pending_base_reset = ctl.pending_base_reset;
        ct.power = ctl.power;
        ct.level = cl.level();
        ct.mhz = cl.mhz();
        ct.powered = cl.powered();
    }
}

} // namespace ppm::market
