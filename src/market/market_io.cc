/**
 * @file
 * Snapshot serialization of the market economy, including every
 * incremental-clearing memo (see the contract on Market::save).
 */

#include "common/logging.hh"
#include "market/market.hh"
#include "market/online_estimator.hh"
#include "market/ppm_governor.hh"
#include "snapshot/archive.hh"

namespace ppm::market {
namespace {

void
save_report(snap::Writer& w, const RoundReport& rep)
{
    w.i32(static_cast<int>(rep.state));
    w.f64(rep.allowance);
    w.f64(rep.total_demand);
    w.f64(rep.total_supply);
    w.f64(rep.chip_power);
    w.i32(rep.vf_changes);
    w.f64(rep.deficit);
    w.f64(rep.raw_deficit);
    w.b(rep.allowance_clamped);
    w.f64(rep.excess_l2);
    w.f64(rep.excess_l8);
    w.i64(static_cast<std::int64_t>(rep.tasks_recomputed));
    w.i64(static_cast<std::int64_t>(rep.tasks_skipped));
    w.i64(static_cast<std::int64_t>(rep.cores_recomputed));
    w.i64(static_cast<std::int64_t>(rep.cores_skipped));
    w.b(rep.early_exit);
}

void
load_report(snap::Reader& r, RoundReport* rep)
{
    rep->state = static_cast<ChipState>(r.i32());
    rep->allowance = r.f64();
    rep->total_demand = r.f64();
    rep->total_supply = r.f64();
    rep->chip_power = r.f64();
    rep->vf_changes = r.i32();
    rep->deficit = r.f64();
    rep->raw_deficit = r.f64();
    rep->allowance_clamped = r.b();
    rep->excess_l2 = r.f64();
    rep->excess_l8 = r.f64();
    rep->tasks_recomputed = static_cast<long>(r.i64());
    rep->tasks_skipped = static_cast<long>(r.i64());
    rep->cores_recomputed = static_cast<long>(r.i64());
    rep->cores_skipped = static_cast<long>(r.i64());
    rep->early_exit = r.b();
}

} // namespace

void
Market::save(snap::Writer& w) const
{
    // TDP retargets land in cfg_ (set_tdp); everything else in the
    // config is construction-time.
    w.f64(cfg_.w_tdp);
    w.f64(cfg_.w_th);

    w.u64(tasks_.size());
    for (const TaskState& t : tasks_) {
        w.i32(t.id);
        w.i32(t.priority);
        w.i32(t.core);
        w.b(t.active);
        w.f64(t.demand);
        w.f64(t.supply);
        w.f64(t.bid);
        w.f64(t.allowance);
        w.f64(t.savings);
    }
    w.u64(cores_.size());
    for (const CoreState& c : cores_) {
        w.f64(c.price);
        w.f64(c.base_price);
        w.b(c.has_base);
        w.f64(c.demand);
        w.f64(c.supply);
    }
    w.u64(clusters_.size());
    for (const ClusterCtl& cl : clusters_) {
        w.b(cl.freeze_bids);
        w.b(cl.pending_base_reset);
        w.f64(cl.power);
        w.u64(cl.step);
        w.i32(cl.last_dir);
    }
    w.f64(allowance_);
    w.i32(static_cast<int>(state_));
    w.i64(static_cast<std::int64_t>(rounds_));
    save_report(w, last_report_);
    w.b(allowance_clamped_);
    w.f64(prev_objective_);

    // Group index.
    w.i32v(group_offset_);
    w.i32v(group_cursor_);
    w.i32v(group_task_);
    w.b(groups_dirty_);
    w.i64(static_cast<std::int64_t>(groups_epoch_));
    w.u8v(core_any_task_);
    w.u8v(core_all_floor_);

    // Incremental active-set bookkeeping.
    w.b(force_full_);
    w.i64(static_cast<std::int64_t>(round_tag_));
    w.u8v(task_ext_);
    w.i32v(ext_list_);
    w.u8v(task_carry_);
    w.b(any_carry_);
    w.longv(alloc_stamp_);
    w.longv(bid_stamp_);
    w.longv(processed_stamp_);
    w.f64v(prev_bid_);
    w.f64v(prev_savings_);
    w.f64v(prev_supply_);
    w.u8v(core_demand_dirty_);
    w.u8v(core_fold_dirty_);
    w.u8v(core_recompute_);
    w.u8v(core_bid_recompute_);
    // Cross-round per-core bid folds: cores outside the bid recompute
    // set reuse last round's fold, so the memo must survive a restore.
    w.f64v(scratch_bid_sum_);
    w.u8v(price_changed_last_);
    w.u8v(price_changed_now_);
    w.b(any_price_changed_last_);
    w.u8v(freeze_changed_);
    w.u8v(freeze_seen_);
    w.b(any_freeze_changed_);
    w.b(flag_any_alloc_);
    w.b(flag_any_bid_);
    w.b(flag_any_carry_);

    // Distribution / priority / circulating-bid memos.
    w.b(dist_valid_);
    w.i64(static_cast<std::int64_t>(dist_epoch_));
    w.f64(dist_allowance_);
    w.f64(dist_weight_sum_);
    w.f64v(dist_weight_);
    w.i64(static_cast<std::int64_t>(prio_epoch_));
    w.f64v(scratch_core_prio_);
    w.f64v(scratch_cluster_prio_);
    w.f64(circ_sum_);
    w.b(circ_valid_);

    // Cluster-membership index.
    w.i32v(cluster_offset_);
    w.i32v(cluster_cursor_);
    w.i32v(cluster_task_);

    // Observable recompute set of the last round.
    w.i32v(recomputed_tasks_);

    w.i64(static_cast<std::int64_t>(clearing_.rounds));
    w.i64(static_cast<std::int64_t>(clearing_.task_slots));
    w.i64(static_cast<std::int64_t>(clearing_.tasks_skipped));
    w.i64(static_cast<std::int64_t>(clearing_.core_slots));
    w.i64(static_cast<std::int64_t>(clearing_.cores_skipped));
    w.i64(static_cast<std::int64_t>(clearing_.rounds_early_exit));
}

void
Market::load(snap::Reader& r)
{
    cfg_.w_tdp = r.f64();
    cfg_.w_th = r.f64();

    const std::size_t n_tasks = static_cast<std::size_t>(r.u64());
    PPM_ASSERT(n_tasks == tasks_.size(),
               "snapshot mismatch: market task count differs "
               "(admission replay incomplete?)");
    for (TaskState& t : tasks_) {
        t.id = r.i32();
        t.priority = r.i32();
        t.core = r.i32();
        t.active = r.b();
        t.demand = r.f64();
        t.supply = r.f64();
        t.bid = r.f64();
        t.allowance = r.f64();
        t.savings = r.f64();
    }
    const std::size_t n_cores = static_cast<std::size_t>(r.u64());
    PPM_ASSERT(n_cores == cores_.size(),
               "snapshot mismatch: market core count differs");
    for (CoreState& c : cores_) {
        c.price = r.f64();
        c.base_price = r.f64();
        c.has_base = r.b();
        c.demand = r.f64();
        c.supply = r.f64();
    }
    const std::size_t n_clusters = static_cast<std::size_t>(r.u64());
    PPM_ASSERT(n_clusters == clusters_.size(),
               "snapshot mismatch: market cluster count differs");
    for (ClusterCtl& cl : clusters_) {
        cl.freeze_bids = r.b();
        cl.pending_base_reset = r.b();
        cl.power = r.f64();
        cl.step = r.u64();
        cl.last_dir = r.i32();
    }
    allowance_ = r.f64();
    state_ = static_cast<ChipState>(r.i32());
    rounds_ = static_cast<long>(r.i64());
    load_report(r, &last_report_);
    allowance_clamped_ = r.b();
    prev_objective_ = r.f64();

    r.i32v(&group_offset_);
    r.i32v(&group_cursor_);
    r.i32v(&group_task_);
    groups_dirty_ = r.b();
    groups_epoch_ = static_cast<long>(r.i64());
    r.u8v(&core_any_task_);
    r.u8v(&core_all_floor_);

    force_full_ = r.b();
    round_tag_ = static_cast<long>(r.i64());
    r.u8v(&task_ext_);
    r.i32v(&ext_list_);
    r.u8v(&task_carry_);
    any_carry_ = r.b();
    r.longv(&alloc_stamp_);
    r.longv(&bid_stamp_);
    r.longv(&processed_stamp_);
    r.f64v(&prev_bid_);
    r.f64v(&prev_savings_);
    r.f64v(&prev_supply_);
    r.u8v(&core_demand_dirty_);
    r.u8v(&core_fold_dirty_);
    r.u8v(&core_recompute_);
    r.u8v(&core_bid_recompute_);
    r.f64v(&scratch_bid_sum_);
    r.u8v(&price_changed_last_);
    r.u8v(&price_changed_now_);
    any_price_changed_last_ = r.b();
    r.u8v(&freeze_changed_);
    r.u8v(&freeze_seen_);
    any_freeze_changed_ = r.b();
    flag_any_alloc_ = r.b();
    flag_any_bid_ = r.b();
    flag_any_carry_ = r.b();

    dist_valid_ = r.b();
    dist_epoch_ = static_cast<long>(r.i64());
    dist_allowance_ = r.f64();
    dist_weight_sum_ = r.f64();
    r.f64v(&dist_weight_);
    prio_epoch_ = static_cast<long>(r.i64());
    r.f64v(&scratch_core_prio_);
    r.f64v(&scratch_cluster_prio_);
    circ_sum_ = r.f64();
    circ_valid_ = r.b();

    r.i32v(&cluster_offset_);
    r.i32v(&cluster_cursor_);
    r.i32v(&cluster_task_);

    r.i32v(&recomputed_tasks_);

    clearing_.rounds = static_cast<long>(r.i64());
    clearing_.task_slots = static_cast<long>(r.i64());
    clearing_.tasks_skipped = static_cast<long>(r.i64());
    clearing_.core_slots = static_cast<long>(r.i64());
    clearing_.cores_skipped = static_cast<long>(r.i64());
    clearing_.rounds_early_exit = static_cast<long>(r.i64());
}

void
OnlineSpeedupEstimator::save(snap::Writer& w) const
{
    w.u64(tasks_.size());
    for (const PerTask& t : tasks_) {
        for (const PerClass& c : t.cls) {
            w.f64(c.cost_ewma);
            w.i32(c.samples);
        }
    }
}

void
OnlineSpeedupEstimator::load(snap::Reader& r)
{
    const std::size_t n = static_cast<std::size_t>(r.u64());
    PPM_ASSERT(n == tasks_.size(),
               "snapshot mismatch: online estimator task count");
    for (PerTask& t : tasks_) {
        for (PerClass& c : t.cls) {
            c.cost_ewma = r.f64();
            c.samples = r.i32();
        }
    }
}

void
PpmGovernor::save(snap::Writer& w) const
{
    // set_power_budget() retargets both the governor's config copy
    // and the market; everything else in cfg_ is construction-time.
    w.f64(cfg_.market.w_tdp);
    w.f64(cfg_.market.w_th);

    PPM_ASSERT(market_ != nullptr, "PPM snapshot before init()");
    market_->save(w);
    w.b(online_ != nullptr);
    if (online_ != nullptr)
        online_->save(w);

    w.u64(residency_.size());
    for (const Residency& res : residency_) {
        w.i32(static_cast<int>(res.cls));
        w.i64(res.since);
    }
    w.boolv(prev_freeze_);

    w.i64(bid_period_);
    w.i64(next_bid_);
    w.i64(static_cast<std::int64_t>(bid_count_));

    guard_.save(w);
    w.f64v(last_good_supplies_);
    w.i64(static_cast<std::int64_t>(watchdog_trips_));
}

void
PpmGovernor::load(snap::Reader& r)
{
    cfg_.market.w_tdp = r.f64();
    cfg_.market.w_th = r.f64();

    PPM_ASSERT(market_ != nullptr, "PPM restore before init()");
    market_->load(r);
    const bool had_online = r.b();
    PPM_ASSERT(had_online == (online_ != nullptr),
               "snapshot mismatch: online-speedup mode differs");
    if (online_ != nullptr)
        online_->load(r);

    const std::size_t n_res = static_cast<std::size_t>(r.u64());
    PPM_ASSERT(n_res == residency_.size(),
               "snapshot mismatch: PPM residency count "
               "(admission replay incomplete?)");
    for (Residency& res : residency_) {
        res.cls = static_cast<hw::CoreClass>(r.i32());
        res.since = r.i64();
    }
    r.boolv(&prev_freeze_);

    bid_period_ = r.i64();
    next_bid_ = r.i64();
    bid_count_ = static_cast<long>(r.i64());

    guard_.load(r);
    r.f64v(&last_good_supplies_);
    watchdog_trips_ = static_cast<long>(r.i64());
}

} // namespace ppm::market
