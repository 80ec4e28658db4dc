#include "market/lbt.hh"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/logging.hh"

namespace ppm::market {

namespace {

/** Relative tolerance for "demand satisfied" and ratio comparisons. */
constexpr double kRatioEps = 0.02;

/** Required relative spend reduction to justify a movement. */
constexpr double kSpendMargin = 0.01;

} // namespace

bool
perf_improves(const std::vector<double>& candidate,
              const std::vector<double>& baseline,
              const std::vector<int>& priorities)
{
    PPM_ASSERT(candidate.size() == baseline.size() &&
                   candidate.size() == priorities.size(),
               "ratio vector size mismatch");
    for (std::size_t t = 0; t < candidate.size(); ++t) {
        if (candidate[t] <= baseline[t] + kRatioEps)
            continue;  // Task t does not improve.
        bool higher_priority_degrades = false;
        for (std::size_t u = 0; u < candidate.size(); ++u) {
            if (priorities[u] > priorities[t] &&
                candidate[u] < baseline[u] - kRatioEps) {
                higher_priority_degrades = true;
                break;
            }
        }
        if (!higher_priority_degrades)
            return true;
    }
    return false;
}

bool
perf_at_least(const std::vector<double>& candidate,
              const std::vector<double>& baseline,
              const std::vector<int>& priorities)
{
    return !perf_improves(baseline, candidate, priorities);
}

LbtModule::LbtModule(const Market* market, DemandEstimator estimator)
    : market_(market), estimator_(std::move(estimator)),
      power_cost_(static_cast<std::size_t>(market->chip().num_clusters()),
                  1.0)
{
    PPM_ASSERT(market_ != nullptr, "LBT needs a market");
    PPM_ASSERT(static_cast<bool>(estimator_), "LBT needs an estimator");
}

void
LbtModule::set_power_cost(std::vector<double> cost_per_cluster)
{
    PPM_ASSERT(cost_per_cluster.size() ==
                   static_cast<std::size_t>(market_->chip().num_clusters()),
               "power-cost vector size mismatch");
    power_cost_ = std::move(cost_per_cluster);
}

CoreId
LbtModule::best_target_core(ClusterId v,
                            const std::vector<Pu>& core_demand) const
{
    const hw::Cluster& cl = market_->chip().cluster(v);
    if (cl.num_cores() == 1)
        return cl.cores().front();

    // The constrained core (highest demand) is excluded; among the
    // rest pick the one with the largest supply surplus.
    CoreId constrained = cl.cores().front();
    for (CoreId c : cl.cores()) {
        if (core_demand[static_cast<std::size_t>(c)] >
            core_demand[static_cast<std::size_t>(constrained)]) {
            constrained = c;
        }
    }
    CoreId best = kInvalidId;
    double best_surplus = -1e18;
    for (CoreId c : cl.cores()) {
        if (c == constrained)
            continue;
        const double surplus =
            cl.vf().max_supply() - core_demand[static_cast<std::size_t>(c)];
        if (surplus > best_surplus) {
            best_surplus = surplus;
            best = c;
        }
    }
    return best;
}

void
LbtModule::estimate_cluster(ClusterId v,
                            const std::vector<std::size_t>& members,
                            const std::vector<CoreId>& core,
                            const std::vector<Pu>& demand,
                            Money fallback_price,
                            ClusterOutcome& out) const
{
    const hw::Chip& chip = market_->chip();
    const hw::Cluster& cl = chip.cluster(v);
    const auto& tasks = market_->tasks();
    out.ratios.clear();
    out.spend = 0.0;
    if (members.empty())
        return;  // Idle cluster contributes nothing.

    // Tasks and demand sums per core of this cluster.  Core ids
    // within a cluster are contiguous (see Chip's builder), so the
    // in-cluster position is a subtraction.  Scratch buffers are
    // reused across candidate evaluations; on_core only grows, since
    // shrinking it for a smaller cluster would free the task lists a
    // larger cluster then allocates again.
    const CoreId first_core = cl.cores().front();
    const auto cores = static_cast<std::size_t>(cl.num_cores());
    auto& on_core = scratch_.on_core;
    auto& core_demand = scratch_.core_demand;
    if (on_core.size() < cores)
        on_core.resize(cores);
    core_demand.assign(cores, 0.0);
    for (std::size_t pos = 0; pos < cores; ++pos)
        on_core[pos].clear();
    Pu cluster_demand = 0.0;
    for (std::size_t t : members) {
        const auto pos = static_cast<std::size_t>(core[t] - first_core);
        PPM_ASSERT(pos < cores, "task not in this cluster");
        on_core[pos].push_back(t);
        core_demand[pos] += demand[t];
        cluster_demand = std::max(cluster_demand, core_demand[pos]);
    }

    // Steady supply: demand rounded up to the next V-F level (with
    // DVFS disabled the level is pinned, so the steady state is the
    // current supply).
    const int level_ss = market_->config().dvfs_enabled
        ? cl.vf().level_for_demand(cluster_demand) : cl.level();
    const Pu supply_ss = cl.vf().supply(level_ss);

    // Steady price via the Equation 2 recursion from the price
    // currently observed on this cluster's constrained core.
    const CoreId cur_constrained = market_->constrained_core(v);
    Money price = cur_constrained != kInvalidId
        ? market_->core(cur_constrained).price : 0.0;
    if (price <= 0.0)
        price = fallback_price;
    const double delta = market_->config().tolerance;
    const int level_now = cl.level();
    for (int z = level_now; z < level_ss; ++z)
        price *= 1.0 + delta;
    for (int z = level_now; z > level_ss; --z)
        price *= 1.0 - delta;

    // Per-core allocation at the steady supply.
    const double cost = power_cost_[static_cast<std::size_t>(v)];
    for (std::size_t pos = 0; pos < cores; ++pos) {
        const auto& on_this_core = on_core[pos];
        if (on_this_core.empty())
            continue;
        auto& granted = scratch_.granted;
        granted.assign(on_this_core.size(), 0.0);
        if (supply_ss >= core_demand[pos] - 1e-9) {
            for (std::size_t i = 0; i < on_this_core.size(); ++i)
                granted[i] = demand[on_this_core[i]];
        } else {
            // Water-fill the supply by priority, capped at demand.
            Pu remaining = supply_ss;
            auto& active = scratch_.active;
            auto& hungry = scratch_.hungry;
            active.resize(on_this_core.size());
            for (std::size_t i = 0; i < active.size(); ++i)
                active[i] = i;
            while (!active.empty() && remaining > 1e-9) {
                double total_prio = 0.0;
                for (std::size_t i : active) {
                    total_prio += static_cast<double>(
                        tasks[on_this_core[i]].priority);
                }
                hungry.clear();
                Pu consumed = 0.0;
                for (std::size_t i : active) {
                    const Pu quota = remaining
                        * static_cast<double>(
                              tasks[on_this_core[i]].priority)
                        / total_prio;
                    const Pu need = demand[on_this_core[i]] - granted[i];
                    if (need <= quota * (1.0 + 1e-12)) {
                        granted[i] += need;
                        consumed += need;
                    } else {
                        granted[i] += quota;
                        consumed += quota;
                        hungry.push_back(i);
                    }
                }
                remaining -= consumed;
                if (hungry.size() == active.size())
                    break;
                std::swap(active, hungry);
            }
        }
        for (std::size_t i = 0; i < on_this_core.size(); ++i) {
            const std::size_t t = on_this_core[i];
            const double ratio = demand[t] > 1e-9
                ? std::min(1.0, granted[i] / demand[t]) : 1.0;
            out.ratios.emplace_back(t, ratio);
            const Money bid = std::max(market_->config().min_bid,
                                       granted[i] * price);
            out.spend += bid * cost;
        }
    }
}

LbtModule::Estimate
LbtModule::estimate(const std::optional<Movement>& move) const
{
    const hw::Chip& chip = market_->chip();
    const auto& tasks = market_->tasks();

    std::vector<CoreId> core(tasks.size());
    std::vector<Pu> demand(tasks.size());
    for (std::size_t t = 0; t < tasks.size(); ++t) {
        core[t] = tasks[t].core;
        demand[t] = tasks[t].demand;
    }
    Money fallback = market_->config().min_bid;
    if (move && move->valid()) {
        const auto t = static_cast<std::size_t>(move->task);
        core[t] = move->to;
        const ClusterId target = chip.cluster_of(move->to);
        if (target != chip.cluster_of(move->from))
            demand[t] = estimator_(move->task, target);
        const Money src_price = market_->core(move->from).price;
        if (src_price > 0.0)
            fallback = src_price;
    }

    // Task membership per cluster under the candidate placement
    // (inactive tasks are not market participants).
    std::vector<std::vector<std::size_t>> members(
        static_cast<std::size_t>(chip.num_clusters()));
    for (std::size_t t = 0; t < tasks.size(); ++t) {
        if (!tasks[t].active)
            continue;
        members[static_cast<std::size_t>(chip.cluster_of(core[t]))]
            .push_back(t);
    }

    Estimate est;
    est.ratio.assign(tasks.size(), 1.0);
    ClusterOutcome out;
    for (ClusterId v = 0; v < chip.num_clusters(); ++v) {
        estimate_cluster(v, members[static_cast<std::size_t>(v)], core,
                         demand, fallback, out);
        for (const auto& [t, ratio] : out.ratios)
            est.ratio[t] = ratio;
        est.spend += out.spend;
    }
    return est;
}

LbtModule::Estimate
LbtModule::estimate_current() const
{
    return estimate(std::nullopt);
}

LbtModule::Estimate
LbtModule::estimate_with(const Movement& move) const
{
    return estimate(std::optional<Movement>(move));
}

Movement
LbtModule::propose(bool inter_cluster, ClusterId source_cluster) const
{
    // The LBT module is disabled in the emergency state: the
    // supply-demand module must first bring power under the TDP.
    if (market_->state() == ChipState::kEmergency)
        return Movement{};

    const hw::Chip& chip = market_->chip();
    const auto& tasks = market_->tasks();
    if (tasks.empty())
        return Movement{};

    // Reserve every scratch list to its per-task bound, so a wake that
    // sees a fuller cluster or more candidates than any before it
    // still allocates nothing (reserve() is a no-op once the capacity
    // is there).  A candidate is one (task, target cluster) pair.
    const std::size_t n = tasks.size();
    const auto clusters = static_cast<std::size_t>(chip.num_clusters());
    const auto cores = static_cast<std::size_t>(chip.num_cores());
    Scratch& s = scratch_;
    s.members.resize(clusters);
    s.base.resize(clusters);
    if (s.on_core.size() < cores)
        s.on_core.resize(cores);
    for (auto& lst : s.members)
        lst.reserve(n);
    for (auto& out : s.base)
        out.ratios.reserve(n);
    for (auto& lst : s.on_core)
        lst.reserve(n);
    for (auto* lst : {&s.src_members, &s.dst_members, &s.active, &s.hungry})
        lst->reserve(n);
    s.src_out.ratios.reserve(n);
    s.dst_out.ratios.reserve(n);
    s.granted.reserve(n);
    s.core_demand.reserve(cores);
    s.candidates.reserve(n * clusters);

    // Current placement, demands, per-core demand sums and per-
    // cluster task membership, in scratch buffers every wake reuses.
    auto& core = s.core;
    auto& demand = s.demand;
    auto& demand_by_core = s.demand_by_core;
    auto& members = s.members;
    core.resize(n);
    demand.resize(n);
    demand_by_core.assign(cores, 0.0);
    for (auto& lst : members)
        lst.clear();
    bool all_satisfied = true;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
        core[t] = tasks[t].core;
        demand[t] = tasks[t].demand;
        if (!tasks[t].active)
            continue;
        demand_by_core[static_cast<std::size_t>(core[t])] += demand[t];
        members[static_cast<std::size_t>(chip.cluster_of(core[t]))]
            .push_back(t);
        if (tasks[t].supply < tasks[t].demand * (1.0 - kRatioEps))
            all_satisfied = false;
    }

    // Baseline: per-cluster steady-state outcomes (computed once).
    const Money min_bid = market_->config().min_bid;
    auto& base = s.base;
    auto& base_ratio = s.base_ratio;
    base_ratio.assign(n, 1.0);
    Money base_spend = 0.0;
    for (ClusterId v = 0; v < chip.num_clusters(); ++v) {
        estimate_cluster(v, members[static_cast<std::size_t>(v)], core,
                         demand, min_bid,
                         base[static_cast<std::size_t>(v)]);
        for (const auto& [t, ratio] :
             base[static_cast<std::size_t>(v)].ratios)
            base_ratio[t] = ratio;
        base_spend += base[static_cast<std::size_t>(v)].spend;
    }

    // Candidate movements: tasks on the constrained core(s), moved to
    // the most over-supplied unconstrained core of the target
    // cluster(s).
    auto& candidates = s.candidates;
    candidates.clear();
    for (ClusterId v = 0; v < chip.num_clusters(); ++v) {
        if (source_cluster != kInvalidId && v != source_cluster)
            continue;
        const CoreId constrained = market_->constrained_core(v);
        if (constrained == kInvalidId)
            continue;
        for (std::size_t ti : members[static_cast<std::size_t>(v)]) {
            const TaskState& t = tasks[ti];
            if (t.core != constrained)
                continue;
            if (!all_satisfied &&
                t.supply >= t.demand * (1.0 - kRatioEps)) {
                continue;  // Performance mode: only unsatisfied tasks.
            }
            for (ClusterId w = 0; w < chip.num_clusters(); ++w) {
                if (inter_cluster ? (w == v) : (w != v))
                    continue;
                const CoreId target = best_target_core(w, demand_by_core);
                if (target == kInvalidId || target == t.core)
                    continue;
                candidates.push_back(Movement{t.id, t.core, target});
            }
        }
    }

    // Evaluate candidates incrementally: only the source and target
    // clusters change, so their outcomes are recomputed and compared
    // against the baseline on the affected tasks alone.
    Movement best_move;
    Money best_spend = base_spend;
    int best_priority = -1;
    double best_gain = 0.0;
    bool best_clean = false;
    bool have_improvement = false;

    for (const Movement& mv : candidates) {
        const auto t = static_cast<std::size_t>(mv.task);
        const ClusterId src = chip.cluster_of(mv.from);
        const ClusterId dst = chip.cluster_of(mv.to);

        // Apply the move.
        const CoreId saved_core = core[t];
        const Pu saved_demand = demand[t];
        core[t] = mv.to;
        if (dst != src)
            demand[t] = estimator_(mv.task, dst);
        Money fallback = min_bid;
        if (market_->core(mv.from).price > 0.0)
            fallback = market_->core(mv.from).price;

        // Adjusted membership of the affected clusters only.
        auto& src_members = s.src_members;
        src_members.clear();
        for (std::size_t u : members[static_cast<std::size_t>(src)]) {
            if (u != t || src == dst)
                src_members.push_back(u);
        }
        auto& src_out = s.src_out;
        estimate_cluster(src, src_members, core, demand, fallback,
                         src_out);
        auto& dst_out = s.dst_out;
        dst_out.ratios.clear();
        dst_out.spend = 0.0;
        if (src != dst) {
            auto& dst_members = s.dst_members;
            dst_members = members[static_cast<std::size_t>(dst)];
            dst_members.push_back(t);
            estimate_cluster(dst, dst_members, core, demand, fallback,
                             dst_out);
        }

        core[t] = saved_core;
        demand[t] = saved_demand;

        Money spend = base_spend
            - base[static_cast<std::size_t>(src)].spend + src_out.spend;
        if (src != dst) {
            spend += dst_out.spend
                - base[static_cast<std::size_t>(dst)].spend;
        }

        // Collect (task, new ratio) for the affected clusters and
        // derive the perf relation against the baseline.
        auto classify = [&](const ClusterOutcome& out, auto&& fn) {
            for (const auto& [u, ratio] : out.ratios)
                fn(u, ratio);
        };
        int improved_priority = -1;
        double improved_ratio = 0.0;
        int degraded_priority = -1;
        auto consider = [&](std::size_t u, double ratio) {
            const double d = ratio - base_ratio[u];
            const int prio = tasks[u].priority;
            if (d > kRatioEps) {
                if (prio > improved_priority ||
                    (prio == improved_priority && ratio > improved_ratio)) {
                    improved_priority = prio;
                    improved_ratio = ratio;
                }
            } else if (d < -kRatioEps) {
                degraded_priority = std::max(degraded_priority, prio);
            }
        };
        classify(src_out, consider);
        if (src != dst)
            classify(dst_out, consider);

        const bool improves = improved_priority >= 0 &&
            degraded_priority <= improved_priority;
        const bool not_worse = degraded_priority < 0 ||
            (improved_priority >= 0 &&
             improved_priority >= degraded_priority);

        if (all_satisfied) {
            // Power-efficiency mode: lower spending, perf not worse.
            if (!not_worse)
                continue;
            const Money bar = have_improvement
                ? best_spend : base_spend * (1.0 - kSpendMargin);
            if (spend < bar) {
                best_spend = spend;
                best_move = mv;
                have_improvement = true;
            }
        } else {
            // Performance mode: lift the highest-priority task that
            // can be lifted without hurting higher priorities.
            // Ranking (paper Figure 3): the relieved task's priority,
            // then candidates without collateral degradation, then
            // the relieved task's resulting supply/demand ratio, then
            // the spending.
            if (!improves)
                continue;
            const bool clean = degraded_priority < 0;
            const auto rank = std::make_tuple(
                improved_priority, clean ? 1 : 0, improved_ratio,
                -spend);
            const auto best_rank = std::make_tuple(
                best_priority, best_clean ? 1 : 0, best_gain,
                -best_spend);
            if (!have_improvement || rank > best_rank) {
                best_priority = improved_priority;
                best_clean = clean;
                best_gain = improved_ratio;
                best_spend = spend;
                best_move = mv;
                have_improvement = true;
            }
        }
    }
    return best_move;
}

Movement
LbtModule::propose_load_balance() const
{
    return propose(false);
}

Movement
LbtModule::propose_migration() const
{
    return propose(true);
}

Movement
LbtModule::propose_migration_from(ClusterId v) const
{
    return propose(true, v);
}

} // namespace ppm::market
