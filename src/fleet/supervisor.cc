#include "fleet/supervisor.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ppm::fleet {

namespace {

/** Uncapped-budget sentinel threshold (mirrors PpmConfig::w_tdp). */
constexpr Watts kUncapped = 1e8;

/** Price assigned to a failed (masked-out) chip: placement never
 *  picks it, and budget withdrawal is visible in the traces. */
constexpr double kQuarantinePrice = 1e30;

/** Watts requested per PU of clearing deficit: a chip's want is its
 *  measured power plus a first-order estimate of the watts that would
 *  cure its unmet demand. */
constexpr double kDeficitGain = 0.001;

} // namespace

SupervisorMarket::SupervisorMarket(SupervisorConfig cfg, int chips)
    : cfg_(cfg)
{
    PPM_ASSERT(chips >= 1, "fleet needs at least one chip");
    PPM_ASSERT(cfg_.total_budget > 0.0, "fleet budget must be positive");
    PPM_ASSERT(cfg_.floor_w > 0.0, "per-chip floor must be positive");
    prices_.assign(static_cast<std::size_t>(chips), 0.0);
    budgets_.resize(static_cast<std::size_t>(chips));
    std::fill(budgets_.begin(), budgets_.end(), initial_budget());
}

Watts
SupervisorMarket::initial_budget() const
{
    if (cfg_.total_budget >= kUncapped)
        return cfg_.total_budget;
    if (budgets_.size() <= 1)
        return cfg_.total_budget;
    return cfg_.total_budget / static_cast<double>(budgets_.size());
}

bool
SupervisorMarket::settle(const std::vector<ChipSignal>& signals,
                         const std::vector<unsigned char>* active,
                         const std::vector<double>* clamp)
{
    PPM_ASSERT(signals.size() == budgets_.size(),
               "one signal per chip required");
    PPM_ASSERT(active == nullptr || active->size() == budgets_.size(),
               "one active flag per chip required");
    PPM_ASSERT(clamp == nullptr || clamp->size() == budgets_.size(),
               "one clamp per chip required");
    ++epochs_;
    const std::size_t n = signals.size();
    const Watts b = cfg_.total_budget;
    const auto is_active = [active](std::size_t i) {
        return active == nullptr || (*active)[i] != 0;
    };

    // Wants: measured consumption plus the watts that would cure the
    // local clearing deficit, floored so a starved chip still asks
    // for enough to stay alive.  Single pass in chip-id order; the
    // running sum is the only cross-chip reduction and its
    // association is fixed by that order.  Failed chips are withdrawn
    // from the economy: no want, a sentinel price.
    double want_sum = 0.0;
    std::size_t n_active = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!is_active(i)) {
            prices_[i] = kQuarantinePrice;
            continue;
        }
        ++n_active;
        const double want = std::max(
            cfg_.floor_w,
            signals[i].power + kDeficitGain * signals[i].deficit);
        prices_[i] = want;  // Staged; rescaled below once budgets land.
        want_sum += want;
    }

    if (b >= kUncapped) {
        // Power is free: budgets never move, and the staged raw wants
        // stand in for prices (placement spreads by load).
        lambda_ = 0.0;
        return false;
    }

    if (n_active == 0) {
        // Whole fleet down: every chip idles at the quarantine floor.
        for (std::size_t i = 0; i < n; ++i)
            budgets_[i] = cfg_.floor_w;
        lambda_ = 0.0;
        return true;
    }

    if (n_active == 1) {
        // The whole budget, verbatim: no floor-plus-remainder
        // arithmetic may rewrite the bits of a single(-surviving)-chip
        // budget.
        for (std::size_t i = 0; i < n; ++i)
            budgets_[i] = is_active(i) ? b : cfg_.floor_w;
    } else {
        const double floor_sum =
            cfg_.floor_w * static_cast<double>(n_active);
        if (floor_sum >= b) {
            // Budget cannot cover the floors: even split.
            const Watts share = b / static_cast<double>(n_active);
            for (std::size_t i = 0; i < n; ++i)
                budgets_[i] = is_active(i) ? share : cfg_.floor_w;
        } else {
            // Water-fill: everyone gets the floor, the remainder is
            // split in proportion to want.  Sums to b up to roundoff.
            const double remainder = b - floor_sum;
            for (std::size_t i = 0; i < n; ++i)
                budgets_[i] = is_active(i)
                    ? cfg_.floor_w + remainder * prices_[i] / want_sum
                    : cfg_.floor_w;
        }
    }
    // Degraded chips: clamp the granted budget (floored).  A clamp of
    // exactly 1.0 must not touch the bits, so it is skipped outright.
    if (clamp != nullptr) {
        for (std::size_t i = 0; i < n; ++i) {
            if (!is_active(i) || (*clamp)[i] == 1.0)
                continue;
            budgets_[i] =
                std::max(cfg_.floor_w, (*clamp)[i] * budgets_[i]);
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (is_active(i))
            prices_[i] /= budgets_[i];
    }
    lambda_ = want_sum / b;
    return true;
}

int
SupervisorMarket::cheapest_chip(
    const std::vector<unsigned char>* active) const
{
    if (epochs_ == 0)
        return -1;
    std::size_t best = prices_.size();
    for (std::size_t i = 0; i < prices_.size(); ++i) {
        if (active != nullptr && (*active)[i] == 0)
            continue;
        if (best == prices_.size() || prices_[i] < prices_[best])
            best = i;
    }
    return best == prices_.size() ? -1 : static_cast<int>(best);
}

} // namespace ppm::fleet
