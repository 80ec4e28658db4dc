/**
 * @file
 * The fleet-level power market: one tier above the paper's Chip Power
 * Agent.  Each supervisor epoch the chips report their marginal
 * utility of power -- instantaneous chip power plus the clearing
 * deficit of their local market (RoundReport::deficit, the same unmet
 * demand the chip agent's allowance update acts on) -- and the
 * supervisor runs one tatonnement step over per-chip power prices:
 * every chip's budget moves toward its demand-proportional share of
 * the fleet TDP, subject to a per-chip floor, and the per-chip price
 * (want / granted watts) steers cross-chip task placement toward the
 * cheapest chip.  This is the "performance-based pricing across
 * sites" framing of the related geo-distributed work, collapsed onto
 * one deterministic settlement pass in chip-id order.
 */

#ifndef PPM_FLEET_SUPERVISOR_HH
#define PPM_FLEET_SUPERVISOR_HH

#include <vector>

#include "common/types.hh"

namespace ppm::fleet {

/** Parameters of the supervisor market. */
struct SupervisorConfig {
    /**
     * Fleet-wide TDP budget (watts).  Values >= 1e8 are the
     * "uncapped" sentinel (mirroring PpmConfig::w_tdp): the
     * supervisor observes prices but never retargets chip budgets.
     */
    Watts total_budget = 1e9;

    /**
     * Per-chip budget floor (watts).  No settlement starves a chip
     * below it (an unpowered chip cannot report demand and would
     * never recover), except when the fleet budget cannot cover the
     * floors -- then every chip gets the same even share.
     */
    Watts floor_w = 1.0;
};

/** One chip's per-epoch report to the supervisor. */
struct ChipSignal {
    Watts power = 0.0;     ///< Instantaneous chip power at the barrier.
    double deficit = 0.0;  ///< Local clearing deficit (PU).
};

/**
 * The supervisor market mechanism.  Pure state machine: settle() is
 * the only mutator, runs in O(chips) with a single pass in chip-id
 * order, and is deterministic -- the fleet engine calls it on the
 * control thread at the epoch barrier, never from pool workers.
 */
class SupervisorMarket
{
  public:
    SupervisorMarket(SupervisorConfig cfg, int chips);

    /**
     * One tatonnement step over the reported signals (indexed by
     * chip id).  Updates budgets() and prices(); returns whether the
     * budgets were (re)computed this epoch -- false for an uncapped
     * fleet, whose budgets never move.
     *
     * Settlement: want_i = max(floor, power_i + gain * deficit_i),
     * where the gain (0.001 W per PU) converts unmet demand into a
     * first-order estimate of the watts that would cure it.  A 1-chip
     * fleet gets the whole budget verbatim (no floor-plus-remainder
     * decomposition, so the single-chip path introduces no
     * floating-point rewriting of the budget).  When the floors alone
     * exceed the budget, every chip gets the even share B/n;
     * otherwise each chip gets floor + remainder * want_i /
     * sum(want), which sums back to B up to roundoff.
     *
     * Health (fleet fault tolerance): `active` masks chips out of the
     * economy entirely (0 = failed): a failed chip's budget is
     * withdrawn from settlement -- it receives the quarantine floor
     * and a sentinel price so placement never picks it.  `clamp`
     * multiplies a degraded chip's granted budget (1.0 = healthy),
     * floored at the per-chip floor.  Null means every chip active,
     * or no clamp; a mask with every chip active and every clamp at
     * 1.0 runs the identical arithmetic, so a fleet where nothing
     * fails settles to the same bits.  Exactly one active chip
     * receives the full fleet budget verbatim (mirroring the 1-chip
     * rule); zero active chips put every chip at the floor.
     */
    bool settle(const std::vector<ChipSignal>& signals,
                const std::vector<unsigned char>* active = nullptr,
                const std::vector<double>* clamp = nullptr);

    /** Per-chip budgets after the last settle (watts). */
    const std::vector<Watts>& budgets() const { return budgets_; }

    /**
     * Per-chip power prices after the last settle: want_i divided by
     * the granted budget -- > 1 means the chip wants more than it
     * got.  For an uncapped fleet (power is free) the "price"
     * degenerates to the raw want in watts, so placement still
     * steers toward the least-loaded chip.
     */
    const std::vector<double>& prices() const { return prices_; }

    /** Fleet-wide price level sum(want)/B (0 while uncapped). */
    double lambda() const { return lambda_; }

    /** Settled epochs so far. */
    long epochs() const { return epochs_; }

    /** Initial per-chip budget (before any settle): B for one chip,
     *  the even share B/n otherwise, and the uncapped sentinel
     *  verbatim for uncapped fleets. */
    Watts initial_budget() const;

    /**
     * Chip with the lowest price (ties -> lowest id) among those with
     * a non-zero `active` mask entry (null = every chip); -1 before
     * the first settle or when no chip is active.
     */
    int cheapest_chip(
        const std::vector<unsigned char>* active = nullptr) const;

    const SupervisorConfig& config() const { return cfg_; }

    /** Snapshot field list: budgets, prices, lambda, epoch count. */
    template <class A>
    void visit(A& a)
    {
        a(budgets_, prices_, lambda_, epochs_);
    }

  private:
    SupervisorConfig cfg_;
    std::vector<Watts> budgets_;
    std::vector<double> prices_;
    double lambda_ = 0.0;
    long epochs_ = 0;
};

} // namespace ppm::fleet

#endif // PPM_FLEET_SUPERVISOR_HH
