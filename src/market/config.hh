/**
 * @file
 * Tunable parameters of the price-theory power management framework
 * (Section 3 of the paper).  Defaults follow the paper's running
 * examples where it gives concrete values.
 */

#ifndef PPM_MARKET_CONFIG_HH
#define PPM_MARKET_CONFIG_HH

#include "common/types.hh"

namespace ppm::market {

/** Power state of the chip agent (Section 3.2.3). */
enum class ChipState {
    kNormal,     ///< W < W_th: allowance tracks unmet demand.
    kThreshold,  ///< W_th <= W <= W_tdp: allowance held constant.
    kEmergency,  ///< W > W_tdp: allowance cut proportionally.
};

/** Name of a chip state ("normal" / "threshold" / "emergency"). */
const char* chip_state_name(ChipState s);

/**
 * Canonical buffer-zone floor for a given TDP: 0.6 W below a real cap
 * (the paper's 4 W experiment stabilizes in [3.4, 4.0]), 0.5 W below
 * an "uncapped" sentinel cap (>= 1e8 W) so w_th stays < w_tdp without
 * ever mattering.  Centralized so the experiment runner, the fuzzer
 * and the fleet supervisor derive bit-identical configs from the same
 * TDP value.
 */
inline Watts derive_w_th(Watts w_tdp)
{
    return w_tdp < 1e8 ? w_tdp - 0.6 : w_tdp - 0.5;
}

/** Parameters of the market mechanism. */
struct PpmConfig {
    /**
     * Tolerance factor delta: the price inflation/deflation rate a
     * cluster agent absorbs before stepping the V-F level (the paper's
     * running example uses 0.2).
     */
    double tolerance = 0.2;

    /** Minimum admissible bid b_min (virtual dollars). */
    Money min_bid = 0.01;

    /** Bid every task agent starts with (Table 1 starts at $1). */
    Money initial_bid = 1.0;

    /** Initial global allowance A (Table 3 starts at $4.5). */
    Money initial_allowance = 4.5;

    /**
     * Hard ceiling on the global allowance.  The scale of the virtual
     * money is arbitrary (only ratios matter), so the ceiling merely
     * guards floating-point health during long deficits.
     */
    Money max_allowance = 1e12;

    /**
     * Savings cap as a multiple of the task's current allowance
     * ("we cap the savings of a task agent at a fraction of its
     * current allowance").  Large caps let long-dormant tasks hoard
     * enough money to distort the market; 2x is a good default for
     * live runs, while the Table 1-3 reproductions use a loose cap.
     */
    double savings_cap_frac = 2.0;

    /** Thermal design power W_tdp (watts). */
    Watts w_tdp = 1e9;

    /**
     * Buffer-zone floor W_th.  The chip stabilizes in [W_th, W_tdp]
     * when overloaded.  Must be < w_tdp.
     */
    Watts w_th = 1e9 - 0.5;

    /**
     * Demand saturation for a fully starved task (PU).  Bounds the
     * Table 4 conversion when the measured heart rate is ~0.  A task
     * cannot consume more than the fastest core supplies, so the
     * clamp defaults to the TC2-like chip's fastest core (1200 PU).
     */
    Pu demand_clamp = 1200.0;

    /**
     * Relative slack before a cluster's unmet demand counts as a
     * deficit for the chip agent (D_v > S_v * (1 + slack)).  Damps
     * allowance growth triggered by measurement flicker when demand
     * hovers at the supply.
     */
    double demand_slack = 0.05;

    /**
     * Maximum relative allowance growth per round.  The paper's
     * Delta = A * (D - S)/D can double the money supply in one round
     * during a cold start (every task maximally hungry), minting
     * distorted savings; capping the growth keeps the transient
     * bounded.  1.0 disables the cap (the running example's rounds
     * stay below it anyway).
     */
    double allowance_growth_cap = 0.25;

    /**
     * Money-supply anchoring rate (quantity theory of money): in the
     * normal state with no deficit, the global allowance decays
     * toward `money_anchor_slack` times the money actually
     * circulating (the sum of bids) at this rate per round.  Keeps
     * the money scale commensurate with spending after transients,
     * which is what makes savings meaningful.  0 disables the anchor
     * (the paper's running example has no decay).
     */
    double money_anchor_rate = 0.02;

    /**
     * Target ratio of allowance to circulating bids for the anchor.
     * Must leave headroom (> 1) so under-supplied tasks can outbid
     * satisfied ones instead of every bid pinning at its cap.
     */
    double money_anchor_slack = 3.0;

    /**
     * Master switch for the cluster agents' DVFS actuation.  With it
     * off, prices and allowances still evolve but V-F levels stay
     * where the caller put them (used by the coordination ablation).
     */
    bool dvfs_enabled = true;

    /**
     * Demand rounding (Section 3.2.4): in the normal state a cluster
     * never deflates below the supply that covers its constrained
     * core's demand, preventing the limit cycle between two adjacent
     * V-F levels.  Disable to observe the raw price dynamics (the
     * delta ablation does).
     */
    bool demand_rounding = true;

    /**
     * Fraction of every task's savings withdrawn per emergency
     * round.  Without it, banked allowance can fund bids that hold
     * the chip above the TDP long after the allowance cut -- the
     * exact hazard the paper cites as the reason for capping savings.
     * 0 disables (the running example contracts the allowance only).
     */
    double emergency_savings_tax = 0.03;

    /**
     * Incremental active-set clearing (escape hatch).  The dirty-bit
     * bookkeeping always runs; this flag only controls whether clean
     * entries actually skip their folds and replay memoized results.
     * Skip rules fire only when every input to an entry's fold is
     * bit-unchanged, so the cleared round is byte-identical with the
     * flag on or off -- turning it off trades speed for a simpler
     * execution trace when hunting dirty-set bugs.
     */
    bool incremental = true;

    // --- Adaptive V-F stepping (SpeedEx-style tatonnement control) ---

    /**
     * Let a cluster agent step more than one V-F level per round when
     * the price stays out of its tolerance band round after round and
     * the chip-wide excess-demand objective (RoundReport::excess_l2)
     * is not improving.  Off by default: the paper's cluster agent is
     * strictly single-step, and the Table 1-3 reproductions depend on
     * that cadence.
     */
    bool adaptive_step = false;

    /**
     * Fixed-point radix of the adaptive step accumulator.  A cluster's
     * accumulator starts at 1 << step_radix (one level per round) and
     * is rescaled by step_up/2^step_adjust_radix after a round that
     * re-triggers in the same direction without improving the
     * objective, and by step_down/2^step_adjust_radix after the
     * pressure subsides; the level delta applied is the accumulator
     * shifted back down by step_radix.
     */
    int step_radix = 7;

    /** Radix of the step_up/step_down rescale factors. */
    int step_adjust_radix = 5;

    /** Accumulator growth factor numerator (45/32 = 1.4x per round). */
    int step_up = 45;

    /** Accumulator decay factor numerator (10/32 = 0.3x per round). */
    int step_down = 10;
};

} // namespace ppm::market

#endif // PPM_MARKET_CONFIG_HH
