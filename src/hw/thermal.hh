/**
 * @file
 * First-order RC thermal model.
 *
 * The paper motivates both the TDP constraint and the tolerance
 * factor delta thermally (V-F thrashing causes thermal cycling, which
 * degrades reliability).  This model gives those claims a physical
 * readout: each cluster is an RC node whose temperature relaxes
 * toward ambient + P x R with time constant R x C.
 *
 *   dT/dt = (P * R - (T - T_ambient)) / (R * C)
 */

#ifndef PPM_HW_THERMAL_HH
#define PPM_HW_THERMAL_HH

#include <cstddef>
#include <vector>

#include "common/types.hh"

namespace ppm::hw {

/** Thermal parameters of the chip. */
struct ThermalParams {
    /** One RC node (per cluster). */
    struct Node {
        double resistance_k_per_w = 10.0;  ///< Junction-to-ambient R.
        double capacitance_j_per_k = 1.0;  ///< Lumped capacitance.
    };

    double ambient_c = 30.0;   ///< Ambient temperature (deg C).
    std::vector<Node> nodes;   ///< Per-cluster nodes.
};

/** Integrates per-cluster temperatures from power over time. */
class ThermalModel
{
  public:
    explicit ThermalModel(ThermalParams params);

    /**
     * Advance the model by `n` steps of `dt` with `cluster_power[v]`
     * watts drawn by each cluster throughout: each step relaxes every
     * node exactly, then folds the hottest reading into the peak and
     * cycle detector, so n steps in one call give the bits of n calls
     * of one step.  Stops integrating early once the temperatures and
     * the detector reach their joint fixed point, which for the
     * exponential map is stable under further steps.  The nodes'
     * decays exp(-dt/tau) are computed once per dt.
     */
    void advance(const std::vector<Watts>& cluster_power, SimTime dt,
                 long n);

    /** Current temperature of cluster `v` (deg C). */
    double temperature(ClusterId v) const;

    /** Hottest temperature seen since construction. */
    double peak_temperature() const { return ext_.peak; }

    /**
     * Thermal cycles observed: completed temperature swings of at
     * least `cycle_threshold_k` (peak-to-valley), a proxy for the
     * thermal-cycling reliability stress of V-F thrashing.
     */
    long thermal_cycles() const { return ext_.cycles; }

    /** Swing size that counts as a cycle (default 3 K). */
    void set_cycle_threshold(double kelvin);

    int num_nodes() const { return static_cast<int>(temp_.size()); }

    /**
     * Default calibration for the TC2-like chip: the big cluster
     * reaches ~80 deg C at its ~6 W peak, the LITTLE cluster ~55
     * deg C at ~2 W, with time constants of ~10 s.
     */
    static ThermalParams tc2_defaults();

    /** Dynamic state only (temperatures, peak/cycle detector). */
    template <class A>
    void visit(A& a)
    {
        a(temp_, ext_.peak, ext_.ref, ext_.rising, cycle_threshold_,
          ext_.cycles);
    }

  private:
    /** Peak and cycle detector on the hottest node's temperature. */
    struct Extremes {
        double peak;
        double ref;  ///< Running extreme of the current swing.
        bool rising = true;
        long cycles = 0;

        /** Fold one step's hottest reading in. */
        void observe(double hottest, double threshold);

        bool operator==(const Extremes&) const = default;
    };

    /**
     * The relaxation kernel: `n` steps from target_ and decay_.  N is
     * the node count when it is a compile-time constant, so the
     * temperatures and the detector stay in registers across the
     * steps; N = 0 takes the count from temp_ at run time.
     */
    template <std::size_t N>
    void relax(long n);

    ThermalParams params_;
    std::vector<double> temp_;
    Extremes ext_;
    double cycle_threshold_ = 3.0;
    // Per-call targets ambient + P x R and the per-dt decays, sized by
    // the first advance() (so the hot path allocates nothing after
    // it); derived state that the archive leaves out.
    std::vector<double> target_;
    std::vector<double> decay_;
    SimTime decay_dt_ = -1;  ///< The dt decay_ belongs to.
};

} // namespace ppm::hw

#endif // PPM_HW_THERMAL_HH
