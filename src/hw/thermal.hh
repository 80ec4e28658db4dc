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
     * exponential map is stable under further steps.
     */
    void advance(const std::vector<Watts>& cluster_power, SimTime dt,
                 long n);

    /** Current temperature of cluster `v` (deg C). */
    double temperature(ClusterId v) const;

    /** Hottest cluster right now. */
    double max_temperature() const;

    /** Hottest temperature seen since construction. */
    double peak_temperature() const { return peak_; }

    /**
     * Thermal cycles observed: completed temperature swings of at
     * least `cycle_threshold_k` (peak-to-valley), a proxy for the
     * thermal-cycling reliability stress of V-F thrashing.
     */
    long thermal_cycles() const { return cycles_; }

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
        a(temp_, peak_, cycle_ref_, rising_, cycle_threshold_, cycles_);
    }

  private:
    /** Fold one step's hottest reading into peak/cycle tracking. */
    void observe_extremes(double hottest);

    ThermalParams params_;
    std::vector<double> temp_;
    double peak_;
    // Cycle detection on the hottest node's temperature.
    double cycle_ref_;
    bool rising_ = true;
    double cycle_threshold_ = 3.0;
    long cycles_ = 0;
    // Scratch for advance() (sized once; keeps the hot path
    // allocation-free).
    std::vector<double> adv_target_;
    std::vector<double> adv_decay_;
};

} // namespace ppm::hw

#endif // PPM_HW_THERMAL_HH
