/**
 * @file
 * Power/energy sensor bank standing in for the TC2 board's hwmon
 * interface.  The simulation loop records per-cluster power each tick;
 * governors read instantaneous power or the average since their last
 * control epoch, exactly the granularity the paper's chip agent needs.
 */

#ifndef PPM_HW_SENSORS_HH
#define PPM_HW_SENSORS_HH

#include <vector>

#include "common/types.hh"

namespace ppm::hw {

/** Per-cluster power and energy meters. */
class SensorBank
{
  public:
    /** @param num_clusters Number of cluster channels. */
    explicit SensorBank(int num_clusters);

    /**
     * Record that cluster `v` drew `watts` for `n` ticks of `tick`
     * each, and make `watts` its instantaneous reading.  The energy
     * takes one addition of watts * tick per tick, through
     * add_repeated() (closed form wherever that is exact), so n ticks
     * in one call give the bits of n calls of one tick.  Each channel
     * accumulates its own elapsed time, so channels may be recorded
     * in any order or at different rates without corrupting one
     * another's averaging windows.
     */
    void record(ClusterId v, Watts watts, SimTime tick, long n);

    /** Most recent instantaneous power reading of cluster `v`. */
    Watts instantaneous(ClusterId v) const;

    /** Most recent instantaneous chip power (sum over clusters). */
    Watts instantaneous_chip() const;

    /** Cumulative energy of cluster `v` since construction. */
    Joules energy(ClusterId v) const;

    /** Cumulative chip energy. */
    Joules chip_energy() const;

    /**
     * Average power of cluster `v` since the last mark() (or since
     * construction).  Falls back to the instantaneous reading when no
     * time has elapsed.
     */
    Watts average_since_mark(ClusterId v) const;

    /** Average chip power since the last mark(). */
    Watts chip_average_since_mark() const;

    /** Start a new averaging window (called by a governor per epoch). */
    void mark();

    int num_clusters() const
    {
        return static_cast<int>(instantaneous_.size());
    }

    template <class A>
    void visit(A& a)
    {
        a(instantaneous_, energy_, energy_at_mark_, elapsed_,
          elapsed_at_mark_);
    }

  private:
    std::vector<Watts> instantaneous_;
    std::vector<Joules> energy_;
    std::vector<Joules> energy_at_mark_;
    // Elapsed time is tracked per channel: a caller that skips a
    // channel (or records one twice) only affects that channel's own
    // average_since_mark() denominator, never the others'.
    std::vector<SimTime> elapsed_;
    std::vector<SimTime> elapsed_at_mark_;
};

} // namespace ppm::hw

#endif // PPM_HW_SENSORS_HH
