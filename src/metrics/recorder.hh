/**
 * @file
 * Named time-series recorder used to regenerate the paper's
 * time-series figures (7 and 8) and to dump power traces.
 */

#ifndef PPM_METRICS_RECORDER_HH
#define PPM_METRICS_RECORDER_HH

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace ppm::metrics {

/** One (time, value) sample. */
struct Sample {
    SimTime time;
    double value;

    template <class A>
    void visit(A& a)
    {
        a(time, value);
    }
};

/** Collects named time series and renders them as CSV or summaries. */
class TraceRecorder
{
  public:
    /** Append a sample to series `name`. */
    void record(const std::string& name, SimTime time, double value);

    /** All samples of series `name` (empty if unknown). */
    const std::vector<Sample>& series(const std::string& name) const;

    /** Names of all recorded series, sorted. */
    std::vector<std::string> names() const;

    /**
     * Write all series as a wide CSV: a time column (seconds) followed
     * by one column per series.  Series are sampled on the union of
     * timestamps; missing points are left empty.
     */
    void write_csv(std::ostream& os) const;

    /** Mean of series `name` over samples with time >= `from`. */
    double mean_after(const std::string& name, SimTime from) const;

    template <class A>
    void visit(A& a)
    {
        a(series_);
    }

  private:
    std::map<std::string, std::vector<Sample>> series_;
};

} // namespace ppm::metrics

#endif // PPM_METRICS_RECORDER_HH
