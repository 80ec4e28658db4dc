#include "hw/sensors.hh"

#include "common/logging.hh"
#include "common/stats.hh"

namespace ppm::hw {

SensorBank::SensorBank(int num_clusters)
    : instantaneous_(static_cast<std::size_t>(num_clusters), 0.0),
      energy_(static_cast<std::size_t>(num_clusters), 0.0),
      energy_at_mark_(static_cast<std::size_t>(num_clusters), 0.0),
      elapsed_(static_cast<std::size_t>(num_clusters), 0),
      elapsed_at_mark_(static_cast<std::size_t>(num_clusters), 0)
{
    PPM_ASSERT(num_clusters > 0, "sensor bank needs at least one channel");
}

void
SensorBank::record(ClusterId v, Watts watts, SimTime tick, long n)
{
    PPM_ASSERT(v >= 0 && v < num_clusters(), "cluster channel out of range");
    PPM_ASSERT(tick >= 0 && n >= 0, "negative duration");
    auto idx = static_cast<std::size_t>(v);
    instantaneous_[idx] = watts;
    energy_[idx] =
        add_repeated(energy_[idx], 0.0, watts * to_seconds(tick), n);
    elapsed_[idx] += n * tick;
}

Watts
SensorBank::instantaneous(ClusterId v) const
{
    PPM_ASSERT(v >= 0 && v < num_clusters(), "cluster channel out of range");
    return instantaneous_[static_cast<std::size_t>(v)];
}

Watts
SensorBank::instantaneous_chip() const
{
    Watts total = 0.0;
    for (Watts w : instantaneous_)
        total += w;
    return total;
}

Joules
SensorBank::energy(ClusterId v) const
{
    PPM_ASSERT(v >= 0 && v < num_clusters(), "cluster channel out of range");
    return energy_[static_cast<std::size_t>(v)];
}

Joules
SensorBank::chip_energy() const
{
    Joules total = 0.0;
    for (Joules e : energy_)
        total += e;
    return total;
}

Watts
SensorBank::average_since_mark(ClusterId v) const
{
    PPM_ASSERT(v >= 0 && v < num_clusters(), "cluster channel out of range");
    const auto idx = static_cast<std::size_t>(v);
    const SimTime dt = elapsed_[idx] - elapsed_at_mark_[idx];
    if (dt <= 0)
        return instantaneous(v);
    return (energy_[idx] - energy_at_mark_[idx]) / to_seconds(dt);
}

Watts
SensorBank::chip_average_since_mark() const
{
    Watts total = 0.0;
    for (ClusterId v = 0; v < num_clusters(); ++v)
        total += average_since_mark(v);
    return total;
}

void
SensorBank::mark()
{
    energy_at_mark_ = energy_;
    elapsed_at_mark_ = elapsed_;
}

} // namespace ppm::hw
