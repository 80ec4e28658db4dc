#include "hw/thermal.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace ppm::hw {

ThermalModel::ThermalModel(ThermalParams params)
    : params_(std::move(params)),
      temp_(params_.nodes.size(), params_.ambient_c),
      peak_(params_.ambient_c), cycle_ref_(params_.ambient_c)
{
    PPM_ASSERT(!params_.nodes.empty(),
               "thermal model needs at least one node");
    for (const auto& n : params_.nodes) {
        PPM_ASSERT(n.resistance_k_per_w > 0.0 &&
                       n.capacitance_j_per_k > 0.0,
                   "thermal RC values must be positive");
    }
}

void
ThermalModel::set_cycle_threshold(double kelvin)
{
    PPM_ASSERT(kelvin > 0.0, "cycle threshold must be positive");
    cycle_threshold_ = kelvin;
}

void
ThermalModel::observe_extremes(double hottest)
{
    peak_ = std::max(peak_, hottest);

    // Peak/valley cycle counting on the hottest node.
    if (rising_) {
        if (hottest > cycle_ref_) {
            cycle_ref_ = hottest;
        } else if (cycle_ref_ - hottest >= cycle_threshold_) {
            rising_ = false;
            cycle_ref_ = hottest;
        }
    } else {
        if (hottest < cycle_ref_) {
            cycle_ref_ = hottest;
        } else if (hottest - cycle_ref_ >= cycle_threshold_) {
            rising_ = true;
            cycle_ref_ = hottest;
            ++cycles_;  // One full valley-to-rise completes a cycle.
        }
    }
}

void
ThermalModel::advance(const std::vector<Watts>& cluster_power,
                      SimTime dt, long n)
{
    PPM_ASSERT(cluster_power.size() == temp_.size(),
               "power vector size mismatch");
    PPM_ASSERT(dt >= 0 && n >= 0, "negative advance");
    const double dt_s = to_seconds(dt);
    adv_target_.resize(temp_.size());
    adv_decay_.resize(temp_.size());
    for (std::size_t v = 0; v < temp_.size(); ++v) {
        const auto& node = params_.nodes[v];
        // Non-finite power (corrupted upstream) must not poison the
        // temperature state; treat it as zero draw.
        const double p = std::isfinite(cluster_power[v])
                             ? std::max(0.0, cluster_power[v])
                             : 0.0;
        adv_target_[v] =
            params_.ambient_c + p * node.resistance_k_per_w;
        const double tau =
            node.resistance_k_per_w * node.capacitance_j_per_k;
        // Exact exponential step (stable for any dt).
        adv_decay_[v] = std::exp(-dt_s / tau);
    }
    for (long i = 0; i < n; ++i) {
        bool temps_changed = false;
        for (std::size_t v = 0; v < temp_.size(); ++v) {
            const double next =
                adv_target_[v] + (temp_[v] - adv_target_[v]) * adv_decay_[v];
            if (next != temp_[v] ||
                std::signbit(next) != std::signbit(temp_[v]))
                temps_changed = true;
            temp_[v] = next;
        }
        const double prev_peak = peak_;
        const double prev_ref = cycle_ref_;
        const bool prev_rising = rising_;
        const long prev_cycles = cycles_;
        observe_extremes(max_temperature());
        // Once the temperatures and the extremes detector jointly
        // stop changing, every remaining step is the identity; the
        // remaining (n - i - 1) iterations can be skipped exactly.
        if (!temps_changed && peak_ == prev_peak &&
            cycle_ref_ == prev_ref && rising_ == prev_rising &&
            cycles_ == prev_cycles)
            break;
    }
}

double
ThermalModel::temperature(ClusterId v) const
{
    PPM_ASSERT(v >= 0 && static_cast<std::size_t>(v) < temp_.size(),
               "cluster id out of range");
    return temp_[static_cast<std::size_t>(v)];
}

double
ThermalModel::max_temperature() const
{
    double m = params_.ambient_c;
    for (double t : temp_)
        m = std::max(m, t);
    return m;
}

ThermalParams
ThermalModel::tc2_defaults()
{
    ThermalParams p;
    p.ambient_c = 30.0;
    // LITTLE: ~2 W peak x 12 K/W -> ~54 deg C; tau 12 s.
    p.nodes.push_back({12.0, 1.0});
    // big: ~6.2 W peak x 8 K/W -> ~80 deg C; tau 10 s.
    p.nodes.push_back({8.0, 1.25});
    return p;
}

} // namespace ppm::hw
