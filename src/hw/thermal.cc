#include "hw/thermal.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "common/logging.hh"

namespace ppm::hw {

ThermalModel::ThermalModel(ThermalParams params)
    : params_(std::move(params)),
      temp_(params_.nodes.size(), params_.ambient_c),
      ext_{params_.ambient_c, params_.ambient_c}
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

inline void
ThermalModel::Extremes::observe(double hottest, double threshold)
{
    peak = std::max(peak, hottest);

    // Peak/valley cycle counting on the hottest node.
    if (rising) {
        if (hottest > ref) {
            ref = hottest;
        } else if (ref - hottest >= threshold) {
            rising = false;
            ref = hottest;
        }
    } else {
        if (hottest < ref) {
            ref = hottest;
        } else if (hottest - ref >= threshold) {
            rising = true;
            ref = hottest;
            ++cycles;  // One full valley-to-rise completes a cycle.
        }
    }
}

namespace {

/**
 * One per-node column of the kernel: for a compile-time count a
 * local copy of `store`, which the compiler keeps in registers; for a
 * run-time count (N = 0) `store` itself.
 */
template <std::size_t N>
auto
column(std::vector<double>& store)
{
    if constexpr (N == 0) {
        return store.data();
    } else {
        std::array<double, N> c;
        std::copy_n(store.begin(), N, c.begin());
        return c;
    }
}

/**
 * f(0), ..., f(count - 1) in order: straight-line code for a
 * compile-time count, so every column index is a constant, and a
 * loop for a run-time count (N = 0).
 */
template <std::size_t N, class F>
void
for_each_node(std::size_t count, F&& f)
{
    if constexpr (N == 0) {
        for (std::size_t v = 0; v < count; ++v)
            f(v);
    } else {
        [&f]<std::size_t... V>(std::index_sequence<V...>) {
            (f(V), ...);
        }(std::make_index_sequence<N>{});
    }
}

} // namespace

template <std::size_t N>
void
ThermalModel::relax(long n)
{
    auto t = column<N>(temp_);
    const auto target = column<N>(target_);
    const auto decay = column<N>(decay_);
    Extremes ext = ext_;
    for (long i = 0; i < n; ++i) {
        bool temps_changed = false;
        double hottest = params_.ambient_c;
        for_each_node<N>(temp_.size(), [&](std::size_t v) {
            const double next = target[v] + (t[v] - target[v]) * decay[v];
            if (next != t[v] || std::signbit(next) != std::signbit(t[v]))
                temps_changed = true;
            t[v] = next;
            hottest = std::max(hottest, next);
        });
        const Extremes before = ext;
        ext.observe(hottest, cycle_threshold_);
        // Once the temperatures and the extremes detector jointly
        // stop changing, every remaining step is the identity; the
        // remaining (n - i - 1) iterations can be skipped exactly.
        if (!temps_changed && ext == before)
            break;
    }
    if constexpr (N != 0)
        std::copy_n(t.begin(), N, temp_.begin());
    ext_ = ext;
}

void
ThermalModel::advance(const std::vector<Watts>& cluster_power,
                      SimTime dt, long n)
{
    PPM_ASSERT(cluster_power.size() == temp_.size(),
               "power vector size mismatch");
    PPM_ASSERT(dt >= 0 && n >= 0, "negative advance");
    if (dt != decay_dt_) {
        const double dt_s = to_seconds(dt);
        target_.resize(temp_.size());
        decay_.resize(temp_.size());
        for (std::size_t v = 0; v < temp_.size(); ++v) {
            const auto& node = params_.nodes[v];
            const double tau =
                node.resistance_k_per_w * node.capacitance_j_per_k;
            // Exact exponential step (stable for any dt).
            decay_[v] = std::exp(-dt_s / tau);
        }
        decay_dt_ = dt;
    }
    for (std::size_t v = 0; v < temp_.size(); ++v) {
        // Non-finite power (corrupted upstream) must not poison the
        // temperature state; treat it as zero draw.
        const double p = std::isfinite(cluster_power[v])
                             ? std::max(0.0, cluster_power[v])
                             : 0.0;
        target_[v] =
            params_.ambient_c + p * params_.nodes[v].resistance_k_per_w;
    }
    // A compile-time count for the TC2's 2 clusters, which every paper
    // and fleet run simulates; other chips run the same kernel with a
    // run-time count.
    if (temp_.size() == 2)
        return relax<2>(n);
    relax<0>(n);
}

double
ThermalModel::temperature(ClusterId v) const
{
    PPM_ASSERT(v >= 0 && static_cast<std::size_t>(v) < temp_.size(),
               "cluster id out of range");
    return temp_[static_cast<std::size_t>(v)];
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
