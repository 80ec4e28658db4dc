#include "fuzz/scenario.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/logging.hh"
#include "common/rng.hh"
#include "hw/power_model.hh"

namespace ppm::fuzz {
namespace {

/**
 * Draw a SimTime uniformly on the millisecond grid.  Every generated
 * time sits on the tick grid so macro-step horizons, lifetimes and
 * trace samples land exactly where the per-tick loop lands them.
 */
SimTime
uniform_ms(Rng& rng, long lo_ms, long hi_ms)
{
    return rng.uniform_int(lo_ms, hi_ms) * kMillisecond;
}

TaskGene
generate_task(Rng& rng)
{
    TaskGene g;
    // Most tasks are priority 1 (the paper's default); a skewed tail
    // exercises the market's priority weighting.
    g.priority = rng.chance(0.6)
                     ? 1
                     : static_cast<int>(rng.uniform_int(2, 5));
    g.demand_little = rng.uniform(30.0, 900.0);
    g.big_speedup = rng.uniform(1.0, 2.5);
    g.target_hr = rng.uniform(5.0, 40.0);
    if (rng.chance(0.15))
        g.self_pace_hr = g.target_hr * rng.uniform(1.0, 1.2);
    if (rng.chance(0.5)) {
        g.n_phases = static_cast<int>(rng.uniform_int(2, 4));
        g.phase_amp = rng.uniform(0.1, 0.6);
    }
    g.phase_seed = rng.next_u64();
    return g;
}

fault::FaultSpec
generate_faults(Rng& rng)
{
    fault::FaultSpec f;
    f.seed = rng.next_u64();
    f.sensor = rng.chance(0.5);
    f.dvfs = rng.chance(0.5);
    f.migration = rng.chance(0.5);
    f.offline = rng.chance(0.5);
    if (!f.any())
        f.sensor = true;
    f.rate_per_min = rng.uniform(4.0, 60.0);
    f.mean_duration = uniform_ms(rng, 50, 800);
    f.noise_sigma_w = rng.uniform(0.1, 1.5);
    f.dvfs_delay = uniform_ms(rng, 2, 20);
    f.stale_age = uniform_ms(rng, 100, 600);
    f.staleness_bound = uniform_ms(rng, 100, 400);
    f.max_retries = static_cast<int>(rng.uniform_int(1, 6));
    f.retry_backoff = uniform_ms(rng, 1, 8);
    return f;
}

/** Sum of per-cluster maxima: the chip's peak sustained power. */
Watts
chip_max_power(const hw::Chip& chip)
{
    Watts total = 0.0;
    for (ClusterId v = 0; v < chip.num_clusters(); ++v)
        total += hw::PowerModel::cluster_max_power(chip, v);
    return total;
}

// ---------------------------------------------------------------
// Serialization helpers.  Doubles print as %.17g (round-trips
// exactly through strtod); times print in integral milliseconds
// (generation keeps everything on the millisecond grid).

std::string
fmt_double(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

long
to_ms(SimTime t)
{
    PPM_ASSERT(t % kMillisecond == 0,
               "fuzz scenario times live on the millisecond grid");
    return static_cast<long>(t / kMillisecond);
}

/** Strict full-string parses; return false on any trailing garbage. */
bool
parse_u64(const std::string& s, std::uint64_t* out)
{
    if (s.empty())
        return false;
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (errno != 0 || end != s.c_str() + s.size() || s[0] == '-')
        return false;
    *out = static_cast<std::uint64_t>(v);
    return true;
}

bool
parse_long(const std::string& s, long* out)
{
    if (s.empty())
        return false;
    errno = 0;
    char* end = nullptr;
    const long v = std::strtol(s.c_str(), &end, 10);
    if (errno != 0 || end != s.c_str() + s.size())
        return false;
    *out = v;
    return true;
}

bool
parse_double(const std::string& s, double* out)
{
    if (s.empty())
        return false;
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (errno != 0 || end != s.c_str() + s.size() || !std::isfinite(v))
        return false;
    *out = v;
    return true;
}

bool
parse_bool(const std::string& s, bool* out)
{
    if (s == "0") {
        *out = false;
        return true;
    }
    if (s == "1") {
        *out = true;
        return true;
    }
    return false;
}

std::vector<std::string>
split(const std::string& s, char sep)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = s.find(sep, start);
        if (pos == std::string::npos) {
            parts.push_back(s.substr(start));
            return parts;
        }
        parts.push_back(s.substr(start, pos - start));
        start = pos + 1;
    }
}

bool
parse_task_line(const std::string& value, TaskGene* g,
                std::string* error)
{
    const std::vector<std::string> f = split(value, ',');
    if (f.size() != 11) {
        *error = "task= wants 11 comma-separated fields, got " +
                 std::to_string(f.size());
        return false;
    }
    long priority = 0, n_phases = 0, arrival_ms = 0, departure_ms = 0,
         core = 0;
    const bool ok =
        parse_long(f[0], &priority) &&
        parse_double(f[1], &g->demand_little) &&
        parse_double(f[2], &g->big_speedup) &&
        parse_double(f[3], &g->target_hr) &&
        parse_double(f[4], &g->self_pace_hr) &&
        parse_long(f[5], &n_phases) &&
        parse_double(f[6], &g->phase_amp) &&
        parse_u64(f[7], &g->phase_seed) &&
        parse_long(f[8], &arrival_ms) &&
        parse_long(f[9], &departure_ms) && parse_long(f[10], &core);
    if (!ok || priority < 1 || n_phases < 1 || arrival_ms < 0 ||
        departure_ms < -1 || core < -1 || g->demand_little <= 0.0 ||
        g->target_hr <= 0.0) {
        *error = "malformed task= line: " + value;
        return false;
    }
    g->priority = static_cast<int>(priority);
    g->n_phases = static_cast<int>(n_phases);
    g->arrival = arrival_ms * kMillisecond;
    g->departure = departure_ms < 0
                       ? sim::SimConfig::Lifetime::kForever
                       : departure_ms * kMillisecond;
    g->core = static_cast<CoreId>(core);
    return true;
}

} // namespace

const char*
platform_shape_name(PlatformShape s)
{
    switch (s) {
    case PlatformShape::kTc2:
        return "tc2";
    case PlatformShape::kOcta:
        return "octa";
    case PlatformShape::kSynthetic:
        return "synthetic";
    }
    return "?";
}

std::uint64_t
scenario_seed(std::uint64_t base, std::uint64_t index)
{
    // mix64 is bijective, so for a fixed base every index yields a
    // distinct scenario seed (and a campaign's scenarios never repeat
    // within 2^64 indices).
    return mix64(mix64(base) + index);
}

Scenario
generate_scenario(std::uint64_t seed)
{
    Rng rng(seed);
    Scenario sc;
    sc.seed = seed;

    const double shape_u = rng.uniform();
    if (shape_u < 0.4) {
        sc.shape = PlatformShape::kTc2;
    } else if (shape_u < 0.6) {
        sc.shape = PlatformShape::kOcta;
    } else {
        sc.shape = PlatformShape::kSynthetic;
        sc.synth_clusters = static_cast<int>(rng.uniform_int(1, 6));
        sc.synth_cores = static_cast<int>(rng.uniform_int(1, 4));
    }

    sc.duration = uniform_ms(rng, 1500, 6000);
    sc.warmup = uniform_ms(rng, 500, 1000);

    const int n_tasks = static_cast<int>(rng.uniform_int(1, 10));
    sc.tasks.reserve(static_cast<std::size_t>(n_tasks));
    for (int i = 0; i < n_tasks; ++i)
        sc.tasks.push_back(generate_task(rng));

    // Half the scenarios stagger lifetimes: arrivals up to mid-run,
    // departures anywhere after arrival (zero-length windows allowed
    // -- a task that departs the tick it arrives must not wedge the
    // market or the QoS accounting).
    if (rng.chance(0.5)) {
        for (TaskGene& g : sc.tasks) {
            if (!rng.chance(0.5))
                continue;
            const long mid = to_ms(sc.duration) / 2;
            g.arrival = uniform_ms(rng, 0, mid);
            if (!rng.chance(0.3))
                g.departure = uniform_ms(rng, to_ms(g.arrival),
                                         to_ms(sc.duration));
        }
    }

    // Explicit placement: pin a subset of tasks to random cores.
    const hw::Chip chip = make_chip(sc);
    if (rng.chance(0.3)) {
        for (TaskGene& g : sc.tasks) {
            if (rng.chance(0.5))
                g.core = static_cast<CoreId>(
                    rng.uniform_int(0, chip.num_cores() - 1));
        }
    }

    // TDP: a quarter of the scenarios run uncapped; the rest draw a
    // cap between deep throttling and just above the chip's peak.
    if (!rng.chance(0.25)) {
        const Watts maxp = chip_max_power(chip);
        const Watts lo = std::max(1.5, 0.35 * maxp);
        const Watts hi = 1.25 * maxp;
        if (lo < hi)
            sc.tdp = rng.uniform(lo, hi);
    }

    if (rng.chance(0.25)) {
        sc.trace = true;
        // Log-uniform 3..500 ms: most probes are fast, some slow.
        const double ms = std::exp(
            rng.uniform(std::log(3.0), std::log(500.0)));
        sc.trace_period =
            std::max<long>(3, std::min<long>(500, std::lround(ms))) *
            kMillisecond;
    }

    // Retired clearing-pool genes (worker count, chunk grain): the
    // draws are still consumed and discarded so every seed keeps
    // generating the same values for the genes drawn after them.
    if (rng.chance(0.5)) {
        (void)rng.uniform_int(2, 4);
        (void)rng.uniform_int(1, 7);
    }

    sc.online_speedup = rng.chance(0.2);
    sc.adaptive_step = rng.chance(0.2);

    if (rng.chance(0.4)) {
        sc.has_faults = true;
        sc.faults = generate_faults(rng);
    }

    // A quarter of the scenarios federate 2-4 chips under a shared
    // fleet budget (drawn last so the single-chip fields of a given
    // seed are unchanged from earlier grammar versions).
    if (rng.chance(0.25))
        sc.fleet_chips = static_cast<int>(rng.uniform_int(2, 4));

    // A fifth of the scenarios run their primary pass with the
    // incremental engine off (the differential runs the complement
    // either way).  Drawn after fleet_chips for grammar back-compat.
    sc.incremental = !rng.chance(0.2);

    // Chip-level fault classes for federated scenarios: failures
    // (with or without recovery) and budget degradation, driving the
    // evacuation/conservation invariants in check.cc.  Drawn after
    // `incremental` for grammar back-compat.
    if (sc.fleet_chips > 1 && rng.chance(0.35)) {
        sc.has_fleet_faults = true;
        sc.faults.chip_fail = rng.chance(0.7);
        sc.faults.chip_degrade = rng.chance(0.5);
        if (!sc.faults.any_fleet())
            sc.faults.chip_fail = true;
        sc.faults.chip_recover = rng.chance(0.6);
        sc.faults.chip_rate_per_min = rng.uniform(4.0, 40.0);
        sc.faults.degrade_factor = rng.uniform(0.2, 0.9);
        if (!sc.has_faults)
            sc.faults.seed = rng.next_u64();
    }

    // Snapshot differential: kill-and-resume at a random simulated
    // time strictly inside the run.  Drawn last.
    if (rng.chance(0.3))
        sc.snapshot_at = uniform_ms(rng, 1, to_ms(sc.duration) - 1);
    return sc;
}

hw::Chip
make_chip(const Scenario& sc)
{
    switch (sc.shape) {
    case PlatformShape::kTc2:
        return hw::tc2_chip();
    case PlatformShape::kOcta:
        return hw::octa_big_little_chip();
    case PlatformShape::kSynthetic:
        return hw::synthetic_chip(sc.synth_clusters, sc.synth_cores);
    }
    fatal("unknown platform shape");
}

std::vector<workload::TaskSpec>
make_specs(const Scenario& sc)
{
    std::vector<workload::TaskSpec> specs;
    specs.reserve(sc.tasks.size());
    for (std::size_t i = 0; i < sc.tasks.size(); ++i) {
        const TaskGene& g = sc.tasks[i];
        workload::TaskSpec spec = workload::steady_task_spec(
            "fz" + std::to_string(i), g.priority, g.demand_little,
            g.big_speedup, g.target_hr, g.self_pace_hr);
        if (g.n_phases > 1) {
            // Phase-structured cost: scale the steady demand by a
            // per-phase factor drawn from the gene's own stream.
            const workload::Phase base = spec.phases.front();
            spec.phases.clear();
            Rng prng(g.phase_seed);
            for (int p = 0; p < g.n_phases; ++p) {
                workload::Phase ph;
                ph.duration = uniform_ms(prng, 100, 900);
                const double scale = std::max(
                    0.1, 1.0 + g.phase_amp * prng.uniform(-1.0, 1.0));
                ph.work_per_hb_little =
                    base.work_per_hb_little * scale;
                ph.work_per_hb_big = base.work_per_hb_big * scale;
                spec.phases.push_back(ph);
            }
        }
        specs.push_back(std::move(spec));
    }
    return specs;
}

std::vector<double>
big_speedups(const Scenario& sc)
{
    std::vector<double> s;
    s.reserve(sc.tasks.size());
    for (const TaskGene& g : sc.tasks)
        s.push_back(g.big_speedup);
    return s;
}

std::vector<sim::SimConfig::Lifetime>
lifetimes(const Scenario& sc)
{
    bool any = false;
    for (const TaskGene& g : sc.tasks) {
        if (g.arrival != 0 ||
            g.departure != sim::SimConfig::Lifetime::kForever)
            any = true;
    }
    if (!any)
        return {};
    std::vector<sim::SimConfig::Lifetime> lt;
    lt.reserve(sc.tasks.size());
    for (const TaskGene& g : sc.tasks) {
        sim::SimConfig::Lifetime w;
        w.arrival = g.arrival;
        w.departure = g.departure;
        lt.push_back(w);
    }
    return lt;
}

std::vector<CoreId>
placement(const Scenario& sc)
{
    bool any = false;
    for (const TaskGene& g : sc.tasks)
        if (g.core != kInvalidId)
            any = true;
    if (!any)
        return {};
    const hw::Chip chip = make_chip(sc);
    const std::vector<CoreId>& boot = chip.cluster(0).cores();
    std::vector<CoreId> p;
    p.reserve(sc.tasks.size());
    for (std::size_t i = 0; i < sc.tasks.size(); ++i) {
        const TaskGene& g = sc.tasks[i];
        p.push_back(g.core != kInvalidId
                        ? g.core
                        : boot[i % boot.size()]);
    }
    return p;
}

std::string
serialize(const Scenario& sc)
{
    std::ostringstream os;
    os << "# ppm_fuzz scenario\n";
    os << "seed=" << sc.seed << "\n";
    os << "shape=" << platform_shape_name(sc.shape) << "\n";
    if (sc.shape == PlatformShape::kSynthetic) {
        os << "synth_clusters=" << sc.synth_clusters << "\n";
        os << "synth_cores=" << sc.synth_cores << "\n";
    }
    os << "tdp=" << fmt_double(sc.tdp) << "\n";
    os << "duration_ms=" << to_ms(sc.duration) << "\n";
    os << "warmup_ms=" << to_ms(sc.warmup) << "\n";
    os << "trace=" << (sc.trace ? 1 : 0) << "\n";
    os << "trace_period_ms=" << to_ms(sc.trace_period) << "\n";
    os << "online_speedup=" << (sc.online_speedup ? 1 : 0) << "\n";
    os << "adaptive_step=" << (sc.adaptive_step ? 1 : 0) << "\n";
    os << "fleet_chips=" << sc.fleet_chips << "\n";
    os << "incremental=" << (sc.incremental ? 1 : 0) << "\n";
    os << "snapshot_at_ms=" << to_ms(sc.snapshot_at) << "\n";
    os << "fleet_faults=" << (sc.has_fleet_faults ? 1 : 0) << "\n";
    if (sc.has_fleet_faults) {
        const fault::FaultSpec& f = sc.faults;
        os << "chip_fail=" << (f.chip_fail ? 1 : 0) << "\n";
        os << "chip_degrade=" << (f.chip_degrade ? 1 : 0) << "\n";
        os << "chip_recover=" << (f.chip_recover ? 1 : 0) << "\n";
        os << "chip_rate=" << fmt_double(f.chip_rate_per_min) << "\n";
        os << "degrade=" << fmt_double(f.degrade_factor) << "\n";
        os << "fleet_fault_seed=" << f.seed << "\n";
    }
    os << "faults=" << (sc.has_faults ? 1 : 0) << "\n";
    if (sc.has_faults) {
        const fault::FaultSpec& f = sc.faults;
        os << "fault_seed=" << f.seed << "\n";
        os << "fault_sensor=" << (f.sensor ? 1 : 0) << "\n";
        os << "fault_dvfs=" << (f.dvfs ? 1 : 0) << "\n";
        os << "fault_migration=" << (f.migration ? 1 : 0) << "\n";
        os << "fault_offline=" << (f.offline ? 1 : 0) << "\n";
        os << "fault_rate=" << fmt_double(f.rate_per_min) << "\n";
        os << "fault_duration_ms=" << to_ms(f.mean_duration) << "\n";
        os << "fault_noise=" << fmt_double(f.noise_sigma_w) << "\n";
        os << "fault_dvfs_delay_ms=" << to_ms(f.dvfs_delay) << "\n";
        os << "fault_stale_ms=" << to_ms(f.stale_age) << "\n";
        os << "fault_staleness_ms=" << to_ms(f.staleness_bound)
           << "\n";
        os << "fault_retries=" << f.max_retries << "\n";
        os << "fault_backoff_ms=" << to_ms(f.retry_backoff) << "\n";
    }
    for (const TaskGene& g : sc.tasks) {
        os << "task=" << g.priority << ","
           << fmt_double(g.demand_little) << ","
           << fmt_double(g.big_speedup) << ","
           << fmt_double(g.target_hr) << ","
           << fmt_double(g.self_pace_hr) << "," << g.n_phases << ","
           << fmt_double(g.phase_amp) << "," << g.phase_seed << ","
           << to_ms(g.arrival) << ","
           << (g.departure == sim::SimConfig::Lifetime::kForever
                   ? -1
                   : to_ms(g.departure))
           << "," << g.core << "\n";
    }
    return os.str();
}

bool
parse_scenario(const std::string& text, Scenario* out,
               std::string* error)
{
    Scenario sc;
    sc.trace_period = kSecond;
    std::istringstream is(text);
    std::string line;
    int lineno = 0;
    auto fail = [&](const std::string& msg) {
        *error = "line " + std::to_string(lineno) + ": " + msg;
        return false;
    };
    while (std::getline(is, line)) {
        ++lineno;
        // Trim trailing CR and surrounding whitespace.
        while (!line.empty() &&
               (line.back() == '\r' || line.back() == ' ' ||
                line.back() == '\t'))
            line.pop_back();
        std::size_t start = 0;
        while (start < line.size() &&
               (line[start] == ' ' || line[start] == '\t'))
            ++start;
        line = line.substr(start);
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            return fail("expected key=value, got '" + line + "'");
        const std::string key = line.substr(0, eq);
        const std::string value = line.substr(eq + 1);
        long l = 0;
        bool ok = true;
        if (key == "seed") {
            ok = parse_u64(value, &sc.seed);
        } else if (key == "shape") {
            if (value == "tc2")
                sc.shape = PlatformShape::kTc2;
            else if (value == "octa")
                sc.shape = PlatformShape::kOcta;
            else if (value == "synthetic")
                sc.shape = PlatformShape::kSynthetic;
            else
                ok = false;
        } else if (key == "synth_clusters") {
            ok = parse_long(value, &l) && l >= 1 && l <= 64;
            sc.synth_clusters = static_cast<int>(l);
        } else if (key == "synth_cores") {
            ok = parse_long(value, &l) && l >= 1 && l <= 64;
            sc.synth_cores = static_cast<int>(l);
        } else if (key == "tdp") {
            ok = parse_double(value, &sc.tdp) && sc.tdp >= 0.0;
        } else if (key == "duration_ms") {
            ok = parse_long(value, &l) && l >= 1;
            sc.duration = l * kMillisecond;
        } else if (key == "warmup_ms") {
            ok = parse_long(value, &l) && l >= 0;
            sc.warmup = l * kMillisecond;
        } else if (key == "trace") {
            ok = parse_bool(value, &sc.trace);
        } else if (key == "trace_period_ms") {
            ok = parse_long(value, &l) && l >= 1;
            sc.trace_period = l * kMillisecond;
        } else if (key == "clearing_jobs" || key == "clearing_grain") {
            // Retired genes: older fixtures still carry them.
        } else if (key == "online_speedup") {
            ok = parse_bool(value, &sc.online_speedup);
        } else if (key == "adaptive_step") {
            ok = parse_bool(value, &sc.adaptive_step);
        } else if (key == "fleet_chips") {
            // Missing key (pre-federation fixtures) defaults to 1.
            ok = parse_long(value, &l) && l >= 1 && l <= 8;
            sc.fleet_chips = static_cast<int>(l);
        } else if (key == "incremental") {
            // Missing key (pre-incremental fixtures) defaults to on.
            ok = parse_bool(value, &sc.incremental);
        } else if (key == "snapshot_at_ms") {
            // Missing key (pre-snapshot fixtures) defaults to 0/off.
            ok = parse_long(value, &l) && l >= 0;
            sc.snapshot_at = l * kMillisecond;
        } else if (key == "fleet_faults") {
            // Missing key (pre-fault fixtures) defaults to off.
            ok = parse_bool(value, &sc.has_fleet_faults);
        } else if (key == "chip_fail") {
            ok = parse_bool(value, &sc.faults.chip_fail);
        } else if (key == "chip_degrade") {
            ok = parse_bool(value, &sc.faults.chip_degrade);
        } else if (key == "chip_recover") {
            ok = parse_bool(value, &sc.faults.chip_recover);
        } else if (key == "chip_rate") {
            ok = parse_double(value, &sc.faults.chip_rate_per_min) &&
                 sc.faults.chip_rate_per_min > 0.0;
        } else if (key == "degrade") {
            ok = parse_double(value, &sc.faults.degrade_factor) &&
                 sc.faults.degrade_factor > 0.0 &&
                 sc.faults.degrade_factor <= 1.0;
        } else if (key == "fleet_fault_seed") {
            ok = parse_u64(value, &sc.faults.seed);
        } else if (key == "faults") {
            ok = parse_bool(value, &sc.has_faults);
        } else if (key == "fault_seed") {
            ok = parse_u64(value, &sc.faults.seed);
        } else if (key == "fault_sensor") {
            ok = parse_bool(value, &sc.faults.sensor);
        } else if (key == "fault_dvfs") {
            ok = parse_bool(value, &sc.faults.dvfs);
        } else if (key == "fault_migration") {
            ok = parse_bool(value, &sc.faults.migration);
        } else if (key == "fault_offline") {
            ok = parse_bool(value, &sc.faults.offline);
        } else if (key == "fault_rate") {
            ok = parse_double(value, &sc.faults.rate_per_min) &&
                 sc.faults.rate_per_min > 0.0;
        } else if (key == "fault_duration_ms") {
            ok = parse_long(value, &l) && l >= 1;
            sc.faults.mean_duration = l * kMillisecond;
        } else if (key == "fault_noise") {
            ok = parse_double(value, &sc.faults.noise_sigma_w) &&
                 sc.faults.noise_sigma_w >= 0.0;
        } else if (key == "fault_dvfs_delay_ms") {
            ok = parse_long(value, &l) && l >= 0;
            sc.faults.dvfs_delay = l * kMillisecond;
        } else if (key == "fault_stale_ms") {
            ok = parse_long(value, &l) && l >= 0;
            sc.faults.stale_age = l * kMillisecond;
        } else if (key == "fault_staleness_ms") {
            ok = parse_long(value, &l) && l >= 1;
            sc.faults.staleness_bound = l * kMillisecond;
        } else if (key == "fault_retries") {
            ok = parse_long(value, &l) && l >= 0;
            sc.faults.max_retries = static_cast<int>(l);
        } else if (key == "fault_backoff_ms") {
            ok = parse_long(value, &l) && l >= 1;
            sc.faults.retry_backoff = l * kMillisecond;
        } else if (key == "task") {
            TaskGene g;
            if (!parse_task_line(value, &g, error)) {
                *error = "line " + std::to_string(lineno) + ": " +
                         *error;
                return false;
            }
            sc.tasks.push_back(g);
        } else {
            return fail("unknown key '" + key + "'");
        }
        if (!ok)
            return fail("bad value for '" + key + "': '" + value +
                        "'");
    }
    if (sc.tasks.empty())
        return fail("scenario has no task= lines");
    if (sc.warmup >= sc.duration)
        return fail("warmup must be shorter than duration");
    if (sc.snapshot_at >= sc.duration)
        return fail("snapshot_at_ms must be inside the run");
    if (sc.has_fleet_faults && !sc.faults.any_fleet())
        return fail("fleet_faults=1 wants chip_fail or chip_degrade");
    *out = sc;
    return true;
}

} // namespace ppm::fuzz
