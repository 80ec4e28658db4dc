/**
 * @file
 * The fleet workload: 32 TC2 chips run set h2 under PPM, federated
 * under a 128 W supervisor budget at the default 96 ms epoch, with
 * chip seeds derived as `ppm_run --fleet` derives them.  Shards and
 * market clearing share one 3-worker pool (control thread + 3 workers
 * = 4 threads).  Every 104 epochs the benchmark takes an in-memory
 * checkpoint (Fleet::save, Writer::finalize); after the run, the last
 * checkpoint before the final epoch is restored into a fresh fleet
 * (Reader::open, Fleet::load) and run to the end, which must
 * reproduce the uninterrupted fleet byte for byte.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "common/thread_pool.hh"
#include "experiment/experiment.hh"
#include "fleet/fleet.hh"
#include "fuzz/check.hh"
#include "hw/platform.hh"
#include "probe.hh"
#include "snapshot/archive.hh"
#include "workload/benchmarks.hh"
#include "workload/sets.hh"

namespace perfbench {
namespace {

using ppm::SimTime;
using ppm::Watts;

constexpr int kChips = 32;
constexpr int kWorkers = 3;
constexpr Watts kFleetBudget = 128.0;
constexpr SimTime kDuration = 300 * ppm::kSecond;
constexpr long kCheckpointEvery = 104;  ///< Epochs (~10 simulated s).

/** Probe state of one traced fleet: one slot per shard, so shards
 *  stepped on different workers never share a counter. */
struct FleetProbes {
    std::vector<GovernorCalls> calls =
        std::vector<GovernorCalls>(kChips);
    std::vector<ShardMarks> marks = std::vector<ShardMarks>(kChips);
};

/** Chip workloads, instantiated as ppm_run --fleet does. */
std::vector<ppm::fleet::ChipWorkload>
chip_workloads(std::uint64_t seed)
{
    const auto& set = ppm::workload::workload_set("h2");
    std::vector<ppm::fleet::ChipWorkload> out;
    for (int c = 0; c < kChips; ++c) {
        const std::uint64_t chip_seed =
            c == 0 ? seed : ppm::experiment::cell_seed(seed, 777, c);
        ppm::fleet::ChipWorkload wl;
        wl.specs = ppm::workload::instantiate(set, chip_seed, 1,
                                              kDuration + 100 * ppm::kSecond);
        out.push_back(std::move(wl));
    }
    return out;
}

std::unique_ptr<ppm::fleet::Fleet>
make_fleet(std::vector<ppm::fleet::ChipWorkload> workloads,
           ppm::ThreadPool* pool, FleetProbes* probes)
{
    std::vector<double> speedups;
    for (const auto& m : ppm::workload::workload_set("h2").members)
        speedups.push_back(
            ppm::workload::profile(m.bench, m.input).big_speedup);

    ppm::fleet::FleetConfig fc;
    fc.chips = kChips;
    fc.supervisor.total_budget = kFleetBudget;
    fc.sim.duration = kDuration;
    fc.workloads = std::move(workloads);
    fc.pool = pool;
    fc.make_chip = [](int) { return ppm::hw::tc2_chip(); };
    fc.make_governor = [speedups, pool, probes](int chip, Watts budget) {
        std::unique_ptr<ppm::sim::Governor> g =
            ppm::experiment::make_governor("PPM", budget, speedups, false,
                                           1, pool, true);
        if (probes == nullptr)
            return g;
        const auto i = static_cast<std::size_t>(chip);
        return std::unique_ptr<ppm::sim::Governor>(
            std::make_unique<GovernorProbe>(std::move(g),
                                            &probes->calls[i],
                                            &probes->marks[i]));
    };
    return std::make_unique<ppm::fleet::Fleet>(std::move(fc));
}

std::string
fleet_digest(const ppm::fleet::FleetResult& r)
{
    std::uint64_t h = fnv1a(ppm::fuzz::summary_fingerprint(r.combined));
    for (const auto& s : r.per_chip)
        h = fnv1a(ppm::fuzz::summary_fingerprint(s), h);
    h = fnv1a(std::to_string(r.supervisor_epochs), h);
    return hex64(h);
}

long
live_tasks(ppm::fleet::Fleet& fleet)
{
    long n = 0;
    for (int i = 0; i < fleet.chips(); ++i) {
        ppm::sim::Simulation& shard = fleet.shard(i);
        const auto tasks = static_cast<ppm::TaskId>(shard.tasks().size());
        for (ppm::TaskId t = 0; t < tasks; ++t)
            n += shard.task_alive(t) ? 1 : 0;
    }
    return n;
}

/** Everything one fleet iteration (run + restore) produced. */
struct Iteration {
    std::string digest;           ///< Uninterrupted fleet.
    std::string restored_digest;  ///< Restored from the last checkpoint.
    bool restore_opened = false;  ///< Reader::open + Fleet::load clean.
    double instantiate_s = 0.0;   ///< Both fleets' workloads.
    double construct_s = 0.0;     ///< Pool + both fleets (+ load).
    double run_s = 0.0;           ///< First run_epoch to the last.
    long epochs = 0;
    double task_epochs = 0.0;
    // Per-epoch figures (traced only).
    std::vector<double> epoch_us, wake_us, barrier_us, imbalance;
    double shard_busy_s = 0.0;
    // Snapshot figures.
    std::vector<double> save_ms;
    double bytes = 0.0;
    long saves = 0;
    double load_ms = 0.0;
    ppm::sim::ClearingStats clearing;
};

/** One fleet run plus its restore; `probes` (traced runs only) wraps
 *  every governor of the uninterrupted fleet. */
Iteration
run_iteration(std::uint64_t seed, Tracer& tracer, long op,
              FleetProbes* probes)
{
    Iteration it;
    const int span = tracer.begin("fleet", -1, op);

    std::int64_t t0 = now_ns();
    auto workloads = chip_workloads(seed);
    std::int64_t t1 = now_ns();
    tracer.record("instantiate", t0, t1, span, op);
    it.instantiate_s += ns_to_s(t1 - t0);

    t0 = now_ns();
    ppm::ThreadPool pool(kWorkers);
    auto fleet = make_fleet(std::move(workloads), &pool, probes);
    t1 = now_ns();
    tracer.record("construct", t0, t1, span, op);
    it.construct_s += ns_to_s(t1 - t0);

    std::string checkpoint;
    const int run_span = tracer.begin("run", span, op);
    const std::int64_t start = now_ns();
    for (bool more = true; more;) {
        if (probes != nullptr) {
            for (ShardMarks& m : probes->marks)
                m = ShardMarks{};
        }
        const std::int64_t e0 = now_ns();
        more = fleet->run_epoch();
        const std::int64_t e1 = now_ns();
        ++it.epochs;
        it.task_epochs += static_cast<double>(live_tasks(*fleet));
        if (probes != nullptr) {
            tracer.record("epoch", e0, e1, run_span, op);
            std::int64_t first = 0, last = 0;
            double sum = 0.0, max = 0.0;
            for (const ShardMarks& m : probes->marks) {
                if (m.first_ns == 0)
                    continue;
                first = first == 0 ? m.first_ns : std::min(first, m.first_ns);
                last = std::max(last, m.last_ns);
                const double busy = static_cast<double>(m.last_ns - m.first_ns);
                sum += busy;
                max = std::max(max, busy);
            }
            it.epoch_us.push_back(static_cast<double>(e1 - e0) * 1e-3);
            if (first != 0) {
                it.wake_us.push_back(static_cast<double>(first - e0) * 1e-3);
                it.barrier_us.push_back(static_cast<double>(e1 - last) * 1e-3);
                it.imbalance.push_back(max / (sum / kChips));
                it.shard_busy_s += sum * 1e-9;
            }
        }
        if (more && it.epochs % kCheckpointEvery == 0) {
            const std::int64_t s0 = now_ns();
            ppm::snap::Writer w;
            fleet->save(w);
            checkpoint = w.finalize();
            const std::int64_t s1 = now_ns();
            tracer.record("checkpoint", s0, s1, run_span, op);
            it.save_ms.push_back(static_cast<double>(s1 - s0) * 1e-6);
            it.bytes += static_cast<double>(checkpoint.size());
            ++it.saves;
        }
    }
    it.run_s = ns_to_s(now_ns() - start);
    tracer.end(run_span);
    const ppm::fleet::FleetResult result = fleet->run();
    it.digest = fleet_digest(result);
    for (int i = 0; i < fleet->chips(); ++i)
        accumulate(it.clearing, fleet->shard(i).governor().clearing_stats());
    fleet.reset();

    // Restore: a fresh fleet from the same configuration, loaded from
    // the last checkpoint and run to the end.  Its set-up (inputs,
    // construction, open + load) counts as set-up time.  In a traced
    // run its governors are wrapped too, so the restore also checks the
    // probe's load() forwarding; their counts are dropped so restored
    // epochs are not counted twice.
    const int restore_span = tracer.begin("restore", span, op);
    t0 = now_ns();
    workloads = chip_workloads(seed);
    t1 = now_ns();
    tracer.record("instantiate", t0, t1, restore_span, op);
    it.instantiate_s += ns_to_s(t1 - t0);
    FleetProbes restore_probes;
    t0 = now_ns();
    auto restored = make_fleet(std::move(workloads), &pool,
                               probes != nullptr ? &restore_probes
                                                 : nullptr);
    ppm::snap::Reader reader;
    const std::int64_t l0 = now_ns();
    it.restore_opened =
        !checkpoint.empty() &&
        reader.open(checkpoint) == ppm::snap::LoadStatus::kOk;
    if (it.restore_opened) {
        restored->load(reader);
        it.restore_opened = reader.remaining() == 0;
    }
    t1 = now_ns();
    tracer.record("load", l0, t1, restore_span, op);
    it.load_ms = static_cast<double>(t1 - l0) * 1e-6;
    it.construct_s += ns_to_s(t1 - t0);
    if (it.restore_opened) {
        const std::int64_t r0 = now_ns();
        while (restored->run_epoch()) {
        }
        it.restored_digest = fleet_digest(restored->run());
        tracer.record("run", r0, now_ns(), restore_span, op);
    }
    tracer.end(restore_span);
    tracer.end(span);
    return it;
}

} // namespace

Result
run_fleet(const Options& opt, Gate& gate, Tracer& tracer)
{
    Result res;
    Tracer untraced(false);

    // Warm-up pass, untimed: one full iteration.
    run_iteration(opt.seed, untraced, -1, nullptr);

    std::string first;
    std::vector<double> rss_samples;
    double run_s = 0.0, best_run_s = 0.0, best_setup_s = 0.0,
           task_epochs = 0.0;
    int iterations = 0;
    const auto gate_iteration = [&](const Iteration& it, const char* what) {
        if (first.empty()) {
            first = it.digest;
            res.op_digests.emplace_back("fleet", it.digest);
            gate.check_reference("fleet", it.digest);
        } else {
            gate.record(it.digest == first, std::string(what) +
                                                " fleet digest " + it.digest +
                                                " != " + first);
        }
        gate.record(it.restore_opened && it.restored_digest == it.digest,
                    std::string(what) + " restore digest " +
                        it.restored_digest + " != uninterrupted " +
                        it.digest);
    };

    // Closed loop of whole iterations, at least two, nearest the
    // requested seconds.  Every iteration runs the same inputs, so the
    // rate and the set-up take the fastest: on a shared host,
    // interference only ever slows an iteration down.
    const std::int64_t start = now_ns();
    for (;;) {
        const double elapsed = ns_to_s(now_ns() - start);
        if (iterations >= 2 &&
            elapsed + elapsed / iterations / 2.0 >= opt.seconds)
            break;
        restart_peak_rss();
        const Iteration it =
            run_iteration(opt.seed, untraced, iterations, nullptr);
        rss_samples.push_back(peak_rss_mib());
        gate_iteration(it, "untraced");
        const double setup = it.instantiate_s + it.construct_s;
        run_s += it.run_s;
        best_run_s = iterations == 0 ? it.run_s : std::min(best_run_s, it.run_s);
        best_setup_s = iterations == 0 ? setup : std::min(best_setup_s, setup);
        task_epochs = it.task_epochs;
        ++iterations;
    }
    res.digest = first;
    res.end_to_end["fleet_task_epochs_per_s"] = {task_epochs / best_run_s,
                                                 "task-epochs/s", iterations};
    res.end_to_end["setup_s"] = {best_setup_s, "s", iterations};
    res.end_to_end["peak_rss_mb"] = {geomean(rss_samples), "MiB",
                                     static_cast<long>(rss_samples.size())};
    res.notes.push_back("iterations: " + std::to_string(iterations) +
                        " x (fleet of " + std::to_string(kChips) +
                        " chips for 300 simulated s + restore)");
    if (!opt.trace)
        return res;

    // Traced pass: the same iterations, every shard's governor wrapped.
    std::vector<double> epoch_us, wake_us, barrier_us, imbalance, save_ms,
        inst, cons, load_ms;
    double traced_run_s = 0.0, shard_busy_s = 0.0, bytes = 0.0;
    long epochs = 0, saves = 0;
    GovernorCalls calls;
    ppm::sim::ClearingStats market;
    for (int i = 0; i < iterations; ++i) {
        FleetProbes probes;
        const Iteration it = run_iteration(opt.seed, tracer, i, &probes);
        gate_iteration(it, "traced");
        for (const GovernorCalls& c : probes.calls)
            calls.merge(c);
        const auto append = [](std::vector<double>& to,
                               const std::vector<double>& from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(epoch_us, it.epoch_us);
        append(wake_us, it.wake_us);
        append(barrier_us, it.barrier_us);
        append(imbalance, it.imbalance);
        append(save_ms, it.save_ms);
        inst.push_back(it.instantiate_s);
        cons.push_back(it.construct_s);
        load_ms.push_back(it.load_ms);
        traced_run_s += it.run_s;
        shard_busy_s += it.shard_busy_s;
        bytes += it.bytes;
        epochs += it.epochs;
        saves += it.saves;
        accumulate(market, it.clearing);
    }

    auto& L = res.per_layer;
    const auto n = [](const std::vector<double>& v) {
        return static_cast<long>(v.size());
    };
    double epoch_s = 0.0;
    for (double us : epoch_us)
        epoch_s += us * 1e-6;
    const long shards = static_cast<long>(iterations) * kChips;
    const long ticks =
        shards * static_cast<long>(kDuration / ppm::kMillisecond);
    L["fleet.epochs"] = {static_cast<double>(epochs), "count", iterations};
    L["fleet.epoch_us_p50"] = {percentile(epoch_us, 50), "us", n(epoch_us)};
    L["fleet.epoch_us_p99"] = {percentile(epoch_us, 99), "us", n(epoch_us)};
    L["fleet.wake_us_p50"] = {percentile(wake_us, 50), "us", n(wake_us)};
    L["fleet.wake_us_p99"] = {percentile(wake_us, 99), "us", n(wake_us)};
    L["fleet.barrier_us_p50"] = {percentile(barrier_us, 50), "us",
                                 n(barrier_us)};
    L["fleet.barrier_us_p99"] = {percentile(barrier_us, 99), "us",
                                 n(barrier_us)};
    L["fleet.shard_busy_s"] = {shard_busy_s, "s", n(epoch_us) * kChips};
    L["fleet.imbalance_p50"] = {percentile(imbalance, 50), "ratio",
                                n(imbalance)};
    L["fleet.parallel_eff"] = {shard_busy_s / (kWorkers * epoch_s), "ratio",
                               n(epoch_us)};
    L["snapshot.saves"] = {static_cast<double>(saves), "count", iterations};
    L["snapshot.save_ms_p50"] = {percentile(save_ms, 50), "ms", n(save_ms)};
    L["snapshot.bytes_per_save"] = {saves > 0 ? bytes / saves : 0.0, "B",
                                    saves};
    L["snapshot.load_ms"] = {median(load_ms), "ms", n(load_ms)};
    engine_metrics(L, calls, ticks, shards);
    governor_metrics(L, "ppm", calls, shards);
    market_metrics(L, market, shards);
    L["setup.instantiate_s"] = {median(inst), "s", n(inst)};
    L["setup.construct_s"] = {median(cons), "s", n(cons)};
    L["trace.overhead"] = {traced_run_s / run_s - 1.0, "ratio", iterations};
    return res;
}

} // namespace perfbench
