/**
 * @file
 * mirror_pdes: an 8-disk RAID-1 of HC-SD drives with
 * positioning-priced replica reads, run under intra-run PDES. A third
 * of the way into the trace member 0 fails (scheduleFailDisk) and is
 * rebuilt onto its spare (scheduleStartRebuild).
 *
 * Why: every read prices live replica state, so PDES horizons
 * collapse and the round machinery dominates. It uses the array layer
 * differently from fig8_sweep — reads go to one replica, writes to
 * both, and rebuild traffic runs beside foreground reads. The outputs
 * are checked against an untimed serial run of the same trace.
 *
 * The gated runs use one PDES worker; the traced pass adds runs at
 * min(4, nproc) workers for pdes.slowdown_vs_serial (see
 * kGatedWorkers).
 */

#include "array_run.hh"
#include "exec/pdes.hh"
#include "sim/rng.hh"
#include "telemetry/tracer.hh"
#include "workload/synthetic.hh"

namespace perfbench {

using namespace idp;

namespace {

/** A rate the mirror sustains without a growing backlog (at 1 ms it
 *  does not). */
constexpr double kInterArrivalMs = 2.0;

/**
 * PDES workers of the gated (and traced) runs. With one worker
 * PdesRun runs every round inline on the calling thread, so the rate
 * measures the round machinery — horizon derivation, serial steps,
 * barriers, merges — without thread hand-offs. With more workers a
 * request takes about ten rounds, each round with more than one busy
 * drive wakes pool threads, and the rate follows the host's wake-up
 * latency: on a 4-vCPU VM a 30 s run at 4 workers ranged from 20k to
 * 61k requests/s within 40 minutes, beyond any bound the benchmark may
 * set. The hand-off cost is reported, not gated, as
 * pdes.slowdown_vs_serial at min(4, nproc) workers.
 */
constexpr unsigned kGatedWorkers = 1;

std::uint64_t
requests(Size size)
{
    return size == Size::Full ? 20000 : 300;
}

ArrayRunSpec
mirrorSpec(const workload::Trace &trace, Size size)
{
    ArrayRunSpec spec;
    spec.trace = &trace;
    spec.params.layout = array::Layout::Raid1;
    spec.params.disks = 8;
    spec.params.drive = disk::barracudaEs750();
    spec.failAndRebuild = true;
    spec.failAt = trace[trace.size() / 3].arrival;
    // The spare goes in a simulated second after the failure.
    spec.rebuildAt = spec.failAt + sim::secondsToTicks(1.0);
    // Rebuild in large chunks so reconstructing the 750 GB member
    // stays a small share of the run's events.
    spec.rebuild.chunkSectors = size == Size::Full ? 1u << 16 : 1u << 22;
    return spec;
}

std::vector<std::string>
digestOf(const ArrayRunResult &r)
{
    return {r.digestLine("raid1x8 HC-SD"),
            "rebuild chunks=" + std::to_string(r.rebuildChunks) +
                " yields=" + std::to_string(r.rebuildYields) +
                " window_s=" + exact(r.rebuildWindowS)};
}

} // namespace

Outcome
runMirrorPdes(const RunOptions &opts)
{
    Outcome oc;
    oc.settings["sweep_threads"] = "1";
    oc.settings["pdes_workers"] = std::to_string(kGatedWorkers);
    oc.settings["pdes_workers_slowdown"] = std::to_string(opts.threads);
    oc.settings["requests"] = std::to_string(requests(opts.size));

    // Set-up: trace generation plus construction of the PDES engine
    // and the array (built and torn down).
    workload::Trace trace;
    const std::vector<double> setup_s = timeSetups([&] {
        workload::SyntheticParams wp;
        wp.requests = requests(opts.size);
        wp.meanInterArrivalMs = kInterArrivalMs;
        wp.seed = sim::streamSeed(opts.seed, 0);
        trace = workload::generateSynthetic(wp);
        const ArrayRunSpec spec = mirrorSpec(trace, opts.size);
        exec::PdesRun prun(spec.params, kGatedWorkers,
                           telemetry::TraceOptions{});
        array::StorageArray arr(prun.coordSim(), spec.params, nullptr,
                                &prun);
    });
    std::uint64_t reads = 0;
    for (const workload::IoRequest &r : trace)
        reads += r.isRead ? 1 : 0;

    // Untimed serial reference: every PDES repetition must reproduce
    // its simulated statistics exactly.
    std::vector<std::string> reference;
    auto run = [&](const char *what, unsigned workers, bool verify,
                   bool traced, SpanLog *spans) {
        ArrayRunSpec spec = mirrorSpec(trace, opts.size);
        spec.pdesWorkers = workers;
        spec.verify = verify;
        spec.traced = traced;
        ++oc.attempted;
        ArrayRunResult r;
        try {
            r = runArray(spec, spans, 0);
        } catch (const std::exception &e) {
            oc.fail(std::string(what) + " threw: " + e.what());
            return r;
        }
        if (!r.problems.empty())
            oc.fail(std::string(what) + ": " + r.problems.front());
        else if (reference.empty())
            reference = digestOf(r);
        else if (digestOf(r) != reference)
            oc.fail(std::string(what) +
                    ": simulated outputs differ from the serial run");
        return r;
    };
    run("serial reference", 0, true, false, nullptr);

    const double n = static_cast<double>(trace.size());
    if (!opts.trace) {
        Throughput tp;
        auto pdes = [&](int rep) {
            const ArrayRunResult r =
                run("pdes", kGatedWorkers, true, false, nullptr);
            if (rep > 0)
                tp.add(n, static_cast<double>(r.totalNs) * 1e-9);
        };
        repeatFor(opts.seconds, kMinTimedReps, pdes);
        oc.metrics["sim_requests_per_s"] = tp.rate();
        oc.metrics["setup_s"] = median(setup_s);
        oc.notes.push_back(spreadNote("sim_requests_per_s", tp.rates));
        oc.notes.push_back(spreadNote("setup_s", setup_s));
    } else {
        std::vector<double> plain_s, traced_s, noverify_s, serial_s;
        std::vector<double> parallel_s;
        std::vector<double> run_ns;
        ArrayRunResult plain, traced;
        repeatFor(opts.seconds, 1, [&](int rep) {
            plain = run("pdes", kGatedWorkers, true, false, nullptr);
            if (rep == 0)
                return;
            plain_s.push_back(static_cast<double>(plain.totalNs));
            run_ns.push_back(static_cast<double>(plain.runNs));
            oc.spans = SpanLog();
            traced = run("traced pdes", kGatedWorkers, true, true,
                         &oc.spans);
            traced_s.push_back(static_cast<double>(traced.totalNs));
            noverify_s.push_back(static_cast<double>(
                run("checker-off pdes", kGatedWorkers, false, false,
                    nullptr)
                    .totalNs));
            serial_s.push_back(static_cast<double>(
                run("serial", 0, true, false, nullptr).totalNs));
            parallel_s.push_back(static_cast<double>(
                run("parallel pdes", opts.threads, true, false, nullptr)
                    .totalNs));
        });
        const std::uint64_t allocs = countAllocs([&] {
            run("counted pdes", kGatedWorkers, true, false, nullptr);
        });

        auto &m = oc.metrics;
        auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
        const auto rounds = static_cast<double>(plain.rounds);
        m["pdes.rounds_per_request"] = rounds / n;
        m["pdes.serial_step_fraction"] =
            ratio(static_cast<double>(plain.serialSteps), rounds);
        m["pdes.horizon_log2_median"] = plain.horizonLog2Median;
        m["pdes.us_per_round"] = ratio(median(run_ns) * 1e-3, rounds);
        m["pdes.slowdown_vs_serial"] =
            median(parallel_s) / median(serial_s);

        layerMetricsFromCounters(traced.counters, n, m);
        const auto events = static_cast<double>(plain.eventsFired);
        const auto stale = static_cast<double>(plain.staleCancels);
        const double cancels =
            static_cast<double>(plain.eventsCancelled) + stale;
        m["sim.events_per_request"] = events / n;
        m["sim.peak_pending"] = static_cast<double>(plain.peakPending);
        m["sim.cancels_per_request"] = cancels / n;
        m["sim.stale_cancel_fraction"] = ratio(stale, cancels);
        m["sim.host_ns_per_event"] = ratio(median(run_ns), events);
        m["array.replica_priced_per_read"] =
            ratio(traced.counters["array.replica_priced"],
                  static_cast<double>(reads));
        m["array.submit_host_ns"] =
            ratio(static_cast<double>(traced.submitNs),
                  static_cast<double>(traced.submitCalls));
        m["rebuild.window_s"] = plain.rebuildWindowS;
        m["verify.overhead_fraction"] =
            median(plain_s) / median(noverify_s) - 1.0;
        m["telemetry.trace_overhead_fraction"] =
            median(traced_s) / median(plain_s) - 1.0;
        m["stats.seal_host_ms"] = static_cast<double>(plain.sealNs) * 1e-6;
        m["power.finish_host_ms"] =
            static_cast<double>(plain.finishPowerNs) * 1e-6;
        m["alloc.per_request"] = static_cast<double>(allocs) / n;
    }
    oc.digest = reference;
    return oc;
}

} // namespace perfbench
