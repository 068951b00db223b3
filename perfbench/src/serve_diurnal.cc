/**
 * @file
 * serve_diurnal: half an hour of the serving stack — a million tenant
 * sessions (5% open loop, 95% closed loop with long think times), a
 * diurnal curve plus bursts, admission control and speculative
 * readahead with cancels — on 4x SA(4) RAID-0 with the energy
 * governor on.
 *
 * Why: it loads the serving layer (think wheel, token buckets, SLO
 * window), the calendar's cancel path and the governor's time-varying
 * RPM, and bypasses the sweep runner, PDES and trace generation. The
 * night trough is deep enough for the governor to step RPM down.
 *
 * serve::runService owns its calendar, array and registry, so this
 * workload sees the serving stack only through that call: its counters
 * come from the registry deltas the service already snapshots, and the
 * calls inside it (submit, run, sealStats, finishPower) are not timed
 * separately — those per-layer metrics read 0 here.
 */

#include <cstdlib>

#include "array_run.hh"
#include "core/experiment.hh"
#include "serve/service_loop.hh"
#include "sim/rng.hh"
#include "verify/invariant_checker.hh"

namespace perfbench {

using namespace idp;

namespace {

core::SystemConfig
system()
{
    core::SystemConfig config = core::makeRaid0System(
        "4x HC-SD-SA(4) governed",
        disk::makeIntraDiskParallel(disk::barracudaEs750(), 4), 4);
    power::GovernorParams &g = config.array.governor;
    g.enabled = true;
    g.sloP99Ms = 120.0;
    g.windowMs = 1000.0;
    g.busyHigh = 0.6;
    g.busyLow = 0.4;
    g.guardFraction = 0.5;
    g.minDwellMs = 5000.0;
    g.rpmLevels = {7200, 4200};
    g.parkKeepArms = 2;
    return config;
}

serve::ServeParams
params(std::uint64_t seed, Size size)
{
    serve::ServeParams p;
    const bool full = size == Size::Full;
    p.tenants = full ? 1000000 : 2000;
    p.durationSeconds = full ? 1800.0 : 20.0;
    p.warmupSeconds = p.durationSeconds / 10.0;
    p.openFraction = 0.05;
    // Closed sessions think for two hours on average; open tenants
    // carry the diurnal load.
    p.thinkMs = full ? 7.2e6 : 15000.0;
    p.openRatePerSec = full ? 0.005 : 2.5;
    p.wheelGranularityMs = full ? 100.0 : 5.0;
    p.readFraction = 0.7;
    // One day per run; phase 0.5 starts on the way down, so the night
    // trough falls a quarter of the way in.
    p.modulation.diurnalPeriodSec = p.durationSeconds;
    p.modulation.diurnalAmplitude = 0.9;
    p.modulation.diurnalPhase = 0.5;
    p.modulation.burstPeriodSec = p.durationSeconds / 6.0;
    p.modulation.burstDurationSec = p.durationSeconds / 60.0;
    p.modulation.burstMultiplier = 1.5;
    // A tight in-flight cap, so burst crests meet admission control.
    p.admission.maxInFlight = 48;
    p.slo.p99TargetMs = 120.0;
    p.slo.windowSamples = 1024;
    p.seed = sim::streamSeed(seed, 0);
    return p;
}

std::vector<std::string>
digestOf(const serve::ServeResult &r)
{
    const serve::ServeTotals &t = r.totals;
    return {r.system + " completions=" + std::to_string(t.completions) +
                " admitted=" + std::to_string(t.admitted) +
                " denied=" + std::to_string(t.denied()) +
                " p99_ms=" + exact(r.p99Ms) +
                " steady_p99_ms=" + exact(r.steadyP99Ms) +
                " energy_j=" + exact(r.power.totalEnergyJ),
            "spec armed=" + std::to_string(t.specArmed) +
                " submitted=" + std::to_string(t.specSubmitted) +
                " cancel_live=" + std::to_string(t.specCancelledLive) +
                " cancel_stale=" + std::to_string(t.specCancelledStale) +
                " sim_s=" + exact(r.simSeconds)};
}

/** Output checks: no admitted request lost, and the speculative
 *  cancel accounting identities the serving layer guarantees. */
std::vector<std::string>
problemsOf(const serve::ServeResult &r)
{
    const serve::ServeTotals &t = r.totals;
    std::vector<std::string> out;
    if (t.completions != t.admitted)
        out.push_back("lost requests: " + std::to_string(t.completions) +
                      " of " + std::to_string(t.admitted) + " admitted");
    if (t.specArmed != t.specCancelledLive + t.specCancelledStale)
        out.push_back("spec armed != live + stale cancels");
    if (t.specCancelledStale != t.specSubmitted + t.specSuppressed)
        out.push_back("spec stale != submitted + suppressed");
    if (r.staleCancels != t.specCancelledStale)
        out.push_back("kernel stale cancels != spec stale cancels");
    return out;
}

struct ServeRep
{
    serve::ServeResult result;
    std::int64_t ns = 0;
    std::vector<std::string> problems;
};

ServeRep
serveOnce(const core::SystemConfig &config, serve::ServeParams p,
          bool verify, bool traced)
{
    ServeRep rep;
    p.captureMetricDeltas = traced;
    std::unique_ptr<verify::InvariantChecker> checker;
    std::unique_ptr<verify::VerifyScope> scope;
    if (verify) {
        checker = std::make_unique<verify::InvariantChecker>(
            verify::FailMode::Record);
        scope = std::make_unique<verify::VerifyScope>(checker.get());
    } else {
        setenv("IDP_VERIFY", "0", 1);
    }
    const std::int64_t t0 = nowNs();
    rep.result = serve::runService(config, p);
    if (checker) {
        checker->finalize();
        for (const std::string &v : checker->violations())
            rep.problems.push_back("invariant violated: " + v);
    }
    rep.ns = nowNs() - t0;
    if (!verify)
        unsetenv("IDP_VERIFY");
    for (std::string &s : problemsOf(rep.result))
        rep.problems.push_back(std::move(s));
    return rep;
}

} // namespace

Outcome
runServeDiurnal(const RunOptions &opts)
{
    Outcome oc;
    oc.settings["sweep_threads"] = "1";
    oc.settings["pdes_workers"] = "0";
    const core::SystemConfig config = system();
    const serve::ServeParams base = params(opts.seed, opts.size);
    oc.settings["tenants"] = std::to_string(base.tenants);
    oc.settings["sim_seconds"] = exact(base.durationSeconds);

    // Set-up: session generation and system construction happen
    // inside runService; a run whose arrivals stop after one
    // simulated millisecond is that set-up and nothing else.
    serve::ServeParams probe = base;
    probe.durationSeconds = 1e-3;
    probe.warmupSeconds = 0.0;
    probe.snapshotPeriodMs = 0.0;
    const std::vector<double> setup_s =
        timeSetups([&] { serve::runService(config, probe); });

    std::vector<std::string> reference;
    auto run = [&](const char *what, bool verify, bool traced) {
        ++oc.attempted;
        ServeRep rep;
        try {
            rep = serveOnce(config, base, verify, traced);
        } catch (const std::exception &e) {
            oc.fail(std::string(what) + " threw: " + e.what());
            return rep;
        }
        if (!rep.problems.empty())
            oc.fail(std::string(what) + ": " + rep.problems.front());
        else if (reference.empty())
            reference = digestOf(rep.result);
        else if (digestOf(rep.result) != reference)
            oc.fail(std::string(what) +
                    ": digest differs from the reference repetition");
        return rep;
    };

    if (!opts.trace) {
        Throughput tp;
        auto serve = [&](int rep) {
            const ServeRep r = run("serve", true, false);
            if (rep > 0)
                tp.add(static_cast<double>(r.result.totals.completions),
                       static_cast<double>(r.ns) * 1e-9);
        };
        repeatFor(opts.seconds, kMinTimedReps, serve);
        oc.metrics["sim_requests_per_s"] = tp.rate();
        oc.metrics["setup_s"] = median(setup_s);
        oc.notes.push_back(spreadNote("sim_requests_per_s", tp.rates));
        oc.notes.push_back(spreadNote("setup_s", setup_s));
    } else {
        std::vector<double> plain_s, traced_s, noverify_s;
        ServeRep plain, traced;
        repeatFor(opts.seconds, 1, [&](int rep) {
            plain = run("serve", true, false);
            if (rep == 0)
                return;
            plain_s.push_back(static_cast<double>(plain.ns));
            oc.spans = SpanLog();
            {
                SpanScope s(&oc.spans, "serve::runService", 0);
                traced = run("traced serve", true, true);
            }
            traced_s.push_back(static_cast<double>(traced.ns));
            noverify_s.push_back(
                static_cast<double>(run("checker-off serve", false, false).ns));
        });
        const std::uint64_t allocs =
            countAllocs([&] { run("counted serve", true, false); });

        // Registry deltas tile the run, so their sums are the totals.
        std::map<std::string, double> c;
        for (const serve::ServeSnapshot &snap : traced.result.snapshots)
            for (const telemetry::MetricSample &s : snap.metricDelta)
                c[s.name] += s.value;
        const serve::ServeResult &r = plain.result;
        const serve::ServeTotals &t = r.totals;
        const auto n = static_cast<double>(t.completions);
        auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
        auto &m = oc.metrics;
        layerMetricsFromCounters(c, n, m);
        m["sim.peak_pending"] = static_cast<double>(r.peakPendingEvents);
        // eventsCancelled counts live retractions only; a stale cancel
        // is a separate no-op call.
        const double cancels =
            static_cast<double>(r.eventsCancelled + r.staleCancels);
        m["sim.cancels_per_request"] = ratio(cancels, n);
        m["sim.stale_cancel_fraction"] =
            ratio(static_cast<double>(r.staleCancels), cancels);
        m["serve.denied_fraction"] = r.denyFraction;
        m["serve.spec_submitted_per_completion"] =
            ratio(static_cast<double>(t.specSubmitted), n);
        m["serve.spec_cancel_stale_fraction"] =
            ratio(static_cast<double>(t.specCancelledStale),
                  static_cast<double>(t.specCancelledLive +
                                      t.specCancelledStale));
        m["verify.overhead_fraction"] =
            median(plain_s) / median(noverify_s) - 1.0;
        m["telemetry.trace_overhead_fraction"] =
            median(traced_s) / median(plain_s) - 1.0;
        m["alloc.per_request"] = ratio(static_cast<double>(allocs), n);
    }
    oc.digest = reference;
    return oc;
}

} // namespace perfbench
