/**
 * @file
 * fig8_sweep: the paper's Figure 8 sweep — {1,2,4,8,16} disks x
 * {HC-SD, SA(2), SA(4)} RAID-0 at 8/4/1 ms mean inter-arrival (open
 * loop, 60% reads, 20% sequential), 45 serial-calendar points fanned
 * over the sweep runner.
 *
 * Why: it is the experiment users run most. It loads the sweep
 * scheduler, the event calendar, multi-arm SPTF, the drive model and
 * RAID-0 split/join, and bypasses PDES, serving, the governor and
 * rebuild — so a change to those should leave this workload alone.
 */

#include <cstdlib>
#include <memory>

#include "array_run.hh"
#include "core/experiment.hh"
#include "exec/sim_sweep.hh"
#include "exec/sweep_runner.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "verify/invariant_checker.hh"
#include "workload/synthetic.hh"

namespace perfbench {

using namespace idp;

namespace {

constexpr double kInterArrivalsMs[] = {8.0, 4.0, 1.0};
constexpr std::uint32_t kDiskCounts[] = {1, 2, 4, 8, 16};
struct Kind
{
    const char *name;
    std::uint32_t actuators;
};
constexpr Kind kKinds[] = {
    {"HC-SD", 1}, {"HC-SD-SA(2)", 2}, {"HC-SD-SA(4)", 4}};

/** Requests per sweep point. The paper runs 1M; 40k keeps one sweep
 *  near a second on 4 threads so a run times many sweeps. */
std::uint64_t
requestsPerPoint(Size size)
{
    return size == Size::Full ? 40000 : 300;
}

struct Inputs
{
    std::vector<workload::Trace> traces; ///< one per inter-arrival
    std::vector<exec::SimPoint> points;
    std::vector<std::string> labels;
    std::uint64_t requests = 0; ///< summed over points
};

/** Generate the three traces from @p seed and lay out the points. */
Inputs
generate(std::uint64_t seed, Size size)
{
    Inputs in;
    for (std::size_t t = 0; t < std::size(kInterArrivalsMs); ++t) {
        workload::SyntheticParams wp;
        wp.requests = requestsPerPoint(size);
        wp.meanInterArrivalMs = kInterArrivalsMs[t];
        wp.readFraction = 0.6;
        wp.sequentialFraction = 0.2;
        // Fixed 700 GB dataset, independent of array width.
        wp.addressSpaceSectors = 700ULL * 1000 * 1000 * 1000 / 512;
        wp.seed = sim::streamSeed(seed, t);
        in.traces.push_back(workload::generateSynthetic(wp));
    }
    for (std::size_t t = 0; t < in.traces.size(); ++t)
        for (std::uint32_t disks : kDiskCounts)
            for (const Kind &kind : kKinds) {
                disk::DriveSpec drive = disk::barracudaEs750();
                if (kind.actuators > 1)
                    drive = disk::makeIntraDiskParallel(drive,
                                                        kind.actuators);
                in.points.push_back(
                    {&in.traces[t],
                     core::makeRaid0System(kind.name, drive, disks)});
                in.labels.push_back(
                    "ia=" + std::to_string(int(kInterArrivalsMs[t])) +
                    "ms disks=" + std::to_string(disks) + " " +
                    kind.name);
                in.requests += in.traces[t].size();
            }
    return in;
}

/** Build (and tear down) every point's system once. */
void
constructAll(const Inputs &in)
{
    for (const exec::SimPoint &p : in.points) {
        sim::Simulator simul;
        array::StorageArray arr(simul, p.config.array);
    }
}

struct PointOut
{
    core::RunResult result;
    double hostS = 0.0;
    std::vector<std::string> problems;
};

struct SweepRep
{
    double wallS = 0.0;
    std::vector<double> pointS;
    std::vector<std::string> digest;
    std::vector<std::string> problems;
    std::vector<core::RunResult> results;
};

/**
 * The end-to-end sweep: the sweep runner over core::runTrace, the
 * same map exec::runSimPoints performs, with each point timed and run
 * under a recording checker (@p verify) or with checking off.
 */
SweepRep
sweepRunTrace(const Inputs &in, unsigned threads, bool verify)
{
    if (!verify)
        setenv("IDP_VERIFY", "0", 1);
    const std::int64_t t0 = nowNs();
    exec::SweepRunner runner(threads);
    std::vector<PointOut> outs = runner.map(
        in.points, [verify](const exec::SimPoint &p,
                            const exec::SweepPoint &) {
            PointOut out;
            std::unique_ptr<verify::InvariantChecker> checker;
            std::unique_ptr<verify::VerifyScope> scope;
            if (verify) {
                checker = std::make_unique<verify::InvariantChecker>(
                    verify::FailMode::Record);
                scope = std::make_unique<verify::VerifyScope>(
                    checker.get());
            }
            const std::int64_t s0 = nowNs();
            out.result = core::runTrace(*p.trace, p.config);
            if (checker) {
                checker->finalize();
                for (const std::string &v : checker->violations())
                    out.problems.push_back("invariant violated: " + v);
            }
            out.hostS = static_cast<double>(nowNs() - s0) * 1e-9;
            if (out.result.completions != p.trace->size())
                out.problems.push_back("lost requests");
            return out;
        });
    SweepRep rep;
    rep.wallS = static_cast<double>(nowNs() - t0) * 1e-9;
    if (!verify)
        unsetenv("IDP_VERIFY");
    for (std::size_t i = 0; i < outs.size(); ++i) {
        const core::RunResult &r = outs[i].result;
        rep.pointS.push_back(outs[i].hostS);
        rep.digest.push_back(pointDigest(in.labels[i], r.completions,
                                         r.p90ResponseMs, r.p99ResponseMs,
                                         r.power.totalEnergyJ));
        for (const std::string &p : outs[i].problems)
            rep.problems.push_back(in.labels[i] + ": " + p);
        rep.results.push_back(std::move(outs[i].result));
    }
    return rep;
}

struct TracedSweep
{
    double wallS = 0.0;
    std::vector<ArrayRunResult> results;
    std::vector<std::string> digest;
    std::vector<std::string> problems;
    SpanLog spans;
};

/** The traced sweep: every point replayed call by call (runArray)
 *  with a registry installed and spans around each call. */
TracedSweep
sweepTraced(const Inputs &in, unsigned threads)
{
    struct Out
    {
        ArrayRunResult result;
        SpanLog spans;
    };
    TracedSweep ts;
    const std::int64_t t0 = nowNs();
    const std::uint32_t sweep_span = ts.spans.open("sweep", 0);
    exec::SweepRunner runner(threads);
    std::vector<Out> outs = runner.map(
        in.points,
        [](const exec::SimPoint &p, const exec::SweepPoint &sp) {
            Out out;
            const auto lane = static_cast<std::uint32_t>(sp.index);
            const std::uint32_t point =
                out.spans.open("sweep_point", 0, lane);
            ArrayRunSpec spec;
            spec.trace = p.trace;
            spec.params = p.config.array;
            spec.traced = true;
            out.result = runArray(spec, &out.spans, point, lane);
            out.spans.close(point);
            return out;
        });
    ts.spans.close(sweep_span);
    ts.wallS = static_cast<double>(nowNs() - t0) * 1e-9;
    for (std::size_t i = 0; i < outs.size(); ++i) {
        ts.spans.append(outs[i].spans, sweep_span);
        ts.digest.push_back(outs[i].result.digestLine(in.labels[i]));
        for (const std::string &p : outs[i].result.problems)
            ts.problems.push_back(in.labels[i] + ": " + p);
        ts.results.push_back(std::move(outs[i].result));
    }
    return ts;
}

/** The paper's iso-performance comparison at its break-even triples
 *  (conventional, SA(2), SA(4) disk counts per inter-arrival). */
std::vector<std::string>
accuracyLines(const Inputs &in, const std::vector<core::RunResult> &rs)
{
    struct Iso
    {
        double ia;
        std::uint32_t conv, sa2, sa4;
    };
    const Iso iso[] = {{8.0, 4, 2, 1}, {4.0, 8, 4, 2}, {1.0, 16, 8, 4}};
    auto watts = [&](double ia, std::uint32_t disks, const char *kind) {
        for (std::size_t i = 0; i < in.points.size(); ++i)
            if (in.labels[i] ==
                "ia=" + std::to_string(int(ia)) + "ms disks=" +
                    std::to_string(disks) + " " + kind)
                return rs[i].power.totalAvgW();
        return 0.0;
    };
    std::vector<std::string> lines;
    std::string line = "accuracy fig8 iso-performance power savings "
                       "(model; paper: SA(2) 41%, SA(4) 60%):";
    for (const Iso &row : iso) {
        const double conv = watts(row.ia, row.conv, "HC-SD");
        const double sa2 = watts(row.ia, row.sa2, "HC-SD-SA(2)");
        const double sa4 = watts(row.ia, row.sa4, "HC-SD-SA(4)");
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      " %gms %ux/%ux/%ux SA(2) %.1f%% SA(4) %.1f%%;",
                      row.ia, row.conv, row.sa2, row.sa4,
                      100.0 * (1.0 - sa2 / conv),
                      100.0 * (1.0 - sa4 / conv));
        line += buf;
    }
    lines.push_back(line);
    lines.push_back("accuracy note: reported, not gated; the drive "
                    "model is otherwise unvalidated against hardware");
    return lines;
}

} // namespace

Outcome
runFig8Sweep(const RunOptions &opts)
{
    Outcome oc;
    oc.settings["sweep_threads"] = std::to_string(opts.threads);
    oc.settings["pdes_workers"] = "0";
    oc.settings["requests_per_point"] =
        std::to_string(requestsPerPoint(opts.size));

    // Set-up: trace generation plus system construction.
    Inputs in;
    const std::vector<double> setup_s = timeSetups([&] {
        in = generate(opts.seed, opts.size);
        constructAll(in);
    });

    std::vector<std::string> reference;
    auto check = [&](const char *what, const std::vector<std::string> &d,
                     const std::vector<std::string> &problems) {
        ++oc.attempted;
        if (!problems.empty())
            oc.fail(std::string(what) + ": " + problems.front());
        else if (reference.empty())
            reference = d;
        else if (d != reference)
            oc.fail(std::string(what) + ": digest differs from the "
                                        "reference repetition");
    };
    auto guarded = [&](const char *what, const std::function<void()> &f) {
        try {
            f();
        } catch (const std::exception &e) {
            ++oc.attempted;
            oc.fail(std::string(what) + " threw: " + e.what());
        }
    };

    if (!opts.trace) {
        Throughput tp;
        auto sweep = [&](int rep) {
            guarded("sweep", [&] {
                SweepRep r = sweepRunTrace(in, opts.threads, true);
                check("sweep", r.digest, r.problems);
                if (rep == 0)
                    oc.notes = accuracyLines(in, r.results);
                else
                    tp.add(static_cast<double>(in.requests), r.wallS);
            });
        };
        repeatFor(opts.seconds, kMinTimedReps, sweep);
        oc.metrics["sim_requests_per_s"] = tp.rate();
        oc.metrics["setup_s"] = median(setup_s);
        oc.notes.push_back(spreadNote("sim_requests_per_s", tp.rates));
        oc.notes.push_back(spreadNote("setup_s", setup_s));
    } else {
        std::vector<double> plain_s, traced_s, noverify_s, busy;
        std::vector<double> point_s;
        std::uint64_t allocs = 0;
        TracedSweep last;
        repeatFor(opts.seconds, 1, [&](int rep) {
            guarded("sweep", [&] {
                SweepRep r = sweepRunTrace(in, opts.threads, true);
                check("sweep", r.digest, r.problems);
                if (rep == 0) {
                    oc.notes = accuracyLines(in, r.results);
                    return;
                }
                plain_s.push_back(r.wallS);
                double total = 0.0;
                for (double s : r.pointS) {
                    point_s.push_back(s);
                    total += s;
                }
                busy.push_back(total / (opts.threads * r.wallS));
            });
            if (rep == 0)
                return;
            guarded("traced sweep", [&] {
                TracedSweep t = sweepTraced(in, opts.threads);
                check("traced sweep", t.digest, t.problems);
                traced_s.push_back(t.wallS);
                last = std::move(t);
            });
            guarded("checker-off sweep", [&] {
                SweepRep r = sweepRunTrace(in, opts.threads, false);
                check("checker-off sweep", r.digest, r.problems);
                noverify_s.push_back(r.wallS);
            });
        });
        guarded("counted sweep", [&] {
            SweepRep r;
            allocs = countAllocs(
                [&] { r = sweepRunTrace(in, opts.threads, true); });
            check("counted sweep", r.digest, r.problems);
        });

        auto &m = oc.metrics;
        const double requests = static_cast<double>(in.requests);
        m["exec.sweep_busy_fraction"] = median(busy);
        m["exec.point_s_p50"] = quantile(point_s, 0.50);
        m["exec.point_s_p75"] = quantile(point_s, 0.75);
        m["verify.overhead_fraction"] =
            median(plain_s) / median(noverify_s) - 1.0;
        m["telemetry.trace_overhead_fraction"] =
            median(traced_s) / median(plain_s) - 1.0;
        m["alloc.per_request"] = static_cast<double>(allocs) / requests;

        double events = 0, cancelled = 0, stale = 0, peak = 0, run_ns = 0;
        double submit_ns = 0, submits = 0, seal_ns = 0, power_ns = 0;
        std::map<std::string, double> c;
        for (const ArrayRunResult &r : last.results) {
            events += static_cast<double>(r.eventsFired);
            cancelled += static_cast<double>(r.eventsCancelled);
            stale += static_cast<double>(r.staleCancels);
            peak = std::max(peak, static_cast<double>(r.peakPending));
            run_ns += static_cast<double>(r.runNs);
            submit_ns += static_cast<double>(r.submitNs);
            submits += static_cast<double>(r.submitCalls);
            seal_ns += static_cast<double>(r.sealNs);
            power_ns += static_cast<double>(r.finishPowerNs);
            for (const auto &[name, v] : r.counters)
                c[name] += v;
        }
        layerMetricsFromCounters(c, requests, m);
        m["sim.events_per_request"] = events / requests;
        m["sim.peak_pending"] = peak;
        m["sim.cancels_per_request"] = (cancelled + stale) / requests;
        m["sim.stale_cancel_fraction"] =
            cancelled + stale > 0 ? stale / (cancelled + stale) : 0.0;
        m["sim.host_ns_per_event"] = events > 0 ? run_ns / events : 0.0;
        m["array.submit_host_ns"] = submits > 0 ? submit_ns / submits : 0;
        m["stats.seal_host_ms"] = seal_ns * 1e-6;
        m["power.finish_host_ms"] = power_ns * 1e-6;
        oc.spans = std::move(last.spans);
    }
    oc.digest = reference;
    return oc;
}

} // namespace perfbench
