#include "array_run.hh"

#include <functional>
#include <memory>

#include "exec/pdes.hh"
#include "sim/event_queue.hh"
#include "verify/invariant_checker.hh"

namespace perfbench {

using namespace idp;

std::string
pointDigest(const std::string &label, std::uint64_t completions,
            double p90_ms, double p99_ms, double energy_j)
{
    return label + " completions=" + std::to_string(completions) +
        " p90_ms=" + exact(p90_ms) + " p99_ms=" + exact(p99_ms) +
        " energy_j=" + exact(energy_j);
}

std::string
ArrayRunResult::digestLine(const std::string &label) const
{
    return pointDigest(label, completions, p90Ms, p99Ms, energyJ);
}

void
layerMetricsFromCounters(const std::map<std::string, double> &c,
                         double requests, std::map<std::string, double> &m)
{
    auto get = [&c](const char *name) {
        const auto it = c.find(name);
        return it == c.end() ? 0.0 : it->second;
    };
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const double selections = get("sched.selections");
    m["sched.selections_per_request"] = ratio(selections, requests);
    m["sched.priced_per_selection"] =
        ratio(get("sched.candidates_priced"), selections);
    m["sched.pruned_fraction"] = ratio(get("sched.candidates_pruned"),
                                       get("sched.candidates_seen"));
    const double media = get("disk.media_accesses");
    const double hits = get("disk.cache_hits");
    m["disk.media_accesses_per_request"] = ratio(media, requests);
    m["disk.cache_hit_fraction"] = ratio(hits, hits + media);
    m["disk.zero_latency_hit_fraction"] =
        ratio(get("disk.zero_latency_hits"), media);
    m["disk.channel_blocks_per_request"] =
        ratio(get("disk.channel_blocks"), requests);
    m["array.subs_per_request"] =
        ratio(get("array.sub_requests"), get("array.logical_requests"));
    m["rebuild.chunks"] = get("rebuild.chunks");
    m["rebuild.yields"] = get("rebuild.yields");
    m["governor.rpm_changes"] =
        get("governor.step_downs") + get("governor.step_ups");
    m["governor.parks"] = get("governor.parks");
}

namespace {

/** Median log2 horizon bucket, computed as core::runTrace does. */
double
horizonMedian(const exec::PdesRun &prun)
{
    const std::uint64_t *hist = prun.horizonWidthHist();
    std::uint64_t total = 0;
    for (std::size_t b = 0; b < exec::PdesRun::kHorizonBuckets; ++b)
        total += hist[b];
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < exec::PdesRun::kHorizonBuckets; ++b) {
        seen += hist[b];
        if (total != 0 && seen * 2 >= total)
            return static_cast<double>(b);
    }
    return 0.0;
}

} // namespace

ArrayRunResult
runArray(const ArrayRunSpec &spec, SpanLog *spans, std::uint32_t parent,
         std::uint32_t lane)
{
    const workload::Trace &trace = *spec.trace;
    ArrayRunResult out;
    out.requests = trace.size();
    const std::int64_t t0 = nowNs();

    // Same install order as core::runTrace: registry before the
    // system (modules take counter handles at construction), then the
    // checker. A recording checker lets a violation fail this run
    // instead of aborting the process.
    std::unique_ptr<telemetry::Registry> registry;
    std::unique_ptr<telemetry::RegistryScope> registry_scope;
    if (spec.traced) {
        registry = std::make_unique<telemetry::Registry>();
        registry_scope =
            std::make_unique<telemetry::RegistryScope>(registry.get());
    }
    std::unique_ptr<verify::InvariantChecker> checker;
    std::unique_ptr<verify::VerifyScope> verify_scope;
    if (spec.verify) {
        checker = std::make_unique<verify::InvariantChecker>(
            verify::FailMode::Record);
        verify_scope =
            std::make_unique<verify::VerifyScope>(checker.get());
    }

    const std::uint32_t construct_span =
        spans ? spans->open("construct", parent, lane) : 0;
    std::unique_ptr<exec::PdesRun> prun;
    if (spec.pdesWorkers > 0)
        prun = std::make_unique<exec::PdesRun>(
            spec.params, spec.pdesWorkers, telemetry::TraceOptions{});
    sim::Simulator serial_sim;
    sim::Simulator &simul = prun ? prun->coordSim() : serial_sim;
    array::StorageArray arr(simul, spec.params, nullptr, prun.get());
    if (prun)
        prun->setArray(&arr);
    if (spans)
        spans->close(construct_span);

    // Incremental feed, exactly as core::runTrace schedules it; the
    // submit calls are timed only when spans are recorded.
    std::size_t next = 0;
    std::int64_t first_submit = 0;
    std::int64_t last_submit = 0;
    std::function<void()> feed = [&] {
        const workload::IoRequest &req = trace[next];
        ++next;
        if (next < trace.size())
            simul.schedule(trace[next].arrival, feed);
        if (spans) {
            const std::int64_t s0 = nowNs();
            arr.submit(req);
            const std::int64_t s1 = nowNs();
            if (out.submitCalls == 0)
                first_submit = s0;
            last_submit = s1;
            out.submitNs += s1 - s0;
        } else {
            arr.submit(req);
        }
        ++out.submitCalls;
    };
    simul.schedule(trace.front().arrival, feed);
    if (spec.failAndRebuild) {
        arr.scheduleFailDisk(0, spec.failAt);
        arr.scheduleStartRebuild(0, spec.rebuildAt, spec.rebuild);
    }

    std::int64_t c0 = nowNs();
    {
        SpanScope run_span(spans, prun ? "PdesRun::run" : "Simulator::run",
                           parent, lane);
        if (prun)
            prun->run();
        else
            simul.run();
        if (spans)
            spans->aggregate("StorageArray::submit", run_span.id(), lane,
                             out.submitCalls, out.submitNs, first_submit,
                             last_submit);
    }
    out.runNs = nowNs() - c0;

    if (!arr.idle())
        out.problems.push_back("array not drained");
    out.completions = arr.stats().logicalCompletions;
    if (out.completions != trace.size())
        out.problems.push_back(
            "lost requests: " + std::to_string(out.completions) + " of " +
            std::to_string(trace.size()) + " completed");

    if (checker) {
        SpanScope s(spans, "InvariantChecker::finalize", parent, lane);
        checker->finalize();
        for (const std::string &v : checker->violations())
            out.problems.push_back("invariant violated: " + v);
    }

    c0 = nowNs();
    {
        SpanScope s(spans, "sealStats", parent, lane);
        arr.sealStats();
    }
    out.sealNs = nowNs() - c0;
    out.p90Ms = arr.stats().responseMs.p90();
    out.p99Ms = arr.stats().responseMs.p99();

    c0 = nowNs();
    {
        SpanScope s(spans, "finishPower", parent, lane);
        out.energyJ = arr.finishPower().totalEnergyJ;
    }
    out.finishPowerNs = nowNs() - c0;

    if (prun) {
        out.eventsFired = prun->eventsFired();
        out.eventsCancelled = prun->eventsCancelled();
        out.peakPending = prun->peakPending();
        out.staleCancels = prun->coordSim().staleCancels() +
            prun->arrayPhaseSim().staleCancels();
        for (std::uint32_t i = 0; i < arr.diskCount(); ++i)
            out.staleCancels += prun->driveSim(i).staleCancels();
        out.rounds = prun->rounds();
        out.serialSteps = prun->serialSteps();
        out.horizonLog2Median = horizonMedian(*prun);
    } else {
        out.eventsFired = simul.eventsFired();
        out.eventsCancelled = simul.eventsCancelled();
        out.peakPending = simul.peakPending();
        out.staleCancels = simul.staleCancels();
    }
    if (const array::RebuildEngine *rb = arr.rebuild()) {
        const array::RebuildProgress &p = rb->progress();
        out.rebuildChunks = p.chunksDone;
        out.rebuildYields = p.yields;
        if (!p.done)
            out.problems.push_back("rebuild did not finish");
        else
            out.rebuildWindowS =
                sim::ticksToSeconds(p.finishedAt - p.startedAt);
    }
    if (registry)
        for (const telemetry::MetricSample &m : registry->snapshot())
            out.counters[m.name] = m.value;

    out.totalNs = nowNs() - t0;
    return out;
}

} // namespace perfbench
