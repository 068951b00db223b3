#include "core/experiment.hh"

#include <algorithm>
#include <cstdlib>

#include "exec/pdes.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "telemetry/telemetry.hh"
#include "verify/verify.hh"

namespace idp {
namespace core {

std::uint64_t
traceDeviceSectors(const workload::WorkloadModel &model)
{
    return static_cast<std::uint64_t>(model.capacityGB * 1e9 /
                                      geom::kSectorBytes);
}

SystemConfig
makeMdSystem(workload::Commercial kind)
{
    const auto &model = workload::workloadModel(kind);
    SystemConfig config;
    config.name = "MD";
    config.array.layout = array::Layout::PassThrough;
    config.array.disks = model.disks;
    config.array.drive = disk::enterpriseDrive(
        model.capacityGB, model.rpm, model.platters);
    return config;
}

SystemConfig
makeHcsdSystem(workload::Commercial kind)
{
    const auto &model = workload::workloadModel(kind);
    SystemConfig config;
    config.name = "HC-SD";
    config.array.layout = array::Layout::Concat;
    config.array.disks = 1;
    config.array.drive = disk::barracudaEs750();
    config.array.deviceSectors.assign(model.disks,
                                      traceDeviceSectors(model));
    return config;
}

SystemConfig
makeSaSystem(workload::Commercial kind, std::uint32_t actuators,
             std::uint32_t rpm)
{
    SystemConfig config = makeHcsdSystem(kind);
    disk::DriveSpec drive =
        disk::makeIntraDiskParallel(disk::barracudaEs750(), actuators);
    if (rpm != drive.rpm)
        drive = disk::withRpm(drive, rpm);
    config.array.drive = drive;
    config.name = drive.name;
    return config;
}

SystemConfig
makeRaid0System(const std::string &name, const disk::DriveSpec &drive,
                std::uint32_t disks, std::uint32_t stripe_sectors)
{
    SystemConfig config;
    config.name = name;
    config.array.layout = disks == 1 ? array::Layout::Concat
                                     : array::Layout::Raid0;
    config.array.disks = disks;
    config.array.drive = drive;
    config.array.stripeSectors = stripe_sectors;
    if (disks == 1) {
        // Degenerate single-drive "array": whole disk as one device.
        config.array.deviceSectors.clear();
    }
    return config;
}

RunResult
runTrace(const workload::Trace &trace, const SystemConfig &config)
{
    return runTrace(trace, config, telemetry::TraceOptions::fromEnv());
}

RunResult
runTrace(const workload::Trace &trace, const SystemConfig &config,
         const telemetry::TraceOptions &trace_options)
{
    sim::simAssert(!trace.empty(), "runTrace: empty trace");

    // Install the per-run telemetry currents *before* the system is
    // built: modules grab their counter handles at construction.
    std::unique_ptr<telemetry::Registry> registry;
    std::unique_ptr<telemetry::Tracer> tracer;
    std::unique_ptr<telemetry::RegistryScope> registry_scope;
    std::unique_ptr<telemetry::TraceScope> trace_scope;
    if (telemetry::kCompiledIn && trace_options.enabled) {
        registry = std::make_unique<telemetry::Registry>();
        tracer = std::make_unique<telemetry::Tracer>(trace_options);
        registry_scope =
            std::make_unique<telemetry::RegistryScope>(registry.get());
        trace_scope =
            std::make_unique<telemetry::TraceScope>(tracer.get());
    }

    verify::RunChecker checker;

    exec::ArrayRun run(config.array, config.pdesWorkers, trace_options);
    sim::Simulator &simul = run.feed();
    array::StorageArray &arr = run.array();

    // Feed arrivals incrementally so the event queue stays small even
    // for multi-million-request traces. Each event holds a reference
    // to the one feed: scheduling `feed` itself would copy the
    // std::function, one heap allocation per request.
    std::size_t next = 0;
    std::function<void()> feed = [&] {
        const workload::IoRequest &req = trace[next];
        ++next;
        if (next < trace.size())
            simul.schedule(trace[next].arrival, [&feed] { feed(); });
        arr.submit(req);
    };
    simul.schedule(trace.front().arrival, [&feed] { feed(); });
    run.run();
    const sim::Tick end_tick = run.endTick();

    sim::simAssert(arr.idle(), "runTrace: array not drained");
    sim::simAssert(arr.stats().logicalCompletions == trace.size(),
                   "runTrace: lost requests");
    checker.finalize();

    RunResult result;
    result.system = config.name;
    result.requests = trace.size();
    result.completions = arr.stats().logicalCompletions;
    result.wallSeconds = sim::ticksToSeconds(end_tick);
    result.responseHist = arr.stats().responseHist;
    result.rotHist = arr.stats().rotHist;
    result.meanResponseMs = arr.stats().responseMs.mean();
    result.p90ResponseMs = arr.stats().responseMs.p90();
    result.p99ResponseMs = arr.stats().responseMs.p99();
    result.meanRotMs = arr.stats().rotMs.mean();
    result.power = arr.finishPower();

    std::uint64_t nonzero = 0;
    for (std::uint32_t i = 0; i < arr.diskCount(); ++i) {
        const auto &ds = arr.diskAt(i).stats();
        result.cacheHits += ds.cacheHits;
        result.mediaAccesses += ds.mediaAccesses;
        result.mediaRetries += ds.mediaRetries;
        result.hardErrors += ds.hardErrors;
        nonzero += ds.nonzeroSeeks;
    }
    result.nonzeroSeekFraction = result.mediaAccesses
        ? static_cast<double>(nonzero) /
            static_cast<double>(result.mediaAccesses)
        : 0.0;
    result.throughputIops = result.wallSeconds > 0.0
        ? static_cast<double>(result.completions) / result.wallSeconds
        : 0.0;

    if (registry) {
        // Event-kernel health gauges join the module counters. Under
        // PDES they aggregate over every calendar: the totals differ
        // from the serial single-calendar numbers by the replay/
        // delivery mechanics (and deliberately so) — module counters
        // and all statistics above are mode-independent.
        registry->setGauge("sim.events_fired",
                           static_cast<double>(run.eventsFired()));
        registry->setGauge("sim.peak_pending",
                           static_cast<double>(run.peakPending()));
        registry->setGauge("sim.events_cancelled",
                           static_cast<double>(run.eventsCancelled()));
        if (const exec::PdesRun *prun = run.pdes()) {
            registry->setGauge(
                "sim.pdes_rounds",
                static_cast<double>(prun->rounds()));
            registry->setGauge(
                "sim.pdes_serial_steps",
                static_cast<double>(prun->serialSteps()));
            // Median horizon width (log2 bucket midpoint) tells at a
            // glance whether the dynamic bounds are opening useful
            // windows or collapsing to serial steps.
            const std::uint64_t *hist = prun->horizonWidthHist();
            std::uint64_t total = 0;
            for (std::size_t b = 0; b < exec::PdesRun::kHorizonBuckets;
                 ++b)
                total += hist[b];
            if (total != 0) {
                std::uint64_t seen = 0;
                std::size_t median = 0;
                for (std::size_t b = 0;
                     b < exec::PdesRun::kHorizonBuckets; ++b) {
                    seen += hist[b];
                    if (seen * 2 >= total) {
                        median = b;
                        break;
                    }
                }
                registry->setGauge(
                    "sim.pdes_horizon_log2_median",
                    static_cast<double>(median));
            }
        }
        result.metrics = registry->snapshot();
    }
    if (tracer)
        result.trace = std::make_shared<const telemetry::TraceData>(
            run.trace(*tracer));
    return result;
}

std::uint64_t
benchRequestCount(std::uint64_t default_requests)
{
    if (const char *env = std::getenv("IDP_REQUESTS")) {
        const long long v = std::atoll(env);
        if (v > 0)
            return static_cast<std::uint64_t>(v);
    }
    double scale = 1.0;
    if (const char *env = std::getenv("IDP_SCALE")) {
        scale = std::atof(env);
        if (scale < 0.01)
            scale = 0.01;
    }
    const double scaled =
        static_cast<double>(default_requests) * scale;
    return std::max<std::uint64_t>(
        1000, static_cast<std::uint64_t>(scaled));
}

std::uint64_t
envOverrideU64(const char *name, std::uint64_t def)
{
    if (const char *env = std::getenv(name)) {
        const long long v = std::atoll(env);
        if (v > 0)
            return static_cast<std::uint64_t>(v);
    }
    return def;
}

double
envOverrideDouble(const char *name, double def)
{
    if (const char *env = std::getenv(name)) {
        const double v = std::atof(env);
        if (v > 0.0)
            return v;
    }
    return def;
}

} // namespace core
} // namespace idp
