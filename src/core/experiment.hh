/**
 * @file
 * Experiment-level system builders and the trace runner.
 *
 * This is the library's top-level API: it assembles the storage
 * systems the paper compares —
 *
 *   MD          the original performance-tuned multi-disk system a
 *               trace was collected on (Table 2),
 *   HC-SD       one high-capacity conventional drive holding every
 *               device's data back-to-back (the limit study),
 *   HC-SD-SA(n) the intra-disk parallel drive with n arm assemblies,
 *               optionally at a reduced RPM,
 *   RAID-0      arrays of any of the above drives (Section 7.3),
 *
 * runs a request stream against a system, and returns response-time /
 * rotational-latency distributions plus the four-mode power breakdown.
 */

#ifndef IDP_CORE_EXPERIMENT_HH
#define IDP_CORE_EXPERIMENT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "array/storage_array.hh"
#include "disk/drive_config.hh"
#include "power/power_model.hh"
#include "stats/histogram.hh"
#include "stats/sampler.hh"
#include "telemetry/registry.hh"
#include "telemetry/tracer.hh"
#include "workload/commercial.hh"
#include "workload/request.hh"

namespace idp {
namespace core {

/** A named storage system under test. */
struct SystemConfig
{
    std::string name;
    array::ArrayParams array;
    /**
     * Engine for runTrace (see exec::ArrayRun): 0 (default) runs the
     * serial event loop, > 0 runs intra-run PDES with that many
     * workers. Every configuration runs under PDES, and results are
     * byte-identical either way.
     */
    unsigned pdesWorkers = 0;
};

/** Per-device sector count used for Concat offsets, from Table 2. */
std::uint64_t traceDeviceSectors(const workload::WorkloadModel &model);

/** The original multi-disk system of @p kind (Table 2 row). */
SystemConfig makeMdSystem(workload::Commercial kind);

/** The limit-study single high-capacity drive holding @p kind's data. */
SystemConfig makeHcsdSystem(workload::Commercial kind);

/**
 * The intra-disk parallel system: HC-SD extended with @p actuators arm
 * assemblies at @p rpm (7200 = the baseline; 6200/5200/4200 for the
 * reduced-RPM study).
 */
SystemConfig makeSaSystem(workload::Commercial kind,
                          std::uint32_t actuators,
                          std::uint32_t rpm = 7200);

/** A RAID-0 array of @p disks drives of the given spec (Section 7.3). */
SystemConfig makeRaid0System(const std::string &name,
                             const disk::DriveSpec &drive,
                             std::uint32_t disks,
                             std::uint32_t stripe_sectors = 128);

/** Everything a bench needs from one simulation run. */
struct RunResult
{
    std::string system;
    std::uint64_t requests = 0;
    std::uint64_t completions = 0;
    double wallSeconds = 0.0;

    stats::Histogram responseHist = stats::makeResponseHistogram();
    stats::Histogram rotHist = stats::makeRotLatencyHistogram();
    double meanResponseMs = 0.0;
    double p90ResponseMs = 0.0;
    double p99ResponseMs = 0.0;
    double meanRotMs = 0.0;

    power::PowerBreakdown power;

    /** Aggregated drive counters. */
    std::uint64_t cacheHits = 0;
    std::uint64_t mediaAccesses = 0;
    std::uint64_t mediaRetries = 0; ///< injected ECC re-reads
    std::uint64_t hardErrors = 0;   ///< retry budget exhausted
    double nonzeroSeekFraction = 0.0;
    double throughputIops = 0.0;

    /**
     * Telemetry products, populated only when the run was traced.
     * The trace is shared so RunResult stays cheap to copy (sweep
     * slots move results around); spans ride inside the result, so
     * the SweepRunner's index-ordered slots make any merge of traced
     * runs deterministic at every IDP_THREADS.
     */
    std::shared_ptr<const telemetry::TraceData> trace;
    std::vector<telemetry::MetricSample> metrics;
};

/** Run @p trace against @p config to completion (open loop).
 *  Tracing follows the environment (IDP_TRACE / IDP_TRACE_SAMPLE). */
RunResult runTrace(const workload::Trace &trace,
                   const SystemConfig &config);

/** Same, with explicit tracing control (benches, tests). */
RunResult runTrace(const workload::Trace &trace,
                   const SystemConfig &config,
                   const telemetry::TraceOptions &trace_options);

/**
 * Environment-driven scale factor for bench run lengths: IDP_SCALE
 * multiplies request counts (default 1.0, min 0.01). IDP_REQUESTS, if
 * set, overrides the request count outright.
 */
std::uint64_t benchRequestCount(std::uint64_t default_requests);

/**
 * Environment override helpers shared by benches and the serving
 * front end (IDP_SERVE_* knobs): parse $name as a positive integer /
 * positive double, returning @p def when unset or malformed.
 */
std::uint64_t envOverrideU64(const char *name, std::uint64_t def);
double envOverrideDouble(const char *name, double def);

} // namespace core
} // namespace idp

#endif // IDP_CORE_EXPERIMENT_HH
