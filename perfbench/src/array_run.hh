/**
 * @file
 * One trace replayed against one array, driven from outside the
 * library call by call: the sequence core::runTrace performs (build
 * the system, feed arrivals through StorageArray::submit, run the
 * calendar or the PDES engine, finalize the checker, seal statistics,
 * integrate power), with a span around each call when a SpanLog is
 * given and a telemetry Registry when @c traced is set.
 *
 * With no failure injected and PDES off, the simulated statistics are
 * those core::runTrace returns for the same trace and system; the
 * benchmark's tests pin that.
 */

#ifndef PERFBENCH_ARRAY_RUN_HH
#define PERFBENCH_ARRAY_RUN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "array/rebuild.hh"
#include "array/storage_array.hh"
#include "perfbench.hh"
#include "telemetry/registry.hh"
#include "workload/request.hh"

namespace perfbench {

struct ArrayRunSpec
{
    const idp::workload::Trace *trace = nullptr;
    idp::array::ArrayParams params;
    /** 0 = serial calendar, > 0 = PdesRun with that many workers. */
    unsigned pdesWorkers = 0;
    /** Install a (recording) invariant checker — the default. */
    bool verify = true;
    /** Install a telemetry Registry for the run. */
    bool traced = false;

    /** Fail member 0 at failAt and rebuild it from rebuildAt on. */
    bool failAndRebuild = false;
    idp::sim::Tick failAt = 0;
    idp::sim::Tick rebuildAt = 0;
    idp::array::RebuildParams rebuild;
};

struct ArrayRunResult
{
    std::uint64_t requests = 0;
    std::uint64_t completions = 0;
    double p90Ms = 0.0;
    double p99Ms = 0.0;
    double energyJ = 0.0;

    /** Problems that make the run count as failed (empty = clean). */
    std::vector<std::string> problems;

    /** Host time of the whole run and of each call, ns. */
    std::int64_t totalNs = 0;
    std::int64_t runNs = 0;
    std::int64_t submitNs = 0; ///< summed over submitCalls
    std::uint64_t submitCalls = 0;
    std::int64_t sealNs = 0;
    std::int64_t finishPowerNs = 0;

    /** Kernel counters, summed over every calendar of the run. */
    std::uint64_t eventsFired = 0;
    std::uint64_t eventsCancelled = 0;
    std::uint64_t staleCancels = 0;
    std::uint64_t peakPending = 0;

    /** PDES round machinery (zero on serial runs). */
    std::uint64_t rounds = 0;
    std::uint64_t serialSteps = 0;
    double horizonLog2Median = 0.0;

    /** Rebuild progress (failAndRebuild runs). */
    std::uint64_t rebuildChunks = 0;
    std::uint64_t rebuildYields = 0;
    double rebuildWindowS = 0.0;

    /** Registry counters (traced runs). */
    std::map<std::string, double> counters;

    /** One digest line: completions, p90, p99, energy. */
    std::string digestLine(const std::string &label) const;
};

/** One digest line of a simulated point: completions, p90, p99 and
 *  energy, every digit kept. */
std::string pointDigest(const std::string &label,
                        std::uint64_t completions, double p90_ms,
                        double p99_ms, double energy_j);

/** Per-layer ratios over summed registry counters (sched.*, disk.*,
 *  array.subs_per_request, rebuild.*, governor.*), per @p requests
 *  logical requests. */
void layerMetricsFromCounters(const std::map<std::string, double> &c,
                              double requests,
                              std::map<std::string, double> &m);

/** Replay spec.trace against spec.params. Spans (when @p spans is not
 *  null) go under @p parent on lane @p lane. */
ArrayRunResult runArray(const ArrayRunSpec &spec, SpanLog *spans,
                        std::uint32_t parent, std::uint32_t lane = 0);

} // namespace perfbench

#endif // PERFBENCH_ARRAY_RUN_HH
