#include "telemetry/tracer.hh"

#include <cstdlib>
#include <limits>
#include <string>

#include "sim/logging.hh"

namespace idp {
namespace telemetry {

namespace {

thread_local Tracer *t_current = nullptr;

std::uint64_t
envUint(const char *name, std::uint64_t fallback, std::uint64_t max)
{
    const char *env = std::getenv(name);
    if (!env || !*env)
        return fallback;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (!end || *end != '\0' || v == 0 || v > max) {
        sim::warnOnce(std::string(name) + ": expected an integer in [1, " +
                      std::to_string(max) + "], got \"" + env +
                      "\"; using default");
        return fallback;
    }
    return static_cast<std::uint64_t>(v);
}

} // namespace

TraceOptions
TraceOptions::fromEnv()
{
    TraceOptions opts;
    if (const char *env = std::getenv("IDP_TRACE"))
        opts.enabled = *env && *env != '0';
    opts.sampleEvery =
        envUint("IDP_TRACE_SAMPLE", opts.sampleEvery,
                std::numeric_limits<std::uint64_t>::max());
    opts.ringCapacity = static_cast<std::size_t>(envUint(
        "IDP_TRACE_BUF", opts.ringCapacity, kMaxRingCapacity));
    return opts;
}

double
TraceData::meanMs(SpanKind kind) const
{
    const PhaseAccum &accum = phase(kind);
    return accum.count
        ? sim::ticksToMs(accum.ticks) /
            static_cast<double>(accum.count)
        : 0.0;
}

double
TraceData::totalMs(SpanKind kind) const
{
    return sim::ticksToMs(phase(kind).ticks);
}

Tracer::Tracer(const TraceOptions &opts)
    : ring_(opts.ringCapacity),
      sampleEvery_(opts.sampleEvery ? opts.sampleEvery : 1)
{
}

TraceData
Tracer::finish() const
{
    TraceData data;
    data.spans = ring_.snapshot();
    data.dropped = ring_.dropped();
    data.phases = phases_;
    return data;
}

Tracer *
Tracer::current()
{
    return t_current;
}

TraceScope::TraceScope(Tracer *tracer) : prev_(t_current)
{
    t_current = tracer;
}

TraceScope::~TraceScope()
{
    t_current = prev_;
}

} // namespace telemetry
} // namespace idp
