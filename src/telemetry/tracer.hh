/**
 * @file
 * Per-run span tracer.
 *
 * One Tracer belongs to one simulation run. Because a run executes
 * entirely on one thread (the sweep engine gives every point its own
 * worker), the tracer's ring is single-writer and the record path is
 * lock-free. Determinism contract with the PR-1 SweepRunner: sweep
 * point i creates its own tracer, its spans ride back inside the
 * point's RunResult, and SweepRunner already stores result i in slot
 * i — so the merged trace (concatenate per-point spans in index
 * order) is byte-identical at any IDP_THREADS.
 *
 * Two products per run:
 *  - an exact phase-time accumulation over *all* spans (attribution
 *    is never biased by sampling or ring overflow), and
 *  - the span window itself, subject to sampling (IDP_TRACE_SAMPLE
 *    keeps every Nth request) and ring capacity, for export.
 */

#ifndef IDP_TELEMETRY_TRACER_HH
#define IDP_TELEMETRY_TRACER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "telemetry/ring.hh"
#include "telemetry/span.hh"

namespace idp {
namespace telemetry {

/** Tracing configuration for one run. */
struct TraceOptions
{
    bool enabled = false;
    /** Keep spans of request id i iff i % sampleEvery == 0. */
    std::uint64_t sampleEvery = 1;
    /** Span-ring capacity (spans retained for export). */
    std::size_t ringCapacity = 1u << 18;

    /** Largest IDP_TRACE_BUF accepted: 2^24 32-byte spans (512 MiB),
     *  allocated up front per tracer (one per drive under PDES). */
    static constexpr std::uint64_t kMaxRingCapacity = 1ull << 24;

    /**
     * Environment-driven configuration: IDP_TRACE=1 enables,
     * IDP_TRACE_SAMPLE=<n> samples, IDP_TRACE_BUF=<spans> sizes the
     * ring (at most kMaxRingCapacity). Malformed or out-of-range
     * values warn once and use the defaults.
     */
    static TraceOptions fromEnv();
};

/** Exact per-phase time accumulation. */
struct PhaseAccum
{
    std::uint64_t count = 0;
    sim::Tick ticks = 0;
};

/** Everything one traced run leaves behind (carried by RunResult). */
struct TraceData
{
    /** Retained span window, oldest first. */
    std::vector<Span> spans;
    /** Spans overwritten because the ring filled. */
    std::uint64_t dropped = 0;
    /** Exact totals per SpanKind, over ALL spans (not just retained). */
    std::array<PhaseAccum, kSpanKindCount> phases{};

    const PhaseAccum &
    phase(SpanKind kind) const
    {
        return phases[static_cast<std::size_t>(kind)];
    }

    /** Mean milliseconds per occurrence of @p kind (0 when none). */
    double meanMs(SpanKind kind) const;

    /** Total milliseconds spent in @p kind across the run. */
    double totalMs(SpanKind kind) const;
};

class Tracer
{
  public:
    explicit Tracer(const TraceOptions &opts);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Record one span: accumulate always, retain if sampled. */
    void
    record(const Span &span)
    {
        PhaseAccum &accum =
            phases_[static_cast<std::size_t>(span.kind)];
        ++accum.count;
        accum.ticks += span.ticks();
        if (span.id % sampleEvery_ == 0)
            ring_.push(span);
    }

    /** True when spans of request @p id are retained for export. */
    bool sampled(std::uint64_t id) const
    {
        return id % sampleEvery_ == 0;
    }

    /** Package the run's trace (call after the simulation drains). */
    TraceData finish() const;

    const SpanRing &ring() const { return ring_; }

    /** The tracer installed on this thread (null when none). */
    static Tracer *current();

  private:
    friend class TraceScope;

    SpanRing ring_;
    std::uint64_t sampleEvery_;
    std::array<PhaseAccum, kSpanKindCount> phases_{};
};

/** Installs a Tracer as this thread's current one (RAII). */
class TraceScope
{
  public:
    explicit TraceScope(Tracer *tracer);
    ~TraceScope();

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

  private:
    Tracer *prev_;
};

} // namespace telemetry
} // namespace idp

#endif // IDP_TELEMETRY_TRACER_HH
