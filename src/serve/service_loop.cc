#include "serve/service_loop.hh"

#include <algorithm>
#include <limits>
#include <ostream>
#include <utility>

#include "array/storage_array.hh"
#include "core/csv_export.hh"
#include "exec/sweep_runner.hh"
#include "serve/think_wheel.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "stats/sampler.hh"
#include "stats/table.hh"
#include "telemetry/registry.hh"
#include "verify/verify.hh"

namespace idp {
namespace serve {

namespace {

/** Everything the serving state machines touch, reachable through one
 *  pointer so calendar events capture 8 bytes of context plus a few
 *  scalars (well inside SmallFn's inline budget). */
struct Ctx
{
    const ServeParams *p = nullptr;
    sim::Simulator *simul = nullptr;
    sim::Rng *rng = nullptr;
    array::StorageArray *arr = nullptr;
    telemetry::Registry *registry = nullptr;
    std::vector<TenantSession> *sessions = nullptr;
    ThinkWheel *wheel = nullptr;
    SloWindow *window = nullptr;
    const workload::RateModulation *mod = nullptr;

    // Resolved parameters (defaults and units applied once).
    std::uint32_t closedCount = 0;
    std::uint32_t openCount = 0;
    std::uint64_t regionSectors = 0;
    double thinkMs = 0.0;
    double maxThinkMs = 0.0;
    double denyRetryMs = 0.0;
    sim::Tick granularity = 0;
    sim::Tick aheadTicks = 0;
    sim::Tick endTick = 0;

    // Live serving state.
    ServeTotals totals;
    ServeTotals prevTotals; ///< snapshot-delta baseline
    std::uint64_t inFlight = 0;     ///< foreground requests
    std::uint64_t specInFlight = 0; ///< speculative requests
    bool stopping = false;
    std::uint32_t snapIndex = 0;
    std::vector<ServeSnapshot> snapshots;
    std::vector<std::uint32_t> due; ///< wheel drain scratch

    // Registry mirrors of the serving counters (handles are stable;
    // bumping them is allocation-free once the names exist).
    telemetry::Counter *cArrivals = nullptr;
    telemetry::Counter *cAdmitted = nullptr;
    telemetry::Counter *cDenied = nullptr;
    telemetry::Counter *cCompletions = nullptr;
    telemetry::Counter *cSpecSubmitted = nullptr;
    telemetry::Counter *cSpecCancelLive = nullptr;
    telemetry::Counter *cSpecCancelStale = nullptr;
    telemetry::Counter *cSpecSuppressed = nullptr;
    stats::Histogram *hResponse = nullptr;
};

void wakeSession(Ctx &c, std::uint32_t t);

/**
 * Blind-retract @p t's armed batch: cancel every armed id without
 * knowing which already fired. The calendar's generation tags sort
 * them — a live cancel removes the pending submission, a fired one is
 * a counted stale no-op — giving the exact split the accounting
 * (and the PR's cancel regression test) relies on.
 */
void
retractSpec(Ctx &c, std::uint32_t t)
{
    TenantSession &s = (*c.sessions)[t];
    if (s.specArmed == 0)
        return;
    for (std::uint32_t k = 0; k < s.specArmed; ++k) {
        const std::uint64_t before = c.simul->staleCancels();
        c.simul->cancel(s.spec[k]);
        if (c.simul->staleCancels() != before) {
            ++c.totals.specCancelledStale;
            c.cSpecCancelStale->inc();
        } else {
            ++c.totals.specCancelledLive;
            c.cSpecCancelLive->inc();
        }
        s.spec[k] = sim::kInvalidEventId;
    }
    s.specArmed = 0;
    s.phase = SessionPhase::Random;
}

/** An armed speculative submission comes due. */
void
specFire(Ctx &c, std::uint32_t t, std::uint64_t lba,
         std::uint32_t sectors, std::uint32_t seq)
{
    if (c.stopping ||
        (c.p->spec.maxOutstanding != 0 &&
         c.specInFlight >= c.p->spec.maxOutstanding)) {
        ++c.totals.specSuppressed;
        c.cSpecSuppressed->inc();
        return;
    }
    workload::IoRequest req;
    req.id = makeRequestId(t, seq, true);
    req.arrival = c.simul->now();
    req.lba = lba;
    req.sectors = sectors;
    req.isRead = true;
    req.background = true; // spare arms soak these up
    ++c.specInFlight;
    ++c.totals.specSubmitted;
    c.cSpecSubmitted->inc();
    c.arr->submit(req);
}

/**
 * A closed-loop completion opens (or continues) a sequential phase:
 * arm up to spec.batch readahead submissions as cancellable events
 * staggered aheadMs apart, and maybe schedule a retraction that lands
 * mid-batch — so some cancels catch pending events (live) and some
 * arrive after firing (stale).
 */
void
armSpec(Ctx &c, std::uint32_t t)
{
    TenantSession &s = (*c.sessions)[t];
    const std::uint32_t want =
        std::min(c.p->spec.batch, kSpecBatchMax);
    const std::uint32_t sectors = c.p->maxSectors;
    const std::uint64_t span = c.regionSectors - sectors + 1;
    const sim::Tick now = c.simul->now();

    std::uint32_t armed = 0;
    for (std::uint32_t k = 0; k < want; ++k) {
        if (c.p->spec.maxOutstanding != 0 &&
            c.specInFlight + armed >= c.p->spec.maxOutstanding)
            break; // readahead never grows the backlog past the cap
        const std::uint64_t off =
            (s.seqOffset +
             static_cast<std::uint64_t>(k + 1) * sectors) %
            span;
        const std::uint64_t lba =
            static_cast<std::uint64_t>(t) * c.regionSectors + off;
        const std::uint32_t seq = s.nextSeq++;
        Ctx *cp = &c;
        s.spec[armed] = c.simul->schedule(
            now + static_cast<sim::Tick>(armed + 1) * c.aheadTicks,
            [cp, t, lba, sectors, seq] {
                specFire(*cp, t, lba, sectors, seq);
            });
        ++armed;
    }
    if (armed == 0)
        return;
    s.specArmed = static_cast<std::uint8_t>(armed);
    c.totals.specArmed += armed;

    if (c.rng->chance(c.p->spec.retractProb)) {
        // Retraction lands uniformly inside [now, now + (armed+1)*A]:
        // before the first submission, between two, or after the last.
        const sim::Tick window =
            static_cast<sim::Tick>(armed + 1) * c.aheadTicks;
        const sim::Tick delay = c.rng->uniformInt(window + 1);
        Ctx *cp = &c;
        c.simul->schedule(now + delay,
                          [cp, t] { retractSpec(*cp, t); });
    }
}

/** Build the next foreground request for tenant @p t within its slice
 *  of the logical address space. */
workload::IoRequest
makeForeground(Ctx &c, std::uint32_t t)
{
    TenantSession &s = (*c.sessions)[t];
    workload::IoRequest req;
    req.id = makeRequestId(t, s.nextSeq++, false);
    req.arrival = c.simul->now();
    req.isRead = c.rng->chance(c.p->readFraction);
    req.sectors = static_cast<std::uint32_t>(c.rng->uniformInt(
        static_cast<std::int64_t>(c.p->minSectors),
        static_cast<std::int64_t>(c.p->maxSectors)));
    const std::uint64_t base =
        static_cast<std::uint64_t>(t) * c.regionSectors;
    const std::uint64_t span = c.regionSectors - req.sectors + 1;
    if (s.phase == SessionPhase::Sequential) {
        if (s.seqOffset >= span)
            s.seqOffset = 0; // wrap the region walk
        req.lba = base + s.seqOffset;
        s.seqOffset += req.sectors;
    } else {
        req.lba = base + c.rng->uniformInt(span);
    }
    return req;
}

/** Admission decision for one arrival: global in-flight cap first
 *  (sheds overload without consuming the tenant's tokens), then the
 *  per-tenant bucket. */
bool
admitArrival(Ctx &c, TenantSession &s)
{
    ++c.totals.arrivals;
    c.cArrivals->inc();
    if (c.p->admission.maxInFlight != 0 &&
        c.inFlight >= c.p->admission.maxInFlight) {
        ++c.totals.deniedInFlight;
        c.cDenied->inc();
        return false;
    }
    if (!bucketAdmit(s.bucket, c.p->admission.bucket,
                     c.simul->now())) {
        ++c.totals.deniedBucket;
        c.cDenied->inc();
        return false;
    }
    return true;
}

/** A closed-loop session's think (or retry backoff) timer expires. */
void
wakeSession(Ctx &c, std::uint32_t t)
{
    if (c.stopping)
        return;
    TenantSession &s = (*c.sessions)[t];
    // A batch never retracted mid-flight is cleaned up here — by now
    // every member has fired, so these cancels all land stale.
    if (s.specArmed != 0)
        retractSpec(c, t);
    if (!admitArrival(c, s)) {
        const double backoff = std::min(
            c.rng->exponential(c.denyRetryMs), c.maxThinkMs);
        c.wheel->insert(*c.sessions, t, c.simul->now(),
                        c.simul->now() + sim::msToTicks(backoff));
        return;
    }
    s.waiting = true;
    ++c.inFlight;
    ++c.totals.admitted;
    c.cAdmitted->inc();
    c.arr->submit(makeForeground(c, t));
}

/** Logical completion from the array. */
void
onLogicalComplete(Ctx &c, const workload::IoRequest &req,
                  sim::Tick done)
{
    if (req.background) { // speculative readahead
        --c.specInFlight;
        ++c.totals.specCompleted;
        return;
    }
    --c.inFlight;
    ++c.totals.completions;
    c.cCompletions->inc();
    const double ms = sim::ticksToMs(done - req.arrival);
    c.window->record(ms);
    c.hResponse->add(ms);

    const std::uint32_t t = requestTenant(req.id);
    if (t >= c.closedCount)
        return; // open-loop: fire-and-forget
    TenantSession &s = (*c.sessions)[t];
    s.waiting = false;
    if (c.stopping)
        return;
    if (c.p->spec.enabled && s.specArmed == 0 &&
        c.rng->chance(c.p->spec.startProb)) {
        s.phase = SessionPhase::Sequential;
        armSpec(c, t);
    }
    const double think =
        std::min(c.rng->exponential(c.thinkMs), c.maxThinkMs);
    c.wheel->insert(*c.sessions, t, done,
                    done + sim::msToTicks(think));
}

/** The wheel's heartbeat: drain the due slot, wake every session in
 *  insertion order, re-arm one granularity ahead. */
void
wheelTick(Ctx &c)
{
    c.due.clear();
    c.wheel->drain(*c.sessions, c.simul->now(), c.due);
    for (std::uint32_t t : c.due)
        wakeSession(c, t);
    if (!c.stopping) {
        Ctx *cp = &c;
        c.simul->scheduleAfter(c.granularity,
                               [cp] { wheelTick(*cp); });
    }
}

/** Aggregate open-loop arrival: one calendar event models every
 *  open-loop tenant's Poisson stream, modulated by the diurnal/burst
 *  factor, so calendar pressure is independent of tenant count. */
void
openArrival(Ctx &c)
{
    if (c.stopping)
        return;
    const std::uint32_t t =
        c.closedCount +
        static_cast<std::uint32_t>(c.rng->uniformInt(
            static_cast<std::uint64_t>(c.openCount)));
    TenantSession &s = (*c.sessions)[t];
    if (admitArrival(c, s)) {
        ++c.inFlight;
        ++c.totals.admitted;
        c.cAdmitted->inc();
        c.arr->submit(makeForeground(c, t));
    }
    const double lambda = static_cast<double>(c.openCount) *
        c.p->openRatePerSec * c.mod->factorAt(c.simul->now());
    if (lambda <= 0.0)
        return;
    const sim::Tick gap = std::max<sim::Tick>(
        1, sim::secondsToTicks(c.rng->exponential(1.0 / lambda)));
    const sim::Tick next = c.simul->now() + gap;
    if (next < c.endTick) {
        Ctx *cp = &c;
        c.simul->schedule(next, [cp] { openArrival(*cp); });
    }
}

/** Emit one snapshot row: interval deltas since the previous row plus
 *  point-in-time gauges and sliding-window quantiles. */
void
takeSnapshot(Ctx &c)
{
    ServeSnapshot snap;
    snap.index = c.snapIndex++;
    snap.simSeconds = sim::ticksToSeconds(c.simul->now());
    const ServeTotals &t = c.totals;
    const ServeTotals &b = c.prevTotals;
    snap.arrivals = t.arrivals - b.arrivals;
    snap.admitted = t.admitted - b.admitted;
    snap.denied = t.denied() - b.denied();
    snap.completions = t.completions - b.completions;
    snap.specSubmitted = t.specSubmitted - b.specSubmitted;
    snap.specCancelledLive =
        t.specCancelledLive - b.specCancelledLive;
    snap.specCancelledStale =
        t.specCancelledStale - b.specCancelledStale;
    snap.inFlight = c.inFlight;
    snap.wheelScheduled = c.wheel->scheduled();
    c.window->quantiles(snap.p50Ms, snap.p99Ms);
    snap.sloOk = snap.p99Ms <= c.p->slo.p99TargetMs;
    snap.loadFactor = c.mod->factorAt(c.simul->now());
    if (c.p->captureMetricDeltas)
        snap.metricDelta = c.registry->snapshotDelta();
    c.prevTotals = c.totals;
    c.snapshots.push_back(std::move(snap));
}

void
periodicSnapshot(Ctx &c)
{
    takeSnapshot(c);
    const sim::Tick period = sim::msToTicks(c.p->snapshotPeriodMs);
    const sim::Tick next = c.simul->now() + period;
    if (next < c.endTick) {
        Ctx *cp = &c;
        c.simul->schedule(next, [cp] { periodicSnapshot(*cp); });
    }
}

/** Arrivals stop; in-flight work drains. Every still-armed batch is
 *  retracted so the cancel accounting closes exactly:
 *  specArmed == specCancelledLive + specCancelledStale. */
void
stopServing(Ctx &c)
{
    c.stopping = true;
    for (std::uint32_t t = 0; t < c.closedCount; ++t)
        if ((*c.sessions)[t].specArmed != 0)
            retractSpec(c, t);
    takeSnapshot(c); // final row, at exactly endTick
}

void
validateParams(const ServeParams &p)
{
    sim::simAssert(p.tenants >= 1 && p.tenants <= 0xFFFFFFFFull,
                   "serve: tenants must be in [1, 2^32)");
    sim::simAssert(p.openFraction >= 0.0 && p.openFraction <= 1.0,
                   "serve: openFraction must be in [0, 1]");
    sim::simAssert(p.thinkMs > 0.0, "serve: thinkMs must be > 0");
    sim::simAssert(p.readFraction >= 0.0 && p.readFraction <= 1.0,
                   "serve: readFraction must be in [0, 1]");
    sim::simAssert(p.minSectors >= 1 &&
                       p.maxSectors >= p.minSectors,
                   "serve: bad sector range");
    sim::simAssert(p.durationSeconds > 0.0,
                   "serve: durationSeconds must be > 0");
    sim::simAssert(p.warmupSeconds >= 0.0 &&
                       p.warmupSeconds < p.durationSeconds,
                   "serve: warmup must fall inside the run");
    sim::simAssert(p.wheelGranularityMs > 0.0,
                   "serve: wheel granularity must be > 0");
    sim::simAssert(p.spec.batch <= kSpecBatchMax,
                   "serve: spec batch exceeds kSpecBatchMax");
    sim::simAssert(p.spec.startProb >= 0.0 &&
                       p.spec.startProb <= 1.0 &&
                       p.spec.retractProb >= 0.0 &&
                       p.spec.retractProb <= 1.0,
                   "serve: spec probabilities must be in [0, 1]");
    sim::simAssert(p.spec.aheadMs > 0.0,
                   "serve: spec aheadMs must be > 0");
    sim::simAssert(p.slo.windowSamples > 0,
                   "serve: SLO window must hold samples");
    workload::RateModulation::validate(p.modulation);
}

} // namespace

ServeResult
runService(const core::SystemConfig &config, const ServeParams &params)
{
    validateParams(params);

    verify::RunChecker checker;

    // The registry goes up before the array so module counters
    // register their handles against this run's registry.
    telemetry::Registry registry;
    telemetry::RegistryScope registry_scope(&registry);

    sim::Simulator simul;
    sim::Rng rng(params.seed);
    const workload::RateModulation mod(params.modulation);

    Ctx ctx;
    ctx.p = &params;
    ctx.simul = &simul;
    ctx.rng = &rng;
    ctx.registry = &registry;
    ctx.mod = &mod;

    array::StorageArray arr(
        simul, config.array,
        [&ctx](const workload::IoRequest &req, sim::Tick done) {
            onLogicalComplete(ctx, req, done);
        });
    ctx.arr = &arr;
    arr.reserveStatsCapacity();

    // Resolve derived parameters.
    ctx.thinkMs = params.thinkMs;
    ctx.maxThinkMs = params.maxThinkMs > 0.0 ? params.maxThinkMs
                                             : 4.0 * params.thinkMs;
    ctx.denyRetryMs = params.denyRetryMs > 0.0 ? params.denyRetryMs
                                               : params.thinkMs;
    ctx.granularity =
        std::max<sim::Tick>(1,
                            sim::msToTicks(params.wheelGranularityMs));
    ctx.aheadTicks =
        std::max<sim::Tick>(1, sim::msToTicks(params.spec.aheadMs));
    ctx.endTick = sim::secondsToTicks(params.durationSeconds);

    const std::uint32_t tenants =
        static_cast<std::uint32_t>(params.tenants);
    ctx.openCount = static_cast<std::uint32_t>(std::min<double>(
        static_cast<double>(tenants),
        static_cast<double>(tenants) * params.openFraction + 0.5));
    ctx.closedCount = tenants - ctx.openCount;
    ctx.regionSectors = arr.logicalSectors() / tenants;
    sim::simAssert(ctx.regionSectors > params.maxSectors,
                   "serve: too many tenants for the array's capacity");

    // Flat session table + wheel sized to the think-time clamp.
    std::vector<TenantSession> sessions(tenants);
    for (TenantSession &s : sessions)
        s.bucket.tokens = params.admission.bucket.burst;
    const sim::Tick max_think_ticks = sim::msToTicks(ctx.maxThinkMs);
    const std::uint32_t wheel_slots = static_cast<std::uint32_t>(
        max_think_ticks / ctx.granularity + 2);
    ThinkWheel wheel(ctx.granularity, std::max(wheel_slots, 2u));
    SloWindow window(params.slo.windowSamples);
    ctx.sessions = &sessions;
    ctx.wheel = &wheel;
    ctx.window = &window;

    // Pre-size everything the steady-state paths touch, so the
    // measured window runs allocation-free in the serving layer.
    ctx.due.reserve(ctx.closedCount + 1);
    const std::uint64_t inflight_cap = params.admission.maxInFlight
        ? params.admission.maxInFlight
        : 4096;
    simul.reserveEvents(std::min<std::uint64_t>(
        1u << 20, 4096 + 16 * inflight_cap +
            4 * params.spec.maxOutstanding));
    if (params.snapshotPeriodMs > 0.0)
        ctx.snapshots.reserve(
            static_cast<std::size_t>(params.durationSeconds * 1000.0 /
                                     params.snapshotPeriodMs) +
            3);
    else
        ctx.snapshots.reserve(2);

    // Serving counters, mirrored into the registry so snapshotDelta()
    // interleaves them with the module metrics.
    ctx.cArrivals = &registry.counter("serve.arrivals");
    ctx.cAdmitted = &registry.counter("serve.admitted");
    ctx.cDenied = &registry.counter("serve.denied");
    ctx.cCompletions = &registry.counter("serve.completions");
    ctx.cSpecSubmitted = &registry.counter("serve.spec_submitted");
    ctx.cSpecCancelLive = &registry.counter("serve.spec_cancel_live");
    ctx.cSpecCancelStale =
        &registry.counter("serve.spec_cancel_stale");
    ctx.cSpecSuppressed = &registry.counter("serve.spec_suppressed");
    ctx.hResponse = &registry.histogram("serve.response_ms",
                                        stats::paperResponseEdgesMs());

    Ctx *cp = &ctx;

    // Closed-loop sessions start mid-think, staggered exponentially.
    for (std::uint32_t t = 0; t < ctx.closedCount; ++t) {
        const double think =
            std::min(rng.exponential(ctx.thinkMs), ctx.maxThinkMs);
        wheel.insert(sessions, t, 0, sim::msToTicks(think));
    }
    simul.schedule(ctx.granularity, [cp] { wheelTick(*cp); });

    if (ctx.openCount > 0 && params.openRatePerSec > 0.0) {
        const double lambda = static_cast<double>(ctx.openCount) *
            params.openRatePerSec * mod.factorAt(0);
        const sim::Tick first = std::max<sim::Tick>(
            1, sim::secondsToTicks(rng.exponential(1.0 / lambda)));
        if (first < ctx.endTick)
            simul.schedule(first, [cp] { openArrival(*cp); });
    }

    if (params.warmupSeconds > 0.0) {
        simul.schedule(sim::secondsToTicks(params.warmupSeconds),
                       [cp] {
                           // Steady state starts here: drop cold-start
                           // latencies, let the caller checkpoint.
                           cp->window->clear();
                           if (cp->p->onWarmupDone)
                               cp->p->onWarmupDone();
                       });
    }

    if (params.snapshotPeriodMs > 0.0) {
        const sim::Tick period =
            sim::msToTicks(params.snapshotPeriodMs);
        if (period < ctx.endTick)
            simul.schedule(period, [cp] { periodicSnapshot(*cp); });
    }
    simul.schedule(ctx.endTick, [cp] { stopServing(*cp); });

    simul.run();
    checker.finalize();

    ServeResult result;
    result.system = config.name;
    result.tenants = params.tenants;
    result.totals = ctx.totals;
    result.simSeconds = sim::ticksToSeconds(simul.now());
    window.quantiles(result.p50Ms, result.p99Ms);
    std::vector<double> steady;
    steady.reserve(ctx.snapshots.size());
    for (const ServeSnapshot &snap : ctx.snapshots)
        if (snap.simSeconds > params.warmupSeconds)
            steady.push_back(snap.p99Ms);
    result.steadyP99Ms =
        steady.empty() ? result.p99Ms
                       : stats::selectQuantile(steady.data(),
                                               steady.size(), 0.5);
    result.sloMet = ctx.totals.completions > 0 &&
        result.steadyP99Ms <= params.slo.p99TargetMs;
    result.denyFraction = ctx.totals.arrivals > 0
        ? static_cast<double>(ctx.totals.denied()) /
            static_cast<double>(ctx.totals.arrivals)
        : 0.0;
    result.eventsCancelled = simul.eventsCancelled();
    result.staleCancels = simul.staleCancels();
    result.peakPendingEvents = simul.peakPending();
    result.power = arr.finishPower();
    result.snapshots = std::move(ctx.snapshots);
    return result;
}

std::vector<ServeResult>
runServePoints(const std::vector<ServePoint> &points, unsigned threads)
{
    // Each point is a pure function of its (config, params) — the
    // sweep's thread count can only change which worker runs it, so
    // index-ordered slots make the output byte-identical at any
    // IDP_THREADS.
    exec::SweepRunner runner(threads);
    return runner.map(points,
                      [](const ServePoint &pt, const exec::SweepPoint &) {
                          return runService(pt.config, pt.params);
                      });
}

ServeParams
applyServeEnv(ServeParams params)
{
    params.tenants =
        core::envOverrideU64("IDP_SERVE_TENANTS", params.tenants);
    params.durationSeconds = core::envOverrideDouble(
        "IDP_SERVE_SECONDS", params.durationSeconds);
    params.warmupSeconds = core::envOverrideDouble(
        "IDP_SERVE_WARMUP", params.warmupSeconds);
    params.thinkMs =
        core::envOverrideDouble("IDP_SERVE_THINK_MS", params.thinkMs);
    params.openFraction = core::envOverrideDouble(
        "IDP_SERVE_OPEN_FRACTION", params.openFraction);
    params.slo.p99TargetMs = core::envOverrideDouble(
        "IDP_SERVE_SLO_P99_MS", params.slo.p99TargetMs);
    params.snapshotPeriodMs = core::envOverrideDouble(
        "IDP_SERVE_SNAPSHOT_MS", params.snapshotPeriodMs);
    // 0 means "no cap", so a value the field cannot hold keeps the
    // default rather than wrapping.
    const std::uint64_t cap = core::envOverrideU64(
        "IDP_SERVE_MAX_INFLIGHT", params.admission.maxInFlight);
    if (cap <= std::numeric_limits<std::uint32_t>::max())
        params.admission.maxInFlight = static_cast<std::uint32_t>(cap);
    return params;
}

void
writeServeSnapshotsCsv(std::ostream &os,
                       const std::vector<ServeResult> &results)
{
    os << "system,tenants,snapshot,sim_s,arrivals,admitted,denied,"
          "completions,spec_submitted,spec_cancel_live,"
          "spec_cancel_stale,in_flight,wheel_scheduled,p50_ms,p99_ms,"
          "slo_ok,load_factor\n";
    for (const ServeResult &r : results) {
        for (const ServeSnapshot &s : r.snapshots) {
            os << r.system << ',' << r.tenants << ',' << s.index
               << ',' << stats::fmt(s.simSeconds, 3) << ','
               << s.arrivals << ',' << s.admitted << ',' << s.denied
               << ',' << s.completions << ',' << s.specSubmitted
               << ',' << s.specCancelledLive << ','
               << s.specCancelledStale << ',' << s.inFlight << ','
               << s.wheelScheduled << ',' << stats::fmt(s.p50Ms, 4)
               << ',' << stats::fmt(s.p99Ms, 4) << ','
               << (s.sloOk ? 1 : 0) << ','
               << stats::fmt(s.loadFactor, 4) << '\n';
        }
    }
}

void
writeServeMetricsCsv(std::ostream &os, const ServeResult &result)
{
    std::vector<
        std::pair<std::string, std::vector<telemetry::MetricSample>>>
        series;
    for (const ServeSnapshot &s : result.snapshots)
        if (!s.metricDelta.empty())
            series.emplace_back(stats::fmt(s.simSeconds, 3),
                                s.metricDelta);
    core::writeLabeledMetricsCsv(os, "sim_s", series);
}

} // namespace serve
} // namespace idp
