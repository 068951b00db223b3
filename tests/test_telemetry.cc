/**
 * @file
 * Telemetry subsystem tests: span ring semantics, sampling, registry
 * snapshots, per-run trace capture, Chrome-trace export shape, and
 * the sweep-engine determinism contract with tracing enabled.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/csv_export.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "exec/sweep_runner.hh"
#include "telemetry/ring.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace_export.hh"
#include "workload/synthetic.hh"

// Tests below that exercise the in-simulator hooks only make sense
// when the hooks are compiled in.
#define REQUIRE_TELEMETRY()                                              \
    if (!idp::telemetry::kCompiledIn)                                    \
    GTEST_SKIP() << "built with IDP_TELEMETRY=OFF"

namespace {

using namespace idp;

telemetry::Span
makeSpan(std::uint64_t id, sim::Tick begin, sim::Tick end,
         telemetry::SpanKind kind = telemetry::SpanKind::Seek)
{
    telemetry::Span span;
    span.id = id;
    span.begin = begin;
    span.end = end;
    span.kind = kind;
    return span;
}

bool
sameSpans(const std::vector<telemetry::Span> &a,
          const std::vector<telemetry::Span> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].id != b[i].id || a[i].begin != b[i].begin ||
            a[i].end != b[i].end || a[i].kind != b[i].kind ||
            a[i].dev != b[i].dev || a[i].arm != b[i].arm)
            return false;
    }
    return true;
}

TEST(SpanRing, FillsThenOverwritesOldest)
{
    telemetry::SpanRing ring(4);
    for (std::uint64_t i = 0; i < 6; ++i)
        ring.push(makeSpan(i, i * 10, i * 10 + 5));
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.capacity(), 4u);
    EXPECT_EQ(ring.dropped(), 2u);

    const auto spans = ring.snapshot();
    ASSERT_EQ(spans.size(), 4u);
    // Oldest surviving span first: ids 2, 3, 4, 5.
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(spans[i].id, i + 2);
}

TEST(SpanRing, PartialFillKeepsInsertionOrder)
{
    telemetry::SpanRing ring(8);
    for (std::uint64_t i = 0; i < 3; ++i)
        ring.push(makeSpan(i, i, i + 1));
    EXPECT_EQ(ring.dropped(), 0u);
    const auto spans = ring.snapshot();
    ASSERT_EQ(spans.size(), 3u);
    for (std::uint64_t i = 0; i < 3; ++i)
        EXPECT_EQ(spans[i].id, i);
}

TEST(Tracer, SamplingRetainsEveryNthButCountsAll)
{
    telemetry::TraceOptions opts;
    opts.enabled = true;
    opts.sampleEvery = 3;
    telemetry::Tracer tracer(opts);
    for (std::uint64_t i = 0; i < 12; ++i)
        tracer.record(
            makeSpan(i, 0, 100, telemetry::SpanKind::RotWait));

    const telemetry::TraceData data = tracer.finish();
    // Exact accumulation is sampling-blind...
    EXPECT_EQ(data.phase(telemetry::SpanKind::RotWait).count, 12u);
    EXPECT_EQ(data.phase(telemetry::SpanKind::RotWait).ticks, 1200u);
    // ...but only ids 0, 3, 6, 9 are retained for export.
    ASSERT_EQ(data.spans.size(), 4u);
    for (const auto &span : data.spans)
        EXPECT_EQ(span.id % 3, 0u);
}

TEST(Tracer, MeanAndTotalMs)
{
    telemetry::TraceOptions opts;
    opts.enabled = true;
    telemetry::Tracer tracer(opts);
    // 2 ms and 4 ms seeks (ticks are nanoseconds).
    tracer.record(makeSpan(1, 0, 2000000));
    tracer.record(makeSpan(2, 0, 4000000));
    const telemetry::TraceData data = tracer.finish();
    EXPECT_DOUBLE_EQ(data.totalMs(telemetry::SpanKind::Seek), 6.0);
    EXPECT_DOUBLE_EQ(data.meanMs(telemetry::SpanKind::Seek), 3.0);
    EXPECT_DOUBLE_EQ(data.meanMs(telemetry::SpanKind::Transfer), 0.0);
}

TEST(Tracer, EnvRingCapacityIsBounded)
{
    // Only fromEnv() is called: no ring is sized, so the oversized
    // values allocate nothing.
    const char *prior = std::getenv("IDP_TRACE_BUF");
    const std::string saved = prior ? prior : "";
    const std::size_t fallback = telemetry::TraceOptions{}.ringCapacity;
    const std::string ceiling =
        std::to_string(telemetry::TraceOptions::kMaxRingCapacity);
    ASSERT_EQ(setenv("IDP_TRACE_BUF", ceiling.c_str(), 1), 0);
    EXPECT_EQ(telemetry::TraceOptions::fromEnv().ringCapacity,
              telemetry::TraceOptions::kMaxRingCapacity);
    const std::string over =
        std::to_string(telemetry::TraceOptions::kMaxRingCapacity + 1);
    for (const char *v : {over.c_str(), "1000000000000",
                          "18446744073709551615"}) {
        ASSERT_EQ(setenv("IDP_TRACE_BUF", v, 1), 0);
        EXPECT_EQ(telemetry::TraceOptions::fromEnv().ringCapacity,
                  fallback)
            << "IDP_TRACE_BUF=" << v;
    }
    if (prior)
        ASSERT_EQ(setenv("IDP_TRACE_BUF", saved.c_str(), 1), 0);
    else
        ASSERT_EQ(unsetenv("IDP_TRACE_BUF"), 0);
}

TEST(Registry, FindOrCreateAndSnapshotSorted)
{
    telemetry::Registry registry;
    telemetry::Counter &c = registry.counter("z.second");
    registry.counter("a.first").inc(7);
    c.inc(2);
    // Same name returns the same node.
    EXPECT_EQ(&registry.counter("z.second"), &c);
    registry.setGauge("m.gauge", 1.5);

    const auto rows = registry.snapshot();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].name, "a.first");
    EXPECT_DOUBLE_EQ(rows[0].value, 7.0);
    EXPECT_EQ(rows[1].name, "m.gauge");
    EXPECT_DOUBLE_EQ(rows[1].value, 1.5);
    EXPECT_EQ(rows[2].name, "z.second");
    EXPECT_DOUBLE_EQ(rows[2].value, 2.0);

    std::ostringstream os;
    registry.writeCsv(os);
    EXPECT_EQ(os.str().rfind("metric,value\n", 0), 0u);
    EXPECT_NE(os.str().find("a.first,7"), std::string::npos);
}

TEST(Registry, HistogramFlattensToRows)
{
    telemetry::Registry registry;
    auto &hist = registry.histogram("lat", {1.0, 2.0, 4.0});
    hist.add(0.5);
    hist.add(3.0);
    const auto rows = registry.snapshot();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].name, "lat.count");
    EXPECT_DOUBLE_EQ(rows[0].value, 2.0);
    EXPECT_EQ(rows[1].name, "lat.max");
    EXPECT_EQ(rows[2].name, "lat.mean");
}

TEST(Hooks, NoopWithoutInstalledCurrents)
{
    ASSERT_EQ(telemetry::Tracer::current(), nullptr);
    ASSERT_EQ(telemetry::Registry::current(), nullptr);
    EXPECT_EQ(telemetry::counterHandle("nope"), nullptr);
    telemetry::bump(nullptr); // must not crash
    telemetry::emitSpan(1, telemetry::SpanKind::Seek, 0, 10);
    SUCCEED();
}

TEST(Hooks, ScopesInstallAndRestore)
{
    REQUIRE_TELEMETRY();
    telemetry::Registry registry;
    {
        telemetry::RegistryScope scope(&registry);
        EXPECT_EQ(telemetry::Registry::current(), &registry);
        telemetry::Counter *c = telemetry::counterHandle("x");
        ASSERT_NE(c, nullptr);
        telemetry::bump(c, 3);
        EXPECT_EQ(registry.counter("x").value, 3u);
    }
    EXPECT_EQ(telemetry::Registry::current(), nullptr);
}

workload::Trace
smallTrace(std::uint64_t requests = 1200)
{
    workload::SyntheticParams wp;
    wp.requests = requests;
    wp.meanInterArrivalMs = 4.0;
    wp.addressSpaceSectors = 2000000;
    wp.readFraction = 0.7;
    return workload::generateSynthetic(wp);
}

core::SystemConfig
smallSystem()
{
    return core::makeRaid0System(
        "tele-sys", disk::enterpriseDrive(2.0, 10000, 2), 2);
}

TEST(RunTrace, UntracedRunLeavesTelemetryEmpty)
{
    telemetry::TraceOptions off;
    const core::RunResult r =
        core::runTrace(smallTrace(), smallSystem(), off);
    EXPECT_EQ(r.trace, nullptr);
    EXPECT_TRUE(r.metrics.empty());
}

TEST(RunTrace, TracedRunCarriesSpansAndMetrics)
{
    REQUIRE_TELEMETRY();
    telemetry::TraceOptions on;
    on.enabled = true;
    const core::RunResult r =
        core::runTrace(smallTrace(), smallSystem(), on);
    ASSERT_NE(r.trace, nullptr);
    EXPECT_FALSE(r.trace->spans.empty());

    // A random-read workload on a mechanical drive must show queueing
    // and all three media phases.
    using telemetry::SpanKind;
    EXPECT_GT(r.trace->phase(SpanKind::HostQueue).count, 0u);
    EXPECT_GT(r.trace->phase(SpanKind::Seek).count, 0u);
    EXPECT_GT(r.trace->phase(SpanKind::RotWait).count, 0u);
    EXPECT_GT(r.trace->phase(SpanKind::Transfer).count, 0u);
    EXPECT_GT(r.trace->phase(SpanKind::RaidJoin).count, 0u);
    EXPECT_GT(r.trace->totalMs(SpanKind::RotWait), 0.0);

    // Registry snapshot rode back too, including the kernel gauges.
    ASSERT_FALSE(r.metrics.empty());
    bool found_fired = false, found_media = false, found_sched = false;
    for (const auto &m : r.metrics) {
        if (m.name == "sim.events_fired" && m.value > 0)
            found_fired = true;
        if (m.name == "disk.media_accesses" && m.value > 0)
            found_media = true;
        if (m.name == "sched.selections" && m.value > 0)
            found_sched = true;
    }
    EXPECT_TRUE(found_fired);
    EXPECT_TRUE(found_media);
    EXPECT_TRUE(found_sched);
}

TEST(RunTrace, TracingDoesNotPerturbResults)
{
    const workload::Trace trace = smallTrace();
    telemetry::TraceOptions off;
    telemetry::TraceOptions on;
    on.enabled = true;
    const core::RunResult plain =
        core::runTrace(trace, smallSystem(), off);
    const core::RunResult traced =
        core::runTrace(trace, smallSystem(), on);
    EXPECT_EQ(plain.completions, traced.completions);
    EXPECT_DOUBLE_EQ(plain.meanResponseMs, traced.meanResponseMs);
    EXPECT_DOUBLE_EQ(plain.p99ResponseMs, traced.p99ResponseMs);
    EXPECT_EQ(plain.mediaAccesses, traced.mediaAccesses);
    EXPECT_EQ(plain.cacheHits, traced.cacheHits);
}

TEST(RunTrace, ServiceSpansNestInsideResponseWindow)
{
    REQUIRE_TELEMETRY();
    telemetry::TraceOptions on;
    on.enabled = true;
    const core::RunResult r =
        core::runTrace(smallTrace(600), smallSystem(), on);
    ASSERT_NE(r.trace, nullptr);
    for (const auto &span : r.trace->spans) {
        EXPECT_LE(span.begin, span.end);
        // raid_split / raid_join spans carry the join id in `dev` to tie
        // the logical and sub-request id spaces together; every other
        // span's dev is a real disk index.
        if (span.kind != telemetry::SpanKind::RaidSplit &&
            span.kind != telemetry::SpanKind::RaidJoin) {
            EXPECT_LT(span.dev, 2u);
        }
    }
}

TEST(TraceExport, ChromeJsonShape)
{
    REQUIRE_TELEMETRY();
    telemetry::TraceOptions on;
    on.enabled = true;
    const core::RunResult r =
        core::runTrace(smallTrace(400), smallSystem(), on);
    ASSERT_NE(r.trace, nullptr);

    telemetry::TraceBatch batch;
    batch.name = r.system;
    batch.spans = r.trace->spans;
    batch.dropped = r.trace->dropped;

    std::ostringstream os;
    telemetry::writeChromeTrace(os, {batch});
    const std::string json = os.str();

    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '\n');
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("tele-sys"), std::string::npos);
    EXPECT_NE(json.find("\"seek\""), std::string::npos);

    // Structural sanity: braces and brackets balance.
    long braces = 0, brackets = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
        const char ch = json[i];
        if (ch == '"' && (i == 0 || json[i - 1] != '\\'))
            in_string = !in_string;
        if (in_string)
            continue;
        braces += ch == '{' ? 1 : ch == '}' ? -1 : 0;
        brackets += ch == '[' ? 1 : ch == ']' ? -1 : 0;
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
    EXPECT_FALSE(in_string);
}

TEST(TraceExport, MetricsCsvLongForm)
{
    REQUIRE_TELEMETRY();
    telemetry::TraceOptions on;
    on.enabled = true;
    core::RunResult r =
        core::runTrace(smallTrace(400), smallSystem(), on);
    std::ostringstream os;
    core::writeMetricsCsv(os, {r});
    const std::string csv = os.str();
    EXPECT_EQ(csv.rfind("system,metric,value\n", 0), 0u);
    EXPECT_NE(csv.find("tele-sys,disk.media_accesses,"),
              std::string::npos);
}

TEST(Report, AttributionTableListsPhases)
{
    REQUIRE_TELEMETRY();
    telemetry::TraceOptions on;
    on.enabled = true;
    const core::RunResult r =
        core::runTrace(smallTrace(), smallSystem(), on);
    std::ostringstream os;
    core::printAttribution(os, "attr", {r});
    const std::string out = os.str();
    EXPECT_NE(out.find("seek"), std::string::npos);
    EXPECT_NE(out.find("rot_wait"), std::string::npos);
    EXPECT_NE(out.find("transfer"), std::string::npos);
    EXPECT_NE(out.find("dominant"), std::string::npos);
}

/**
 * The PR-1 determinism contract extended to telemetry: a traced
 * sweep's spans and metrics are identical at any thread count,
 * because each point owns its tracer and results live in
 * index-ordered slots.
 */
TEST(SweepDeterminism, TracedSweepIdenticalAcrossThreadCounts)
{
    REQUIRE_TELEMETRY();
    const auto trace = smallTrace(800);
    auto point_fn = [&trace](const exec::SweepPoint &point) {
        telemetry::TraceOptions on;
        on.enabled = true;
        core::SystemConfig config = core::makeRaid0System(
            "sweep-" + std::to_string(point.index),
            disk::enterpriseDrive(2.0, 10000, 2),
            1 + static_cast<std::uint32_t>(point.index % 3));
        return core::runTrace(trace, config, on);
    };

    exec::SweepRunner serial(1);
    exec::SweepRunner wide(8);
    const auto a = serial.run(6, point_fn);
    const auto b = wide.run(6, point_fn);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_NE(a[i].trace, nullptr);
        ASSERT_NE(b[i].trace, nullptr);
        EXPECT_TRUE(sameSpans(a[i].trace->spans, b[i].trace->spans))
            << "point " << i;
        EXPECT_EQ(a[i].trace->dropped, b[i].trace->dropped);
        ASSERT_EQ(a[i].metrics.size(), b[i].metrics.size());
        for (std::size_t m = 0; m < a[i].metrics.size(); ++m) {
            EXPECT_EQ(a[i].metrics[m].name, b[i].metrics[m].name);
            EXPECT_DOUBLE_EQ(a[i].metrics[m].value,
                             b[i].metrics[m].value);
        }
    }
}

} // namespace
