/**
 * @file
 * Tests of the benchmark's own code: traced replays leave simulated
 * outputs untouched, metric names and units are well formed, span self
 * times account for parallel children, the allocation counter counts
 * only inside its window, and every workload runs clean at smoke size
 * in both run shapes.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <memory>
#include <set>

#include "array_run.hh"
#include "core/experiment.hh"
#include "perfbench.hh"
#include "workload/synthetic.hh"

using namespace perfbench;
using namespace idp;

namespace {

workload::Trace
smallTrace(double inter_arrival_ms, std::uint64_t requests = 2000,
           std::uint64_t space_sectors = 1464ULL * 1000 * 1000)
{
    workload::SyntheticParams wp;
    wp.requests = requests;
    wp.addressSpaceSectors = space_sectors;
    wp.meanInterArrivalMs = inter_arrival_ms;
    wp.seed = 7;
    return workload::generateSynthetic(wp);
}

/** BENCHMARK.json's name rule: [A-Za-z0-9_.-]+, at most 64 chars. */
bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64)
        return false;
    for (char c : name)
        if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
              c == '.' || c == '-'))
            return false;
    return true;
}

bool
validUnit(const std::string &unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    for (char c : unit)
        if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
              c == '/' || c == '%' || c == '.' || c == '-'))
            return false;
    return true;
}

} // namespace

TEST(PerfbenchDigest, TracedReplayMatchesRunTrace)
{
    const workload::Trace trace = smallTrace(2.0);
    const core::SystemConfig config = core::makeRaid0System(
        "sa2x4", disk::makeIntraDiskParallel(disk::barracudaEs750(), 2),
        4);
    const core::RunResult ref = core::runTrace(trace, config);

    ArrayRunSpec spec;
    spec.trace = &trace;
    spec.params = config.array;
    spec.traced = true;
    SpanLog spans;
    const ArrayRunResult traced = runArray(spec, &spans, 0);

    EXPECT_TRUE(traced.problems.empty());
    EXPECT_EQ(pointDigest("p", ref.completions, ref.p90ResponseMs,
                          ref.p99ResponseMs, ref.power.totalEnergyJ),
              traced.digestLine("p"));
    EXPECT_GT(traced.counters.at("sched.selections"), 0.0);
    EXPECT_EQ(traced.submitCalls, trace.size());
    EXPECT_FALSE(spans.spans().empty());
}

TEST(PerfbenchDigest, TracedPdesMirrorMatchesSerial)
{
    // 250 MB members: the rebuild finishes within a test's time.
    const workload::Trace trace = smallTrace(4.0, 1500, 400000);
    ArrayRunSpec spec;
    spec.trace = &trace;
    spec.params.layout = array::Layout::Raid1;
    spec.params.disks = 4;
    spec.params.drive = disk::enterpriseDrive(0.25, 10000, 2);
    spec.failAndRebuild = true;
    spec.failAt = trace[trace.size() / 3].arrival;
    spec.rebuildAt = spec.failAt;
    const ArrayRunResult serial = runArray(spec, nullptr, 0);

    spec.pdesWorkers = 3;
    spec.traced = true;
    SpanLog spans;
    const ArrayRunResult pdes = runArray(spec, &spans, 0);

    EXPECT_TRUE(serial.problems.empty());
    EXPECT_TRUE(pdes.problems.empty());
    EXPECT_GT(serial.rebuildChunks, 0u);
    EXPECT_EQ(serial.digestLine("m"), pdes.digestLine("m"));
    EXPECT_EQ(serial.rebuildWindowS, pdes.rebuildWindowS);
    EXPECT_GT(pdes.rounds, 0u);
}

TEST(PerfbenchMetrics, NamesAreValidUniqueAndCarryUnits)
{
    std::set<std::string> seen;
    for (const auto *defs : {&endToEndMetrics(), &perLayerMetrics()})
        for (const MetricDef &d : *defs) {
            EXPECT_TRUE(validMetricName(d.name)) << d.name;
            EXPECT_TRUE(validUnit(d.unit)) << d.name << " " << d.unit;
            EXPECT_TRUE(seen.insert(d.name).second) << d.name;
        }
    for (const std::string &w : workloadNames())
        EXPECT_TRUE(validMetricName(w)) << w;
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("sim requests"));
    EXPECT_FALSE(validMetricName("rate/s"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
}

TEST(PerfbenchSpans, SelfTimeSubtractsUnionOfParallelChildren)
{
    // Parent [0, 100] with two overlapping children [10, 60] and
    // [20, 70] (parallel sweep points) and one aggregate child of 5
    // calls summing 8 ns.
    SpanLog log;
    log.aggregate("parent", 0, 0, 1, 100, 0, 100);
    log.aggregate("a", 1, 0, 1, 50, 10, 60);
    log.aggregate("b", 1, 1, 1, 50, 20, 70);
    log.aggregate("submit", 2, 0, 5, 8, 12, 58);
    const std::vector<std::int64_t> self = log.selfTimes();
    ASSERT_EQ(self.size(), 4u);
    EXPECT_EQ(self[0], 100 - 60);
    EXPECT_EQ(self[1], 50 - 8);
    EXPECT_EQ(self[2], 50);
    EXPECT_EQ(self[3], 8);
}

TEST(PerfbenchSpans, AppendReparentsAndRenumbers)
{
    SpanLog inner;
    const std::uint32_t a = inner.open("a", 0);
    inner.open("b", a);
    SpanLog outer;
    const std::uint32_t root = outer.open("root", 0);
    outer.append(inner, root);
    ASSERT_EQ(outer.spans().size(), 3u);
    EXPECT_EQ(outer.spans()[1].parent, root);
    EXPECT_EQ(outer.spans()[2].parent, outer.spans()[1].id);
}

TEST(PerfbenchAllocs, CountsOnlyInsideTheWindow)
{
    std::vector<std::unique_ptr<int>> kept;
    const std::uint64_t inside = countAllocs([&] {
        for (int i = 0; i < 100; ++i)
            kept.push_back(std::make_unique<int>(i));
    });
    EXPECT_GE(inside, 100u);
    for (int i = 0; i < 100; ++i) // not counted: no window open
        kept.push_back(std::make_unique<int>(i));
    EXPECT_EQ(countAllocs([] {}), 0u);
}

class PerfbenchSmoke : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PerfbenchSmoke, TinyRunIsCorrectInBothShapes)
{
    RunOptions opts;
    opts.size = Size::Tiny;
    opts.seconds = 0.01;
    opts.threads = 2;

    const Outcome plain = runWorkload(GetParam(), opts);
    EXPECT_TRUE(plain.correct())
        << (plain.failures.empty() ? "" : plain.failures.front());
    EXPECT_GE(plain.attempted, static_cast<std::uint64_t>(kMinTimedReps));
    EXPECT_FALSE(plain.digest.empty());
    EXPECT_GT(plain.metrics.at("sim_requests_per_s"), 0.0);
    EXPECT_GT(plain.metrics.at("setup_s"), 0.0);

    opts.trace = true;
    const Outcome traced = runWorkload(GetParam(), opts);
    EXPECT_TRUE(traced.correct())
        << (traced.failures.empty() ? "" : traced.failures.front());
    // The traced pass leaves every simulated statistic byte-identical.
    EXPECT_EQ(digestHash(plain.digest), digestHash(traced.digest));
    std::set<std::string> names;
    for (const MetricDef &d : perLayerMetrics())
        names.insert(d.name);
    for (const auto &[name, value] : traced.metrics) {
        EXPECT_TRUE(names.count(name)) << "undeclared metric " << name;
        EXPECT_TRUE(std::isfinite(value)) << name;
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, PerfbenchSmoke,
                         ::testing::ValuesIn(workloadNames()));
