/**
 * @file
 * Property tests for the statistics layer the verification harness
 * (and every figure) leans on: SampleSet::quantile's selection against
 * an exact sorted reference, RunningMean against SampleSet::mean,
 * Histogram::quantile/cdfSeries sanity under degenerate inputs,
 * reservoir uniformity of algorithm R, and
 * thread-safety of concurrent const reads (run under TSan in CI).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "sim/rng.hh"
#include "stats/histogram.hh"
#include "stats/sampler.hh"

namespace {

using namespace idp;
using stats::Histogram;
using stats::SampleSet;

/** Exact linear-interpolated quantile of an explicit sample list. */
double
referenceQuantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
}

// ---------------------------------------------------------------
// SampleSet::quantile vs the exact reference.
// ---------------------------------------------------------------

TEST(SampleSetQuantile, MatchesSortedReferenceBelowCapacity)
{
    // Selection must give exactly the double a full sort gives, so
    // every comparison here is EXPECT_EQ, not a tolerance.
    sim::Rng rng(0x5A11);
    for (int round = 0; round < 20; ++round) {
        const std::size_t n = 1 + rng.uniformInt(200ULL);
        SampleSet s;
        std::vector<double> raw;
        for (std::size_t i = 0; i < n; ++i) {
            const double x = rng.uniform(-50.0, 50.0);
            s.add(x);
            raw.push_back(x);
        }
        for (double q : {0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0})
            EXPECT_EQ(s.quantile(q), referenceQuantile(raw, q))
                << "n=" << n << " q=" << q;
    }

    // Fixed sizes, from a single sample to a few thousand, with
    // distinct values and with heavy duplicates (a handful of levels,
    // as quantized latencies produce): the order statistic and its
    // upper neighbour must both come out right when they tie.
    for (std::size_t n : {1u, 2u, 3u, 17u, 4096u}) {
        for (int levels : {0, 3}) {
            SampleSet s;
            std::vector<double> raw;
            for (std::size_t i = 0; i < n; ++i) {
                const double x = levels == 0
                    ? rng.uniform(0.0, 100.0)
                    : static_cast<double>(
                          rng.uniformInt(static_cast<std::uint64_t>(
                              levels))) * 0.5;
                s.add(x);
                raw.push_back(x);
            }
            for (double q : {0.0, 0.5, 0.9, 0.99, 1.0})
                EXPECT_EQ(s.quantile(q), referenceQuantile(raw, q))
                    << "n=" << n << " levels=" << levels
                    << " q=" << q;
        }
    }

    // Reservoir mode: past capacity the set answers over the samples
    // algorithm R retained. Replaying algorithm R with the same seed
    // recovers that retained set for the reference.
    const std::size_t capacity = 257;
    const std::uint64_t seed = 0xBEEF;
    for (int levels : {0, 5}) {
        SampleSet s(capacity, seed);
        sim::Rng replay(seed);
        std::vector<double> kept;
        for (std::uint64_t count = 1; count <= 5000; ++count) {
            const double x = levels == 0
                ? rng.uniform(0.0, 100.0)
                : static_cast<double>(rng.uniformInt(
                      static_cast<std::uint64_t>(levels)));
            s.add(x);
            if (kept.size() < capacity) {
                kept.push_back(x);
            } else {
                const std::uint64_t j = replay.uniformInt(count);
                if (j < capacity)
                    kept[static_cast<std::size_t>(j)] = x;
            }
        }
        ASSERT_EQ(s.count(), 5000u);
        for (double q : {0.0, 0.5, 0.9, 0.99, 1.0})
            EXPECT_EQ(s.quantile(q), referenceQuantile(kept, q))
                << "reservoir levels=" << levels << " q=" << q;
    }
}

TEST(SampleSetQuantile, DegenerateInputs)
{
    SampleSet empty;
    EXPECT_EQ(empty.quantile(0.0), 0.0);
    EXPECT_EQ(empty.quantile(0.5), 0.0);
    EXPECT_EQ(empty.quantile(1.0), 0.0);

    SampleSet one;
    one.add(42.5);
    for (double q : {0.0, 0.5, 1.0})
        EXPECT_DOUBLE_EQ(one.quantile(q), 42.5);

    // q = 0 and q = 1 are the extremes exactly.
    SampleSet s;
    for (double x : {3.0, 1.0, 2.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 3.0);
}

TEST(SampleSetQuantile, ReadsDoNotChangeAnswers)
{
    // quantile() selects on a copy: reading one order statistic must
    // not disturb the next read, in any order, and ingestion may go on
    // after a read.
    sim::Rng rng(0x5EA1);
    SampleSet s;
    std::vector<double> raw;
    for (int i = 0; i < 500; ++i) {
        const double x = rng.uniform(0.0, 1.0);
        s.add(x);
        raw.push_back(x);
    }
    const double before = s.quantile(0.9);
    EXPECT_EQ(s.quantile(0.1), referenceQuantile(raw, 0.1));
    EXPECT_EQ(s.quantile(0.99), referenceQuantile(raw, 0.99));
    EXPECT_EQ(s.quantile(0.9), before);
    EXPECT_EQ(s.quantile(0.9), referenceQuantile(raw, 0.9));
    // Adding after a read still works.
    s.add(2.0);
    EXPECT_EQ(s.quantile(1.0), 2.0);
}

TEST(SampleSetQuantile, ConcurrentConstReadsAreSafe)
{
    // Regression for a const_cast sort inside the const quantile():
    // two threads reading the same set raced on the sample buffer.
    // Run under TSan this test pins the fix.
    SampleSet s;
    sim::Rng rng(0xC0C0);
    for (int i = 0; i < 20000; ++i)
        s.add(rng.uniform(0.0, 100.0));

    const double expected = s.quantile(0.5);
    std::atomic<bool> mismatch{false};
    std::vector<std::thread> readers;
    for (int t = 0; t < 8; ++t) {
        readers.emplace_back([&] {
            for (int i = 0; i < 50; ++i) {
                if (s.quantile(0.5) != expected ||
                    s.p90() < s.quantile(0.5))
                    mismatch = true;
            }
        });
    }
    for (auto &t : readers)
        t.join();
    EXPECT_FALSE(mismatch.load());
}

TEST(RunningMean, MeanMatchesSampleSetBitForBit)
{
    // Drive and array rotation stats keep only a running mean; it must
    // reproduce SampleSet::mean() exactly, so reported means do not
    // move by an ulp.
    sim::Rng rng(0x3EA7);
    stats::RunningMean m;
    SampleSet s(64); // small capacity: reservoir mode must not matter
    EXPECT_EQ(m.count(), 0u);
    EXPECT_EQ(m.mean(), 0.0);
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.exponential(4.17);
        m.add(x);
        s.add(x);
        if (i % 997 == 0) {
            EXPECT_EQ(m.mean(), s.mean()) << "after " << i + 1;
        }
    }
    EXPECT_EQ(m.count(), s.count());
    EXPECT_EQ(m.mean(), s.mean());
}

// ---------------------------------------------------------------
// Reservoir uniformity: algorithm R must retain each offered sample
// with equal probability once the stream exceeds capacity.
// ---------------------------------------------------------------

TEST(SampleSetReservoir, AlgorithmRIsUniform)
{
    // Feed 0..N-1 into a capacity-C reservoir across many independent
    // RNG streams; each value must be retained ~C/N of the time. The
    // retained values are recovered as the C order statistics
    // (quantile at k/(C-1) hits sorted slot k exactly), so decile
    // counts are independent across streams and a chi-square test
    // applies: 9 dof, 0.999 quantile 27.9 — a seeded run sits far
    // below unless the reservoir is biased.
    const std::size_t capacity = 64;
    const int n = 1024;
    const int streams = 400;
    std::vector<std::uint64_t> kept(10, 0);
    double value_sum = 0.0;
    for (int t = 0; t < streams; ++t) {
        SampleSet s(capacity, 0x9E3779B97F4A7C15ULL +
                        static_cast<std::uint64_t>(t));
        for (int i = 0; i < n; ++i)
            s.add(static_cast<double>(i));
        for (std::size_t k = 0; k < capacity; ++k) {
            const double v = s.quantile(
                static_cast<double>(k) /
                static_cast<double>(capacity - 1));
            value_sum += v;
            const int decile = std::min(
                9, static_cast<int>(v / (n / 10.0)));
            ++kept[static_cast<std::size_t>(decile)];
        }
    }
    double total = 0.0;
    for (auto k : kept)
        total += static_cast<double>(k);
    const double expected_per_bin = total / 10.0;
    double chi2 = 0.0;
    for (auto k : kept) {
        const double d = static_cast<double>(k) - expected_per_bin;
        chi2 += d * d / expected_per_bin;
    }
    EXPECT_LT(chi2, 27.9) << "reservoir retention is not uniform";

    // Mean retained value matches the stream mean (unbiasedness);
    // the SE over streams*capacity draws is ~2, so 10 is generous.
    EXPECT_NEAR(value_sum / total, (n - 1) / 2.0, 10.0);
}

// ---------------------------------------------------------------
// Histogram::quantile / cdfSeries properties.
// ---------------------------------------------------------------

TEST(HistogramQuantile, EmptySingleAndExtremes)
{
    Histogram h = stats::makeResponseHistogram();
    EXPECT_EQ(h.quantile(0.0), 0.0);
    EXPECT_EQ(h.quantile(0.5), 0.0);
    EXPECT_EQ(h.quantile(1.0), 0.0);

    h.add(7.5);
    // A single sample: every quantile lands inside its bucket
    // (5, 10] and never outside the observed range.
    for (double q : {0.0, 0.5, 1.0}) {
        EXPECT_GE(h.quantile(q), 5.0);
        EXPECT_LE(h.quantile(q), 10.0);
    }
}

TEST(HistogramQuantile, AllSamplesInOverflowBucket)
{
    Histogram h = stats::makeResponseHistogram();
    h.add(500.0);
    h.add(700.0);
    h.add(900.0);
    // The overflow bucket has no upper edge: quantiles interpolate
    // between the last edge and the observed max, monotonically.
    EXPECT_GE(h.quantile(0.0), 200.0);
    EXPECT_LE(h.quantile(1.0), 900.0);
    EXPECT_LE(h.quantile(0.3), h.quantile(0.9));
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 900.0);
}

TEST(HistogramQuantile, MonotoneAndBucketConsistentOnRandomData)
{
    sim::Rng rng(0x415C);
    Histogram h = stats::makeResponseHistogram();
    std::vector<double> raw;
    for (int i = 0; i < 5000; ++i) {
        const double x = rng.uniform(0.0, 250.0);
        h.add(x);
        raw.push_back(x);
    }
    double prev = h.quantile(0.0);
    for (double q = 0.05; q <= 1.0; q += 0.05) {
        const double v = h.quantile(q);
        EXPECT_GE(v, prev) << "quantile not monotone at q=" << q;
        prev = v;
    }
    // Bucketed quantiles agree with the exact reference to within
    // one bucket width.
    for (double q : {0.25, 0.5, 0.9}) {
        const double exact = referenceQuantile(raw, q);
        const double approx = h.quantile(q);
        EXPECT_NEAR(approx, exact, 40.0) << "q=" << q;
    }
}

TEST(HistogramCdf, SeriesIsMonotoneEndsAtOneAndMatchesCounts)
{
    sim::Rng rng(0xCDF1);
    Histogram h = stats::makeResponseHistogram();
    for (int i = 0; i < 2000; ++i)
        h.add(rng.uniform(0.0, 300.0));

    const auto series = h.cdfSeries(999.0);
    ASSERT_EQ(series.size(), h.buckets());
    double prev = 0.0;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < series.size(); ++i) {
        cum += h.count(i);
        EXPECT_GE(series[i].second, prev);
        EXPECT_DOUBLE_EQ(series[i].second,
                         static_cast<double>(cum) /
                             static_cast<double>(h.total()));
        prev = series[i].second;
    }
    EXPECT_DOUBLE_EQ(series.back().second, 1.0);
    EXPECT_DOUBLE_EQ(series.back().first, 999.0);
}

TEST(HistogramCdf, EmptySeriesIsAllZeros)
{
    const Histogram h = stats::makeResponseHistogram();
    const auto series = h.cdfSeries(999.0);
    ASSERT_EQ(series.size(), h.buckets());
    for (const auto &[edge, frac] : series)
        EXPECT_EQ(frac, 0.0);
}

} // namespace
