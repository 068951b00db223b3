/**
 * @file
 * Exact-percentile sample collector with reservoir fallback, and a
 * running mean for statistics that are only ever averaged.
 *
 * Figure 8 reports 90th-percentile response times; the limit study
 * quotes means. SampleSet keeps every sample up to a cap and switches
 * to uniform reservoir sampling beyond it so percentiles stay accurate
 * without unbounded memory on multi-million-request runs. A statistic
 * that is only ever averaged is a RunningMean instead: a count and a
 * sum, no buffer.
 */

#ifndef IDP_STATS_SAMPLER_HH
#define IDP_STATS_SAMPLER_HH

#include <cstdint>
#include <vector>

#include "sim/rng.hh"

namespace idp {
namespace stats {

/**
 * Linear-interpolated order statistic q in [0, 1] of the n > 0 values
 * at @p first: sorted[lo] * (1 - frac) + sorted[min(lo + 1, n - 1)] *
 * frac with pos = q * (n - 1), lo = floor(pos), frac = pos - lo —
 * exactly the double a full sort would give. Found by selection in
 * O(n); it reorders the range, so callers pass scratch, never shared
 * state.
 */
double selectQuantile(double *first, std::size_t n, double q);

/**
 * Collects scalar samples; computes exact order statistics on demand.
 *
 * Thread model: add() mutates and needs external serialization, as
 * usual; every const accessor (including quantile()) is safe to call
 * from concurrent readers. Nothing is sorted on ingestion or at the
 * end of a run: each quantile() selects on a local copy of the
 * retained samples, so a run pays O(n) per order statistic it reads
 * and nothing for the ones it does not.
 */
class SampleSet
{
  public:
    /**
     * @param capacity maximum retained samples before reservoir mode.
     * @param seed reservoir RNG stream; the default keeps historical
     *        sampling behaviour, tests vary it to exercise algorithm
     *        R's uniformity across streams.
     */
    explicit SampleSet(std::size_t capacity = 1u << 20,
                       std::uint64_t seed = 0xC0FFEE123456789ULL);

    /** Record one sample. */
    void add(double x);

    /**
     * Pre-reserve retained-sample storage (clamped to the capacity).
     * Long-lived serving loops call this up front so ingestion never
     * reallocates in steady state; batch runs skip it to keep sweep
     * memory proportional to actual sample counts.
     */
    void reserve(std::size_t n);

    /** Number of samples *offered* (not necessarily retained). */
    std::uint64_t count() const { return count_; }

    /** True when no samples have been offered. */
    bool empty() const { return count_ == 0; }

    /** Running mean over all offered samples. */
    double mean() const;

    /** Min / max over all offered samples (0 when empty). */
    double minSeen() const { return count_ ? min_ : 0.0; }
    double maxSeen() const { return count_ ? max_ : 0.0; }

    /**
     * Quantile q in [0, 1] over retained samples (exact below capacity,
     * reservoir-approximate above). q = 0.5 gives the median.
     */
    double quantile(double q) const;

    /** Convenience: quantile(0.90). */
    double p90() const { return quantile(0.90); }
    /** Convenience: quantile(0.99). */
    double p99() const { return quantile(0.99); }

    /** Standard deviation over all offered samples. */
    double stddev() const;

    /** Discard everything. */
    void clear();

  private:
    std::size_t capacity_;
    std::vector<double> samples_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double sumSq_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    sim::Rng rng_;
};

/**
 * Count and mean of a stream, for statistics whose readers only
 * average them. Sums in arrival order like SampleSet, so mean() is
 * bit-identical to SampleSet::mean() over the same values.
 */
class RunningMean
{
  public:
    void
    add(double x)
    {
        ++count_;
        sum_ += x;
    }

    std::uint64_t count() const { return count_; }

    double
    mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
};

} // namespace stats
} // namespace idp

#endif // IDP_STATS_SAMPLER_HH
