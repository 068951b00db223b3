#include "stats/sampler.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace idp {
namespace stats {

SampleSet::SampleSet(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), rng_(seed)
{
    sim::simAssert(capacity_ > 0, "SampleSet: capacity must be > 0");
}

void
SampleSet::add(double x)
{
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    sumSq_ += x * x;
    if (samples_.size() < capacity_) {
        samples_.push_back(x);
    } else {
        // Vitter's algorithm R: replace a random slot with probability
        // capacity / count so retained samples stay uniform.
        const std::uint64_t j = rng_.uniformInt(count_);
        if (j < capacity_)
            samples_[static_cast<std::size_t>(j)] = x;
    }
}

void
SampleSet::reserve(std::size_t n)
{
    samples_.reserve(std::min(n, capacity_));
}

double
SampleSet::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double
selectQuantile(double *first, std::size_t n, double q)
{
    const double pos = q * static_cast<double>(n - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    // After the selection everything past lo is >= sorted[lo], so the
    // next order statistic is the minimum of that tail.
    std::nth_element(first, first + lo, first + n);
    const double at_lo = first[lo];
    const double at_hi =
        lo + 1 < n ? *std::min_element(first + lo + 1, first + n) : at_lo;
    return at_lo * (1.0 - frac) + at_hi * frac;
}

double
SampleSet::quantile(double q) const
{
    sim::simAssert(q >= 0.0 && q <= 1.0, "SampleSet::quantile: bad q");
    if (samples_.empty())
        return 0.0;
    // A const read must not mutate: concurrent snapshot readers (the
    // sweep UI, telemetry exporters) may call this while other threads
    // read too, so select on a local copy, never the shared buffer.
    std::vector<double> scratch(samples_);
    return selectQuantile(scratch.data(), scratch.size(), q);
}

double
SampleSet::stddev() const
{
    if (count_ < 2)
        return 0.0;
    const double n = static_cast<double>(count_);
    const double var = (sumSq_ - sum_ * sum_ / n) / (n - 1.0);
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

void
SampleSet::clear()
{
    samples_.clear();
    count_ = 0;
    sum_ = sumSq_ = 0.0;
    min_ = max_ = 0.0;
}

} // namespace stats
} // namespace idp
