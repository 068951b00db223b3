/**
 * @file
 * Windowed time-series statistics.
 *
 * Several experiments care about behaviour *over* a run, not just its
 * aggregate: queue excursions during load phases, response-time decay
 * after an arm failure, destage pressure after bursts. TimeSeries
 * buckets samples into fixed simulated-time windows and keeps a
 * per-window SampleSet, so benches can print mean/p90 trajectories.
 */

#ifndef IDP_STATS_TIME_SERIES_HH
#define IDP_STATS_TIME_SERIES_HH

#include <vector>

#include "sim/types.hh"
#include "stats/sampler.hh"

namespace idp {
namespace stats {

/** Fixed-window sample collector indexed by simulated time. */
class TimeSeries
{
  public:
    /**
     * @param window_ticks  width of one window (> 0)
     * @param per_window_capacity  SampleSet reservoir per window
     */
    explicit TimeSeries(sim::Tick window_ticks,
                        std::size_t per_window_capacity = 1u << 14);

    /** Record @p value at simulated time @p at. */
    void add(sim::Tick at, double value);

    /** Number of windows touched so far (highest index + 1). */
    std::size_t windows() const { return windows_.size(); }

    /** Samples of window @p w (empty SampleSet if untouched). */
    const SampleSet &window(std::size_t w) const;

    /** Window start time. */
    sim::Tick windowStart(std::size_t w) const
    {
        return static_cast<sim::Tick>(w) * windowTicks_;
    }

    /** Mean trajectory over all windows (0 for empty windows). */
    std::vector<double> meanSeries() const;

    /** Quantile trajectory over all windows. */
    std::vector<double> quantileSeries(double q) const;

  private:
    sim::Tick windowTicks_;
    std::size_t capacity_;
    std::vector<SampleSet> windows_;
    SampleSet empty_;
};

} // namespace stats
} // namespace idp

#endif // IDP_STATS_TIME_SERIES_HH
