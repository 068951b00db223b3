/**
 * @file
 * Sliding-window latency tracking against a service-level objective.
 *
 * Batch runs report end-of-run distributions; a serving loop needs
 * "p99 over the last N completions, right now". SloWindow keeps a
 * fixed ring of the most recent samples and answers interpolated
 * quantiles over whatever the window currently holds — the same
 * linear-interpolation order statistic stats::SampleSet uses, so the
 * two agree exactly on identical sample sets (pinned by tests).
 *
 * All storage is allocated at construction: record() writes one slot,
 * quantile() selects on a pre-sized scratch copy. Nothing allocates
 * after construction, which the serving loop's zero-steady-state-
 * allocation budget depends on.
 */

#ifndef IDP_SERVE_SLO_HH
#define IDP_SERVE_SLO_HH

#include <cstdint>
#include <vector>

namespace idp {
namespace serve {

/** The objective and the window it is evaluated over. */
struct SloParams
{
    /** p99 latency objective, ms. */
    double p99TargetMs = 100.0;
    /** Completions the sliding window holds. */
    std::uint32_t windowSamples = 4096;
};

class SloWindow
{
  public:
    explicit SloWindow(std::uint32_t window_samples);

    /** Record one completion latency (ms). O(1), allocation-free. */
    void record(double ms);

    /** Samples currently in the window (<= capacity). */
    std::size_t size() const { return filled_; }

    /** Total samples ever offered. */
    std::uint64_t totalRecorded() const { return total_; }

    /**
     * Interpolated quantile over the current window contents (0 when
     * empty). Selects on a pre-sized scratch buffer; O(W), no
     * allocation.
     */
    double quantile(double q) const;

    /**
     * Both working quantiles from one copy into the scratch buffer
     * (the snapshot path wants p50 and p99 together).
     */
    void quantiles(double &p50, double &p99) const;

    /** Forget everything (capacity retained). */
    void clear();

  private:
    /** Copy the ring contents into scratch_; returns sample count. */
    std::size_t fillScratch() const;

    std::vector<double> ring_;
    mutable std::vector<double> scratch_;
    std::size_t head_ = 0;   ///< next write position
    std::size_t filled_ = 0; ///< valid samples in ring_
    std::uint64_t total_ = 0;
};

} // namespace serve
} // namespace idp

#endif // IDP_SERVE_SLO_HH
