/**
 * @file
 * Deterministic parallel sweep execution.
 *
 * A sweep is N independent points (parameter combinations), each
 * producing one result. SweepRunner fans the points across a
 * work-stealing ThreadPool and collects results into index-ordered
 * slots, so the output vector — and anything printed or exported from
 * it — is byte-identical regardless of thread count or completion
 * order.
 *
 * Determinism contract: point i receives a SweepPoint whose RNG
 * stream seed is sim::streamSeed(baseSeed, i) — a pure function of
 * (base seed, point index). A point function that takes all its
 * randomness from SweepPoint::rng() (or seeds generators from
 * SweepPoint::seed) therefore computes bit-identical results at any
 * thread count, including the serial IDP_THREADS=1 path, which runs
 * the points in index order on the calling thread exactly as the
 * pre-engine benches did.
 *
 * Exception contract: if point functions throw, the sweep finishes
 * the remaining points, then rethrows the exception of the
 * lowest-indexed failing point — again independent of thread count.
 */

#ifndef IDP_EXEC_SWEEP_RUNNER_HH
#define IDP_EXEC_SWEEP_RUNNER_HH

#include <algorithm>
#include <cstdint>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/thread_pool.hh"
#include "sim/rng.hh"

namespace idp {
namespace exec {

/** Default base seed for sweep-point stream derivation. */
constexpr std::uint64_t kDefaultSweepSeed = 0x1D9A5EEDULL;

/** Largest IDP_THREADS value configuredThreads() accepts. */
constexpr long kMaxThreads = 1024;

/**
 * Worker count from the environment: IDP_THREADS if set to an integer
 * in [1, kMaxThreads] (1 = serial), otherwise hardware_concurrency().
 * A malformed or out-of-range value warns once and falls back to the
 * default.
 */
unsigned configuredThreads();

/** Handed to each point function: its index and private RNG stream. */
struct SweepPoint
{
    std::size_t index = 0;
    std::uint64_t seed = 0; ///< sim::streamSeed(baseSeed, index)

    /** Fresh generator on this point's private stream. */
    sim::Rng rng() const { return sim::Rng(seed); }
};

class SweepRunner
{
  public:
    /**
     * @param threads worker count; 0 = configuredThreads().
     * @param base_seed root of the per-point stream family.
     */
    explicit SweepRunner(unsigned threads = 0,
                         std::uint64_t base_seed = kDefaultSweepSeed)
        : threads_(threads ? threads : configuredThreads()),
          baseSeed_(base_seed)
    {
    }

    unsigned threads() const { return threads_; }
    std::uint64_t baseSeed() const { return baseSeed_; }

    /**
     * Evaluate @p fn over points 0..@p points-1; result i in slot i.
     */
    template <typename Fn>
    auto run(std::size_t points, Fn &&fn)
        -> std::vector<std::invoke_result_t<Fn &, const SweepPoint &>>
    {
        using R = std::invoke_result_t<Fn &, const SweepPoint &>;
        static_assert(!std::is_void_v<R>,
                      "sweep point functions must return a value");
        std::vector<R> results;
        if (points == 0)
            return results;

        if (threads_ <= 1 || points == 1) {
            // Serial path: index order on this thread, exceptions
            // propagate directly from the failing point.
            results.reserve(points);
            for (std::size_t i = 0; i < points; ++i)
                results.push_back(fn(makePoint(i)));
            return results;
        }

        std::vector<std::optional<R>> slots(points);
        std::vector<std::exception_ptr> errors(points);
        {
            const unsigned workers = static_cast<unsigned>(
                std::min<std::size_t>(threads_, points));
            ThreadPool pool(workers);
            for (std::size_t i = 0; i < points; ++i) {
                pool.submit([this, &slots, &errors, &fn, i] {
                    try {
                        slots[i].emplace(fn(makePoint(i)));
                    } catch (...) {
                        errors[i] = std::current_exception();
                    }
                });
            }
            pool.wait();
        }
        for (std::size_t i = 0; i < points; ++i)
            if (errors[i])
                std::rethrow_exception(errors[i]);

        results.reserve(points);
        for (auto &slot : slots)
            results.push_back(std::move(*slot));
        return results;
    }

    /**
     * Map @p fn over @p items; result i corresponds to items[i].
     * @p fn is called as fn(item, point).
     */
    template <typename T, typename Fn>
    auto map(const std::vector<T> &items, Fn &&fn)
        -> std::vector<std::invoke_result_t<Fn &, const T &,
                                            const SweepPoint &>>
    {
        return run(items.size(), [&](const SweepPoint &point) {
            return fn(items[point.index], point);
        });
    }

  private:
    SweepPoint makePoint(std::size_t i) const
    {
        return SweepPoint{
            i, sim::streamSeed(baseSeed_,
                               static_cast<std::uint64_t>(i))};
    }

    unsigned threads_;
    std::uint64_t baseSeed_;
};

} // namespace exec
} // namespace idp

#endif // IDP_EXEC_SWEEP_RUNNER_HH
