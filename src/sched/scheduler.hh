/**
 * @file
 * Disk request schedulers.
 *
 * The paper's intra-disk parallel drive uses Shortest-Positioning-Time
 * -First (SPTF, Worthington et al. [42]) extended over (request, arm)
 * pairs: with multiple actuators the scheduler picks whichever idle
 * arm assembly minimizes the overall positioning time for whichever
 * pending request. FCFS, SSTF and C-LOOK are provided as baselines and
 * for the scheduling ablation bench.
 *
 * Schedulers are deliberately decoupled from the drive model: the
 * drive materializes a bounded window of pending requests and the set
 * of currently idle arms, and supplies a positioning oracle that
 * prices any (request, arm) pair. Schedulers only choose.
 */

#ifndef IDP_SCHED_SCHEDULER_HH
#define IDP_SCHED_SCHEDULER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "geom/geometry.hh"
#include "sim/types.hh"

namespace idp {
namespace sched {

/** Scheduler-visible view of one pending request. */
struct PendingView
{
    std::uint32_t slot = 0; ///< opaque handle the drive understands
    geom::Lba lba = 0;
    std::uint32_t cylinder = 0;
    sim::Tick arrival = 0;
    bool isRead = true;
};

/** Scheduler-visible view of one idle arm assembly. */
struct ArmView
{
    std::uint32_t index = 0;
    std::uint32_t cylinder = 0;
    double azimuth = 0.0; ///< chassis angle, revolutions
};

/** Cost oracle: positioning ticks for servicing @p req with @p arm. */
using PositioningFn =
    std::function<sim::Tick(const PendingView &, const ArmView &)>;

/** A scheduling decision. */
struct Choice
{
    std::uint32_t slot = 0; ///< chosen request handle
    std::uint32_t arm = 0;  ///< chosen arm index
};

/** One candidate surfaced by a CylinderIndex query. */
struct IndexedCandidate
{
    PendingView view;
    /**
     * Queue rank: ascending order is the window's FIFO order. Cost
     * ties resolve to the lowest rank — the same winner the
     * exhaustive scan's strict-improvement update over the
     * FIFO-ordered window produces.
     */
    std::uint64_t order = 0;
};

/**
 * Cylinder-ordered view of the pending window, provided by the drive
 * so schedulers can enumerate candidates outward from an arm's
 * cylinder in nondecreasing distance bands and stop a scan early
 * under an admissible positioning lower bound. select() stays the
 * exhaustive reference path; selectIndexed() consumes this.
 */
class CylinderIndex
{
  public:
    virtual ~CylinderIndex() = default;

    /** Number of requests in the window. */
    virtual std::size_t windowSize() const = 0;

    /**
     * Admissible lower bound on the positioning cost of any window
     * request at cylinder distance @p dist from an arm: the pure
     * (read) seek cost with zero rotational wait. Monotone
     * nondecreasing in @p dist; never exceeds what the positioning
     * oracle can return for such a pair.
     */
    virtual sim::Tick seekLowerBound(std::uint32_t dist) const = 0;

    /** Longest queue wait in the window at @p now (aging credit). */
    virtual sim::Tick maxQueueWait(sim::Tick now) const = 0;

    /** Start an outward distance scan from @p cylinder. */
    virtual void beginScan(std::uint32_t cylinder) = 0;

    /**
     * Next band of window requests, in nondecreasing @p min_dist
     * order; every member lies at least @p min_dist cylinders from
     * the scan origin. Bands partition the window: across one full
     * scan each request appears exactly once. @return false when the
     * scan is exhausted.
     */
    virtual bool nextBand(std::uint32_t &min_dist,
                          std::vector<IndexedCandidate> &members) = 0;

    /**
     * C-LOOK support: the (cylinder, order)-least window request with
     * cylinder >= @p cylinder. @return false when none qualifies.
     */
    virtual bool firstAtOrAbove(std::uint32_t cylinder,
                                IndexedCandidate &out) = 0;

    /** The (cylinder, order)-least window request (sweep wrap). */
    virtual bool lowestCylinder(IndexedCandidate &out) = 0;

    /** The window in FIFO order (cross-checks, fallback paths). */
    virtual void
    materializeWindow(std::vector<PendingView> &out) const = 0;

    /** Window entries surfaced by index queries since the drive
     *  bound this index for the current selection. */
    virtual std::uint64_t visited() const = 0;
};

/** Per-selection work split: cost evaluations made vs skipped. */
struct SelectWork
{
    /** Candidates actually priced/compared by the policy. */
    std::uint64_t priced = 0;
    /** Candidates skipped because an admissible bound proved they
     *  cannot beat the incumbent. Zero on exhaustive scans. */
    std::uint64_t pruned = 0;
};

/** Available scheduling policies. */
enum class Policy
{
    Fcfs,     ///< first-come first-served; nearest idle arm
    Sstf,     ///< shortest seek time first
    Clook,    ///< circular LOOK elevator
    Sptf,     ///< shortest positioning time first (the paper's choice)
    SptfAged, ///< SPTF with linear aging to bound starvation
};

/** Parse/format policy names ("fcfs", "sstf", "clook", "sptf", ...). */
Policy policyFromString(const std::string &name);
std::string policyToString(Policy policy);

/**
 * Abstract scheduler. One instance per drive (policies may be
 * stateful, e.g. C-LOOK's sweep position).
 */
class IoScheduler
{
  public:
    virtual ~IoScheduler() = default;

    /** Policy display name. */
    virtual std::string name() const = 0;

    /**
     * Choose a (request, arm) pair.
     *
     * @param pending  non-empty window of pending requests
     * @param arms     non-empty set of currently idle arms
     * @param cost     positioning oracle
     * @param now      current simulated time
     */
    virtual Choice select(const std::vector<PendingView> &pending,
                          const std::vector<ArmView> &arms,
                          const PositioningFn &cost, sim::Tick now) = 0;

    /**
     * Choose a (request, arm) pair through a cylinder index instead
     * of a materialized window. Policies with a pruned scan override
     * this; the default materializes the window and runs select().
     * Chooses the *identical* pair select() would: pruning bounds are
     * admissible and tie-breaks replicate the exhaustive scan order,
     * so figure outputs are byte-identical either way.
     */
    virtual Choice selectIndexed(const std::vector<ArmView> &arms,
                                 const PositioningFn &cost,
                                 sim::Tick now, CylinderIndex &index);

    /**
     * How many (request, arm) candidates one *exhaustive* select()
     * call over a window of @p pending requests and @p arms idle arms
     * examines. Joint policies (SPTF) price every pair; the
     * single-axis baselines scan the window once and then price only
     * the chosen request's arms. An indexed selection accounts the
     * same nominal total, split into priced + pruned (lastWork()), so
     * telemetry's sched.candidates_seen stays comparable.
     */
    virtual std::uint64_t candidatesExamined(std::size_t pending,
                                             std::size_t arms) const = 0;

    /** Work accounting for the most recent select()/selectIndexed(). */
    virtual SelectWork lastWork() const { return work_; }

  protected:
    SelectWork work_;
    /** Scratch for fallback materialization and verify cross-checks. */
    std::vector<PendingView> windowScratch_;
};

/** Scheduler construction options. */
struct SchedulerParams
{
    Policy policy = Policy::Sptf;
    /**
     * Aging weight for SptfAged: the effective cost of a request is
     * positioning - agingWeight * queue_wait. Expressed as a pure
     * ratio of ticks per tick of waiting.
     */
    double agingWeight = 0.01;
};

/** Factory. */
std::unique_ptr<IoScheduler> makeScheduler(const SchedulerParams &params);

} // namespace sched
} // namespace idp

#endif // IDP_SCHED_SCHEDULER_HH
