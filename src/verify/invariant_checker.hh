/**
 * @file
 * Simulation-wide runtime invariant checker.
 *
 * The simulator's conclusions rest on conservation laws that no
 * single module can see whole: every submitted request completes
 * exactly once, completions are causal (never before arrival plus a
 * minimum service), per-component time never runs backwards, a
 * drive's arm/seek/channel occupancy stays within its configured
 * budgets, and every RAID fan-out joins exactly once. The checker
 * observes those laws through the hooks in verify.hh and reports the
 * first violation either by panicking (production runs — the default)
 * or by recording it (tests that assert the checker catches seeded
 * bugs).
 *
 * Install per run with VerifyScope; the hooks find the checker
 * through a thread-local current, so concurrent sweep workers each
 * verify their own run independently.
 */

#ifndef IDP_VERIFY_INVARIANT_CHECKER_HH
#define IDP_VERIFY_INVARIANT_CHECKER_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"
#include "stats/mode_tracker.hh"
#include "verify/id_table.hh"

namespace idp {
namespace verify {

/** What to do when an invariant is violated. */
enum class FailMode
{
    Panic,  ///< sim::panic immediately (production runs)
    Record, ///< append to violations() and continue (checker tests)
};

class InvariantChecker
{
  public:
    explicit InvariantChecker(FailMode mode = FailMode::Panic);

    InvariantChecker(const InvariantChecker &) = delete;
    InvariantChecker &operator=(const InvariantChecker &) = delete;

    /** The checker installed on this thread (null = checking off). */
    static InvariantChecker *current();

    // -- event kernel ------------------------------------------------
    /** Firing an event at @p when with the clock at @p now must never
     *  move time backwards within the calendar's @p domain. Serial
     *  runs use a single domain 0; a PDES run tags the coordinator,
     *  array-phase and per-drive calendars with distinct domains,
     *  because their clocks legitimately interleave at horizons while
     *  each one stays monotonic on its own. */
    void checkKernelTime(std::uint32_t domain, sim::Tick now,
                         sim::Tick when);

    /**
     * Pre-size the per-domain clock table / per-disk state so that a
     * PDES run's concurrent hooks never grow a vector under their
     * feet. Must be called before worker threads start observing.
     */
    void reserveDomains(std::uint32_t domains);
    void reserveDisks(std::uint32_t disks);

    // -- disk level --------------------------------------------------
    void diskSubmit(std::uint32_t dev, std::uint64_t id,
                    sim::Tick arrival, sim::Tick now);
    void diskComplete(std::uint32_t dev, std::uint64_t id,
                      sim::Tick done, sim::Tick min_service);
    /** Occupancy conservation: each in-flight request holds exactly
     *  one busy arm, and the motion/channel budgets are respected. */
    void checkDiskOccupancy(std::uint32_t dev, std::size_t in_flight,
                            std::uint32_t busy_arms,
                            std::uint32_t total_arms,
                            std::uint32_t active_seeks,
                            std::uint32_t max_seeks,
                            std::uint32_t active_transfers,
                            std::uint32_t max_transfers);

    /** The pure-seek lower bound must not exceed the exact
     *  seek+rotation positioning price (admissibility of the pruning
     *  bound and of the PDES dynamic-horizon seek floor). */
    void checkPositioningBound(std::uint32_t dev,
                               sim::Tick lower_bound, sim::Tick exact);
    /** A completed access's maintained completion floor must not lie
     *  in the future of the actual completion tick. */
    void checkServiceBound(std::uint32_t dev, sim::Tick floor,
                           sim::Tick done);

    // -- scheduler level ---------------------------------------------
    /** A sampled pruned-scan pick must equal the exhaustive pick. */
    void checkSchedChoice(const char *policy, std::uint32_t got_slot,
                          std::uint32_t got_arm,
                          std::uint32_t want_slot,
                          std::uint32_t want_arm);

    // -- array level -------------------------------------------------
    void arraySplit(std::uint64_t join_id, sim::Tick arrival,
                    sim::Tick now);
    void arraySub(std::uint64_t join_id);
    void arraySubFinish(std::uint64_t join_id, sim::Tick done);
    void arrayJoin(std::uint64_t join_id, sim::Tick arrival,
                   sim::Tick done);
    /** A fan-out sub-request fell outside the member disk. */
    void arraySubRange(std::uint32_t dev, std::uint64_t lba,
                       std::uint32_t sectors,
                       std::uint64_t disk_sectors);

    // -- mode/energy accounting --------------------------------------
    /**
     * End-of-run mode-time conservation for one drive: the per-mode
     * wall times must tile the total exactly, standby time must lie
     * within idle time, the parked-arm integral must fit
     * arms x total, and the per-RPM-segment breakdown must sum to the
     * totals field-for-field (energy integrated per segment covers
     * exactly the run, no gaps or double billing at transition
     * boundaries).
     */
    void checkModeAccounting(std::uint32_t dev,
                             const stats::ModeTimes &total,
                             const stats::ModeTimes &seg_sum,
                             std::uint32_t arms);

    // -- rebuild engine ----------------------------------------------
    /** Chunk reconstruction started. Each chunk index must be
     *  announced exactly once. */
    void rebuildChunk(std::uint64_t chunk);
    /** The spare write for @p chunk was issued: exactly one per
     *  announced chunk (the rebuilt-stripe conservation law). */
    void rebuildSpareWrite(std::uint64_t chunk);

    /**
     * End-of-run conservation: every disk submit was completed, every
     * join was joined. Call after the simulator drains.
     */
    void finalize();

    /** Violations recorded so far (Record mode; empty in Panic mode
     *  unless the process would already have died). */
    const std::vector<std::string> &violations() const
    {
        return violations_;
    }

    /** Hook invocations observed (cheap liveness probe for tests). */
    std::uint64_t observations() const
    {
        return observations_.load(std::memory_order_relaxed);
    }

  private:
    struct OutstandingEntry
    {
        /** Outstanding submit count (multiset semantics: RAID RMW
         *  legitimately re-submits a join id to one disk). */
        std::uint32_t count = 0;
        /** Latest submit tick of this id: the causality floor a
         *  completion is checked against. */
        sim::Tick lastSubmit = 0;
    };

    struct DiskState
    {
        IdTable<OutstandingEntry> outstanding;
        std::uint64_t submits = 0;
        std::uint64_t completions = 0;
        sim::Tick lastSeen = 0;
    };

    struct JoinState
    {
        sim::Tick arrival = 0;
        std::uint32_t outstanding = 0;
        bool joined = false;
    };

    void fail(const std::string &what);
    DiskState &disk(std::uint32_t dev);
    void touch(std::uint32_t dev, sim::Tick now);

    FailMode mode_;
    /** Guards violations_ in Record mode: PDES drive workers may
     *  record concurrently. Panic mode dies on first fail instead. */
    std::mutex failMutex_;
    std::vector<std::string> violations_;
    /** Relaxed atomic: exactness (not racy approximation) with
     *  concurrent PDES workers is asserted by tests/test_pdes.cc. */
    std::atomic<std::uint64_t> observations_{0};
    /** Indexed by dev (DiskDrive::telemetryId — dense array indices);
     *  grown on first touch serially, pre-sized by reserveDisks for
     *  PDES. Each drive's state is only touched from the calendar
     *  that owns the drive, so entries need no locks. */
    std::vector<DiskState> disks_;
    IdTable<JoinState> joins_;
    std::uint64_t joinsCreated_ = 0;
    std::uint64_t joinsCompleted_ = 0;
    /** Spare writes seen per announced rebuild chunk. */
    std::unordered_map<std::uint64_t, std::uint32_t> rebuildWrites_;
    std::uint64_t rebuildChunks_ = 0;
    std::uint64_t rebuildSpareWrites_ = 0;
    /** Per-domain kernel clocks (see checkKernelTime). */
    std::vector<sim::Tick> kernelNow_;
};

/** Installs a checker as this thread's current one (RAII). */
class VerifyScope
{
  public:
    explicit VerifyScope(InvariantChecker *checker);
    ~VerifyScope();

    VerifyScope(const VerifyScope &) = delete;
    VerifyScope &operator=(const VerifyScope &) = delete;

  private:
    InvariantChecker *prev_;
};

} // namespace verify
} // namespace idp

#endif // IDP_VERIFY_INVARIANT_CHECKER_HH
