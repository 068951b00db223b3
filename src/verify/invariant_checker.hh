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
 *
 * In-flight bookkeeping is indexed by token, not hashed by id:
 * diskSubmit and arraySplit return a 32-bit token naming a slab slot,
 * the drive or array carries it beside the request, and the matching
 * completion hooks pass it back together with the id. Every hot hook
 * checks its all-clear case inline; formatting a violation lives in
 * the out-of-line slow paths.
 */

#ifndef IDP_VERIFY_INVARIANT_CHECKER_HH
#define IDP_VERIFY_INVARIANT_CHECKER_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"
#include "stats/mode_tracker.hh"

namespace idp {
namespace verify {

/** What to do when an invariant is violated. */
enum class FailMode
{
    Panic,  ///< sim::panic immediately (production runs)
    Record, ///< append to violations() and continue (checker tests)
};

/** The token a hook returns when no checker is installed; no live
 *  entry ever has it, so handing it back to a checker fails. */
constexpr std::uint32_t kNoToken = 0;

/**
 * Slab of in-flight entries addressed by 32-bit tokens. A token packs
 * slot + 1 into its low kSlotBits and the low bits of the slot's
 * generation above them, so token 0 (kNoToken) is never issued.
 * Releasing a slot bumps its generation and pushes it on a LIFO free
 * list, so the next acquire reuses the slot that was just touched.
 * find() rejects a token whose slot is free, whose generation is
 * stale, or whose entry holds a different id.
 */
template <typename V>
class TokenSlab
{
  public:
    struct Entry
    {
        std::uint64_t id = 0;
        V value{};
        std::uint32_t gen = 0;
        /** Next free slot while free; kLive while in use. */
        std::uint32_t next = kLive;
    };

    std::size_t live() const { return live_; }

    std::uint32_t
    acquire(std::uint64_t id, V value)
    {
        if (freeHead_ == kNil) [[unlikely]]
            grow();
        const std::uint32_t slot = freeHead_;
        Entry &e = entries_[slot];
        freeHead_ = e.next;
        e.id = id;
        e.value = value;
        e.next = kLive;
        ++live_;
        return ((e.gen & kGenMask) << kSlotBits) | (slot + 1);
    }

    /** The live entry @p token names if it holds @p id, else null. */
    Entry *
    find(std::uint32_t token, std::uint64_t id)
    {
        const std::uint32_t slot = (token & kSlotMask) - 1;
        if (slot >= entries_.size())
            return nullptr;
        Entry &e = entries_[slot];
        if (e.next != kLive || (e.gen & kGenMask) != token >> kSlotBits ||
            e.id != id)
            return nullptr;
        return &e;
    }

    /** Whether @p token named an entry for @p id that has since been
     *  released and whose slot is still free (slow paths use it to
     *  tell a repeat from an unknown id). */
    bool
    retired(std::uint32_t token, std::uint64_t id) const
    {
        const std::uint32_t slot = (token & kSlotMask) - 1;
        if (slot >= entries_.size())
            return false;
        const Entry &e = entries_[slot];
        return e.next != kLive && e.id == id &&
            ((e.gen - 1) & kGenMask) == token >> kSlotBits;
    }

    /** Retire @p e (an entry find() returned). */
    void
    release(Entry &e)
    {
        ++e.gen;
        e.next = freeHead_;
        freeHead_ = static_cast<std::uint32_t>(&e - entries_.data());
        --live_;
    }

  private:
    static constexpr unsigned kSlotBits = 24;
    static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
    static constexpr std::uint32_t kGenMask = 0xffu;
    static constexpr std::uint32_t kNil = 0xffffffffu;
    static constexpr std::uint32_t kLive = 0xfffffffeu;

    /** Append one free slot (the free list is empty). */
    void grow();

    std::vector<Entry> entries_;
    std::uint32_t freeHead_ = kNil;
    std::size_t live_ = 0;
};

template <typename V>
void
TokenSlab<V>::grow()
{
    if (entries_.size() >= kSlotMask) [[unlikely]]
        sim::fatal("verify: more than 2^24 - 1 entries in flight in "
                   "one token slab");
    freeHead_ = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back().next = kNil;
}

class InvariantChecker
{
  public:
    explicit InvariantChecker(FailMode mode = FailMode::Panic);

    InvariantChecker(const InvariantChecker &) = delete;
    InvariantChecker &operator=(const InvariantChecker &) = delete;

    /** The checker installed on this thread (null = checking off). */
    static InvariantChecker *current() { return current_; }

    // -- event kernel ------------------------------------------------
    /** Firing an event at @p when with the clock at @p now must never
     *  move time backwards within the calendar's @p domain. Serial
     *  runs use a single domain 0; a PDES run tags the coordinator,
     *  array-phase and per-drive calendars with distinct domains,
     *  because their clocks legitimately interleave at horizons while
     *  each one stays monotonic on its own. */
    void
    checkKernelTime(std::uint32_t domain, sim::Tick now, sim::Tick when)
    {
        if (domain < kernelDomains_.size()) [[likely]] {
            KernelDomain &kd = kernelDomains_[domain];
            if (now <= when && kd.now <= when) [[likely]] {
                ++kd.observations;
                kd.now = when;
                return;
            }
        }
        checkKernelTimeSlow(domain, now, when);
    }

    /**
     * Pre-size the per-domain clock table / per-disk state so that a
     * PDES run's concurrent hooks never grow a vector under their
     * feet. Must be called before worker threads start observing.
     */
    void reserveDomains(std::uint32_t domains);
    void reserveDisks(std::uint32_t disks);

    // -- disk level --------------------------------------------------
    /** A request entered the drive; returns the token its completion
     *  must hand back. */
    std::uint32_t
    diskSubmit(std::uint32_t dev, std::uint64_t id, sim::Tick arrival,
               sim::Tick now)
    {
        if (dev < disks_.size()) [[likely]] {
            DiskState &d = disks_[dev];
            if (d.lastSeen <= now && arrival <= now) [[likely]] {
                ++d.observations;
                d.lastSeen = now;
                ++d.submits;
                return d.inFlight.acquire(id, now);
            }
        }
        return diskSubmitSlow(dev, id, arrival, now);
    }

    /** The copy of @p id that diskSubmit issued @p token for
     *  completed: exactly once, and no earlier than that copy's own
     *  submit tick plus @p min_service. */
    void
    diskComplete(std::uint32_t dev, std::uint64_t id,
                 std::uint32_t token, sim::Tick done,
                 sim::Tick min_service)
    {
        if (dev < disks_.size()) [[likely]] {
            DiskState &d = disks_[dev];
            if (d.lastSeen <= done) [[likely]] {
                DiskSlab::Entry *e = d.inFlight.find(token, id);
                if (e != nullptr && e->value + min_service <= done)
                    [[likely]] {
                    ++d.observations;
                    d.lastSeen = done;
                    ++d.completions;
                    d.inFlight.release(*e);
                    return;
                }
            }
        }
        diskCompleteSlow(dev, id, token, done, min_service);
    }

    /** Occupancy conservation: each in-flight request holds exactly
     *  one busy arm, and the motion/channel budgets are respected. */
    void
    checkDiskOccupancy(std::uint32_t dev, std::size_t in_flight,
                       std::uint32_t busy_arms, std::uint32_t total_arms,
                       std::uint32_t active_seeks,
                       std::uint32_t max_seeks,
                       std::uint32_t active_transfers,
                       std::uint32_t max_transfers)
    {
        if (dev < disks_.size() && in_flight == busy_arms &&
            busy_arms <= total_arms && active_seeks <= max_seeks &&
            active_transfers <= max_transfers) [[likely]] {
            ++disks_[dev].observations;
            return;
        }
        checkDiskOccupancySlow(dev, in_flight, busy_arms, total_arms,
                               active_seeks, max_seeks,
                               active_transfers, max_transfers);
    }

    /** The pure-seek lower bound must not exceed the exact
     *  seek+rotation positioning price (admissibility of the pruning
     *  bound and of the PDES dynamic-horizon seek floor). */
    void
    checkPositioningBound(std::uint32_t dev, sim::Tick lower_bound,
                          sim::Tick exact)
    {
        if (dev < disks_.size() && lower_bound <= exact) [[likely]] {
            ++disks_[dev].observations;
            return;
        }
        checkPositioningBoundSlow(dev, lower_bound, exact);
    }

    /** A completed access's maintained completion floor must not lie
     *  in the future of the actual completion tick. */
    void
    checkServiceBound(std::uint32_t dev, sim::Tick floor, sim::Tick done)
    {
        if (dev < disks_.size() && floor <= done) [[likely]] {
            ++disks_[dev].observations;
            return;
        }
        checkServiceBoundSlow(dev, floor, done);
    }

    // -- scheduler level ---------------------------------------------
    /** A sampled pruned-scan pick must equal the exhaustive pick. */
    void checkSchedChoice(const char *policy, std::uint32_t got_slot,
                          std::uint32_t got_arm,
                          std::uint32_t want_slot,
                          std::uint32_t want_arm);

    // -- array level -------------------------------------------------
    /** A logical request fanned out under @p join_id; returns the
     *  token the join's sub and join hooks must hand back. Join ids
     *  must increase while any join is in flight (the array issues
     *  them from a counter), which is how a reused id is caught. */
    std::uint32_t
    arraySplit(std::uint64_t join_id, sim::Tick arrival, sim::Tick now)
    {
        if (arrival <= now &&
            (joins_.live() == 0 || join_id > lastJoinId_)) [[likely]] {
            ++arrayObservations_;
            return openJoin(join_id);
        }
        return arraySplitSlow(join_id, arrival, now);
    }

    void
    arraySub(std::uint64_t join_id, std::uint32_t token)
    {
        ++arrayObservations_;
        if (JoinSlab::Entry *join = joins_.find(token, join_id))
            [[likely]] {
            ++join->value;
            return;
        }
        arraySubFailed(join_id, token);
    }

    void
    arraySubFinish(std::uint64_t join_id, std::uint32_t token,
                   sim::Tick done)
    {
        ++arrayObservations_;
        (void)done;
        JoinSlab::Entry *join = joins_.find(token, join_id);
        if (join != nullptr && join->value != 0) [[likely]] {
            --join->value;
            return;
        }
        arraySubFinishFailed(join_id);
    }

    void
    arrayJoin(std::uint64_t join_id, std::uint32_t token,
              sim::Tick arrival, sim::Tick done)
    {
        ++arrayObservations_;
        JoinSlab::Entry *join = joins_.find(token, join_id);
        if (join != nullptr && join->value == 0 && arrival <= done)
            [[likely]] {
            ++joinsCompleted_;
            joins_.release(*join);
            return;
        }
        arrayJoinSlow(join_id, token, join, arrival, done);
    }

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

    /** Hook invocations observed (cheap liveness probe for tests).
     *  Sums the owner-local counts; call once the run has stopped. */
    std::uint64_t observations() const;

  private:
    friend class VerifyScope;

    /** Per-copy disk entries: the value is the copy's submit tick. */
    using DiskSlab = TokenSlab<sim::Tick>;
    /** Per-join entries: the value is the outstanding sub count. */
    using JoinSlab = TokenSlab<std::uint32_t>;

    struct DiskState
    {
        /** One entry per copy in flight: one id can be on a disk more
         *  than once (RAID-5 RMW re-submits a join id; over a bus a
         *  join's stripe units reach one member at different ticks),
         *  and each copy's token names its own submit tick. */
        DiskSlab inFlight;
        std::uint64_t submits = 0;
        std::uint64_t completions = 0;
        /** Disk-hook invocations for this drive. */
        std::uint64_t observations = 0;
        sim::Tick lastSeen = 0;
    };

    /** One event-kernel domain's clock and its hook count. */
    struct KernelDomain
    {
        sim::Tick now = 0;
        std::uint64_t observations = 0;
    };

    static constinit inline thread_local InvariantChecker *current_ =
        nullptr;

    std::uint32_t
    openJoin(std::uint64_t join_id)
    {
        lastJoinId_ = join_id;
        ++joinsCreated_;
        return joins_.acquire(join_id, 0);
    }

    // Out-of-line slow paths: they redo the whole hook (growing the
    // per-disk / per-domain tables on first touch) and format any
    // violation.
    void checkKernelTimeSlow(std::uint32_t domain, sim::Tick now,
                             sim::Tick when);
    std::uint32_t diskSubmitSlow(std::uint32_t dev, std::uint64_t id,
                                 sim::Tick arrival, sim::Tick now);
    void diskCompleteSlow(std::uint32_t dev, std::uint64_t id,
                          std::uint32_t token, sim::Tick done,
                          sim::Tick min_service);
    void checkDiskOccupancySlow(std::uint32_t dev, std::size_t in_flight,
                                std::uint32_t busy_arms,
                                std::uint32_t total_arms,
                                std::uint32_t active_seeks,
                                std::uint32_t max_seeks,
                                std::uint32_t active_transfers,
                                std::uint32_t max_transfers);
    void checkPositioningBoundSlow(std::uint32_t dev,
                                   sim::Tick lower_bound,
                                   sim::Tick exact);
    void checkServiceBoundSlow(std::uint32_t dev, sim::Tick floor,
                               sim::Tick done);
    std::uint32_t arraySplitSlow(std::uint64_t join_id,
                                 sim::Tick arrival, sim::Tick now);
    void arraySubFailed(std::uint64_t join_id, std::uint32_t token);
    void arraySubFinishFailed(std::uint64_t join_id);
    void arrayJoinSlow(std::uint64_t join_id, std::uint32_t token,
                       JoinSlab::Entry *join, sim::Tick arrival,
                       sim::Tick done);

    void fail(const std::string &what);
    DiskState &disk(std::uint32_t dev);
    void touch(DiskState &d, std::uint32_t dev, sim::Tick now);

    FailMode mode_;
    /** Guards violations_ in Record mode: PDES drive workers may
     *  record concurrently. Panic mode dies on first fail instead. */
    std::mutex failMutex_;
    std::vector<std::string> violations_;
    /**
     * Hook counts live beside the state each hook's owner already
     * writes: per drive in DiskState, per kernel domain in
     * KernelDomain, and arrayObservations_ for the array and rebuild
     * hooks, which run only on the coordinator or array phase. No
     * counter is shared between PDES workers, so none needs a locked
     * add. Only checkSchedChoice has no owner (no dev); it runs in the
     * exhaustive oracle alone, so its relaxed atomic costs nothing on
     * the run path. Exact totals at any worker count are asserted by
     * tests/test_pdes.cc.
     */
    std::uint64_t arrayObservations_ = 0;
    std::atomic<std::uint64_t> schedObservations_{0};
    /** Indexed by dev (DiskDrive::telemetryId — dense array indices);
     *  grown on first touch serially, pre-sized by reserveDisks for
     *  PDES. Each drive's state is only touched from the calendar
     *  that owns the drive, so entries need no locks. */
    std::vector<DiskState> disks_;
    JoinSlab joins_;
    /** The latest split's join id (see arraySplit). */
    std::uint64_t lastJoinId_ = 0;
    std::uint64_t joinsCreated_ = 0;
    std::uint64_t joinsCompleted_ = 0;
    /** Spare writes seen per announced rebuild chunk. */
    std::unordered_map<std::uint64_t, std::uint32_t> rebuildWrites_;
    std::uint64_t rebuildChunks_ = 0;
    std::uint64_t rebuildSpareWrites_ = 0;
    /** Per-domain kernel clocks (see checkKernelTime). */
    std::vector<KernelDomain> kernelDomains_;
};

/** Installs a checker as this thread's current one (RAII). */
class VerifyScope
{
  public:
    explicit VerifyScope(InvariantChecker *checker)
        : prev_(InvariantChecker::current_)
    {
        InvariantChecker::current_ = checker;
    }
    ~VerifyScope() { InvariantChecker::current_ = prev_; }

    VerifyScope(const VerifyScope &) = delete;
    VerifyScope &operator=(const VerifyScope &) = delete;

  private:
    InvariantChecker *prev_;
};

} // namespace verify
} // namespace idp

#endif // IDP_VERIFY_INVARIANT_CHECKER_HH
