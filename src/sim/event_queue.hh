/**
 * @file
 * Discrete-event queue and simulator driver.
 *
 * The simulator is a classic calendar of (tick, sequence, callback)
 * entries. The sequence number breaks ties deterministically in
 * scheduling order, so two events at the same tick always fire in the
 * order they were scheduled — a property several disk-model invariants
 * (e.g. "channel released before the next transfer is started") rely on.
 *
 * Storage layout: entries live by value in a slab with a free list
 * (zero steady-state allocations once the slab has grown to the run's
 * peak calendar pressure), and a 4-ary implicit heap of slim
 * (tick, seq, slot) items orders them. Event ids are generation-tagged
 * slot handles, so cancel() can tell a live entry from a fired,
 * cancelled, or recycled one exactly instead of guessing from a bare
 * sequence number.
 */

#ifndef IDP_SIM_EVENT_QUEUE_HH
#define IDP_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace idp {
namespace sim {

/** Callback type invoked when an event fires (inline up to 64 B). */
using EventAction = SmallFn;

/** Opaque handle identifying a scheduled event (for cancellation).
 *  Encodes (generation << 32) | (slab slot + 1); 0 is never issued. */
using EventId = std::uint64_t;

/** Sentinel returned for never-scheduled events. */
constexpr EventId kInvalidEventId = 0;

/**
 * Deterministic discrete-event simulator.
 *
 * Usage:
 * @code
 *   Simulator simul;
 *   simul.schedule(msToTicks(1), [&]{ ... });
 *   simul.run();
 * @endcode
 */
class Simulator
{
  public:
    Simulator() = default;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p action to fire at absolute time @p when.
     * Scheduling in the past (when < now) is a simulator bug and panics.
     * @return a handle usable with cancel().
     */
    EventId schedule(Tick when, EventAction action);

    /**
     * Fast path for plain callables: the handler is constructed in
     * place inside the calendar slab, skipping the type-erased move a
     * SmallFn round-trip would cost.
     */
    template <typename Fn,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<Fn>, EventAction> &&
                  std::is_invocable_r_v<void, std::decay_t<Fn> &>>>
    EventId
    schedule(Tick when, Fn &&fn)
    {
        const std::uint32_t slot = prepareSlot(when);
        Entry &entry = slab_[slot];
        entry.action.emplace(std::forward<Fn>(fn));
        return makeId(slot, entry.gen);
    }

    /** Schedule @p action @p delta ticks from now. */
    EventId scheduleAfter(Tick delta, EventAction action);

    /** Fast-path variant of scheduleAfter (see schedule above). */
    template <typename Fn,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<Fn>, EventAction> &&
                  std::is_invocable_r_v<void, std::decay_t<Fn> &>>>
    EventId
    scheduleAfter(Tick delta, Fn &&fn)
    {
        return schedule(now_ + delta, std::forward<Fn>(fn));
    }

    /**
     * Cancel a previously scheduled event. Cancelling an event that
     * has already fired (or was already cancelled) is a counted no-op:
     * the generation tag rejects the stale handle exactly, pending()
     * stays truthful, and staleCancels() records the attempt.
     */
    void cancel(EventId id);

    /** Number of pending (non-cancelled) events. */
    std::size_t pendingEvents() const { return pending_; }

    /**
     * Pre-reserve calendar storage for @p events concurrent entries.
     * The slab grows to peak pressure on demand either way; a
     * long-lived serving loop that knows its steady calendar load
     * reserves up front so the measured window never reallocates.
     */
    void reserveEvents(std::size_t events);

    /**
     * Run until the event queue drains or @p until is reached
     * (events at exactly @p until still fire).
     * @return the final simulated time.
     */
    Tick run(Tick until = kTickNever);

    /**
     * Fire every event strictly before @p horizon and stop, leaving
     * the clock at the last fired event (no fast-forward). This is
     * the conservative-window primitive of the PDES engine: a drive
     * simulates ahead to the horizon, but its clock never overshoots
     * real activity, so a cross-drive delivery at any tick >= now()
     * can still be accepted with advanceTo().
     * @return the final simulated time.
     */
    Tick runBefore(Tick horizon);

    /**
     * Move the clock forward to @p t without firing anything. Panics
     * if a pending event lies behind @p t — the structural guarantee
     * that a synchronization horizon never passes an unreceived
     * cross-drive event (the delivery would arrive in this calendar's
     * past).
     */
    void advanceTo(Tick t);

    /** Tick of the earliest pending event (kTickNever when drained).
     *  Lazily discards cancelled entries sitting on the heap top; the
     *  common live-top case is inline (PDES rounds poll it often). */
    Tick
    nextEventTime()
    {
        if (heap_.empty())
            return kTickNever;
        if (!slab_[heap_[0].slot].cancelled) [[likely]]
            return heap_[0].when;
        return nextEventTimeSlow();
    }

    /**
     * Tag this calendar for the invariant checker's per-domain clock
     * monotonicity tracking. Serial runs keep the default domain 0;
     * the PDES engine gives the coordinator, the array-phase clock
     * and every drive their own domain, since their clocks interleave
     * legitimately at a synchronization horizon.
     */
    void setVerifyDomain(std::uint32_t domain) { verifyDomain_ = domain; }
    std::uint32_t verifyDomain() const { return verifyDomain_; }

    /** Fire at most one pending event. @return false if queue was empty. */
    bool step();

    /** Total number of events fired since construction. */
    std::uint64_t eventsFired() const { return fired_; }

    /** High-water mark of pending events (calendar pressure). */
    std::size_t peakPending() const { return peakPending_; }

    /** Total events cancelled since construction. */
    std::uint64_t eventsCancelled() const { return cancelledCount_; }

    /**
     * Cancel calls that named an already-fired, already-cancelled, or
     * recycled id (each was a no-op). Cancelling kInvalidEventId is
     * the idiomatic "no timer armed" case and is not counted.
     */
    std::uint64_t staleCancels() const { return staleCancels_; }

  private:
    struct Entry
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        /** Bumped each time the slot is released; tags issued ids. */
        std::uint32_t gen = 1;
        bool cancelled = false;
        EventAction action;
    };

    /** Slim heap item: entries themselves never move in the slab. */
    struct HeapItem
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    static bool
    itemBefore(const HeapItem &a, const HeapItem &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    static EventId
    makeId(std::uint32_t slot, std::uint32_t gen)
    {
        return (static_cast<EventId>(gen) << 32) |
            (static_cast<EventId>(slot) + 1);
    }

    std::uint32_t allocSlot();
    /** Shared schedule prologue: slot, heap entry, pending counters. */
    std::uint32_t prepareSlot(Tick when);
    void releaseSlot(std::uint32_t slot);
    /** Pop cancelled entries off the heap top (lazy-cancel cleanup). */
    void purgeCancelled();
    /** nextEventTime when the heap top is cancelled. */
    Tick nextEventTimeSlow();
    void heapPush(HeapItem item);
    HeapItem heapPopMin();

    Tick now_ = 0;
    std::uint32_t verifyDomain_ = 0;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t fired_ = 0;
    std::uint64_t cancelledCount_ = 0;
    std::uint64_t staleCancels_ = 0;
    std::size_t pending_ = 0;
    std::size_t peakPending_ = 0;
    /** Slot-stable entry pool; grows to peak pressure, then reused. */
    std::vector<Entry> slab_;
    std::vector<std::uint32_t> freeSlots_;
    /** 4-ary min-heap on (when, seq); holds live + cancelled slots. */
    std::vector<HeapItem> heap_;
};

} // namespace sim
} // namespace idp

#endif // IDP_SIM_EVENT_QUEUE_HH
