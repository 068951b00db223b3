#include "sim/event_queue.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"
#include "verify/verify.hh"

namespace idp {
namespace sim {

void
Simulator::reserveEvents(std::size_t events)
{
    slab_.reserve(events);
    freeSlots_.reserve(events);
    heap_.reserve(events);
}

std::uint32_t
Simulator::allocSlot()
{
    if (freeSlots_.empty()) {
        const std::uint32_t slot =
            static_cast<std::uint32_t>(slab_.size());
        slab_.emplace_back();
        return slot;
    }
    const std::uint32_t slot = freeSlots_.back();
    freeSlots_.pop_back();
    return slot;
}

void
Simulator::releaseSlot(std::uint32_t slot)
{
    Entry &entry = slab_[slot];
    entry.action.reset();
    ++entry.gen; // retires every id issued for this occupancy
    freeSlots_.push_back(slot);
}

void
Simulator::heapPush(HeapItem item)
{
    // 4-ary sift-up: parent of i is (i - 1) / 4. Percolate a hole up
    // instead of swapping — one copy per level, not three.
    heap_.push_back(item);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!itemBefore(item, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = item;
}

Simulator::HeapItem
Simulator::heapPopMin()
{
    const HeapItem top = heap_[0];
    const HeapItem tail = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0)
        return top;
    std::size_t i = 0;
    // 4-ary sift-down of a hole carrying the old tail: children of i
    // are 4i + 1 .. 4i + 4.
    while (true) {
        const std::size_t first = 4 * i + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        const std::size_t last = std::min(first + 4, n);
        for (std::size_t c = first + 1; c < last; ++c)
            if (itemBefore(heap_[c], heap_[best]))
                best = c;
        if (!itemBefore(heap_[best], tail))
            break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = tail;
    return top;
}

std::uint32_t
Simulator::prepareSlot(Tick when)
{
    simAssert(when >= now_, "Simulator::schedule: event scheduled in past");
    const std::uint32_t slot = allocSlot();
    Entry &entry = slab_[slot];
    entry.when = when;
    entry.seq = nextSeq_++;
    entry.cancelled = false;
    heapPush({when, entry.seq, slot});
    if (++pending_ > peakPending_)
        peakPending_ = pending_;
    return slot;
}

EventId
Simulator::schedule(Tick when, EventAction action)
{
    const std::uint32_t slot = prepareSlot(when);
    Entry &entry = slab_[slot];
    entry.action = std::move(action);
    return makeId(slot, entry.gen);
}

EventId
Simulator::scheduleAfter(Tick delta, EventAction action)
{
    return schedule(now_ + delta, std::move(action));
}

void
Simulator::cancel(EventId id)
{
    if (id == kInvalidEventId)
        return; // "no timer armed" sentinel; deliberately uncounted
    const std::uint64_t low = id & 0xffffffffULL;
    const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
    if (low == 0 || low > slab_.size()) {
        ++staleCancels_;
        return;
    }
    Entry &entry = slab_[static_cast<std::uint32_t>(low) - 1];
    if (entry.gen != gen || entry.cancelled) {
        // Fired, already cancelled, or the slot was recycled: the
        // handle is stale and the cancel is an exact no-op.
        ++staleCancels_;
        return;
    }
    entry.cancelled = true;
    entry.action.reset(); // release captured resources promptly
    --pending_;
    ++cancelledCount_;
}

bool
Simulator::step()
{
    while (!heap_.empty()) {
        const HeapItem top = heapPopMin();
        Entry &entry = slab_[top.slot];
        if (entry.cancelled) {
            releaseSlot(top.slot);
            continue;
        }
        simAssert(top.when >= now_,
                  "Simulator::step: time went backwards");
        verify::onEventFire(verifyDomain_, now_, top.when);
        // Move the action out and retire the slot before invoking:
        // the handler may schedule (growing the slab) or cancel its
        // own — now stale — id.
        EventAction action = std::move(entry.action);
        releaseSlot(top.slot);
        now_ = top.when;
        --pending_;
        ++fired_;
        action.invokeDestroy();
        return true;
    }
    return false;
}

void
Simulator::purgeCancelled()
{
    // step() discards cancelled tops lazily but then fires the first
    // *live* top unconditionally — so every horizon comparison below
    // must first strip cancelled entries off the heap top, or a live
    // event beyond the horizon could fire early.
    while (!heap_.empty() && slab_[heap_[0].slot].cancelled)
        releaseSlot(heapPopMin().slot);
}

Tick
Simulator::nextEventTimeSlow()
{
    purgeCancelled();
    return heap_.empty() ? kTickNever : heap_[0].when;
}

Tick
Simulator::runBefore(Tick horizon)
{
    while (nextEventTime() < horizon)
        step();
    return now_;
}

void
Simulator::advanceTo(Tick t)
{
    purgeCancelled();
    simAssert(heap_.empty() || heap_[0].when >= t,
              "Simulator::advanceTo: pending event behind the target "
              "time (synchronization horizon passed an undelivered "
              "event)");
    if (t > now_)
        now_ = t;
}

Tick
Simulator::run(Tick until)
{
    while (!heap_.empty()) {
        if (heap_[0].when > until) {
            now_ = until;
            return now_;
        }
        // step() lazily discards cancelled entries.
        step();
    }
    if (until != kTickNever && until > now_)
        now_ = until;
    return now_;
}

} // namespace sim
} // namespace idp
