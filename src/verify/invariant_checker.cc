#include "verify/verify.hh"

#include <cstdlib>
#include <cstring>
#include <sstream>

#include "sim/logging.hh"

namespace idp {
namespace verify {

bool
enabledFromEnv()
{
#if !IDP_VERIFY
    return false;
#else
    const char *env = std::getenv("IDP_VERIFY");
    if (env == nullptr)
        return true;
    return !(std::strcmp(env, "0") == 0 ||
             std::strcmp(env, "off") == 0 ||
             std::strcmp(env, "false") == 0);
#endif
}

InvariantChecker::InvariantChecker(FailMode mode) : mode_(mode) {}

void
InvariantChecker::fail(const std::string &what)
{
    if (mode_ == FailMode::Panic)
        sim::panic("invariant violated: " + what);
    // Record mode may be fed from concurrent PDES drive workers.
    std::lock_guard<std::mutex> lock(failMutex_);
    violations_.push_back(what);
}

void
InvariantChecker::reserveDomains(std::uint32_t domains)
{
    if (domains > kernelDomains_.size())
        kernelDomains_.resize(domains);
}

void
InvariantChecker::reserveDisks(std::uint32_t disks)
{
    if (disks > disks_.size())
        disks_.resize(disks);
}

InvariantChecker::DiskState &
InvariantChecker::disk(std::uint32_t dev)
{
    if (dev >= disks_.size())
        disks_.resize(dev + 1);
    return disks_[dev];
}

void
InvariantChecker::touch(DiskState &d, std::uint32_t dev, sim::Tick now)
{
    if (now < d.lastSeen) {
        std::ostringstream os;
        os << "disk " << dev << ": time ran backwards (" << d.lastSeen
           << " -> " << now << ")";
        fail(os.str());
    }
    d.lastSeen = now;
}

void
InvariantChecker::checkKernelTimeSlow(std::uint32_t domain,
                                      sim::Tick now, sim::Tick when)
{
    if (when < now) {
        std::ostringstream os;
        os << "event kernel: firing at " << when
           << " with the clock already at " << now;
        fail(os.str());
    }
    // Serial runs grow the table lazily (single-threaded); PDES runs
    // pre-size it with reserveDomains before workers start, and each
    // calendar's domain is written only from the thread running it.
    if (domain >= kernelDomains_.size())
        kernelDomains_.resize(domain + 1);
    KernelDomain &kd = kernelDomains_[domain];
    ++kd.observations;
    sim::Tick &domain_now = kd.now;
    if (when < domain_now) {
        std::ostringstream os;
        os << "event kernel: time ran backwards in domain " << domain
           << " (" << domain_now << " -> " << when << ")";
        fail(os.str());
    }
    domain_now = when;
}

std::uint32_t
InvariantChecker::diskSubmitSlow(std::uint32_t dev, std::uint64_t id,
                                 sim::Tick arrival, sim::Tick now)
{
    DiskState &d = disk(dev);
    ++d.observations;
    touch(d, dev, now);
    if (arrival > now) {
        std::ostringstream os;
        os << "disk " << dev << ": request " << id
           << " submitted before its arrival (" << arrival << " > "
           << now << ")";
        fail(os.str());
    }
    ++d.submits;
    return d.inFlight.acquire(id, now);
}

void
InvariantChecker::diskCompleteSlow(std::uint32_t dev, std::uint64_t id,
                                   std::uint32_t token, sim::Tick done,
                                   sim::Tick min_service)
{
    DiskState &d = disk(dev);
    ++d.observations;
    touch(d, dev, done);
    // A token whose slot is free, whose generation is stale or whose
    // entry holds another id names no copy of this request in flight.
    DiskSlab::Entry *e = d.inFlight.find(token, id);
    if (e == nullptr) {
        std::ostringstream os;
        os << "disk " << dev << ": request " << id
           << " completed more times than it was submitted";
        fail(os.str());
        return;
    }
    ++d.completions;
    // Causal against this copy's own submit, however many other
    // copies of the id are in flight.
    if (done < e->value + min_service) {
        std::ostringstream os;
        os << "disk " << dev << ": request " << id << " completed at "
           << done << ", before submit + minimum service ("
           << e->value + min_service << ")";
        fail(os.str());
    }
    d.inFlight.release(*e);
}

void
InvariantChecker::checkPositioningBoundSlow(std::uint32_t dev,
                                            sim::Tick lower_bound,
                                            sim::Tick exact)
{
    ++disk(dev).observations;
    if (lower_bound <= exact) [[likely]]
        return;
    std::ostringstream os;
    os << "disk " << dev << ": pure-seek lower bound " << lower_bound
       << " exceeds the exact positioning price " << exact
       << " -- pruning/horizon bound is inadmissible";
    fail(os.str());
}

void
InvariantChecker::checkServiceBoundSlow(std::uint32_t dev,
                                        sim::Tick floor, sim::Tick done)
{
    ++disk(dev).observations;
    if (floor <= done) [[likely]]
        return;
    std::ostringstream os;
    os << "disk " << dev << ": completion floor " << floor
       << " lies after the actual completion " << done
       << " -- dynamic-horizon bound is inadmissible";
    fail(os.str());
}

void
InvariantChecker::checkSchedChoice(const char *policy,
                                   std::uint32_t got_slot,
                                   std::uint32_t got_arm,
                                   std::uint32_t want_slot,
                                   std::uint32_t want_arm)
{
    schedObservations_.fetch_add(1, std::memory_order_relaxed);
    if (got_slot == want_slot && got_arm == want_arm)
        return;
    std::ostringstream os;
    os << "sched " << policy << ": pruned scan chose (slot "
       << got_slot << ", arm " << got_arm
       << ") but the exhaustive scan chooses (slot " << want_slot
       << ", arm " << want_arm
       << ") -- pruning bound or tie-break order is wrong";
    fail(os.str());
}

void
InvariantChecker::checkDiskOccupancySlow(
    std::uint32_t dev, std::size_t in_flight, std::uint32_t busy_arms,
    std::uint32_t total_arms, std::uint32_t active_seeks,
    std::uint32_t max_seeks, std::uint32_t active_transfers,
    std::uint32_t max_transfers)
{
    ++disk(dev).observations;
    if (in_flight == busy_arms && busy_arms <= total_arms &&
        active_seeks <= max_seeks &&
        active_transfers <= max_transfers) [[likely]]
        return;
    std::ostringstream os;
    if (in_flight != busy_arms) {
        os << "disk " << dev << ": " << in_flight
           << " in-flight requests but " << busy_arms
           << " busy arms (each access must hold exactly one arm)";
        fail(os.str());
    } else if (busy_arms > total_arms) {
        os << "disk " << dev << ": " << busy_arms
           << " busy arms exceed the " << total_arms << " configured";
        fail(os.str());
    } else if (active_seeks > max_seeks) {
        os << "disk " << dev << ": " << active_seeks
           << " concurrent seeks exceed the motion budget "
           << max_seeks;
        fail(os.str());
    } else if (active_transfers > max_transfers) {
        os << "disk " << dev << ": " << active_transfers
           << " concurrent transfers exceed the channel budget "
           << max_transfers;
        fail(os.str());
    }
}

std::uint32_t
InvariantChecker::arraySplitSlow(std::uint64_t join_id,
                                 sim::Tick arrival, sim::Tick now)
{
    ++arrayObservations_;
    if (arrival > now) {
        std::ostringstream os;
        os << "array: join " << join_id
           << " split before its arrival (" << arrival << " > " << now
           << ")";
        fail(os.str());
    }
    // Every live join id is at most lastJoinId_, so an id that does
    // not exceed it while joins are in flight may still be live.
    if (joins_.live() != 0 && join_id <= lastJoinId_) {
        std::ostringstream os;
        os << "array: join id " << join_id << " reused";
        fail(os.str());
        return kNoToken;
    }
    return openJoin(join_id);
}

void
InvariantChecker::arraySubFailed(std::uint64_t join_id,
                                 std::uint32_t token)
{
    std::ostringstream os;
    os << "array: sub-request issued for "
       << (joins_.retired(token, join_id) ? "already-joined" : "unknown")
       << " join " << join_id;
    fail(os.str());
}

void
InvariantChecker::arraySubFinishFailed(std::uint64_t join_id)
{
    std::ostringstream os;
    os << "array: sub-completion for join " << join_id
       << " with no outstanding sub-requests";
    fail(os.str());
}

void
InvariantChecker::arrayJoinSlow(std::uint64_t join_id,
                                std::uint32_t token,
                                JoinSlab::Entry *join, sim::Tick arrival,
                                sim::Tick done)
{
    if (join == nullptr) {
        std::ostringstream os;
        os << "array: join " << join_id << " completed "
           << (joins_.retired(token, join_id) ? "twice"
                                               : "without a split");
        fail(os.str());
        return;
    }
    if (join->value != 0) {
        std::ostringstream os;
        os << "array: join " << join_id << " completed with "
           << join->value << " sub-requests outstanding";
        fail(os.str());
    }
    if (done < arrival) {
        std::ostringstream os;
        os << "array: join " << join_id << " completed at " << done
           << ", before its arrival " << arrival;
        fail(os.str());
    }
    ++joinsCompleted_;
    joins_.release(*join);
}

void
InvariantChecker::arraySubRange(std::uint32_t dev, std::uint64_t lba,
                                std::uint32_t sectors,
                                std::uint64_t disk_sectors)
{
    ++arrayObservations_;
    std::ostringstream os;
    os << "array: sub-request [" << lba << ", " << lba + sectors
       << ") for disk " << dev << " lies beyond the member's "
       << disk_sectors << " sectors -- fan-out math lost a request";
    fail(os.str());
}

void
InvariantChecker::checkModeAccounting(std::uint32_t dev,
                                      const stats::ModeTimes &total,
                                      const stats::ModeTimes &seg_sum,
                                      std::uint32_t arms)
{
    ++disk(dev).observations;
    sim::Tick wall_sum = 0;
    for (sim::Tick w : total.wall)
        wall_sum += w;
    if (wall_sum != total.total) {
        std::ostringstream os;
        os << "disk " << dev << ": mode wall times sum to " << wall_sum
           << " ticks but total is " << total.total
           << " (mode attribution must tile the run)";
        fail(os.str());
    }
    const auto idle =
        total.wall[static_cast<std::size_t>(stats::DiskMode::Idle)];
    if (total.standbyTicks > idle) {
        std::ostringstream os;
        os << "disk " << dev << ": " << total.standbyTicks
           << " standby ticks exceed the " << idle
           << " idle ticks (standby must lie within idle)";
        fail(os.str());
    }
    if (total.parkedTicks >
        static_cast<sim::Tick>(arms) * total.total) {
        std::ostringstream os;
        os << "disk " << dev << ": parked-arm integral "
           << total.parkedTicks << " exceeds " << arms
           << " arms x total " << total.total;
        fail(os.str());
    }
    const bool segs_tile = seg_sum.total == total.total &&
        seg_sum.wall == total.wall &&
        seg_sum.vcmSeconds == total.vcmSeconds &&
        seg_sum.channelSeconds == total.channelSeconds &&
        seg_sum.standbyTicks == total.standbyTicks &&
        seg_sum.parkedTicks == total.parkedTicks;
    if (!segs_tile) {
        std::ostringstream os;
        os << "disk " << dev << ": RPM segments sum to "
           << seg_sum.total << " ticks vs total " << total.total
           << " (segments must tile the run field-for-field; drift at "
              "a transition boundary double-bills or drops energy)";
        fail(os.str());
    }
}

void
InvariantChecker::rebuildChunk(std::uint64_t chunk)
{
    ++arrayObservations_;
    auto [it, inserted] = rebuildWrites_.emplace(chunk, 0u);
    (void)it;
    if (!inserted) {
        std::ostringstream os;
        os << "rebuild: chunk " << chunk << " reconstructed twice";
        fail(os.str());
        return;
    }
    ++rebuildChunks_;
}

void
InvariantChecker::rebuildSpareWrite(std::uint64_t chunk)
{
    ++arrayObservations_;
    auto it = rebuildWrites_.find(chunk);
    if (it == rebuildWrites_.end()) {
        std::ostringstream os;
        os << "rebuild: spare write for unannounced chunk " << chunk;
        fail(os.str());
        return;
    }
    if (++it->second > 1) {
        std::ostringstream os;
        os << "rebuild: chunk " << chunk << " written to the spare "
           << it->second << " times (must be exactly once)";
        fail(os.str());
        return;
    }
    ++rebuildSpareWrites_;
}

std::uint64_t
InvariantChecker::observations() const
{
    std::uint64_t n = arrayObservations_ +
        schedObservations_.load(std::memory_order_relaxed);
    for (const DiskState &d : disks_)
        n += d.observations;
    for (const KernelDomain &kd : kernelDomains_)
        n += kd.observations;
    return n;
}

void
InvariantChecker::finalize()
{
    for (std::size_t dev = 0; dev < disks_.size(); ++dev) {
        const DiskState &d = disks_[dev];
        if (d.inFlight.live() != 0) {
            std::ostringstream os;
            os << "disk " << dev << ": " << d.inFlight.live()
               << " request id(s) never completed";
            fail(os.str());
        }
        if (d.submits != d.completions) {
            std::ostringstream os;
            os << "disk " << dev << ": " << d.submits
               << " submits vs " << d.completions << " completions";
            fail(os.str());
        }
    }
    if (joins_.live() != 0) {
        std::ostringstream os;
        os << "array: " << joins_.live() << " join(s) never completed";
        fail(os.str());
    }
    if (joinsCreated_ != joinsCompleted_) {
        std::ostringstream os;
        os << "array: " << joinsCreated_ << " splits vs "
           << joinsCompleted_ << " joins";
        fail(os.str());
    }
    // Rebuilt-stripe conservation: every announced chunk got exactly
    // one spare write (per-chunk over-writes fail at the hook; here
    // the under-write side closes the identity).
    if (rebuildChunks_ != rebuildSpareWrites_) {
        std::ostringstream os;
        os << "rebuild: " << rebuildChunks_ << " chunks vs "
           << rebuildSpareWrites_ << " spare writes";
        fail(os.str());
    }
    for (const auto &[chunk, writes] : rebuildWrites_) {
        if (writes == 1)
            continue;
        std::ostringstream os;
        os << "rebuild: chunk " << chunk << " saw " << writes
           << " spare writes (must be exactly one)";
        fail(os.str());
    }
}

} // namespace verify
} // namespace idp
