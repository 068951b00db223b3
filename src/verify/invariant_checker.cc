#include "verify/verify.hh"

#include <cstdlib>
#include <cstring>
#include <sstream>

#include "sim/logging.hh"

namespace idp {
namespace verify {

namespace {
thread_local InvariantChecker *t_current = nullptr;
} // namespace

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

InvariantChecker *
InvariantChecker::current()
{
    return t_current;
}

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
    if (domains > kernelNow_.size())
        kernelNow_.resize(domains, 0);
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
InvariantChecker::touch(std::uint32_t dev, sim::Tick now)
{
    DiskState &d = disk(dev);
    if (now < d.lastSeen) {
        std::ostringstream os;
        os << "disk " << dev << ": time ran backwards (" << d.lastSeen
           << " -> " << now << ")";
        fail(os.str());
    }
    d.lastSeen = now;
}

void
InvariantChecker::checkKernelTime(std::uint32_t domain, sim::Tick now,
                                  sim::Tick when)
{
    observations_.fetch_add(1, std::memory_order_relaxed);
    if (when < now) {
        std::ostringstream os;
        os << "event kernel: firing at " << when
           << " with the clock already at " << now;
        fail(os.str());
    }
    // Serial runs grow the table lazily (single-threaded); PDES runs
    // pre-size it with reserveDomains before workers start, and each
    // calendar's domain is written only from the thread running it.
    if (domain >= kernelNow_.size())
        kernelNow_.resize(domain + 1, 0);
    sim::Tick &domain_now = kernelNow_[domain];
    if (when < domain_now) {
        std::ostringstream os;
        os << "event kernel: time ran backwards in domain " << domain
           << " (" << domain_now << " -> " << when << ")";
        fail(os.str());
    }
    domain_now = when;
}

void
InvariantChecker::diskSubmit(std::uint32_t dev, std::uint64_t id,
                             sim::Tick arrival, sim::Tick now)
{
    observations_.fetch_add(1, std::memory_order_relaxed);
    touch(dev, now);
    if (arrival > now) {
        std::ostringstream os;
        os << "disk " << dev << ": request " << id
           << " submitted before its arrival (" << arrival << " > "
           << now << ")";
        fail(os.str());
    }
    DiskState &d = disk(dev);
    ++d.submits;
    OutstandingEntry &e = d.outstanding[id];
    ++e.count;
    // Completion must be causal vs. the latest submission of this id
    // (a join id can be legitimately re-submitted by RAID-5 RMW).
    e.lastSubmit = now;
}

void
InvariantChecker::diskComplete(std::uint32_t dev, std::uint64_t id,
                               sim::Tick done, sim::Tick min_service)
{
    observations_.fetch_add(1, std::memory_order_relaxed);
    touch(dev, done);
    DiskState &d = disk(dev);
    OutstandingEntry *e = d.outstanding.find(id);
    if (e == nullptr || e->count == 0) {
        std::ostringstream os;
        os << "disk " << dev << ": request " << id
           << " completed more times than it was submitted";
        fail(os.str());
        return;
    }
    ++d.completions;
    if (done < e->lastSubmit + min_service) {
        std::ostringstream os;
        os << "disk " << dev << ": request " << id << " completed at "
           << done << ", before submit + minimum service ("
           << e->lastSubmit + min_service << ")";
        fail(os.str());
    }
    if (--e->count == 0)
        d.outstanding.erase(id);
}

void
InvariantChecker::checkPositioningBound(std::uint32_t dev,
                                        sim::Tick lower_bound,
                                        sim::Tick exact)
{
    observations_.fetch_add(1, std::memory_order_relaxed);
    if (lower_bound <= exact) [[likely]]
        return;
    std::ostringstream os;
    os << "disk " << dev << ": pure-seek lower bound " << lower_bound
       << " exceeds the exact positioning price " << exact
       << " -- pruning/horizon bound is inadmissible";
    fail(os.str());
}

void
InvariantChecker::checkServiceBound(std::uint32_t dev, sim::Tick floor,
                                    sim::Tick done)
{
    observations_.fetch_add(1, std::memory_order_relaxed);
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
    observations_.fetch_add(1, std::memory_order_relaxed);
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
InvariantChecker::checkDiskOccupancy(
    std::uint32_t dev, std::size_t in_flight, std::uint32_t busy_arms,
    std::uint32_t total_arms, std::uint32_t active_seeks,
    std::uint32_t max_seeks, std::uint32_t active_transfers,
    std::uint32_t max_transfers)
{
    observations_.fetch_add(1, std::memory_order_relaxed);
    // Hot path: every dispatch and completion passes through here, so
    // the all-clear case must not touch streams or the heap.
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

void
InvariantChecker::arraySplit(std::uint64_t join_id, sim::Tick arrival,
                             sim::Tick now)
{
    observations_.fetch_add(1, std::memory_order_relaxed);
    if (arrival > now) {
        std::ostringstream os;
        os << "array: join " << join_id
           << " split before its arrival (" << arrival << " > " << now
           << ")";
        fail(os.str());
    }
    bool inserted = false;
    JoinState &join = joins_.findOrInsert(join_id, inserted);
    if (!inserted) {
        std::ostringstream os;
        os << "array: join id " << join_id << " reused";
        fail(os.str());
        return;
    }
    join.arrival = arrival;
    ++joinsCreated_;
}

void
InvariantChecker::arraySub(std::uint64_t join_id)
{
    observations_.fetch_add(1, std::memory_order_relaxed);
    JoinState *join = joins_.find(join_id);
    if (join == nullptr || join->joined) {
        std::ostringstream os;
        os << "array: sub-request issued for "
           << (join == nullptr ? "unknown" : "already-joined")
           << " join " << join_id;
        fail(os.str());
        return;
    }
    ++join->outstanding;
}

void
InvariantChecker::arraySubFinish(std::uint64_t join_id, sim::Tick done)
{
    observations_.fetch_add(1, std::memory_order_relaxed);
    (void)done;
    JoinState *join = joins_.find(join_id);
    if (join == nullptr || join->outstanding == 0) {
        std::ostringstream os;
        os << "array: sub-completion for join " << join_id
           << " with no outstanding sub-requests";
        fail(os.str());
        return;
    }
    --join->outstanding;
}

void
InvariantChecker::arrayJoin(std::uint64_t join_id, sim::Tick arrival,
                            sim::Tick done)
{
    observations_.fetch_add(1, std::memory_order_relaxed);
    JoinState *join = joins_.find(join_id);
    if (join == nullptr || join->joined) {
        std::ostringstream os;
        os << "array: join " << join_id << " completed "
           << (join == nullptr ? "without a split" : "twice");
        fail(os.str());
        return;
    }
    if (join->outstanding != 0) {
        std::ostringstream os;
        os << "array: join " << join_id << " completed with "
           << join->outstanding << " sub-requests outstanding";
        fail(os.str());
    }
    if (done < arrival) {
        std::ostringstream os;
        os << "array: join " << join_id << " completed at " << done
           << ", before its arrival " << arrival;
        fail(os.str());
    }
    join->joined = true;
    ++joinsCompleted_;
    joins_.erase(join_id);
}

void
InvariantChecker::arraySubRange(std::uint32_t dev, std::uint64_t lba,
                                std::uint32_t sectors,
                                std::uint64_t disk_sectors)
{
    observations_.fetch_add(1, std::memory_order_relaxed);
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
    observations_.fetch_add(1, std::memory_order_relaxed);
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
    observations_.fetch_add(1, std::memory_order_relaxed);
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
    observations_.fetch_add(1, std::memory_order_relaxed);
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

void
InvariantChecker::finalize()
{
    for (std::size_t dev = 0; dev < disks_.size(); ++dev) {
        const DiskState &d = disks_[dev];
        if (!d.outstanding.empty()) {
            std::ostringstream os;
            os << "disk " << dev << ": " << d.outstanding.size()
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
    if (!joins_.empty()) {
        std::ostringstream os;
        os << "array: " << joins_.size() << " join(s) never completed";
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

VerifyScope::VerifyScope(InvariantChecker *checker) : prev_(t_current)
{
    t_current = checker;
}

VerifyScope::~VerifyScope()
{
    t_current = prev_;
}

} // namespace verify
} // namespace idp
