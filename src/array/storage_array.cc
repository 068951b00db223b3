#include "array/storage_array.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "array/array_bridge.hh"
#include "array/rebuild.hh"
#include "sim/logging.hh"
#include "telemetry/telemetry.hh"
#include "verify/verify.hh"

namespace idp {
namespace array {

StorageArray::StorageArray(sim::Simulator &simul,
                           const ArrayParams &params,
                           LogicalCompletionFn on_complete,
                           ArrayBridge *bridge)
    : sim_(simul), params_(params),
      onComplete_(std::move(on_complete)), bridge_(bridge)
{
    sim::simAssert(params_.disks >= 1, "array: needs at least one disk");
    if (params_.layout == Layout::Raid1)
        sim::simAssert(params_.disks % 2 == 0,
                       "array: Raid1 needs an even disk count");
    if (params_.layout == Layout::Raid5)
        sim::simAssert(params_.disks >= 3,
                       "array: Raid5 needs at least three disks");
    if (params_.layout == Layout::Concat)
        sim::simAssert(params_.disks == 1,
                       "array: Concat maps everything onto one disk");
    // A PDES run is open loop: a completion callback would submit new
    // work from the array phase, inside the current window.
    if (bridge_ != nullptr)
        sim::simAssert(onComplete_ == nullptr,
                       "array: completion callback is incompatible "
                       "with a PDES bridge");

    if (params_.useBus)
        bus_ = std::make_unique<bus::Bus>(
            bridge_ ? bridge_->arrayPhaseSim() : sim_, params_.bus);

    disks_.reserve(params_.disks);
    for (std::uint32_t i = 0; i < params_.disks; ++i) {
        disk::CompletionFn complete;
        if (bridge_) {
            // Drive completions are captured on the drive's worker and
            // replayed in (tick, drive, sequence) merge order later.
            complete = [this, i](const workload::IoRequest &req,
                                 sim::Tick done,
                                 const disk::ServiceInfo &info) {
                bridge_->complete(i, req, done, info);
            };
        } else {
            complete = [this, i](const workload::IoRequest &req,
                                 sim::Tick done,
                                 const disk::ServiceInfo &info) {
                onSubComplete(i, req, done, info);
            };
        }
        disks_.push_back(std::make_unique<disk::DiskDrive>(
            bridge_ ? bridge_->driveSim(i) : sim_, params_.drive,
            std::move(complete)));
        disks_.back()->setTelemetryId(i);
        // Independent spindles do not start a run rotationally
        // aligned: skew each member by the golden-ratio stride (a
        // low-discrepancy spacing at any member count). Member 0
        // keeps phase 0, so a single-drive array stays bit-identical
        // to a standalone drive. The skew is a pure function of the
        // member index — serial and conservative-engine runs build
        // identical arrays — and it removes the systematic same-tick
        // completion ties that perfectly aligned clone drives produce
        // on mirrored and parity fan-outs, where the cross-drive
        // completion order would otherwise be an accident of event-
        // queue insertion rather than physics.
        const double phase =
            static_cast<double>(i) * 0.61803398874989485;
        disks_.back()->setSpindlePhase(phase - std::floor(phase));
        if (bridge_ != nullptr)
            disks_.back()->trackCompletionBounds(true);
    }
    ctrLogical_ = telemetry::counterHandle("array.logical_requests");
    ctrSubs_ = telemetry::counterHandle("array.sub_requests");
    ctrSubClamped_ = telemetry::counterHandle("array.sub_clamped");
    ctrDroppedSubs_ =
        telemetry::counterHandle("array.dropped_sub_completions");
    ctrReplicaPriced_ =
        telemetry::counterHandle("array.replica_priced");
    ctrReplicaTies_ = telemetry::counterHandle("array.replica_ties");
    diskSectors_ = disks_[0]->geometry().totalSectors();
    failed_.assign(params_.disks, false);

    switch (params_.layout) {
      case Layout::PassThrough:
        logicalSectors_ = diskSectors_ * params_.disks;
        break;
      case Layout::Concat: {
        if (params_.deviceSectors.empty())
            params_.deviceSectors.push_back(diskSectors_);
        std::uint64_t off = 0;
        for (std::uint64_t s : params_.deviceSectors) {
            deviceOffsets_.push_back(off);
            off += s;
        }
        sim::simAssert(off <= diskSectors_,
                       "array: Concat devices exceed disk capacity");
        logicalSectors_ = off;
        break;
      }
      case Layout::Raid0:
        logicalSectors_ = diskSectors_ * params_.disks;
        break;
      case Layout::Raid1:
        logicalSectors_ = diskSectors_ * (params_.disks / 2);
        break;
      case Layout::Raid5:
        logicalSectors_ = diskSectors_ * (params_.disks - 1);
        break;
    }

    if (params_.governor.enabled) {
        // The governor mutates spindle speed at runtime. Under PDES
        // every governor control tick runs as a serial step (all
        // calendars advanced to the tick), so snapshots and
        // actuations see exactly the serial-run state.
        std::vector<disk::DiskDrive *> members;
        members.reserve(disks_.size());
        for (auto &d : disks_)
            members.push_back(d.get());
        governor_ = std::make_unique<power::Governor>(
            sim_, params_.governor, std::move(members));
    }
}

StorageArray::~StorageArray() = default;

const disk::DiskDrive &
StorageArray::diskAt(std::uint32_t i) const
{
    sim::simAssert(i < disks_.size(), "array: disk index out of range");
    return *disks_[i];
}

void
StorageArray::failDisk(std::uint32_t idx)
{
    sim::simAssert(idx < disks_.size(), "array: bad disk index");
    // Membership flips are visible to every calendar at once (the
    // drop-with-accounting check reads failed_ at replay time), so
    // under PDES they must land at a barrier-synchronized tick — use
    // scheduleFailDisk to register one.
    sim::simAssert(bridge_ == nullptr || bridge_->atSerialStep(),
                   "array: failDisk inside a conservative window "
                   "(schedule it through scheduleFailDisk)");
    sim::simAssert(params_.layout == Layout::Raid1 ||
                       params_.layout == Layout::Raid5,
                   "array: layout has no redundancy to degrade into");
    if (failed_[idx])
        return;
    if (params_.layout == Layout::Raid1) {
        const std::uint32_t mirror = idx ^ 1u;
        sim::simAssert(!failed_[mirror],
                       "array: Raid1 pair already lost");
    } else {
        std::uint32_t down = 0;
        for (bool f : failed_)
            down += f;
        sim::simAssert(down == 0,
                       "array: Raid5 tolerates a single failure");
    }
    failed_[idx] = true;
}

bool
StorageArray::diskFailed(std::uint32_t idx) const
{
    sim::simAssert(idx < disks_.size(), "array: bad disk index");
    return failed_[idx];
}

void
StorageArray::startRebuild(std::uint32_t idx,
                           const RebuildParams &params)
{
    sim::simAssert(idx < disks_.size(), "array: bad disk index");
    sim::simAssert(failed_[idx],
                   "array: rebuild target is not failed");
    sim::simAssert(rebuild_ == nullptr || rebuild_->done(),
                   "array: a rebuild is already running");
    sim::simAssert(bridge_ == nullptr || bridge_->atSerialStep(),
                   "array: startRebuild inside a conservative window "
                   "(schedule it through scheduleStartRebuild)");
    if (bridge_ != nullptr)
        bridge_->noteRebuildActive(true);
    rebuild_ = std::make_unique<RebuildEngine>(*this, idx, params);
    rebuild_->start();
}

void
StorageArray::scheduleFailDisk(std::uint32_t idx, sim::Tick at)
{
    sim::simAssert(idx < disks_.size(), "array: bad disk index");
    if (bridge_ != nullptr)
        bridge_->addBarrier(at);
    sim_.schedule(at, [this, idx] { failDisk(idx); });
}

void
StorageArray::scheduleStartRebuild(std::uint32_t idx, sim::Tick at,
                                   const RebuildParams &params)
{
    sim::simAssert(idx < disks_.size(), "array: bad disk index");
    if (bridge_ != nullptr)
        bridge_->addBarrier(at);
    RebuildParams copy = params;
    sim_.schedule(at, [this, idx, copy] { startRebuild(idx, copy); });
}

sim::Tick
StorageArray::driveCompletionBound(std::uint32_t idx,
                                   sim::Tick round_start)
{
    return disks_[idx]->completionBoundTicks(round_start);
}

sim::Tick
StorageArray::driveMinServiceFloor(std::uint32_t idx) const
{
    return disks_[idx]->minServiceFloorTicks();
}

void
StorageArray::completeRebuild(std::uint32_t idx)
{
    sim::simAssert(failed_[idx], "array: rebuilt member not failed");
    failed_[idx] = false;
    if (bridge_ != nullptr)
        bridge_->noteRebuildActive(false);
}

void
StorageArray::failMemberArm(std::uint32_t disk_idx, std::uint32_t arm)
{
    sim::simAssert(disk_idx < disks_.size(), "array: bad disk index");
    disks_[disk_idx]->failArm(arm);
}

bool
StorageArray::idle() const
{
    if (!joins_.empty())
        return false;
    for (const auto &d : disks_)
        if (!d->idle())
            return false;
    return true;
}

sim::Tick
StorageArray::tnow() const
{
    return bridge_ ? bridge_->now() : sim_.now();
}

void
StorageArray::submitSub(std::uint32_t disk_idx, workload::IoRequest sub,
                        std::uint64_t join_id, std::uint32_t verify_token)
{
    sub.id = join_id;
    sub.arrival = tnow();
    // An out-of-range sub-request means the fan-out math lost data:
    // that is a verify-layer violation (fatal under the default Panic
    // checker), not something to silently relocate. When the run
    // continues (Record mode, or checking disabled), pin the access
    // to the last in-range start so the drive still accepts it — the
    // old modulo even excluded the valid lba == diskSectors_ - sectors.
    if (sub.lba + sub.sectors > diskSectors_) {
        telemetry::bump(ctrSubClamped_);
        verify::onArraySubRange(disk_idx, sub.lba, sub.sectors,
                                diskSectors_);
        if (sub.sectors > diskSectors_)
            sub.sectors = static_cast<std::uint32_t>(diskSectors_);
        sub.lba = diskSectors_ - sub.sectors;
    }
    telemetry::bump(ctrSubs_);
    verify::onArraySub(join_id, verify_token);
    if (bus_ && !sub.isRead) {
        if (bridge_) {
            if (!bridge_->inArrayPhase()) {
                // Coordinator phase: stage the booking onto the
                // array-phase calendar so channel occupancy interleaves
                // with completion-driven transfers in global tick
                // order. Staged at tnow(), it gets a smaller sequence
                // than any same-tick completion replay scheduled later.
                bridge_->arrayPhaseSim().schedule(
                    tnow(), [this, disk_idx, sub] {
                        replayBusWrite(disk_idx, sub);
                    });
            } else {
                replayBusWrite(disk_idx, sub);
            }
            return;
        }
        // Writes move their data over the interconnect first.
        bus_->transfer(sub.bytes(), join_id, [this, disk_idx, sub] {
            disks_[disk_idx]->submit(sub);
        });
        return;
    }
    if (bridge_) {
        bridge_->deliver(disk_idx, sub, tnow());
        return;
    }
    disks_[disk_idx]->submit(sub);
}

void
StorageArray::replayBusWrite(std::uint32_t disk_idx,
                             const workload::IoRequest &sub)
{
    // The booked completion tick lies at least one lookahead window
    // ahead (bus minimum latency), so the inbox delivery is always
    // beyond the current horizon — no event needed on this calendar.
    const sim::Tick done = bus_->transferBooked(sub.bytes(), sub.id);
    bridge_->deliver(disk_idx, sub, done);
}

void
StorageArray::injectSub(std::uint32_t disk_idx,
                        const workload::IoRequest &sub)
{
    disks_[disk_idx]->submit(sub);
}

void
StorageArray::replaySubComplete(std::uint32_t disk_idx,
                                const workload::IoRequest &sub,
                                sim::Tick done,
                                const disk::ServiceInfo &info)
{
    onSubComplete(disk_idx, sub, done, info);
}

void
StorageArray::submit(const workload::IoRequest &req)
{
    ++stats_.logicalArrivals;
    telemetry::bump(ctrLogical_);
    if (governor_)
        governor_->noteActivity();
    // Fan-out marker; sub-request spans carry the join id instead of
    // the logical id, so the instant ties the two id spaces together.
    telemetry::emitInstant(req.id, telemetry::SpanKind::RaidSplit,
                           tnow(),
                           static_cast<std::uint32_t>(nextJoinId_));
    const std::uint64_t join_id = nextJoinId_++;
    const std::uint32_t token =
        verify::onArraySplit(join_id, req.arrival, tnow());
    Join join;
    join.logical = req;
    join.remaining = 0;
    join.verifyToken = token;

    switch (params_.layout) {
      case Layout::PassThrough: {
        sim::simAssert(req.device < params_.disks,
                       "array: device beyond PassThrough disk count");
        join.remaining = 1;
        joins_.emplace(join_id, std::move(join));
        submitSub(req.device, req, join_id, token);
        return;
      }
      case Layout::Concat: {
        sim::simAssert(req.device < deviceOffsets_.size(),
                       "array: device beyond Concat device table");
        workload::IoRequest sub = req;
        sub.lba = deviceOffsets_[req.device] + req.lba;
        sub.device = 0;
        join.remaining = 1;
        joins_.emplace(join_id, std::move(join));
        submitSub(0, sub, join_id, token);
        return;
      }
      case Layout::Raid0: {
        fanOutRaid0(req, join_id, join);
        return;
      }
      case Layout::Raid1: {
        // RAID-10: stripe across mirror pairs.
        const std::uint32_t pairs = params_.disks / 2;
        const std::uint64_t stripe = params_.stripeSectors;
        std::uint64_t lba = req.lba % logicalSectors_;
        std::uint32_t remaining = req.sectors;
        SubList subs = std::move(splitScratch_);
        while (remaining > 0) {
            const std::uint64_t stripe_idx = lba / stripe;
            const std::uint64_t in_stripe = lba % stripe;
            const std::uint32_t take = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(remaining, stripe - in_stripe));
            const std::uint32_t pair =
                static_cast<std::uint32_t>(stripe_idx % pairs);
            const std::uint64_t disk_lba =
                (stripe_idx / pairs) * stripe + in_stripe;
            workload::IoRequest sub = req;
            sub.lba = disk_lba;
            sub.sectors = take;
            const std::uint32_t a = pair * 2;
            const std::uint32_t b = pair * 2 + 1;
            if (req.isRead) {
                std::uint32_t pick;
                if (failed_[a])
                    pick = b;
                else if (failed_[b])
                    pick = a;
                else
                    pick = pickReplica(a, b, sub);
                subs.emplace_back(pick, sub);
            } else {
                if (!failed_[a])
                    subs.emplace_back(a, sub);
                if (!failed_[b])
                    subs.emplace_back(b, sub);
            }
            lba += take;
            remaining -= take;
        }
        issueJoin(join_id, join, std::move(subs));
        return;
      }
      case Layout::Raid5: {
        fanOutRaid5(req, join_id, join);
        return;
      }
    }
}

std::uint32_t
StorageArray::pickReplica(std::uint32_t a, std::uint32_t b,
                          const workload::IoRequest &sub)
{
    if (params_.replica == ReplicaPolicy::Queue) {
        // Legacy routing: shallower queue, round-robin on ties.
        if (disks_[a]->queueDepth() != disks_[b]->queueDepth())
            return disks_[a]->queueDepth() < disks_[b]->queueDepth()
                ? a
                : b;
        return (rrRead_++ % 2 == 0) ? a : b;
    }
    // Positioning-priced: ask each replica's drive what this read
    // would cost dispatched now (cheapest arm's seek + rotational
    // wait + transfer + backlog), and take the cheaper one. Prices
    // tie mostly on cold symmetric mirrors, where queue depth then
    // round-robin keep the choice deterministic.
    const sim::Tick pa = disks_[a]->readPriceTicks(sub.lba, sub.sectors);
    const sim::Tick pb = disks_[b]->readPriceTicks(sub.lba, sub.sectors);
    if (pa != pb) {
        telemetry::bump(ctrReplicaPriced_);
        return pa < pb ? a : b;
    }
    telemetry::bump(ctrReplicaTies_);
    if (disks_[a]->queueDepth() != disks_[b]->queueDepth())
        return disks_[a]->queueDepth() < disks_[b]->queueDepth() ? a
                                                                 : b;
    return (rrRead_++ % 2 == 0) ? a : b;
}

void
StorageArray::issueJoin(std::uint64_t join_id, Join &join, SubList subs)
{
    join.remaining = static_cast<std::uint32_t>(subs.size());
    const std::uint32_t token = join.verifyToken;
    joins_.emplace(join_id, std::move(join));
    for (auto &[idx, sub] : subs)
        submitSub(idx, sub, join_id, token);
    subs.clear();
    splitScratch_ = std::move(subs);
}

void
StorageArray::fanOutRaid0(const workload::IoRequest &req,
                          std::uint64_t join_id, Join &join)
{
    const std::uint64_t stripe = params_.stripeSectors;
    const std::uint32_t n = params_.disks;
    std::uint64_t lba = req.lba % logicalSectors_;
    std::uint32_t remaining = req.sectors;
    SubList subs = std::move(splitScratch_);
    while (remaining > 0) {
        const std::uint64_t stripe_idx = lba / stripe;
        const std::uint64_t in_stripe = lba % stripe;
        const std::uint32_t take = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(remaining, stripe - in_stripe));
        const std::uint32_t disk_idx =
            static_cast<std::uint32_t>(stripe_idx % n);
        workload::IoRequest sub = req;
        sub.lba = (stripe_idx / n) * stripe + in_stripe;
        sub.sectors = take;
        subs.emplace_back(disk_idx, sub);
        lba += take;
        remaining -= take;
    }
    issueJoin(join_id, join, std::move(subs));
}

void
StorageArray::fanOutRaid5(const workload::IoRequest &req,
                          std::uint64_t join_id, Join &join)
{
    const std::uint64_t stripe = params_.stripeSectors;
    const std::uint32_t n = params_.disks;
    const std::uint32_t data_disks = n - 1;
    std::uint64_t lba = req.lba % logicalSectors_;
    std::uint32_t remaining = req.sectors;

    SubList now_subs = std::move(splitScratch_);
    SubList deferred;

    while (remaining > 0) {
        const std::uint64_t stripe_idx = lba / stripe;
        const std::uint64_t in_stripe = lba % stripe;
        const std::uint32_t take = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(remaining, stripe - in_stripe));
        const std::uint64_t row = stripe_idx / data_disks;
        const std::uint32_t parity_disk =
            static_cast<std::uint32_t>(row % n);
        // d-th data unit of the row, skipping the parity disk.
        std::uint32_t d =
            static_cast<std::uint32_t>(stripe_idx % data_disks);
        std::uint32_t data_disk = d >= parity_disk ? d + 1 : d;
        const std::uint64_t disk_lba = row * stripe + in_stripe;

        workload::IoRequest data_sub = req;
        data_sub.lba = disk_lba;
        data_sub.sectors = take;

        if (req.isRead) {
            if (failed_[data_disk]) {
                // Degraded read: reconstruct from every surviving
                // member of the row (data peers + parity).
                for (std::uint32_t m = 0; m < n; ++m) {
                    if (m == data_disk || failed_[m])
                        continue;
                    workload::IoRequest peer = data_sub;
                    peer.isRead = true;
                    now_subs.emplace_back(m, peer);
                }
            } else {
                now_subs.emplace_back(data_disk, data_sub);
            }
        } else if (failed_[data_disk]) {
            // Degraded write, data member lost: regenerate parity by
            // reading the surviving data members, then writing parity.
            for (std::uint32_t m = 0; m < n; ++m) {
                if (m == data_disk || m == parity_disk || failed_[m])
                    continue;
                workload::IoRequest peer = data_sub;
                peer.isRead = true;
                now_subs.emplace_back(m, peer);
            }
            if (!failed_[parity_disk]) {
                workload::IoRequest wp = data_sub;
                wp.isRead = false;
                deferred.emplace_back(parity_disk, wp);
            }
        } else if (failed_[parity_disk]) {
            // Parity member lost: plain write of the data unit.
            now_subs.emplace_back(data_disk, data_sub);
        } else {
            // Read-modify-write: read old data and old parity first,
            // then write new data and new parity.
            workload::IoRequest rd = data_sub;
            rd.isRead = true;
            workload::IoRequest rp = data_sub;
            rp.isRead = true;
            now_subs.emplace_back(data_disk, rd);
            now_subs.emplace_back(parity_disk, rp);
            workload::IoRequest wp = data_sub;
            wp.isRead = false;
            deferred.emplace_back(data_disk, data_sub);
            deferred.emplace_back(parity_disk, wp);
        }
        lba += take;
        remaining -= take;
    }

    join.deferred = std::move(deferred);
    issueJoin(join_id, join, std::move(now_subs));
}

void
StorageArray::onSubComplete(std::uint32_t disk_idx,
                            const workload::IoRequest &sub,
                            sim::Tick done,
                            const disk::ServiceInfo &info)
{
    // Rebuild traffic bypasses the join machinery entirely: its ids
    // live in a disjoint space and the engine tracks its own
    // reads/spare writes. Routed before the failed-member check —
    // spare writes legitimately target the still-offline member.
    if (rebuild_ != nullptr && RebuildEngine::isRebuildId(sub.id)) {
        rebuild_->onSubComplete(disk_idx, sub, done, info);
        return;
    }
    // A sub-request that was already in flight when failDisk() fired
    // still completes mechanically, but the member is gone: drop the
    // completion with accounting. It resolves its join (conservation)
    // without feeding service statistics, and taints the join so the
    // logical response sample is not recorded as healthy service.
    const bool dropped = failed_[disk_idx];
    if (dropped) {
        ++stats_.droppedSubCompletions;
        telemetry::bump(ctrDroppedSubs_);
    }
    if (!info.cacheHit && !dropped) {
        const double rot_ms = sim::ticksToMs(info.rotTicks);
        stats_.rotMs.add(rot_ms);
        stats_.rotHist.add(rot_ms);
    }
    if (bus_ && sub.isRead) {
        // Read data returns to the host over the interconnect. Under
        // PDES this runs on the array-phase calendar (the bus's own),
        // so the event-ful transfer stays correct there too.
        const std::uint64_t join_id = sub.id;
        const std::uint64_t bytes = sub.bytes();
        bus_->transfer(bytes, join_id, [this, join_id, dropped] {
            finishSub(join_id, tnow(), dropped);
        });
        return;
    }
    finishSub(sub.id, done, dropped);
}

void
StorageArray::finishSub(std::uint64_t join_id, sim::Tick done,
                        bool tainted)
{
    auto it = joins_.find(join_id);
    sim::simAssert(it != joins_.end(), "array: completion for no join");
    Join &join = it->second;
    sim::simAssert(join.remaining > 0, "array: join underflow");
    verify::onArraySubFinish(join_id, join.verifyToken, done);
    --join.remaining;
    if (tainted)
        join.tainted = true;
    if (join.remaining > 0)
        return;

    if (!join.deferred.empty()) {
        auto deferred = std::move(join.deferred);
        join.deferred.clear();
        join.remaining = static_cast<std::uint32_t>(deferred.size());
        const std::uint32_t token = join.verifyToken;
        for (auto &[idx, sub] : deferred)
            submitSub(idx, sub, join_id, token);
        return;
    }

    const workload::IoRequest logical = join.logical;
    const bool join_tainted = join.tainted;
    const std::uint32_t token = join.verifyToken;
    joins_.erase(it);
    ++stats_.logicalCompletions;
    verify::onArrayJoin(join_id, token, logical.arrival, done);
    telemetry::emitSpan(logical.id, telemetry::SpanKind::RaidJoin,
                        logical.arrival, done,
                        static_cast<std::uint32_t>(join_id));
    if (join_tainted) {
        // The join completed, but part of its service happened on a
        // member that failed under it: count it, skip the sample.
        ++stats_.taintedJoins;
    } else {
        const double resp_ms = sim::ticksToMs(done - logical.arrival);
        stats_.responseMs.add(resp_ms);
        stats_.responseHist.add(resp_ms);
        if (governor_)
            governor_->onCompletion(resp_ms);
    }
    if (onComplete_)
        onComplete_(logical, done);
}

power::PowerBreakdown
StorageArray::finishPower()
{
    if (governor_)
        governor_->stop();
    power::PowerBreakdown total;
    for (auto &d : disks_) {
        power::PowerModel model(d->spec().power);
        // Per-RPM-segment integration: a governed drive is priced at
        // whatever speed each stretch of the run actually ran at. A
        // run that never shifts produces one segment and integrates
        // bit-identically to the historical whole-run path.
        total.merge(
            model.integrateSegments(d->finishModeSegments()));
    }
    return total;
}

stats::ModeTimes
StorageArray::modeTimesSnapshot() const
{
    stats::ModeTimes total;
    for (const auto &d : disks_)
        total.merge(d->modeTimesSnapshot());
    return total;
}

} // namespace array
} // namespace idp
