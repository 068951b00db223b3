#include "disk/disk_drive.hh"

#include <algorithm>
#include <functional>

#include "sim/logging.hh"
#include "verify/verify.hh"

namespace idp {
namespace disk {

DiskDrive::DiskDrive(sim::Simulator &simul, const DriveSpec &spec,
                     CompletionFn on_complete)
    : sim_(simul),
      spec_(spec),
      geometry_(geom::DiskGeometry::build(spec.geometry)),
      seekModel_([&spec, this] {
          mech::SeekParams p = spec.seek;
          p.cylinders = geometry_.cylinders();
          return p;
      }()),
      spindle_(spec.rpm),
      cache_(spec.cache),
      scheduler_(sched::makeScheduler(spec.sched)),
      onComplete_(std::move(on_complete))
{
    spec_.normalize();
    const std::uint32_t n = spec_.dash.armAssemblies;
    sim::simAssert(spec_.armAzimuths.empty() ||
                       spec_.armAzimuths.size() == n,
                   "disk: armAzimuths must match the actuator count");
    arms_.resize(n);
    for (std::uint32_t k = 0; k < n; ++k) {
        arms_[k].azimuth = spec_.armAzimuths.empty()
            ? armAzimuth(k, n)
            : spec_.armAzimuths[k];
        arms_[k].cylinder =
            static_cast<std::uint32_t>(static_cast<std::uint64_t>(k) *
                                       geometry_.cylinders() / n);
    }
    stats_.armAccesses.assign(n, 0);
    ctrMediaAccesses_ = telemetry::counterHandle("disk.media_accesses");
    ctrCacheHits_ = telemetry::counterHandle("disk.cache_hits");
    ctrChannelBlocks_ = telemetry::counterHandle("disk.channel_blocks");
    ctrZeroLatHits_ = telemetry::counterHandle("disk.zero_latency_hits");
    ctrSpinUps_ = telemetry::counterHandle("disk.spin_ups");
    headSwitchTicks_ = sim::msToTicks(spec_.headSwitchMs);
    controllerTicks_ = sim::msToTicks(spec_.controllerOverheadMs);
    faultRng_ = sim::Rng(spec_.faultSeed);
    window_.reserve(spec_.schedWindow);
    idleArms_.reserve(n);
    fgList_.index.configure(geometry_.cylinders());
    bgList_.index.configure(geometry_.cylinders());
    // FCFS keys on age alone — nothing for a cylinder index to
    // prune — so it keeps the materialized exhaustive path.
    schedIndexed_ = spec_.schedPrune && sched::pruneEnabledFromEnv() &&
        spec_.sched.policy != sched::Policy::Fcfs;
    oracle_ = [this](const sched::PendingView &r,
                     const sched::ArmView &a) {
        return cachedPositioning(r, a);
    };
    estServiceTicks_ = seekLbTicks(geometry_.cylinders() / 3) +
        spindle_.periodTicks() / 2;
    desiredRpm_ = spec_.rpm;
    // The geometry builder tapers sectors/track linearly from the
    // outermost zone inward, so cylinder 0 carries the densest track
    // (the fastest one-sector sweep the drive can ever do).
    maxSpt_ = geometry_.sectorsPerTrack(0);
    busOneSectorTicks_ = busTicks(1);
    // With a channel per arm no access ever waits for the channel, and
    // without zero-latency reads the transfer length is fixed at
    // dispatch, so the whole service time is known then.
    exactFloorConfig_ = !spec_.zeroLatencyAccess &&
        spec_.maxConcurrentTransfers >= n;
    refreshServiceFloors();
}

sim::Tick
DiskDrive::readPriceTicks(geom::Lba lba, std::uint32_t sectors) const
{
    sim::simAssert(lba + sectors <= geometry_.totalSectors(),
                   "readPriceTicks: request beyond disk capacity");
    const geom::Chs chs = geometry_.lbaToChs(lba);
    const double angle = geometry_.sectorAngle(chs);
    const sim::Tick now = sim_.now();
    sim::Tick best = sim::kTickNever;
    for (std::uint32_t k = 0;
         k < static_cast<std::uint32_t>(arms_.size()); ++k) {
        if (arms_[k].failed || arms_[k].parked)
            continue;
        const std::uint32_t cyl = arms_[k].cylinder;
        const std::uint32_t dist =
            cyl > chs.cylinder ? cyl - chs.cylinder : chs.cylinder - cyl;
        const sim::Tick seek = seekLbTicks(dist);
        const sim::Tick rot = armRotWaitAngle(now + seek, angle, k);
        best = std::min(best, seek + rot);
    }
    sim::simAssert(best != sim::kTickNever,
                   "readPriceTicks: no healthy arm");
    const std::uint64_t backlog = queueDepth() + activeCount_;
    return best + transferTicks(chs, sectors) +
        static_cast<sim::Tick>(backlog) * estServiceTicks_;
}

std::uint32_t
DiskDrive::armCylinder(std::uint32_t k) const
{
    sim::simAssert(k < arms_.size(), "armCylinder: bad arm index");
    return arms_[k].cylinder;
}

void
DiskDrive::failArm(std::uint32_t k)
{
    sim::simAssert(k < arms_.size(), "failArm: bad arm index");
    sim::simAssert(aliveArms() > 1 || arms_[k].failed,
                   "failArm: cannot deconfigure the last healthy arm");
    arms_[k].failed = true;
}

std::uint32_t
DiskDrive::aliveArms() const
{
    std::uint32_t alive = 0;
    for (const auto &arm : arms_)
        if (!arm.failed)
            ++alive;
    return alive;
}

void
DiskDrive::parkArm(std::uint32_t k)
{
    sim::simAssert(k < arms_.size(), "parkArm: bad arm index");
    Arm &arm = arms_[k];
    sim::simAssert(!arm.failed, "parkArm: arm is deconfigured");
    sim::simAssert(!arm.busy, "parkArm: arm is mid-service");
    if (arm.parked)
        return;
    std::uint32_t serviceable = 0;
    for (const auto &a : arms_)
        if (!a.failed && !a.parked)
            ++serviceable;
    sim::simAssert(serviceable > 1,
                   "parkArm: cannot park the last serviceable arm");
    arm.parked = true;
    ++stats_.armParks;
    modes_.armParked(sim_.now());
}

void
DiskDrive::unparkArm(std::uint32_t k)
{
    sim::simAssert(k < arms_.size(), "unparkArm: bad arm index");
    Arm &arm = arms_[k];
    if (!arm.parked)
        return;
    arm.parked = false;
    ++stats_.armUnparks;
    modes_.armUnparked(sim_.now());
    tryDispatch();
}

std::uint32_t
DiskDrive::parkedArms() const
{
    std::uint32_t parked = 0;
    for (const auto &arm : arms_)
        if (arm.parked)
            ++parked;
    return parked;
}

bool
DiskDrive::armParked(std::uint32_t k) const
{
    sim::simAssert(k < arms_.size(), "armParked: bad arm index");
    return arms_[k].parked;
}

bool
DiskDrive::armBusy(std::uint32_t k) const
{
    sim::simAssert(k < arms_.size(), "armBusy: bad arm index");
    return arms_[k].busy;
}

void
DiskDrive::requestRpm(std::uint32_t rpm)
{
    sim::simAssert(rpm > 0, "requestRpm: rpm must be > 0");
    if (rpm == desiredRpm_)
        return;
    desiredRpm_ = rpm;
    refreshServiceFloors();
    maybeStartRpmShift();
}

void
DiskDrive::maybeStartRpmShift()
{
    if (rpmShifting_ || spinningDown_ || spinningUp_ ||
        desiredRpm_ == spindle_.rpm())
        return;
    if (modes_.spunDown()) {
        // The spindle is stopped: record the new speed now at no ramp
        // cost — the upcoming spin-up pays the acceleration either
        // way. The segment change keeps standby billing correct (a
        // stopped spindle draws no speed-dependent power).
        applyRpm(sim_.now(), desiredRpm_);
        return;
    }
    if (activeCount_ != 0)
        return; // drain first; completeActive retries
    sim_.cancel(idleTimer_);
    idleTimer_ = sim::kInvalidEventId;
    rpmShifting_ = true;
    shiftTo_ = desiredRpm_;
    refreshServiceFloors();
    ++stats_.rpmShifts;
    // The ramp is billed at the higher of the two speeds: open a
    // transition segment now, closed again when the new speed lands.
    modes_.rpmChange(sim_.now(),
                     std::max(spindle_.rpm(), shiftTo_));
    // The ramp nominally takes rpmShiftMs, but the drive re-enters
    // service only when the servo confirms the new speed at the next
    // index-mark pass. Snapping the end to a rotation boundary also
    // keeps ramp completions off the exact millisecond grid where
    // control-loop and arrival events live (a rotation period is
    // never an integral ms), so a ramp end cannot systematically
    // share a tick with a governor decision.
    const sim::Tick nominal = sim::msToTicks(spec_.rpmShiftMs);
    const sim::Tick ramp = nominal +
        spindle_.waitFor(sim_.now() + nominal, 0.0, 0.0);
    telemetry::emitSpan(0, telemetry::SpanKind::SpinUp, sim_.now(),
                        sim_.now() + ramp, telemetryId_);
    sim_.scheduleAfter(ramp, [this] { completeRpmShift(); });
}

void
DiskDrive::completeRpmShift()
{
    rpmShifting_ = false;
    applyRpm(sim_.now(), shiftTo_); // refreshes the service floors
    // The governor may have retargeted mid-ramp.
    maybeStartRpmShift();
    tryDispatch();
    maybeDestage();
    armIdleTimer();
}

void
DiskDrive::applyRpm(sim::Tick now, std::uint32_t rpm)
{
    spindle_.setRpm(now, rpm);
    modes_.rpmChange(now, rpm);
    // Re-derive every period-derived constant cached across the run.
    estServiceTicks_ = seekLbTicks(geometry_.cylinders() / 3) +
        spindle_.periodTicks() / 2;
    refreshServiceFloors();
    // Positioning-cost cache: the rotational halves were computed
    // under the old period (and the seek halves are cheap) — drop
    // everything rather than reason about which rows survive.
    for (auto &e : costCache_) {
        e.seekValid = false;
        e.rotValid = false;
    }
}

sim::Tick
DiskDrive::busTicks(std::uint32_t sectors) const
{
    const double bytes =
        static_cast<double>(sectors) * geom::kSectorBytes;
    const double secs = bytes / (spec_.busMBps * 1e6);
    return controllerTicks_ + sim::secondsToTicks(secs);
}

void
DiskDrive::refreshServiceFloors()
{
    const std::uint32_t s_par =
        std::max<std::uint32_t>(1, spec_.dash.surfaces);
    // Fastest RPM reachable without a new governor decision (which
    // only lands at a serial synchronization point): ramps start only
    // with no access in flight, so in-flight floors priced at the
    // current speed stay exact, while queued-work floors must assume
    // the pending or in-flight ramp lands first.
    const std::uint32_t cur = spindle_.rpm();
    std::uint32_t fast = std::max(cur, desiredRpm_);
    if (rpmShifting_)
        fast = std::max(fast, shiftTo_);
    sim::Tick sweep =
        spindle_.sweepTicks(1.0 / static_cast<double>(maxSpt_));
    if (fast > cur) {
        // Rescale the current-period sweep to the faster speed; shave
        // a tick to absorb the rounding and stay admissible.
        sweep = static_cast<sim::Tick>(static_cast<double>(sweep) *
                                       cur / fast);
        if (sweep > 0)
            --sweep;
    }
    minTransferFloor_ = controllerTicks_ + sweep / s_par;
    // A fresh delivery either returns from the cache (buffer-bus
    // path, RPM-independent) or goes to media.
    minServiceFloor_ = std::min(busOneSectorTicks_, minTransferFloor_);
}

void
DiskDrive::noteHitBound(sim::Tick done)
{
    // Entries behind the drive clock have fired. Dropping them here
    // keeps the heap at O(outstanding hits) however rarely the
    // horizon queries it.
    while (!hitHeap_.empty() && hitHeap_.front() < sim_.now()) {
        std::pop_heap(hitHeap_.begin(), hitHeap_.end(),
                      std::greater<sim::Tick>());
        hitHeap_.pop_back();
    }
    hitHeap_.push_back(done);
    std::push_heap(hitHeap_.begin(), hitHeap_.end(),
                   std::greater<sim::Tick>());
}

sim::Tick
DiskDrive::completionBoundTicks(sim::Tick round_start)
{
    while (!hitHeap_.empty() && hitHeap_.front() < round_start) {
        std::pop_heap(hitHeap_.begin(), hitHeap_.end(),
                      std::greater<sim::Tick>());
        hitHeap_.pop_back();
    }
    sim::Tick bound =
        hitHeap_.empty() ? sim::kTickNever : hitHeap_.front();
    const sim::Tick xfer_floor = minTransferFloor_;
    for (const Active &a : activePool_) {
        // Destage traffic completes drive-internally; any foreground
        // work it unblocks is covered by the queued-work floor.
        if (!a.inUse || a.internal)
            continue;
        sim::Tick floor = std::max(a.doneFloor, round_start);
        if (a.phase == Phase::ChannelWait)
            // The floor set at rotation start may be long past for a
            // blocked access; after it wakes it still re-waits and
            // transfers, so one minimum transfer from now is safe.
            floor = std::max(floor, round_start + xfer_floor);
        bound = std::min(bound, floor);
    }
    // Queued requests are cache misses (hits complete at submit), so
    // the tighter media floor applies: any dispatch happens at or
    // after round_start (the global minimum pending activity).
    if (fgList_.size != 0 || bgList_.size != 0)
        bound = std::min(bound, round_start + xfer_floor);
    return bound;
}

sim::Tick
DiskDrive::scaledSeek(std::uint32_t from, std::uint32_t to,
                      bool is_write) const
{
    const std::uint32_t dist = from > to ? from - to : to - from;
    const sim::Tick raw = seekModel_.seekTicks(dist, is_write);
    return static_cast<sim::Tick>(static_cast<double>(raw) *
                                  spec_.seekScale);
}

sim::Tick
DiskDrive::seekLbTicks(std::uint32_t dist) const
{
    if (dist == 0)
        return 0;
    // Read seek at that distance: admissible because a write seek
    // only adds settle time and the rotational wait is >= 0, and
    // monotone because the seek curve is.
    const sim::Tick raw = seekModel_.seekTicks(dist, false);
    return static_cast<sim::Tick>(static_cast<double>(raw) *
                                  spec_.seekScale);
}

sim::Tick
DiskDrive::scaledRotWait(sim::Tick at, const geom::Chs &chs,
                         double azimuth) const
{
    return scaledRotWaitAngle(at, geometry_.sectorAngle(chs), azimuth);
}

sim::Tick
DiskDrive::scaledRotWaitAngle(sim::Tick at, double angle,
                              double azimuth) const
{
    const sim::Tick raw = spindle_.waitFor(at, angle, azimuth);
    return static_cast<sim::Tick>(static_cast<double>(raw) *
                                  spec_.rotScale);
}

sim::Tick
DiskDrive::armRotWait(sim::Tick at, const geom::Chs &chs,
                      std::uint32_t arm_index) const
{
    return armRotWaitAngle(at, geometry_.sectorAngle(chs), arm_index);
}

sim::Tick
DiskDrive::armRotWaitAngle(sim::Tick at, double angle,
                           std::uint32_t arm_index) const
{
    const std::uint32_t heads = spec_.dash.headsPerArm;
    const double base = arms_[arm_index].azimuth;
    if (heads <= 1)
        return scaledRotWaitAngle(at, angle, base);
    // Heads on one arm are staggered so the combined head set of the
    // whole drive covers the circumference evenly.
    const double spacing =
        1.0 / (static_cast<double>(arms_.size()) * heads);
    sim::Tick best = scaledRotWaitAngle(at, angle, base);
    for (std::uint32_t j = 1; j < heads; ++j) {
        const sim::Tick w =
            scaledRotWaitAngle(at, angle, base + j * spacing);
        if (w < best)
            best = w;
    }
    return best;
}

sim::Tick
DiskDrive::transferTicks(const geom::Chs &start,
                         std::uint32_t sectors) const
{
    const std::uint32_t surfaces = geometry_.surfaces();
    const std::uint32_t last_cyl = geometry_.cylinders() - 1;
    sim::Tick ticks = 0;
    geom::Chs cur = start;
    std::uint32_t remaining = sectors;
    while (remaining > 0) {
        const geom::Zone &zone = geometry_.zoneOfCylinder(cur.cylinder);
        const std::uint32_t spt = zone.sectorsPerTrack;
        if (cur.sector == 0 && remaining > spt) {
            // Closed form for the run of full tracks inside this zone
            // that each end in a head advance: n sweeps, one
            // single-cylinder seek per head wrap, a head switch per
            // other advance. Stops short of the last track (a partial
            // or final read) and of the disk's last track (whose
            // advance would run off the end).
            const std::uint32_t zone_last =
                zone.firstCylinder + zone.cylinders - 1;
            std::uint32_t n = (zone_last - cur.cylinder) * surfaces +
                (surfaces - cur.head);
            if (zone_last == last_cyl)
                --n;
            n = std::min(n, (remaining - 1) / spt);
            if (n > 0) {
                const std::uint32_t wraps = (cur.head + n) / surfaces;
                ticks += static_cast<sim::Tick>(n) *
                        spindle_.sweepTicks(1.0) +
                    static_cast<sim::Tick>(wraps) *
                        seekModel_.seekTicks(1, false) +
                    static_cast<sim::Tick>(n - wraps) * headSwitchTicks_;
                const std::uint32_t track = cur.head + n;
                cur.cylinder += track / surfaces;
                cur.head = track % surfaces;
                remaining -= n * spt;
                continue;
            }
        }
        // One (partial or final) track at a time.
        const std::uint32_t avail = spt - cur.sector;
        const std::uint32_t take = std::min(remaining, avail);
        ticks += spindle_.sweepTicks(static_cast<double>(take) /
                                     static_cast<double>(spt));
        remaining -= take;
        if (remaining == 0)
            break;
        cur.sector = 0;
        if (++cur.head >= surfaces) {
            cur.head = 0;
            if (cur.cylinder + 1 >= geometry_.cylinders())
                break; // ran off the end; truncated transfer
            ++cur.cylinder;
            ticks += seekModel_.seekTicks(1, false);
        } else {
            ticks += headSwitchTicks_;
        }
    }
    return ticks;
}

std::uint32_t
DiskDrive::allocPending(const workload::IoRequest &req, bool internal)
{
    std::uint32_t slot;
    if (pendingFree_.empty()) {
        slot = static_cast<std::uint32_t>(pendingPool_.size());
        pendingPool_.emplace_back();
        // One cost-cache row (all arms) per arena slot, row-major.
        costCache_.resize(pendingPool_.size() * arms_.size());
        fgList_.index.ensureSlots(pendingPool_.size());
        bgList_.index.ensureSlots(pendingPool_.size());
        // The free list can hold every slot (drain phases); grow its
        // capacity here so releasePending never allocates.
        pendingFree_.reserve(pendingPool_.size());
    } else {
        slot = pendingFree_.back();
        pendingFree_.pop_back();
    }
    Pending &p = pendingPool_[slot];
    p.req = req;
    p.chs = geometry_.lbaToChs(req.lba);
    p.sectorAngle = geometry_.sectorAngle(p.chs);
    p.cylinder = p.chs.cylinder;
    p.internal = internal;
    ++p.gen; // retires any cost-cache rows from the prior occupancy
    p.next = kNilSlot;
    p.prev = kNilSlot;
    p.seq = 0;
    p.inWindow = false;
    return slot;
}

void
DiskDrive::releasePending(std::uint32_t slot)
{
    Pending &p = pendingPool_[slot];
    p.next = kNilSlot;
    p.prev = kNilSlot;
    pendingFree_.push_back(slot);
}

void
DiskDrive::listPushBack(PendingList &list, std::uint32_t slot)
{
    Pending &p = pendingPool_[slot];
    p.next = kNilSlot;
    p.prev = list.tail;
    if (list.tail != kNilSlot)
        pendingPool_[list.tail].next = slot;
    else
        list.head = slot;
    list.tail = slot;
    ++list.size;
    p.seq = ++enqueueSeq_;
    // The window is a list prefix: an appended slot joins it exactly
    // when the window is not yet full — then the whole list was
    // windowed, so the new tail extends the prefix.
    if (list.windowCount < spec_.schedWindow) {
        p.inWindow = true;
        ++list.windowCount;
        list.windowTail = slot;
        if (schedIndexed_)
            list.index.insert(slot, p.cylinder);
    } else {
        p.inWindow = false;
    }
}

void
DiskDrive::listUnlink(PendingList &list, std::uint32_t slot)
{
    Pending &p = pendingPool_[slot];
    const bool was_window = p.inWindow;
    if (was_window) {
        if (schedIndexed_)
            list.index.remove(slot);
        p.inWindow = false;
        --list.windowCount;
        if (list.windowTail == slot)
            list.windowTail = p.prev;
    }
    if (p.prev != kNilSlot)
        pendingPool_[p.prev].next = p.next;
    else
        list.head = p.next;
    if (p.next != kNilSlot)
        pendingPool_[p.next].prev = p.prev;
    else
        list.tail = p.prev;
    p.next = kNilSlot;
    p.prev = kNilSlot;
    --list.size;
    if (was_window) {
        // A removal inside the window promotes the first entry beyond
        // it (the window tail's successor; the new head when the
        // removed slot was the only window member).
        const std::uint32_t succ = list.windowTail == kNilSlot
            ? list.head
            : pendingPool_[list.windowTail].next;
        if (succ != kNilSlot) {
            Pending &q = pendingPool_[succ];
            q.inWindow = true;
            ++list.windowCount;
            list.windowTail = succ;
            if (schedIndexed_)
                list.index.insert(succ, q.cylinder);
        }
    }
}

std::uint64_t
DiskDrive::installActive(Active active)
{
    std::uint32_t slot;
    if (activeFree_.empty()) {
        slot = static_cast<std::uint32_t>(activePool_.size());
        activePool_.emplace_back();
    } else {
        slot = activeFree_.back();
        activeFree_.pop_back();
    }
    Active &dst = activePool_[slot];
    const std::uint32_t gen = dst.gen + 1;
    dst = std::move(active);
    dst.gen = gen;
    dst.inUse = true;
    ++activeCount_;
    return (static_cast<std::uint64_t>(gen) << 32) |
        (static_cast<std::uint64_t>(slot) + 1);
}

DiskDrive::Active &
DiskDrive::activeAt(std::uint64_t id)
{
    const std::uint64_t low = id & 0xffffffffULL;
    sim::simAssert(low != 0 && low <= activePool_.size(),
                   "disk: bad active id");
    Active &active = activePool_[static_cast<std::uint32_t>(low) - 1];
    sim::simAssert(active.gen == static_cast<std::uint32_t>(id >> 32),
                   "disk: stale active id");
    return active;
}

void
DiskDrive::releaseActive(std::uint64_t id)
{
    Active &active = activeAt(id);
    active.riders.clear();
    active.inUse = false;
    ++active.gen; // retires the id even before the slot is reused
    activeFree_.push_back(
        static_cast<std::uint32_t>(id & 0xffffffffULL) - 1);
    --activeCount_;
}

sim::Tick
DiskDrive::cachedPositioning(const sched::PendingView &req,
                             const sched::ArmView &arm)
{
    const std::uint32_t slot = req.slot;
    const Pending &p = pendingPool_[slot];
    CostEntry &e = costCache_[slot * arms_.size() + arm.index];
    if (e.gen != p.gen) {
        e.gen = p.gen;
        e.seekValid = false;
        e.rotValid = false;
    }
    if (!e.seekValid || e.armCyl != arm.cylinder) {
        e.seek = scaledSeek(arm.cylinder, p.cylinder, !p.req.isRead);
        e.armCyl = arm.cylinder;
        e.seekValid = true;
        // The rotational start time depends on the seek length.
        e.rotValid = false;
    }
    const sim::Tick now = sim_.now();
    if (!e.rotValid || e.evalAt != now) {
        e.rot = armRotWaitAngle(now + e.seek, p.sectorAngle, arm.index);
        e.evalAt = now;
        e.rotValid = true;
    }
    if (verify::activeChecker() != nullptr) {
        // The pruning / horizon lower bound must never exceed the
        // exact positioning price, including mid-RPM-ramp.
        const std::uint32_t dist = arm.cylinder > p.cylinder
            ? arm.cylinder - p.cylinder
            : p.cylinder - arm.cylinder;
        verify::onPositioningBound(telemetryId_, seekLbTicks(dist),
                                   e.seek + e.rot);
    }
    return e.seek + e.rot;
}

void
DiskDrive::submit(const workload::IoRequest &req)
{
    ++stats_.arrivals;
    if (req.isRead)
        ++stats_.reads;
    sim::simAssert(req.sectors > 0, "disk: empty request");
    sim::simAssert(req.lba + req.sectors <= geometry_.totalSectors(),
                   "disk: request beyond device capacity");
    verify::onDiskSubmit(telemetryId_, req.id, req.arrival,
                         sim_.now());

    if (req.isRead) {
        const bool hit = cache_.readLookup(req.lba, req.sectors);
        telemetry::emitInstant(req.id, telemetry::SpanKind::CacheLookup,
                               sim_.now(), telemetryId_, hit ? 1 : 0);
        if (hit) {
            ++stats_.cacheHits;
            telemetry::bump(ctrCacheHits_);
            const sim::Tick done = sim_.now() + busTicks(req.sectors);
            if (trackHitBounds_)
                noteHitBound(done);
            telemetry::emitSpan(req.id, telemetry::SpanKind::CacheHit,
                                sim_.now(), done, telemetryId_);
            workload::IoRequest copy = req;
            sim_.schedule(done, [this, copy, done] {
                ++stats_.completions;
                ServiceInfo info;
                info.cacheHit = true;
                const double ms =
                    sim::ticksToMs(done - copy.arrival);
                stats_.responseMs.add(ms);
                stats_.responseHist.add(ms);
                verify::onDiskComplete(telemetryId_, copy.id, done,
                                       controllerTicks_);
                if (onComplete_)
                    onComplete_(copy, done, info);
            });
            return;
        }
    } else {
        if (cache_.write(req.lba, req.sectors)) {
            // Write-back absorbed the write; destage happens later.
            telemetry::bump(ctrCacheHits_);
            const sim::Tick done = sim_.now() + busTicks(req.sectors);
            if (trackHitBounds_)
                noteHitBound(done);
            telemetry::emitSpan(req.id, telemetry::SpanKind::CacheHit,
                                sim_.now(), done, telemetryId_);
            workload::IoRequest copy = req;
            sim_.schedule(done, [this, copy, done] {
                ++stats_.completions;
                ServiceInfo info;
                info.cacheHit = true;
                const double ms =
                    sim::ticksToMs(done - copy.arrival);
                stats_.responseMs.add(ms);
                stats_.responseHist.add(ms);
                verify::onDiskComplete(telemetryId_, copy.id, done,
                                       controllerTicks_);
                if (onComplete_)
                    onComplete_(copy, done, info);
            });
            maybeDestage();
            return;
        }
    }

    const std::uint32_t slot = allocPending(req, /*internal=*/false);
    listPushBack(req.background ? bgList_ : fgList_, slot);
    beginSpinUpIfNeeded();
    tryDispatch();
}

void
DiskDrive::armIdleTimer()
{
    if (spec_.spinDownAfterMs <= 0.0 || modes_.spunDown() ||
        spinningUp_ || spinningDown_ || rpmShifting() || !idle())
        return;
    sim_.cancel(idleTimer_);
    idleTimer_ = sim_.scheduleAfter(
        sim::msToTicks(spec_.spinDownAfterMs),
        [this] { onIdleTimeout(); });
}

void
DiskDrive::onIdleTimeout()
{
    idleTimer_ = sim::kInvalidEventId;
    if (!idle() || modes_.spunDown() || spinningUp_ ||
        spinningDown_ || rpmShifting())
        return;
    ++stats_.spinDowns;
    if (spec_.spinDownMs <= 0.0) {
        // Historical instantaneous stop.
        modes_.spinDown(sim_.now());
        return;
    }
    // Model the deceleration: the drive serves nothing while the
    // transition is in flight, and standby billing starts only when
    // the platters actually stop.
    spinningDown_ = true;
    sim_.scheduleAfter(sim::msToTicks(spec_.spinDownMs),
                       [this] { onSpinDownComplete(); });
}

void
DiskDrive::onSpinDownComplete()
{
    spinningDown_ = false;
    modes_.spinDown(sim_.now());
    // A governor retarget that arrived mid-transition applies now at
    // no cost (the spindle is stopped).
    maybeStartRpmShift();
    if (!idle()) {
        // A request arrived while the transition was in flight: it
        // waited out the remaining deceleration and now pays a full
        // spin-up on top — never priced at the old speed, never
        // served half-stopped.
        beginSpinUpIfNeeded();
    }
}

void
DiskDrive::beginSpinUpIfNeeded()
{
    sim_.cancel(idleTimer_);
    idleTimer_ = sim::kInvalidEventId;
    if (!modes_.spunDown() || spinningUp_)
        return;
    spinningUp_ = true;
    ++stats_.spinUps;
    telemetry::bump(ctrSpinUps_);
    telemetry::emitSpan(0, telemetry::SpanKind::SpinUp, sim_.now(),
                        sim_.now() + sim::msToTicks(spec_.spinUpMs),
                        telemetryId_);
    sim_.scheduleAfter(sim::msToTicks(spec_.spinUpMs), [this] {
        modes_.spinUp(sim_.now());
        spinningUp_ = false;
        maybeStartRpmShift();
        tryDispatch();
    });
}

std::uint32_t
DiskDrive::totalSectors(const Active &active) const
{
    std::uint32_t total = active.req.sectors;
    for (const auto &rider : active.riders)
        total += rider.sectors;
    return total;
}

sim::Tick
DiskDrive::mediaTransferTicks(const Active &active) const
{
    // The DASH S dimension streams from several surfaces at once,
    // dividing the media-transfer portion of the service time.
    const std::uint32_t s_par =
        std::max<std::uint32_t>(1, spec_.dash.surfaces);
    const sim::Tick media = active.xferOverride > 0
        ? active.xferOverride
        : transferTicks(active.chs, totalSectors(active));
    return media / s_par + controllerTicks_;
}

void
DiskDrive::tryDispatch()
{
    // rpmShifting() also covers the drain phase: a requested speed
    // change holds new dispatches so in-flight work never straddles
    // an RPM segment boundary (its predicted rotational waits and
    // transfer sweeps would be priced at a dead speed).
    if (modes_.spunDown() || spinningUp_ || spinningDown_ ||
        rpmShifting())
        return;
    while ((fgList_.size != 0 || bgList_.size != 0) &&
           activeSeeks_ < spec_.maxConcurrentSeeks) {
        // Collect idle arms (reused scratch; no allocation).
        idleArms_.clear();
        for (std::uint32_t k = 0;
             k < static_cast<std::uint32_t>(arms_.size()); ++k) {
            if (!arms_[k].busy && !arms_[k].failed &&
                !arms_[k].parked)
                idleArms_.push_back(
                    {k, arms_[k].cylinder, arms_[k].azimuth});
        }
        if (idleArms_.empty())
            return;

        // Foreground requests have strict priority: background work
        // (and destages) is scheduled only when no foreground request
        // is pending — the freeblock-scheduling role the paper's
        // Section 5 assigns to spare arms.
        PendingList &source = fgList_.size == 0 ? bgList_ : fgList_;
        sched::Choice choice;
        if (schedIndexed_) {
            // Pruned path: hand the scheduler the incrementally
            // maintained cylinder index over the window — no window
            // materialization, and only candidates the admissible
            // seek bound cannot exclude are priced.
            windowIndex_.bind(this, &source);
            choice = scheduler_->selectIndexed(idleArms_, oracle_,
                                               sim_.now(),
                                               windowIndex_);
        } else {
            // Exhaustive path: materialize the scheduling window
            // (oldest first) by walking the intrusive FIFO.
            window_.clear();
            for (std::uint32_t s = source.head; s != kNilSlot;
                 s = pendingPool_[s].next) {
                const Pending &p = pendingPool_[s];
                if (!p.inWindow)
                    break;
                window_.push_back({s, p.req.lba, p.cylinder,
                                   p.req.arrival, p.req.isRead});
            }
            choice = scheduler_->select(window_, idleArms_, oracle_,
                                        sim_.now());
        }
        sim::simAssert(choice.slot < pendingPool_.size() &&
                           pendingPool_[choice.slot].inWindow,
                       "disk: scheduler chose bad slot");
        sim::simAssert(choice.arm < arms_.size() &&
                           !arms_[choice.arm].busy,
                       "disk: scheduler chose busy arm");

        const std::uint32_t chosen = choice.slot;
        Active active;
        {
            const Pending &p = pendingPool_[chosen];
            active.req = p.req;
            active.chs = p.chs;
            active.internal = p.internal;
            // Most policies priced the chosen pair through the
            // oracle this very tick; reuse those exact values.
            const CostEntry &e =
                costCache_[chosen * arms_.size() + choice.arm];
            if (e.gen == p.gen && e.seekValid &&
                e.armCyl == arms_[choice.arm].cylinder) {
                active.predSeek = e.seek;
                if (e.rotValid && e.evalAt == sim_.now()) {
                    active.predRot = e.rot;
                    active.predRotAt = sim_.now() + e.seek;
                }
            }
        }
        active.arm = choice.arm;
        listUnlink(source, chosen);
        releasePending(chosen);

        if (spec_.coalesce) {
            // Fold exactly-contiguous same-kind queued requests into
            // this media access (they complete with it).
            geom::Lba next_lba = active.req.lba + active.req.sectors;
            bool merged = true;
            while (merged &&
                   active.riders.size() + 1 < spec_.coalesceLimit) {
                merged = false;
                for (std::uint32_t s = source.head; s != kNilSlot;
                     s = pendingPool_[s].next) {
                    const Pending &p = pendingPool_[s];
                    if (p.req.lba == next_lba &&
                        p.req.isRead == active.req.isRead &&
                        !p.internal) {
                        next_lba += p.req.sectors;
                        active.riders.push_back(p.req);
                        listUnlink(source, s);
                        releasePending(s);
                        merged = true;
                        break;
                    }
                }
            }
        }
        startService(std::move(active));
    }
}

void
DiskDrive::startService(Active active)
{
    const sim::Tick now = sim_.now();
    active.dispatchTime = now;
    Arm &arm = arms_[active.arm];
    arm.busy = true;

    active.seekTicks = active.predSeek != sim::kTickNever
        ? active.predSeek
        : scaledSeek(arm.cylinder, active.chs.cylinder,
                     !active.req.isRead);

    modes_.requestStart(now);
    ++stats_.mediaAccesses;
    ++stats_.armAccesses[active.arm];
    telemetry::bump(ctrMediaAccesses_);
    telemetry::emitSpan(active.req.id, telemetry::SpanKind::HostQueue,
                        active.req.arrival, now, telemetryId_,
                        static_cast<std::uint16_t>(active.arm));
    telemetry::emitInstant(active.req.id,
                           telemetry::SpanKind::ArmSelect, now,
                           telemetryId_,
                           static_cast<std::uint16_t>(active.arm));
    if (active.seekTicks > 0)
        ++stats_.nonzeroSeeks;

    const bool needs_motion = active.seekTicks > 0;
    const sim::Tick seek_ticks = active.seekTicks;
    active.phase = Phase::Seeking;
    if (trackHitBounds_ && exactFloorConfig_ && !rpmShifting_) {
        // Nothing after dispatch can delay this access (no channel
        // wait, no zero-latency override, no ramp while it is in
        // flight), so its completion tick is known now. The rotational
        // wait at seek end goes to startRotation through predRot, the
        // transfer to tryStartTransfer through xferTicks. A media
        // retry only adds time, so the floor stays admissible.
        const sim::Tick rot_at = now + seek_ticks;
        if (active.predRotAt != rot_at) {
            active.predRot = armRotWait(rot_at, active.chs, active.arm);
            active.predRotAt = rot_at;
        }
        active.xferTicks = mediaTransferTicks(active);
        active.doneFloor = rot_at + active.predRot + active.xferTicks;
    } else {
        active.doneFloor = now + seek_ticks + minTransferFloor_;
    }
    const std::uint64_t id = installActive(std::move(active));

    if (needs_motion) {
        ++activeSeeks_;
        modes_.seekStart(now);
        sim_.schedule(now + seek_ticks,
                      [this, id] { onSeekDone(id); });
    } else {
        startRotation(id);
    }
    verifyOccupancy();
}

void
DiskDrive::verifyOccupancy() const
{
    if (verify::activeChecker() == nullptr)
        return;
    std::uint32_t busy_arms = 0;
    for (const auto &arm : arms_)
        if (arm.busy)
            ++busy_arms;
    verify::onDiskOccupancy(
        telemetryId_, activeCount_, busy_arms,
        static_cast<std::uint32_t>(arms_.size()), activeSeeks_,
        spec_.maxConcurrentSeeks, activeTransfers_,
        spec_.maxConcurrentTransfers);
}

void
DiskDrive::onSeekDone(std::uint64_t id)
{
    const sim::Tick now = sim_.now();
    Active &active = activeAt(id);
    sim::simAssert(activeSeeks_ > 0, "disk: seek budget underflow");
    --activeSeeks_;
    modes_.seekEnd(now);
    telemetry::emitSpan(active.req.id, telemetry::SpanKind::Seek,
                        now - active.seekTicks, now, telemetryId_,
                        static_cast<std::uint16_t>(active.arm));
    startRotation(id);
    // Freed motion budget may admit the next pending request.
    tryDispatch();
}

void
DiskDrive::startRotation(std::uint64_t id)
{
    const sim::Tick now = sim_.now();
    Active &active = activeAt(id);
    Arm &arm = arms_[active.arm];
    arm.cylinder = active.chs.cylinder;

    active.phase = Phase::Rotating;

    if (spec_.zeroLatencyAccess && active.riders.empty()) {
        // Single-track run already under the head? Start now and
        // wrap: the whole access takes one revolution.
        const std::uint32_t spt =
            geometry_.sectorsPerTrack(active.chs.cylinder);
        const std::uint32_t total = totalSectors(active);
        if (active.chs.sector + total <= spt) {
            const double extent = static_cast<double>(total) /
                static_cast<double>(spt);
            const sim::Tick to_start = scaledRotWait(
                now, active.chs, arms_[active.arm].azimuth);
            const sim::Tick period = spindle_.periodTicks();
            const sim::Tick run_ticks = spindle_.sweepTicks(extent);
            if (to_start + run_ticks > period) {
                // The head is inside the run right now.
                ++stats_.zeroLatencyHits;
                telemetry::bump(ctrZeroLatHits_);
                active.xferOverride = period;
                active.doneFloor =
                    std::max(active.doneFloor, now + minTransferFloor_);
                onRotationDone(id);
                return;
            }
        }
    }

    const sim::Tick wait = active.predRotAt == now
        ? active.predRot
        : armRotWait(now, active.chs, active.arm);
    active.predRotAt = sim::kTickNever;
    active.rotTicks += wait;
    active.doneFloor =
        std::max(active.doneFloor, now + wait + minTransferFloor_);
    if (wait > 0) {
        telemetry::emitSpan(active.req.id,
                            telemetry::SpanKind::RotWait, now,
                            now + wait, telemetryId_,
                            static_cast<std::uint16_t>(active.arm));
        sim_.schedule(now + wait, [this, id] { onRotationDone(id); });
    } else {
        onRotationDone(id);
    }
}

void
DiskDrive::onRotationDone(std::uint64_t id)
{
    Active &active = activeAt(id);
    active.phase = Phase::ChannelWait;
    tryStartTransfer(id);
}

void
DiskDrive::tryStartTransfer(std::uint64_t id)
{
    const sim::Tick now = sim_.now();
    Active &active = activeAt(id);
    if (activeTransfers_ >= spec_.maxConcurrentTransfers) {
        channelWaiters_.push(id);
        active.channelWaitFrom = now;
        telemetry::bump(ctrChannelBlocks_);
        return;
    }
    ++activeTransfers_;
    modes_.transferStart(now);
    active.phase = Phase::Transferring;
    // Priced once per access: the run, the spindle speed and any
    // zero-latency override are fixed while it is in flight, so a
    // retry re-transfers in the same time (and the exact-floor path
    // priced it at dispatch).
    if (active.xferTicks == 0)
        active.xferTicks = mediaTransferTicks(active);
    // Exact from here. Raising (not overwriting) keeps an earlier
    // floor that overshot visible to the completion check.
    active.doneFloor = std::max(active.doneFloor, now + active.xferTicks);
    telemetry::emitSpan(active.req.id, telemetry::SpanKind::Transfer,
                        now, now + active.xferTicks, telemetryId_,
                        static_cast<std::uint16_t>(active.arm));
    sim_.schedule(now + active.xferTicks,
                  [this, id] { onTransferDone(id); });
}

void
DiskDrive::wakeNextChannelWaiter(bool defer_zero_wait)
{
    if (channelWaiters_.empty() ||
        activeTransfers_ >= spec_.maxConcurrentTransfers)
        return;
    const sim::Tick now = sim_.now();
    const std::uint64_t wid = channelWaiters_.pop();
    Active &waiter = activeAt(wid);
    if (waiter.channelWaitFrom != sim::kTickNever) {
        telemetry::emitSpan(waiter.req.id,
                            telemetry::SpanKind::ChannelWait,
                            waiter.channelWaitFrom, now, telemetryId_,
                            static_cast<std::uint16_t>(waiter.arm));
        waiter.channelWaitFrom = sim::kTickNever;
    }
    // Its sector has rotated past; re-wait for the platter to come
    // around again.
    const sim::Tick extra = armRotWait(now, waiter.chs, waiter.arm);
    waiter.rotTicks += extra;
    waiter.phase = Phase::Rotating;
    waiter.doneFloor =
        std::max(waiter.doneFloor, now + extra + minTransferFloor_);
    if (extra > 0) {
        telemetry::emitSpan(waiter.req.id,
                            telemetry::SpanKind::RotWait, now,
                            now + extra, telemetryId_,
                            static_cast<std::uint16_t>(waiter.arm));
        sim_.schedule(now + extra, [this, wid] { onRotationDone(wid); });
    } else if (defer_zero_wait) {
        // Media-retry call site: keep the historical ordering of a
        // zero-tick rotation event rather than re-entering the
        // transfer path synchronously.
        sim_.schedule(now, [this, wid] { onRotationDone(wid); });
    } else {
        onRotationDone(wid);
    }
}

void
DiskDrive::onTransferDone(std::uint64_t id)
{
    const sim::Tick now = sim_.now();
    sim::simAssert(activeTransfers_ > 0,
                   "disk: channel budget underflow");
    --activeTransfers_;
    modes_.transferEnd(now);

    // Fault injection: a failed media transfer re-reads after one
    // full revolution (the sector must come around again), holding
    // the arm but releasing the channel while it waits.
    {
        Active &active = activeAt(id);
        if (spec_.mediaRetryRate > 0.0 &&
            active.retries < spec_.maxRetries &&
            faultRng_.chance(spec_.mediaRetryRate)) {
            ++active.retries;
            ++stats_.mediaRetries;
            const sim::Tick rev = spindle_.periodTicks();
            active.rotTicks += rev;
            active.phase = Phase::Rotating;
            active.doneFloor = std::max(active.doneFloor,
                                        now + rev + minTransferFloor_);
            telemetry::emitSpan(
                active.req.id, telemetry::SpanKind::RotWait, now,
                now + rev, telemetryId_,
                static_cast<std::uint16_t>(active.arm));
            sim_.schedule(now + rev,
                          [this, id] { onRotationDone(id); });
            // The freed channel may admit a waiter immediately.
            wakeNextChannelWaiter(/*defer_zero_wait=*/true);
            return;
        }
    }

    completeActive(id);

    // Wake the oldest channel waiter.
    wakeNextChannelWaiter(/*defer_zero_wait=*/false);
}

void
DiskDrive::completeActive(std::uint64_t id)
{
    const sim::Tick now = sim_.now();
    Active active = std::move(activeAt(id));
    releaseActive(id);
    verify::onDiskServiceBound(telemetryId_, active.doneFloor, now);
    modes_.requestEnd(now);
    arms_[active.arm].busy = false;
    verifyOccupancy();

    if (active.req.isRead)
        cache_.installRead(active.req.lba, totalSectors(active));

    if (active.internal) {
        ++stats_.destages;
    } else {
        ServiceInfo info;
        info.seekTicks = active.seekTicks;
        info.rotTicks = active.rotTicks;
        info.xferTicks = active.xferTicks;
        info.queueTicks = active.dispatchTime - active.req.arrival;
        info.arm = active.arm;
        info.cacheHit = false;
        if (spec_.mediaRetryRate > 0.0 &&
            active.retries >= spec_.maxRetries) {
            info.failed = true;
            ++stats_.hardErrors;
        }

        auto record = [&](const workload::IoRequest &req) {
            ++stats_.completions;
            if (req.background)
                ++stats_.backgroundCompletions;
            const double resp_ms = sim::ticksToMs(now - req.arrival);
            stats_.responseMs.add(resp_ms);
            stats_.responseHist.add(resp_ms);
            stats_.seekMs.add(sim::ticksToMs(active.seekTicks));
            const double rot_ms = sim::ticksToMs(active.rotTicks);
            stats_.rotMs.add(rot_ms);
            stats_.rotHist.add(rot_ms);
            verify::onDiskComplete(telemetryId_, req.id, now,
                                   controllerTicks_);
            if (onComplete_)
                onComplete_(req, now, info);
        };
        record(active.req);
        stats_.coalescedRequests += active.riders.size();
        for (const auto &rider : active.riders)
            record(rider);
    }

    // A pending speed change starts its ramp the moment the drive
    // drains (dispatches are already gated).
    maybeStartRpmShift();
    tryDispatch();
    maybeDestage();
    armIdleTimer();
}

void
DiskDrive::maybeDestage()
{
    if (!spec_.cache.writeBack)
        return;
    if (fgList_.size != 0 || bgList_.size != 0 || activeCount_ != 0)
        return;
    auto dirty = cache_.popDirty();
    if (!dirty)
        return;
    workload::IoRequest req;
    req.id = 0;
    req.arrival = sim_.now();
    req.lba = dirty->lba;
    req.sectors = dirty->sectors;
    req.isRead = false;
    const std::uint32_t slot = allocPending(req, /*internal=*/true);
    listPushBack(bgList_, slot);
    beginSpinUpIfNeeded();
    tryDispatch();
}

stats::ModeTimes
DiskDrive::finishModeTimes()
{
    return modes_.finish(sim_.now());
}

std::vector<stats::RpmSegment>
DiskDrive::finishModeSegments()
{
    const stats::ModeTimes total = modes_.finish(sim_.now());
    std::vector<stats::RpmSegment> segs =
        modes_.finishSegments(sim_.now());
    if (verify::activeChecker() != nullptr) {
        stats::ModeTimes seg_sum;
        for (const auto &seg : segs)
            seg_sum.merge(seg.times);
        verify::onModeAccounting(
            telemetryId_, total, seg_sum,
            static_cast<std::uint32_t>(arms_.size()));
    }
    return segs;
}

stats::ModeTimes
DiskDrive::modeTimesSnapshot() const
{
    return modes_.snapshot(sim_.now());
}

sim::Tick
DiskDrive::WindowIndex::seekLowerBound(std::uint32_t dist) const
{
    return drive_->seekLbTicks(dist);
}

sim::Tick
DiskDrive::WindowIndex::maxQueueWait(sim::Tick now) const
{
    // The FIFO head is the oldest window member, but coalescing can
    // unlink mid-list, so walk the (bounded) window prefix.
    sim::Tick max_wait = 0;
    for (std::uint32_t s = list_->head;
         s != kNilSlot && drive_->pendingPool_[s].inWindow;
         s = drive_->pendingPool_[s].next) {
        const sim::Tick arrival = drive_->pendingPool_[s].req.arrival;
        const sim::Tick wait = now - std::min(now, arrival);
        if (wait > max_wait)
            max_wait = wait;
    }
    return max_wait;
}

void
DiskDrive::WindowIndex::beginScan(std::uint32_t cylinder)
{
    scan_ = list_->index.beginScan(cylinder);
}

bool
DiskDrive::WindowIndex::nextBand(
    std::uint32_t &min_dist,
    std::vector<sched::IndexedCandidate> &members)
{
    std::uint32_t bucket = CylinderBuckets::kNil;
    if (!list_->index.nextBucket(scan_, bucket, min_dist))
        return false;
    members.clear();
    for (std::uint32_t s = list_->index.head(bucket);
         s != CylinderBuckets::kNil; s = list_->index.next(s)) {
        const Pending &p = drive_->pendingPool_[s];
        members.push_back({{s, p.req.lba, p.cylinder, p.req.arrival,
                            p.req.isRead},
                           p.seq});
        ++visited_;
    }
    return true;
}

bool
DiskDrive::WindowIndex::firstAtOrAbove(std::uint32_t cylinder,
                                       sched::IndexedCandidate &out)
{
    const CylinderBuckets &index = list_->index;
    std::uint32_t bucket =
        index.firstOccupiedAtOrAbove(index.bucketOf(cylinder));
    while (bucket != CylinderBuckets::kNil) {
        // Buckets partition the cylinder range in ascending order, so
        // the first bucket with a qualifying member holds the answer;
        // only the starting bucket can mix members below @p cylinder.
        bool have = false;
        for (std::uint32_t s = index.head(bucket);
             s != CylinderBuckets::kNil; s = index.next(s)) {
            const Pending &p = drive_->pendingPool_[s];
            ++visited_;
            if (p.cylinder < cylinder)
                continue;
            if (!have || p.cylinder < out.view.cylinder ||
                (p.cylinder == out.view.cylinder &&
                 p.seq < out.order)) {
                out = {{s, p.req.lba, p.cylinder, p.req.arrival,
                        p.req.isRead},
                       p.seq};
                have = true;
            }
        }
        if (have)
            return true;
        bucket = index.firstOccupiedAtOrAbove(bucket + 1);
    }
    return false;
}

bool
DiskDrive::WindowIndex::lowestCylinder(sched::IndexedCandidate &out)
{
    const CylinderBuckets &index = list_->index;
    const std::uint32_t bucket = index.firstOccupied();
    if (bucket == CylinderBuckets::kNil)
        return false;
    bool have = false;
    for (std::uint32_t s = index.head(bucket);
         s != CylinderBuckets::kNil; s = index.next(s)) {
        const Pending &p = drive_->pendingPool_[s];
        ++visited_;
        if (!have || p.cylinder < out.view.cylinder ||
            (p.cylinder == out.view.cylinder && p.seq < out.order)) {
            out = {{s, p.req.lba, p.cylinder, p.req.arrival,
                    p.req.isRead},
                   p.seq};
            have = true;
        }
    }
    return have;
}

void
DiskDrive::WindowIndex::materializeWindow(
    std::vector<sched::PendingView> &out) const
{
    out.clear();
    for (std::uint32_t s = list_->head; s != kNilSlot;
         s = drive_->pendingPool_[s].next) {
        const Pending &p = drive_->pendingPool_[s];
        if (!p.inWindow)
            break;
        out.push_back(
            {s, p.req.lba, p.cylinder, p.req.arrival, p.req.isRead});
    }
}

} // namespace disk
} // namespace idp
