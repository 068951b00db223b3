#include "exec/pdes.hh"

#include <algorithm>
#include <functional>

#include "bus/bus.hh"
#include "geom/geometry.hh"
#include "sim/logging.hh"
#include "telemetry/telemetry.hh"
#include "verify/verify.hh"

namespace idp {
namespace exec {

PdesRun::PdesRun(const array::ArrayParams &params, unsigned workers,
                 const telemetry::TraceOptions &trace_options)
{
    serialCoordConfig_ = params.layout == array::Layout::Raid1 ||
        params.governor.enabled;
    feedbackConfig_ =
        params.layout == array::Layout::Raid5 && !params.useBus;
    // Every bus movement carries at least one sector, so the
    // one-sector transfer latency bounds any feedback crossing it.
    busLookahead_ = params.useBus
        ? bus::Bus::minTransferTicks(params.bus, geom::kSectorBytes)
        : sim::kTickNever;
    barriers_.reserve(16);

    coordSim_.setVerifyDomain(0);
    arraySim_.setVerifyDomain(1);
    driveSims_.reserve(params.disks);
    for (std::uint32_t i = 0; i < params.disks; ++i) {
        driveSims_.push_back(std::make_unique<sim::Simulator>());
        driveSims_.back()->setVerifyDomain(2 + i);
    }
    inbox_.resize(params.disks);
    inboxMin_.assign(params.disks, sim::kTickNever);
    outbox_.resize(params.disks);
    // More workers than drives cannot help: windows are per drive.
    workers_ = std::max(1u, std::min(workers, params.disks));

    if (telemetry::kCompiledIn && trace_options.enabled) {
        driveTracers_.reserve(params.disks);
        for (std::uint32_t i = 0; i < params.disks; ++i)
            driveTracers_.push_back(
                std::make_unique<telemetry::Tracer>(trace_options));
    }
}

PdesRun::~PdesRun() = default;

void
PdesRun::deliver(std::uint32_t disk_idx,
                 const workload::IoRequest &sub, sim::Tick at)
{
    // Inside a serial step every calendar sits on the step tick, so a
    // same-tick delivery submits straight into the member — exactly
    // the serial path's inline call, preserving its queue contents at
    // the instant the drive picks its next request.
    if (serialStepActive_ && at <= horizon_) {
        arr_->injectSub(disk_idx, sub);
        return;
    }
    // Array-phase deliveries (bus-done writes, deferred RMW) must land
    // at or beyond the horizon: this round's drive windows have
    // already run. Coordinator-phase deliveries land inside the
    // window and are consumed by phase B of the same round.
    sim::simAssert(!inArrayPhase() ||
                       (horizon_ != sim::kTickNever && at >= horizon_),
                   "pdes: delivery behind the synchronization horizon");
    inbox_[disk_idx].push_back(InItem{at, deliverSeq_++, sub});
    inboxMin_[disk_idx] = std::min(inboxMin_[disk_idx], at);
}

void
PdesRun::complete(std::uint32_t disk_idx,
                  const workload::IoRequest &sub, sim::Tick done,
                  const disk::ServiceInfo &info)
{
    // Serial steps run single-threaded with every calendar at the
    // step tick: replay the completion inline, as the serial path
    // would. Zero-latency resubmissions (busless RMW second phase)
    // then land in member queues before the completing drive
    // dispatches its next request — capture-and-merge would be one
    // dispatch too late.
    if (serialStepActive_) {
        arr_->replaySubComplete(disk_idx, sub, done, info);
        return;
    }
    std::vector<OutRec> &out = outbox_[disk_idx];
    OutRec rec;
    rec.done = done;
    rec.seq = out.size();
    rec.drive = disk_idx;
    rec.sub = sub;
    rec.info = info;
    out.push_back(rec);
}

sim::Tick
PdesRun::nextActivityTick()
{
    sim::Tick t = std::min(coordSim_.nextEventTime(),
                           arraySim_.nextEventTime());
    for (auto &s : driveSims_)
        t = std::min(t, s->nextEventTime());
    for (const sim::Tick at : inboxMin_)
        t = std::min(t, at);
    return t;
}

void
PdesRun::run()
{
    sim::simAssert(arr_ != nullptr, "pdes: setArray not called");
    // Capture the run's thread-local currents once; worker tasks
    // re-install them so hooks and counters work off-main-thread.
    checker_ = verify::activeChecker();
    registry_ = telemetry::activeRegistry();
    if (checker_) {
        const auto drives =
            static_cast<std::uint32_t>(driveSims_.size());
        checker_->reserveDomains(2 + drives);
        checker_->reserveDisks(drives);
    }

    // Windowed rounds are not serially synchronized, so completions
    // captured there must go through the merge.
    serialStepActive_ = false;
    for (;;) {
        const sim::Tick next_t = nextActivityTick();
        if (next_t == sim::kTickNever)
            break;
        ++rounds_;
        // Retire barriers the activity already moved past (their tick
        // executed, or carried no event at all).
        while (!barriers_.empty() && barriers_.front() < next_t) {
            std::pop_heap(barriers_.begin(), barriers_.end(),
                          std::greater<sim::Tick>());
            barriers_.pop_back();
        }
        const sim::Tick h = computeHorizon(next_t);
        if (h <= next_t) {
            serialStep(next_t);
            continue;
        }
        // Telemetry: log2-bucketed window width.
        if (h == sim::kTickNever) {
            ++horizonHist_[kHorizonBuckets - 1];
        } else {
            sim::Tick width = h - next_t;
            std::size_t b = 0;
            while (width >>= 1)
                ++b;
            ++horizonHist_[std::min<std::size_t>(b, kHorizonBuckets - 2)];
        }
        horizon_ = h;

        // Phase A: coordinator window (workload feed + fan-out).
        active_ = &coordSim_;
        coordSim_.runBefore(h);

        // Phase B: per-drive windows, in parallel.
        runDrives(h);

        // Phase C: merge completions onto the array-phase calendar.
        active_ = &arraySim_;
        mergePhase(h);
        active_ = &coordSim_;
    }
    finishRun();
}

void
PdesRun::addBarrier(sim::Tick at)
{
    barriers_.push_back(at);
    std::push_heap(barriers_.begin(), barriers_.end(),
                   std::greater<sim::Tick>());
}

sim::Tick
PdesRun::computeHorizon(sim::Tick t)
{
    sim::Tick h = sim::kTickNever;
    if (busLookahead_ != sim::kTickNever)
        h = std::min(h, t + busLookahead_);
    if (!barriers_.empty())
        h = std::min(h, barriers_.front());
    // A streaming rebuild makes any config coordinator-serial (the
    // pump reads live foreground queue depths) and feedback-coupled
    // (its completions re-arm the pump with new member submits).
    const bool serial_coord = serialCoordConfig_ || rebuildActive_;
    const bool feedback = feedbackConfig_ || rebuildActive_;
    if (serial_coord)
        h = std::min(h, coordSim_.nextEventTime());
    // Every term below only lowers h, and any h <= t already makes
    // the round a serial step: stop as soon as that is decided.
    if (!feedback || h <= t)
        return h;
    sim::Tick min_floor = sim::kTickNever;
    const auto drives = static_cast<std::uint32_t>(driveSims_.size());
    for (std::uint32_t i = 0; i < drives; ++i) {
        h = std::min(h, arr_->driveCompletionBound(i, t));
        if (h <= t)
            return h;
        const sim::Tick floor = arr_->driveMinServiceFloor(i);
        min_floor = std::min(min_floor, floor);
        // Undelivered cross-layer work becomes drive work at item.at;
        // the earliest item bounds them all.
        if (inboxMin_[i] != sim::kTickNever)
            h = std::min(h, inboxMin_[i] + floor);
    }
    if (min_floor != sim::kTickNever) {
        // The coordinator's next feed event can create fresh drive
        // work; nothing it creates can complete before this.
        const sim::Tick cn = coordSim_.nextEventTime();
        if (cn != sim::kTickNever)
            h = std::min(h, cn + min_floor);
    }
    return h;
}

void
PdesRun::serialStep(sim::Tick t)
{
    ++serialSteps_;
    serialStepActive_ = true;
    horizon_ = t;
    // Synchronize every calendar on t first, so coordinator events
    // (replica pricing, governor snapshots, the rebuild pump) read
    // exactly the serial run's drive state. t is the global minimum
    // pending activity, so no calendar has anything behind it.
    coordSim_.advanceTo(t);
    arraySim_.advanceTo(t);
    for (auto &s : driveSims_)
        s->advanceTo(t);
    // Windowed rounds drain every outbox in their merge, and complete()
    // replays inline during serial steps, so no capture is pending.
    for (const auto &out : outbox_)
        sim::simAssert(out.empty(),
                       "pdes: capture pending at a serial step");
    // Phase fixpoint: an event at t may create more same-tick work on
    // any calendar (rebuild completion -> pump -> member submits);
    // loop until nothing at or before t remains anywhere.
    for (;;) {
        bool progress = false;
        if (coordSim_.nextEventTime() <= t) {
            active_ = &coordSim_;
            coordSim_.runBefore(t + 1);
            progress = true;
        }
        for (std::uint32_t i = 0;
             i < static_cast<std::uint32_t>(driveSims_.size()); ++i) {
            if (driveSims_[i]->nextEventTime() > t && inboxMin_[i] > t)
                continue;
            driveWindowTask(i, t + 1);
            progress = true;
        }
        if (arraySim_.nextEventTime() <= t) {
            active_ = &arraySim_;
            mergePhase(t + 1);
            progress = true;
        }
        active_ = &coordSim_;
        if (!progress)
            break;
    }
    // The barrier (if any) at t has now executed serially.
    while (!barriers_.empty() && barriers_.front() <= t) {
        std::pop_heap(barriers_.begin(), barriers_.end(),
                      std::greater<sim::Tick>());
        barriers_.pop_back();
    }
    serialStepActive_ = false;
}

void
PdesRun::runDrives(sim::Tick horizon)
{
    busy_.clear();
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(driveSims_.size()); ++i) {
        if (driveSims_[i]->nextEventTime() < horizon ||
            inboxMin_[i] < horizon)
            busy_.push_back(i);
    }
    if (busy_.empty())
        return;
    if (workers_ <= 1 || busy_.size() == 1) {
        // Not enough parallel work to pay for a hand-off.
        for (std::uint32_t i : busy_)
            driveWindowTask(i, horizon);
        return;
    }
    if (!pool_)
        pool_ = std::make_unique<ThreadPool>(workers_);
    for (std::uint32_t i : busy_)
        pool_->submit([this, i, horizon] {
            driveWindowTask(i, horizon);
        });
    pool_->wait();
}

void
PdesRun::driveWindowTask(std::uint32_t i, sim::Tick horizon)
{
    // The thread-local currents (checker / registry / tracer) belong
    // to the thread that started the run; install them for this
    // window so the drive's hooks observe the same run. Each drive
    // writes its spans into its own single-writer ring.
    verify::VerifyScope verify_scope(checker_);
    telemetry::RegistryScope registry_scope(registry_);
    telemetry::TraceScope trace_scope(
        driveTracers_.empty() ? nullptr : driveTracers_[i].get());
    runDriveWindow(i, horizon);
}

void
PdesRun::runDriveWindow(std::uint32_t i, sim::Tick horizon)
{
    sim::Simulator &s = *driveSims_[i];
    std::vector<InItem> &in = inbox_[i];
    // Deliveries apply in (tick, issue sequence) order, each one after
    // the drive's events strictly before its tick — exactly where the
    // serial calendar would have run the submitting event.
    std::sort(in.begin(), in.end(),
              [](const InItem &a, const InItem &b) {
                  if (a.at != b.at)
                      return a.at < b.at;
                  return a.seq < b.seq;
              });
    std::size_t taken = 0;
    while (taken < in.size() && in[taken].at < horizon) {
        const InItem item = in[taken];
        ++taken;
        s.runBefore(item.at);
        s.advanceTo(item.at);
        arr_->injectSub(i, item.sub);
    }
    in.erase(in.begin(),
             in.begin() + static_cast<std::ptrdiff_t>(taken));
    // Leftovers lie at or beyond the horizon (plus any delivery a
    // serial-step replay pushed meanwhile): usually none.
    sim::Tick rest = sim::kTickNever;
    for (const InItem &item : in)
        rest = std::min(rest, item.at);
    inboxMin_[i] = rest;
    s.runBefore(horizon);
}

void
PdesRun::mergePhase(sim::Tick horizon)
{
    merged_.clear();
    for (auto &out : outbox_) {
        merged_.insert(merged_.end(), out.begin(), out.end());
        out.clear();
    }
    std::sort(merged_.begin(), merged_.end(),
              [](const OutRec &a, const OutRec &b) {
                  return pdesMergeBefore({a.done, a.drive, a.seq},
                                         {b.done, b.drive, b.seq});
              });
    // Replay events capture only an index: 16 bytes, always inline in
    // the calendar slab — no per-completion allocation.
    for (std::size_t i = 0; i < merged_.size(); ++i)
        arraySim_.schedule(merged_[i].done, [this, i] {
            const OutRec &rec = merged_[i];
            arr_->replaySubComplete(rec.drive, rec.sub, rec.done,
                                    rec.info);
        });
    arraySim_.runBefore(horizon);
}

void
PdesRun::finishRun()
{
    for (std::size_t i = 0; i < inbox_.size(); ++i) {
        sim::simAssert(inbox_[i].empty(),
                       "pdes: undelivered inbox items at drain");
        sim::simAssert(outbox_[i].empty(),
                       "pdes: unmerged completions at drain");
    }
    // Equalize every calendar on the run's last fired tick, so
    // mode-time/power integration closes at the same instant the
    // serial path's single calendar would.
    sim::Tick end = std::max(coordSim_.now(), arraySim_.now());
    for (auto &s : driveSims_)
        end = std::max(end, s->now());
    endTick_ = end;
    coordSim_.advanceTo(end);
    arraySim_.advanceTo(end);
    for (auto &s : driveSims_)
        s->advanceTo(end);
    // Back outside the run loop, membership mutations are safe again.
    serialStepActive_ = true;
    barriers_.clear();
}

std::uint64_t
PdesRun::eventsFired() const
{
    std::uint64_t total =
        coordSim_.eventsFired() + arraySim_.eventsFired();
    for (const auto &s : driveSims_)
        total += s->eventsFired();
    return total;
}

std::uint64_t
PdesRun::eventsCancelled() const
{
    std::uint64_t total =
        coordSim_.eventsCancelled() + arraySim_.eventsCancelled();
    for (const auto &s : driveSims_)
        total += s->eventsCancelled();
    return total;
}

std::size_t
PdesRun::peakPending() const
{
    std::size_t peak =
        std::max(coordSim_.peakPending(), arraySim_.peakPending());
    for (const auto &s : driveSims_)
        peak = std::max(peak, s->peakPending());
    return peak;
}

telemetry::TraceData
PdesRun::mergedTrace(const telemetry::Tracer &main) const
{
    telemetry::TraceData total = main.finish();
    // Drive rings append in drive-id order; phase totals sum. The
    // merged product is deterministic at any worker count.
    for (const auto &tracer : driveTracers_) {
        telemetry::TraceData d = tracer->finish();
        total.spans.insert(total.spans.end(), d.spans.begin(),
                           d.spans.end());
        total.dropped += d.dropped;
        for (std::size_t k = 0; k < total.phases.size(); ++k) {
            total.phases[k].count += d.phases[k].count;
            total.phases[k].ticks += d.phases[k].ticks;
        }
    }
    return total;
}

ArrayRun::ArrayRun(const array::ArrayParams &params,
                   unsigned pdes_workers,
                   const telemetry::TraceOptions &trace_options)
    : pdes_(pdes_workers > 0
                ? std::make_unique<PdesRun>(params, pdes_workers,
                                            trace_options)
                : nullptr),
      arr_(feed(), params, nullptr, pdes_.get())
{
    if (pdes_)
        pdes_->setArray(&arr_);
}

} // namespace exec
} // namespace idp
