#include "array/rebuild.hh"

#include <algorithm>

#include "array/storage_array.hh"
#include "sim/logging.hh"
#include "verify/verify.hh"

namespace idp {
namespace array {

RebuildEngine::RebuildEngine(StorageArray &arr,
                             std::uint32_t spare_idx,
                             RebuildParams params)
    : arr_(arr), spareIdx_(spare_idx), params_(std::move(params))
{
    sim::simAssert(params_.chunkSectors > 0,
                   "rebuild: chunkSectors must be positive");
    sim::simAssert(params_.chunkSectors <= arr_.diskSectors_,
                   "rebuild: chunk larger than the member disk");
    progress_.chunksTotal =
        (arr_.diskSectors_ + params_.chunkSectors - 1) /
        params_.chunkSectors;
    ctrChunks_ = telemetry::counterHandle("rebuild.chunks");
    ctrReads_ = telemetry::counterHandle("rebuild.reads");
    ctrSpareWrites_ = telemetry::counterHandle("rebuild.spare_writes");
    ctrYields_ = telemetry::counterHandle("rebuild.yields");
}

void
RebuildEngine::start()
{
    const sim::Tick now = arr_.sim_.now();
    progress_.startedAt = now;
    nextIssueAt_ = now;
    pump();
}

sim::Tick
RebuildEngine::rateTicks(std::uint32_t sectors) const
{
    if (params_.rateMBps <= 0.0)
        return 0;
    const double bytes =
        static_cast<double>(sectors) * geom::kSectorBytes;
    return sim::secondsToTicks(bytes / (params_.rateMBps * 1e6));
}

void
RebuildEngine::pump()
{
    if (cursor_ >= arr_.diskSectors_) {
        finish();
        return;
    }
    const sim::Tick now = arr_.sim_.now();
    // Array-wide foreground yield: the sweep pauses while any
    // survivor is busy with host work (on top of the per-drive
    // background queue, which already serves rebuild I/O last).
    for (std::uint32_t m = 0; m < arr_.diskCount(); ++m) {
        if (m == spareIdx_ || arr_.failed_[m])
            continue;
        if (arr_.disks_[m]->foregroundQueueDepth() <=
            params_.yieldDepth)
            continue;
        ++progress_.yields;
        telemetry::bump(ctrYields_);
        const sim::Tick wait =
            std::max<sim::Tick>(1, sim::msToTicks(params_.yieldMs));
        arr_.sim_.schedule(now + wait, [this] { pump(); });
        return;
    }
    // Average-rate cap: chunk k+1 is not issued before the floor.
    if (now < nextIssueAt_) {
        arr_.sim_.schedule(nextIssueAt_, [this] { pump(); });
        return;
    }
    issueChunkReads();
}

void
RebuildEngine::issueChunkReads()
{
    const sim::Tick now = arr_.sim_.now();
    const std::uint32_t c = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(params_.chunkSectors,
                                arr_.diskSectors_ - cursor_));
    chunkSectors_ = c;
    nextIssueAt_ = std::max(now, nextIssueAt_) + rateTicks(c);
    verify::onRebuildChunk(progress_.chunksDone);
    telemetry::bump(ctrChunks_);

    // RAID-1: the mirror twin. RAID-5: every surviving member — a
    // row is the same LBA range on each disk, and XOR over all
    // survivors reconstructs the dead member's unit regardless of
    // where the parity rotation put it.
    readsOutstanding_ = 0;
    for (std::uint32_t m = 0; m < arr_.diskCount(); ++m) {
        if (m == spareIdx_)
            continue;
        if (arr_.params_.layout == Layout::Raid1 &&
            m != (spareIdx_ ^ 1u))
            continue;
        sim::simAssert(!arr_.failed_[m],
                       "rebuild: source member offline");
        workload::IoRequest r;
        r.id = kIdBit | nextSubId_++;
        r.arrival = now;
        r.lba = cursor_;
        r.sectors = c;
        r.isRead = true;
        r.background = true;
        ++readsOutstanding_;
        ++progress_.readSubs;
        telemetry::bump(ctrReads_);
        arr_.disks_[m]->submit(r);
    }
    sim::simAssert(readsOutstanding_ > 0,
                   "rebuild: no surviving source member");
}

void
RebuildEngine::issueSpareWrite()
{
    const sim::Tick now = arr_.sim_.now();
    verify::onRebuildSpareWrite(progress_.chunksDone);
    telemetry::bump(ctrSpareWrites_);
    ++progress_.spareWrites;
    writeOutstanding_ = true;
    workload::IoRequest w;
    w.id = kIdBit | nextSubId_++;
    w.arrival = now;
    w.lba = cursor_;
    w.sectors = chunkSectors_;
    w.isRead = false;
    w.background = true;
    arr_.disks_[spareIdx_]->submit(w);
}

void
RebuildEngine::onSubComplete(std::uint32_t disk_idx,
                             const workload::IoRequest &sub,
                             sim::Tick done,
                             const disk::ServiceInfo &info)
{
    (void)done;
    (void)info;
    if (sub.isRead) {
        sim::simAssert(disk_idx != spareIdx_,
                       "rebuild: read completion from the spare");
        sim::simAssert(readsOutstanding_ > 0,
                       "rebuild: read completion underflow");
        if (--readsOutstanding_ == 0)
            issueSpareWrite();
        return;
    }
    sim::simAssert(disk_idx == spareIdx_,
                   "rebuild: write completion off the spare");
    sim::simAssert(writeOutstanding_,
                   "rebuild: write completion underflow");
    writeOutstanding_ = false;
    const std::uint64_t chunk = progress_.chunksDone;
    ++progress_.chunksDone;
    cursor_ += chunkSectors_;
    if (params_.onChunk)
        params_.onChunk(chunk);
    pump();
}

void
RebuildEngine::finish()
{
    progress_.done = true;
    progress_.finishedAt = arr_.sim_.now();
    arr_.completeRebuild(spareIdx_);
    if (params_.onDone)
        params_.onDone();
}

} // namespace array
} // namespace idp
