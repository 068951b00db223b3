/**
 * @file
 * Spare reconstruction after a member-disk failure.
 *
 * Degraded mode (StorageArray::failDisk) is only half of the failure
 * lifecycle: the array must also re-create the lost member's contents
 * on a spare while foreground traffic keeps flowing. The engine
 * models that as a linear background sweep over the failed member's
 * LBA space, one chunk at a time:
 *
 *   RAID-1  read the chunk from the mirror twin, write it to the
 *           spare (mirror copy);
 *   RAID-5  read the same LBA range from every surviving member and
 *           write the XOR to the spare. Parity rotation never matters
 *           here: a row is the same LBA range on every member, and
 *           XOR-ing all survivors reconstructs whichever unit (data
 *           or parity) the dead member held.
 *
 * The spare is the failed member's DiskDrive reused in place (a fresh
 * drive in the same bay). Rebuild I/O is issued with
 * IoRequest::background set, so each member drive serves it only when
 * its own foreground queue is empty; on top of that the engine yields
 * array-wide — it pauses the sweep while any survivor's foreground
 * backlog exceeds yieldDepth — and paces itself under an average-rate
 * cap (rateMBps). One chunk is in flight at a time.
 *
 * Conservation (checked by the verify layer): every announced chunk
 * results in exactly one spare write, and the foreground exactly-once
 * accounting is untouched mid-rebuild because rebuild ids live in a
 * disjoint id space (bit 63 set) and bypass the join machinery.
 */

#ifndef IDP_ARRAY_REBUILD_HH
#define IDP_ARRAY_REBUILD_HH

#include <cstdint>
#include <functional>

#include "disk/disk_drive.hh"
#include "sim/types.hh"
#include "telemetry/telemetry.hh"
#include "workload/request.hh"

namespace idp {
namespace array {

class StorageArray;

/** Rebuild pacing knobs. */
struct RebuildParams
{
    /** Sectors reconstructed per chunk = per spare write.
     *  2048 sectors = 1 MB. */
    std::uint32_t chunkSectors = 2048;
    /**
     * Average reconstruction rate cap in MB/s of rebuilt (spare)
     * bytes; 0 = unthrottled. The cap is an issue
     * floor: chunk k+1 is not issued before start + (k+1) * chunk
     * time at this rate.
     */
    double rateMBps = 0.0;
    /** Pause the sweep while any surviving member's foreground queue
     *  is deeper than this. */
    std::size_t yieldDepth = 4;
    /** Re-check period while yielding, in milliseconds. */
    double yieldMs = 1.0;
    /** Called after each chunk lands (benches probe allocator state
     *  here); may be empty. */
    std::function<void(std::uint64_t chunk)> onChunk;
    /** Called once when the spare holds the full member image. */
    std::function<void()> onDone;
};

/** Progress snapshot (telemetry / benches / tests). */
struct RebuildProgress
{
    bool done = false;
    std::uint64_t chunksDone = 0;
    std::uint64_t chunksTotal = 0;
    std::uint64_t readSubs = 0;     ///< reconstruction reads issued
    std::uint64_t spareWrites = 0;  ///< spare writes issued
    std::uint64_t yields = 0;       ///< foreground-yield pauses
    sim::Tick startedAt = 0;
    sim::Tick finishedAt = 0; ///< valid when done

    double
    fraction() const
    {
        return chunksTotal
            ? static_cast<double>(chunksDone) /
                static_cast<double>(chunksTotal)
            : 0.0;
    }
};

/**
 * Streams one failed member's reconstruction onto its spare. Owned by
 * the StorageArray (StorageArray::startRebuild); lives until the
 * array does, so finished-rebuild telemetry stays readable.
 */
class RebuildEngine
{
  public:
    RebuildEngine(StorageArray &arr, std::uint32_t spare_idx,
                  RebuildParams params);

    RebuildEngine(const RebuildEngine &) = delete;
    RebuildEngine &operator=(const RebuildEngine &) = delete;

    /** Rebuild ids live above bit 63, disjoint from join ids. */
    static bool
    isRebuildId(std::uint64_t id)
    {
        return (id & kIdBit) != 0;
    }

    /** Kick off the sweep at the current simulated time. */
    void start();

    /** True once the spare holds the full image. */
    bool done() const { return progress_.done; }

    /** True when no rebuild I/O is outstanding. */
    bool
    idle() const
    {
        return readsOutstanding_ == 0 && !writeOutstanding_;
    }

    const RebuildProgress &progress() const { return progress_; }

    /** Completion router target (called by the owning array for ids
     *  passing isRebuildId). */
    void onSubComplete(std::uint32_t disk_idx,
                       const workload::IoRequest &sub, sim::Tick done,
                       const disk::ServiceInfo &info);

  private:
    static constexpr std::uint64_t kIdBit = 1ull << 63;

    /** Issue the next chunk's reads, or pause (yield / rate floor),
     *  or finish the rebuild. */
    void pump();
    void issueChunkReads();
    void issueSpareWrite();
    void finish();
    /** Ticks the rate cap charges for @p sectors. */
    sim::Tick rateTicks(std::uint32_t sectors) const;

    StorageArray &arr_;
    const std::uint32_t spareIdx_;
    RebuildParams params_;
    RebuildProgress progress_;

    std::uint64_t cursor_ = 0;       ///< next LBA to reconstruct
    std::uint32_t chunkSectors_ = 0; ///< sectors of the chunk in flight
    std::uint32_t readsOutstanding_ = 0;
    bool writeOutstanding_ = false;
    /** Rate-cap issue floor for the next chunk. */
    sim::Tick nextIssueAt_ = 0;
    std::uint64_t nextSubId_ = 0;

    telemetry::Counter *ctrChunks_ = nullptr;
    telemetry::Counter *ctrReads_ = nullptr;
    telemetry::Counter *ctrSpareWrites_ = nullptr;
    telemetry::Counter *ctrYields_ = nullptr;
};

} // namespace array
} // namespace idp

#endif // IDP_ARRAY_REBUILD_HH
