/**
 * @file
 * Event-driven disk drive model with intra-disk parallelism.
 *
 * Service pipeline per request (cache misses):
 *
 *   dispatch -> [seek] -> [rotational wait] -> [channel wait] ->
 *   [transfer] -> complete
 *
 * Each in-flight request occupies one arm assembly. Two drive-wide
 * resources gate concurrency, matching the paper's HC-SD-SA(n) design
 * (Section 7.2): a *motion budget* (how many arms may seek at once;
 * 1 in the base design) and a *channel budget* (how many heads may
 * transfer at once; 1 in the base design). The technical-report
 * extensions raise either budget. A conventional drive is simply the
 * n = 1 case.
 *
 * Rotational waits need no resource: arms hold position while the
 * platter spins. A request that loses the channel when its sector
 * arrives re-waits a full pass, exactly as real hardware would.
 *
 * Scheduling: when an arm and motion budget are free, the configured
 * scheduler examines a bounded window of the pending queue and all
 * idle arms. The default follows the paper's setup: rotation-blind
 * C-LOOK request selection (DiskSim-era driver-level LBN scheduling)
 * with the arm chosen by shortest positioning time, using this
 * drive's seek curve, spindle phase, and each arm's chassis azimuth
 * as the oracle. Full joint SPTF is available as an ablation.
 *
 * The other DASH dimensions are modeled too: headsPerArm > 1 (H)
 * staggers several heads per arm so the rotational wait takes the
 * best head; dash.surfaces > 1 (S) streams from multiple surfaces,
 * dividing media-transfer time.
 */

#ifndef IDP_DISK_DISK_DRIVE_HH
#define IDP_DISK_DISK_DRIVE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cache/disk_cache.hh"
#include "disk/cyl_index.hh"
#include "disk/drive_config.hh"
#include "geom/geometry.hh"
#include "mech/seek_model.hh"
#include "mech/spindle.hh"
#include "sched/scheduler.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "stats/histogram.hh"
#include "stats/mode_tracker.hh"
#include "stats/sampler.hh"
#include "telemetry/telemetry.hh"
#include "workload/request.hh"

namespace idp {
namespace disk {

/** Per-request service detail reported with each completion. */
struct ServiceInfo
{
    sim::Tick seekTicks = 0;
    sim::Tick rotTicks = 0;  ///< total rotational wait (incl. re-waits)
    sim::Tick xferTicks = 0;
    sim::Tick queueTicks = 0; ///< arrival -> dispatch
    std::uint32_t arm = 0;
    bool cacheHit = false;
    /** Media access exhausted its retries (fault injection). */
    bool failed = false;
};

/** Completion callback: (request, completion time, detail). */
using CompletionFn = std::function<void(
    const workload::IoRequest &, sim::Tick, const ServiceInfo &)>;

/** Aggregated per-drive statistics. */
struct DriveStats
{
    std::uint64_t arrivals = 0;
    std::uint64_t completions = 0;
    std::uint64_t reads = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t mediaAccesses = 0;
    std::uint64_t nonzeroSeeks = 0;
    std::uint64_t destages = 0;
    std::uint64_t backgroundCompletions = 0;
    std::uint64_t zeroLatencyHits = 0; ///< in-run read-on-arrival
    std::uint64_t coalescedRequests = 0; ///< riders folded in
    std::uint64_t mediaRetries = 0;      ///< injected re-reads
    std::uint64_t hardErrors = 0;        ///< retry budget exhausted
    std::uint64_t spinDowns = 0;         ///< power-mgmt spindle stops
    std::uint64_t spinUps = 0;
    std::uint64_t rpmShifts = 0;         ///< runtime RPM transitions
    std::uint64_t armParks = 0;          ///< actuator park events
    std::uint64_t armUnparks = 0;

    stats::SampleSet responseMs{1u << 20};
    stats::SampleSet seekMs{1u << 18};
    stats::SampleSet rotMs{1u << 18};
    stats::Histogram responseHist = stats::makeResponseHistogram();
    stats::Histogram rotHist = stats::makeRotLatencyHistogram();

    /** Per-arm media-access counts (scheduling balance). */
    std::vector<std::uint64_t> armAccesses;

    double
    nonzeroSeekFraction() const
    {
        return mediaAccesses
            ? static_cast<double>(nonzeroSeeks) /
                static_cast<double>(mediaAccesses)
            : 0.0;
    }
};

/**
 * One disk drive attached to a simulator.
 *
 * The drive does not own the completion consumer; storage arrays (or
 * tests) provide the callback. All methods must be called from the
 * simulator's event context (single-threaded).
 */
class DiskDrive
{
  public:
    DiskDrive(sim::Simulator &simul, const DriveSpec &spec,
              CompletionFn on_complete);

    DiskDrive(const DiskDrive &) = delete;
    DiskDrive &operator=(const DiskDrive &) = delete;

    /** Submit a request at the current simulated time. */
    void submit(const workload::IoRequest &req);

    /** Pending (not yet dispatched) request count. */
    std::size_t
    queueDepth() const
    {
        return fgList_.size + bgList_.size;
    }

    /** Pending host-visible (non-background) request count. */
    std::size_t foregroundQueueDepth() const { return fgList_.size; }

    /**
     * Price a hypothetical read of (@p lba, @p sectors) dispatched
     * right now: the cheapest healthy arm's seek + rotational wait
     * (the same oracle the scheduler prices dispatches with), the
     * media transfer, and a backlog term charging every queued or
     * in-flight request one average service time. Mirrored arrays use
     * this to route a read to the cheaper replica the way the
     * scheduler routes it to the cheaper arm. Read-only: consults
     * live arm positions and spindle phase but perturbs nothing.
     */
    sim::Tick readPriceTicks(geom::Lba lba,
                             std::uint32_t sectors) const;

    /**
     * Media time to read @p sectors starting at @p start: one sweep
     * per track, a head switch or single-cylinder seek per track
     * advance, truncated at the last cylinder. Full tracks inside a
     * zone are priced in closed form. Excludes controller overhead
     * and surface parallelism.
     */
    sim::Tick transferTicks(const geom::Chs &start,
                            std::uint32_t sectors) const;

    /** Requests currently in mechanical service. */
    std::size_t inFlight() const { return activeCount_; }

    /**
     * Admissible lower bound on the earliest tick this drive's next
     * host-visible completion can fire, evaluated for a conservative
     * window starting at @p round_start (the PDES engine's dynamic
     * horizon). Combines the scheduled cache-hit/write-absorb
     * completion ticks, each in-flight access's floor, and a
     * queued-work floor of
     * round_start + minServiceFloorTicks(). kTickNever when nothing
     * is queued or in flight — an idle drive cannot complete anything
     * until the coordinator feeds it. Allocation-free; lazily prunes
     * already-fired cache-hit entries (@p round_start is the global
     * minimum pending activity, so entries behind it have fired).
     *
     * An in-flight floor is exact from dispatch when nothing after
     * dispatch can delay the access: a channel per arm (no channel
     * wait), no zero-latency reads, no RPM ramp. Otherwise it is the
     * phase floor (exact once Transferring; earlier phases add the
     * minimum remaining transfer). A media retry only adds time, and
     * later phases only raise the floor, so it stays admissible.
     */
    sim::Tick completionBoundTicks(sim::Tick round_start);

    /**
     * Minimum service time of any request delivered to this drive
     * from now on: the cheaper of a one-sector cache-hit return
     * (controller + buffer-bus latency, RPM-independent) and a
     * zero-seek zero-rotation one-sector media transfer. The media
     * half is priced at the fastest RPM the drive can reach without a
     * new (serially synchronized) governor decision —
     * max(current, desired, in-flight ramp target) — so the floor
     * stays admissible across a mid-window ramp completion. Cached
     * per RPM state (see refreshServiceFloors).
     */
    sim::Tick minServiceFloorTicks() const { return minServiceFloor_; }

    /**
     * Record scheduled cache-hit completion ticks and exact in-flight
     * floors for completionBoundTicks (PDES horizons). Off by default
     * so serial runs pay nothing; the array enables it under a PDES
     * bridge.
     */
    void trackCompletionBounds(bool on) { trackHitBounds_ = on; }

    /** True when no request is queued or in service. */
    bool
    idle() const
    {
        return fgList_.size == 0 && bgList_.size == 0 &&
            activeCount_ == 0;
    }

    /** Close mode accounting at the current time and return totals. */
    stats::ModeTimes finishModeTimes();

    /**
     * Close mode accounting and return the per-RPM-segment breakdown
     * the power model prices segment-by-segment. Also feeds the
     * verify layer's mode/energy conservation check (segments must
     * tile the totals exactly).
     */
    std::vector<stats::RpmSegment> finishModeSegments();

    /** Snapshot of mode accounting without closing. */
    stats::ModeTimes modeTimesSnapshot() const;

    /**
     * Pre-reserve the per-drive sample buffers to their reservoir
     * capacity so completion-path ingestion never reallocates in
     * steady state (long-lived serving loops, rebuild benches).
     */
    void
    reserveStatsCapacity()
    {
        stats_.responseMs.reserve(~std::size_t(0));
        stats_.seekMs.reserve(~std::size_t(0));
        stats_.rotMs.reserve(~std::size_t(0));
    }

    const DriveStats &stats() const { return stats_; }
    const DriveSpec &spec() const { return spec_; }
    const geom::DiskGeometry &geometry() const { return geometry_; }
    const mech::SeekModel &seekModel() const { return seekModel_; }
    const mech::Spindle &spindle() const { return spindle_; }
    const cache::DiskCache &diskCache() const { return cache_; }

    /** Current cylinder of arm @p k (tests / examples). */
    std::uint32_t armCylinder(std::uint32_t k) const;

    /**
     * Deconfigure arm @p k (paper Section 8: SMART-driven graceful
     * degradation). The arm finishes any request it is servicing and
     * is never scheduled again. Failing the last healthy arm is a
     * caller error and panics.
     */
    void failArm(std::uint32_t k);

    /** Healthy (still configured) arm count. */
    std::uint32_t aliveArms() const;

    /**
     * Park / unpark arm assembly @p k (actuator power management).
     * A parked arm is excluded from dispatch and replica pricing but
     * stays configured — unparking restores it, unlike failArm.
     * Parking requires the arm idle (not mid-service) and at least
     * one other serviceable arm; both are caller errors otherwise.
     */
    void parkArm(std::uint32_t k);
    void unparkArm(std::uint32_t k);

    /** Currently parked arm count. */
    std::uint32_t parkedArms() const;

    /** True if arm @p k is parked. */
    bool armParked(std::uint32_t k) const;

    /** True if arm @p k is servicing a request (governor must not
     *  park a busy arm). */
    bool armBusy(std::uint32_t k) const;

    /**
     * Request a runtime spindle-speed change (the energy governor's
     * actuation point). The drive drains in-flight requests (new
     * dispatches are gated), serves nothing for spec().rpmShiftMs
     * while the spindle ramps, then resumes at the new speed with all
     * period-derived pricing re-derived and the positioning-cost
     * cache invalidated. Requests arriving during the ramp queue and
     * are priced at the new speed. While spun down the change is
     * recorded instantly (the spin-up pays the ramp). A repeated
     * request for the current speed is a no-op.
     */
    void requestRpm(std::uint32_t rpm);

    /** Current spindle speed (the last applied requestRpm). */
    std::uint32_t currentRpm() const { return spindle_.rpm(); }

    /** True while an RPM ramp is in flight or a drain is pending. */
    bool
    rpmShifting() const
    {
        return rpmShifting_ || desiredRpm_ != spindle_.rpm();
    }

    /** True while the spindle is stopped (spin-down power mgmt). */
    bool spunDown() const { return modes_.spunDown(); }

    /** True while a spin-down transition is in flight. */
    bool spinningDown() const { return spinningDown_; }

    /**
     * Physical disk index reported in telemetry spans (set by the
     * owning StorageArray; standalone drives report 0).
     */
    void setTelemetryId(std::uint32_t id) { telemetryId_ = id; }
    std::uint32_t telemetryId() const { return telemetryId_; }

    /**
     * Set the spindle's rotational phase at tick 0 (revolutions,
     * [0, 1)). The owning array skews member phases so independent
     * spindles do not start the run rotationally aligned; a
     * standalone drive keeps the default 0. Configuration-time only
     * — must precede the first request.
     */
    void setSpindlePhase(double angle) { spindle_.setPhase(angle); }

  private:
    enum class Phase
    {
        Seeking,
        Rotating,
        ChannelWait,
        Transferring,
    };

    /** Sentinel slot index for intrusive-list links. */
    static constexpr std::uint32_t kNilSlot = 0xffffffffu;

    /**
     * One queued request, stored by value in a slot-stable arena.
     * Geometry lookups (CHS, sector angle) are hoisted to enqueue
     * time so the positioning oracle never re-resolves the LBA.
     * Queue ordering is an intrusive doubly-linked list through
     * next/prev, so dispatch and coalescing unlink in O(1) with zero
     * steady-state allocations.
     */
    struct Pending
    {
        workload::IoRequest req;
        geom::Chs chs;
        double sectorAngle = 0.0;
        std::uint32_t cylinder = 0;
        bool internal = false; ///< destage traffic, not reported
        /** Bumped per slot reuse; guards stale cost-cache rows. */
        std::uint32_t gen = 0;
        std::uint32_t next = kNilSlot;
        std::uint32_t prev = kNilSlot;
        /**
         * Drive-wide monotone enqueue stamp. The FIFO is append-only
         * with order-preserving unlinks, so ascending seq *is* the
         * queue order — the schedulers' cost tie-break key, replacing
         * the window position the exhaustive scan ties on.
         */
        std::uint64_t seq = 0;
        /** Member of the first min(size, schedWindow) list prefix. */
        bool inWindow = false;
    };

    /**
     * Intrusive FIFO over arena slots (head = oldest). The scheduling
     * window — the first min(size, schedWindow) entries — is tracked
     * incrementally: windowTail/windowCount move O(1) per push and
     * unlink (an unlink inside the window promotes the first entry
     * beyond it), and the cylinder index mirrors exactly the window
     * members, so dispatch never walks or materializes the prefix.
     */
    struct PendingList
    {
        std::uint32_t head = kNilSlot;
        std::uint32_t tail = kNilSlot;
        std::size_t size = 0;
        std::uint32_t windowTail = kNilSlot;
        std::uint32_t windowCount = 0;
        /** Cylinder-bucketed window members (indexed dispatch only). */
        CylinderBuckets index;
    };

    /**
     * Cached positioning cost for one (pending slot, arm) pair.
     * The seek half stays valid while the arm's cylinder is
     * unchanged; the rotational half is phase-dependent and stays
     * valid only for the exact evaluation tick it was computed at
     * (reusing it across ticks would need floating-point identities
     * the spindle math does not guarantee bit-exactly, and figure
     * outputs are pinned byte-identical).
     */
    struct CostEntry
    {
        std::uint32_t gen = 0;
        std::uint32_t armCyl = 0;
        sim::Tick evalAt = 0;
        sim::Tick seek = 0;
        sim::Tick rot = 0;
        bool seekValid = false;
        bool rotValid = false;
    };

    struct Active
    {
        workload::IoRequest req;
        geom::Chs chs;
        std::uint32_t arm = 0;
        Phase phase = Phase::Seeking;
        sim::Tick dispatchTime = 0;
        sim::Tick seekTicks = 0;
        sim::Tick rotTicks = 0;
        sim::Tick xferTicks = 0;
        /** Zero-latency in-run hit: transfer takes one revolution. */
        sim::Tick xferOverride = 0;
        /** When channel-blocked: block start time (for the span). */
        sim::Tick channelWaitFrom = sim::kTickNever;
        std::uint32_t retries = 0; ///< media-error re-reads so far
        bool internal = false; ///< destage traffic, not reported
        /**
         * Positioning the oracle priced for this (request, arm) pair
         * at dispatch. startService/startRotation reuse the values
         * instead of recomputing when still exact: the seek whenever
         * predicted (same arm cylinder, same target), the rotational
         * wait only when startRotation runs at exactly predRotAt
         * (dispatch tick + predicted seek). kTickNever = no
         * prediction (e.g. SSTF never calls the oracle).
         */
        sim::Tick predSeek = sim::kTickNever;
        sim::Tick predRot = sim::kTickNever;
        sim::Tick predRotAt = sim::kTickNever;
        /** Bumped per arena-slot reuse; tags in-flight ids. */
        std::uint32_t gen = 0;
        /**
         * Admissible lower bound on this access's completion tick,
         * refreshed at every phase transition (exact once
         * Transferring). Riders complete with their access, so one
         * floor covers them all.
         */
        sim::Tick doneFloor = 0;
        /** Slot holds a live access (vs free-list member). */
        bool inUse = false;
        /** Contiguous requests folded into this media access. */
        std::vector<workload::IoRequest> riders;
    };

    /** Allocation-free FIFO of in-flight ids blocked on the channel
     *  (power-of-two ring; grows only past the high-water mark). */
    struct WaiterRing
    {
        std::vector<std::uint64_t> buf;
        std::size_t head = 0;
        std::size_t count = 0;

        bool empty() const { return count == 0; }

        void
        push(std::uint64_t v)
        {
            if (count == buf.size()) {
                // Grow and re-linearize (rare; capacity is retained).
                std::vector<std::uint64_t> bigger(
                    buf.empty() ? 16 : buf.size() * 2);
                for (std::size_t i = 0; i < count; ++i)
                    bigger[i] = buf[(head + i) & (buf.size() - 1)];
                buf = std::move(bigger);
                head = 0;
            }
            buf[(head + count) & (buf.size() - 1)] = v;
            ++count;
        }

        std::uint64_t
        pop()
        {
            const std::uint64_t v = buf[head];
            head = (head + 1) & (buf.size() - 1);
            --count;
            return v;
        }
    };

    struct Arm
    {
        std::uint32_t cylinder = 0;
        double azimuth = 0.0;
        bool busy = false;
        bool failed = false; ///< deconfigured by failArm()
        bool parked = false; ///< power-managed; reversible
    };

    /**
     * Adapter the indexed dispatch path hands to
     * IoScheduler::selectIndexed: the source list's cylinder buckets
     * plus this drive's seek curve as the admissible lower bound.
     * Bound per selection (bind()), so one instance serves both
     * pending lists with zero per-dispatch allocation.
     */
    class WindowIndex final : public sched::CylinderIndex
    {
      public:
        void
        bind(DiskDrive *drive, const PendingList *list)
        {
            drive_ = drive;
            list_ = list;
            visited_ = 0;
        }

        std::size_t windowSize() const override
        {
            return list_->windowCount;
        }
        sim::Tick seekLowerBound(std::uint32_t dist) const override;
        sim::Tick maxQueueWait(sim::Tick now) const override;
        void beginScan(std::uint32_t cylinder) override;
        bool nextBand(std::uint32_t &min_dist,
                      std::vector<sched::IndexedCandidate> &members)
            override;
        bool firstAtOrAbove(std::uint32_t cylinder,
                            sched::IndexedCandidate &out) override;
        bool lowestCylinder(sched::IndexedCandidate &out) override;
        void materializeWindow(
            std::vector<sched::PendingView> &out) const override;
        std::uint64_t visited() const override { return visited_; }

      private:
        DiskDrive *drive_ = nullptr;
        const PendingList *list_ = nullptr;
        CylinderBuckets::Scan scan_;
        std::uint64_t visited_ = 0;
    };

    sim::Simulator &sim_;
    DriveSpec spec_;
    geom::DiskGeometry geometry_;
    mech::SeekModel seekModel_;
    mech::Spindle spindle_;
    cache::DiskCache cache_;
    std::unique_ptr<sched::IoScheduler> scheduler_;
    CompletionFn onComplete_;

    std::vector<Arm> arms_;
    std::uint32_t activeSeeks_ = 0;
    std::uint32_t activeTransfers_ = 0;

    /** Slot-stable pending arena + free list + FIFO index lists. */
    std::vector<Pending> pendingPool_;
    std::vector<std::uint32_t> pendingFree_;
    PendingList fgList_; ///< foreground queue
    PendingList bgList_; ///< background + destage queue

    /** Slot-stable in-flight arena (ids are (gen << 32) | slot). */
    std::vector<Active> activePool_;
    std::vector<std::uint32_t> activeFree_;
    std::size_t activeCount_ = 0;

    /** Per-(pending slot, arm) positioning costs; see CostEntry. */
    std::vector<CostEntry> costCache_;

    /** Reused per-dispatch scratch (no per-dispatch allocations). */
    std::vector<sched::PendingView> window_;
    std::vector<sched::ArmView> idleArms_;
    sched::PositioningFn oracle_;
    WindowIndex windowIndex_;
    /** Monotone enqueue stamp feeding Pending::seq. */
    std::uint64_t enqueueSeq_ = 0;
    /** Dispatch through the cylinder index (policy supports it,
     *  spec_.schedPrune set, IDP_SCHED_PRUNE not disabling it). */
    bool schedIndexed_ = false;

    WaiterRing channelWaiters_; // FIFO of in-flight ids

    stats::ModeTracker modes_;
    DriveStats stats_;
    sim::Rng faultRng_{0x51D0};

    std::uint32_t telemetryId_ = 0;
    /** Registry handles (null when no registry is installed). */
    telemetry::Counter *ctrMediaAccesses_ = nullptr;
    telemetry::Counter *ctrCacheHits_ = nullptr;
    telemetry::Counter *ctrChannelBlocks_ = nullptr;
    telemetry::Counter *ctrZeroLatHits_ = nullptr;
    telemetry::Counter *ctrSpinUps_ = nullptr;

    sim::Tick headSwitchTicks_;
    sim::Tick controllerTicks_;
    /** Mean-service proxy (1/3-stroke seek + half a revolution) the
     *  replica price charges per queued/in-flight request. */
    sim::Tick estServiceTicks_ = 0;
    sim::EventId idleTimer_ = sim::kInvalidEventId;
    bool spinningUp_ = false;
    /** Spin-down transition in flight (spec_.spinDownMs > 0). */
    bool spinningDown_ = false;
    /** Speed the last requestRpm asked for (init: spec rpm). */
    std::uint32_t desiredRpm_ = 0;
    /** RPM ramp in flight, and its target. */
    bool rpmShifting_ = false;
    std::uint32_t shiftTo_ = 0;

    /**
     * Min-heap of scheduled cache-hit / write-absorb completion ticks
     * (only fed while trackHitBounds_). Fired entries are pruned on
     * push against the drive clock and by completionBoundTicks
     * against the round start, which is the global minimum pending
     * activity.
     */
    std::vector<sim::Tick> hitHeap_;
    bool trackHitBounds_ = false;
    /** Densest zone's sectors-per-track (fastest one-sector sweep). */
    std::uint32_t maxSpt_ = 1;
    /** One-sector cache-hit return (RPM-independent). */
    sim::Tick busOneSectorTicks_ = 0;
    /** RPM-dependent floors; see refreshServiceFloors. */
    sim::Tick minTransferFloor_ = 0;
    sim::Tick minServiceFloor_ = 0;
    /** No access can wait for the channel or take the zero-latency
     *  path, so in-flight floors can be exact from dispatch. */
    bool exactFloorConfig_ = false;

    std::uint32_t totalSectors(const Active &active) const;
    void tryDispatch();
    void startService(Active active);
    void onSeekDone(std::uint64_t id);
    void startRotation(std::uint64_t id);
    void onRotationDone(std::uint64_t id);
    void tryStartTransfer(std::uint64_t id);
    void onTransferDone(std::uint64_t id);
    void completeActive(std::uint64_t id);
    void maybeDestage();
    /** Push a scheduled hit completion onto hitHeap_, pruning fired
     *  entries. */
    void noteHitBound(sim::Tick done);

    /** Arena plumbing for the pending queues. */
    std::uint32_t allocPending(const workload::IoRequest &req,
                               bool internal);
    void releasePending(std::uint32_t slot);
    void listPushBack(PendingList &list, std::uint32_t slot);
    void listUnlink(PendingList &list, std::uint32_t slot);

    /** Arena plumbing for in-flight requests. */
    std::uint64_t installActive(Active active);
    Active &activeAt(std::uint64_t id);
    void releaseActive(std::uint64_t id);

    /**
     * Admit the oldest channel waiter if the channel has room; its
     * sector has rotated past, so it re-waits for the platter.
     * @p defer_zero_wait preserves the media-retry call site's
     * historical behaviour of scheduling a zero-tick rotation event
     * instead of re-entering the transfer path synchronously (the
     * two orderings interleave differently with same-tick events).
     */
    void wakeNextChannelWaiter(bool defer_zero_wait);

    /** Memoized positioning oracle; see CostEntry for validity. */
    sim::Tick cachedPositioning(const sched::PendingView &req,
                                const sched::ArmView &arm);
    void armIdleTimer();
    void onIdleTimeout();
    void onSpinDownComplete();
    void beginSpinUpIfNeeded();
    /** Start the pending RPM ramp if the drive is quiescent (or apply
     *  instantly while spun down). Safe to call opportunistically. */
    void maybeStartRpmShift();
    void completeRpmShift();
    /** Switch the spindle at @p now and re-derive every period-derived
     *  constant (service pricing, positioning-cost cache). */
    void applyRpm(sim::Tick now, std::uint32_t rpm);
    /** Feed the arm/seek/channel occupancy to the invariant checker
     *  (no-op when none is installed). */
    void verifyOccupancy() const;

    sim::Tick scaledSeek(std::uint32_t from, std::uint32_t to,
                         bool is_write) const;
    /**
     * Admissible positioning lower bound at cylinder distance
     * @p dist: the scaled read seek with zero rotational wait —
     * exactly the seek half scaledSeek() computes for that distance,
     * so it never exceeds what cachedPositioning() can return
     * (writes only add settle time; rotation only adds wait).
     */
    sim::Tick seekLbTicks(std::uint32_t dist) const;
    sim::Tick scaledRotWait(sim::Tick at, const geom::Chs &chs,
                            double azimuth) const;
    /** scaledRotWait with the sector angle already resolved. */
    sim::Tick scaledRotWaitAngle(sim::Tick at, double angle,
                                 double azimuth) const;
    /**
     * Rotational wait for arm @p arm_index, taking the best of its
     * headsPerArm heads (the DASH H dimension: heads mounted
     * equidistant from the actuation axis at staggered azimuths).
     */
    sim::Tick armRotWait(sim::Tick at, const geom::Chs &chs,
                         std::uint32_t arm_index) const;
    /** armRotWait with the sector angle already resolved. */
    sim::Tick armRotWaitAngle(sim::Tick at, double angle,
                              std::uint32_t arm_index) const;
    sim::Tick busTicks(std::uint32_t sectors) const;
    /** Transfer phase of @p active: media sweep (or the zero-latency
     *  override) over the surface parallelism, plus controller
     *  overhead. */
    sim::Tick mediaTransferTicks(const Active &active) const;
    /**
     * Recompute the RPM-dependent floors. minTransferFloor_ is the
     * minimum one-sector media path: controller overhead plus the
     * densest zone's one-sector sweep at the fastest reachable RPM
     * (see minServiceFloorTicks), divided by the parallelism the spec
     * grants a single access. It ignores seek, settle, and rotational
     * wait — all nonnegative — so it lower-bounds any media transfer.
     * Called wherever the current, desired or ramp-target RPM moves.
     */
    void refreshServiceFloors();
};

} // namespace disk
} // namespace idp

#endif // IDP_DISK_DISK_DRIVE_HH
