/**
 * @file
 * Conservative parallel discrete-event simulation of one
 * storage-array run.
 *
 * The array is split into calendars: one coordinator (workload feed +
 * RAID fan-out), one per member drive, and one array-phase calendar
 * that replays drive completions and runs the bus. Drives interact
 * only through the array/bus layer, so once a horizon H is known
 * below which no drive can receive an event it cannot already see,
 * every calendar may simulate the window [T, H) in parallel, where T
 * is the earliest pending activity anywhere (the classic
 * Chandy–Misra–Bryant argument). Rounds alternate three phases:
 *
 *   A. coordinator runs its window serially, routing sub-requests
 *      into per-drive inbound queues (write bus movements are staged
 *      onto the array-phase calendar so channel occupancy stays in
 *      global tick order);
 *   B. every drive with work runs its window on a ThreadPool worker:
 *      consume inbox deliveries in (tick, sequence) order, fire local
 *      events, append completions to a private outbox — lock-free and
 *      allocation-free on the drive-local hot path;
 *   C. the outboxes merge in (tick, drive id, sequence) order onto
 *      the array-phase calendar, which replays join/bus logic
 *      serially.
 *
 * Horizons are derived per round from live state, so every
 * configuration is legal. Each drive exports an admissible lower
 * bound on its earliest next host-visible completion
 * (DiskDrive::completionBoundTicks: one floor per in-flight access,
 * a queued-work floor of seek-free + rotation-free one-sector service
 * — an idle drive with an empty inbox is unbounded until the
 * coordinator feeds it). An in-flight floor is exact from dispatch
 * when nothing can delay the access — a channel per arm, no
 * zero-latency reads, no RPM ramp — and otherwise a phase floor
 * (exact once transferring, earlier phases add one minimum transfer);
 * it is only ever raised afterwards, and a media retry only adds
 * time, so it stays admissible. The service floors depend only on
 * RPM state and are cached per drive until that state moves.
 *
 * The round's horizon is the min over those bounds (when completions
 * feed submissions), pending cross-layer deliveries plus their minimum
 * service, the one-sector bus transfer latency (when a bus is
 * modeled), the next coordinator event (when coordinator events read
 * live drive state — RAID-1 pricing, governor control, the rebuild
 * pump), and explicit *horizon barriers* — membership-visible events
 * (failDisk, rebuild start) registered via ArrayBridge::addBarrier.
 * Open-loop fan-outs with no bus have no completion feedback at all:
 * the horizon is unbounded and the whole run is a single round of
 * full drive parallelism.
 *
 * A round whose horizon collapses onto the round start executes as a
 * *serial step*: every calendar is advanced to that tick and the
 * phases loop to a fixpoint, so the event sees exactly the serial
 * run's state; wider horizons run the usual parallel window.
 *
 * Determinism: phase B's calendars are disjoint, the merge order is
 * a total order independent of thread scheduling, and per-drive span
 * rings merge in drive-id order — so results are byte-identical at
 * any worker count, and (up to same-tick cross-calendar ties that the
 * tick resolution makes vanishingly rare) identical to the serial
 * path.
 */

#ifndef IDP_EXEC_PDES_HH
#define IDP_EXEC_PDES_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "array/array_bridge.hh"
#include "array/storage_array.hh"
#include "disk/disk_drive.hh"
#include "exec/thread_pool.hh"
#include "sim/event_queue.hh"
#include "telemetry/tracer.hh"
#include "verify/invariant_checker.hh"
#include "workload/request.hh"

namespace idp {
namespace exec {

/** Resolved PDES controls for one run. */
struct PdesOptions
{
    bool enabled = false;
    unsigned workers = 1;

    /**
     * Resolve from a programmatic override and the environment:
     * @p override_workers < 0 follows IDP_PDES (off unless set to a
     * truthy value; worker count from IDP_PDES_WORKERS, else
     * configuredThreads()); 0 forces the serial path; > 0 forces PDES
     * with that many workers.
     */
    static PdesOptions resolve(int override_workers);
};

/** Merge key at a synchronization horizon: completions replay in
 *  (tick, drive id, per-drive sequence) order. */
struct PdesCompletionKey
{
    sim::Tick tick = 0;
    std::uint32_t drive = 0;
    std::uint64_t seq = 0;
};

/** Strict total order of the horizon merge. */
inline bool
pdesMergeBefore(const PdesCompletionKey &a, const PdesCompletionKey &b)
{
    if (a.tick != b.tick)
        return a.tick < b.tick;
    if (a.drive != b.drive)
        return a.drive < b.drive;
    return a.seq < b.seq;
}

/**
 * One PDES run. Lifecycle:
 *
 *   PdesRun prun(params, workers, topts);
 *   array::StorageArray arr(prun.coordSim(), params, nullptr, &prun);
 *   prun.setArray(&arr);
 *   ... schedule the workload feed on prun.coordSim() ...
 *   prun.run();
 *
 * After run(), every calendar sits at endTick() — the same tick the
 * serial path's single calendar would end at — so downstream power /
 * mode-time integration closes identically.
 */
class PdesRun final : public array::ArrayBridge
{
  public:
    PdesRun(const array::ArrayParams &params, unsigned workers,
            const telemetry::TraceOptions &trace_options);
    ~PdesRun() override;

    PdesRun(const PdesRun &) = delete;
    PdesRun &operator=(const PdesRun &) = delete;

    /** The coordinator calendar (schedule the workload feed here). */
    sim::Simulator &coordSim() { return coordSim_; }

    /** Must be called once, before run(). */
    void setArray(array::StorageArray *arr) { arr_ = arr; }

    /** Drive the phased rounds until every calendar and queue drains. */
    void run();

    /** Common final tick of all calendars (valid after run()). */
    sim::Tick endTick() const { return endTick_; }

    /** Synchronization rounds executed (an unbounded run = 1). */
    std::uint64_t rounds() const { return rounds_; }

    /** Rounds whose horizon collapsed onto the round start and ran as
     *  a fully synchronized serial step. */
    std::uint64_t serialSteps() const { return serialSteps_; }

    /** Number of horizon-width histogram buckets: log2(h - t) clamps
     *  into [0, 62]; bucket 63 counts unbounded (kTickNever) rounds. */
    static constexpr std::size_t kHorizonBuckets = 64;

    /** Windowed-round width histogram, log2-bucketed; serial steps
     *  are counted by serialSteps(), not here. */
    const std::uint64_t *horizonWidthHist() const
    {
        return horizonHist_;
    }

    unsigned workerCount() const { return workers_; }

    /** Kernel gauges summed over every calendar. */
    std::uint64_t eventsFired() const;
    std::uint64_t eventsCancelled() const;
    std::size_t peakPending() const;

    /**
     * The run's trace: the main tracer's product plus every drive
     * tracer's, appended in drive-id order with phase totals summed —
     * deterministic at any worker count.
     */
    telemetry::TraceData mergedTrace(const telemetry::Tracer &main) const;

    // -- ArrayBridge ------------------------------------------------
    sim::Tick now() const override { return active_->now(); }
    bool inArrayPhase() const override { return active_ == &arraySim_; }
    sim::Simulator &driveSim(std::uint32_t disk_idx) override
    {
        return *driveSims_[disk_idx];
    }
    sim::Simulator &arrayPhaseSim() override { return arraySim_; }
    void deliver(std::uint32_t disk_idx, const workload::IoRequest &sub,
                 sim::Tick at) override;
    void complete(std::uint32_t disk_idx, const workload::IoRequest &sub,
                  sim::Tick done, const disk::ServiceInfo &info) override;
    void addBarrier(sim::Tick at) override;
    bool atSerialStep() const override { return serialStepActive_; }
    void noteRebuildActive(bool active) override
    {
        rebuildActive_ = active;
    }

  private:
    /** Inbound cross-layer delivery, consumed by a drive window in
     *  (at, seq) order; seq is a global push sequence so same-tick
     *  deliveries keep their issue order. */
    struct InItem
    {
        sim::Tick at;
        std::uint64_t seq;
        workload::IoRequest sub;
    };

    /** A drive completion awaiting its merge-ordered replay. */
    struct OutRec
    {
        sim::Tick done;
        std::uint64_t seq; ///< per-drive capture sequence
        std::uint32_t drive;
        workload::IoRequest sub;
        disk::ServiceInfo info;
    };

    sim::Tick nextActivityTick();
    /** Horizon for the round starting at @p t: the min
     *  admissible bound over drives, inboxes, staged bus movements,
     *  barriers, and (when coordinator events read live drive state)
     *  the next coordinator event. Allocation-free. */
    sim::Tick computeHorizon(sim::Tick t);
    /** Execute tick @p t fully synchronized: advance every calendar
     *  to @p t and loop coordinator/drive/merge phases until no
     *  activity at or before @p t remains. */
    void serialStep(sim::Tick t);
    void runDrives(sim::Tick horizon);
    /** Worker entry: installs the run's thread-local currents. */
    void driveWindowTask(std::uint32_t i, sim::Tick horizon);
    void runDriveWindow(std::uint32_t i, sim::Tick horizon);
    void mergePhase(sim::Tick horizon);
    void finishRun();

    sim::Simulator coordSim_;
    sim::Simulator arraySim_;
    std::vector<std::unique_ptr<sim::Simulator>> driveSims_;
    std::vector<std::vector<InItem>> inbox_;
    /** Earliest InItem::at per inbox (kTickNever when empty), kept on
     *  deliver and consumption so round bookkeeping never rescans. */
    std::vector<sim::Tick> inboxMin_;
    std::vector<std::vector<OutRec>> outbox_;
    std::vector<OutRec> merged_;
    /** Per-drive span rings (single-writer each); merged after run. */
    std::vector<std::unique_ptr<telemetry::Tracer>> driveTracers_;
    /** Drives with work in the current window (reused each round). */
    std::vector<std::uint32_t> busy_;

    array::StorageArray *arr_ = nullptr;
    sim::Simulator *active_ = &coordSim_;
    sim::Tick horizon_ = 0;
    sim::Tick endTick_ = 0;
    std::uint64_t rounds_ = 0;
    std::uint64_t serialSteps_ = 0;
    std::uint64_t deliverSeq_ = 0;
    unsigned workers_ = 1;

    /** Coordinator events read live drive state (RAID-1 replica
     *  pricing, governor control ticks) — run them at serial steps. */
    bool serialCoordConfig_ = false;
    /** Completions feed new submissions with no bus latency (busless
     *  RAID-5 RMW) — cap horizons at the drive completion bounds. */
    bool feedbackConfig_ = false;
    /** A rebuild is streaming: its pump reads live foreground queue
     *  depths (serial coordinator) and its completions re-arm it
     *  (completion feedback), regardless of the base config. */
    bool rebuildActive_ = false;
    /** True outside the run loop and inside serial steps; guards
     *  membership-visible mutations (StorageArray::failDisk). */
    bool serialStepActive_ = true;
    /** Min staged-bus latency, kTickNever without a bus. */
    sim::Tick busLookahead_ = sim::kTickNever;
    /** Min-heap (std::greater) of barrier ticks; see addBarrier. */
    std::vector<sim::Tick> barriers_;
    std::uint64_t horizonHist_[kHorizonBuckets] = {};

    /** Pool is created on the first round that has >= 2 busy drives;
     *  private to this run, so pool_->wait() is a safe barrier. */
    std::unique_ptr<ThreadPool> pool_;

    /** The run's thread-local currents, captured at run() start and
     *  re-installed inside every worker task. */
    verify::InvariantChecker *checker_ = nullptr;
    telemetry::Registry *registry_ = nullptr;
};

} // namespace exec
} // namespace idp

#endif // IDP_EXEC_PDES_HH
