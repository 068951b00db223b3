/**
 * @file
 * Runtime invariant-checking hooks — the only verify header module
 * code should include.
 *
 * Compile-time guard: building with IDP_VERIFY=0 (cmake
 * -DIDP_VERIFY=OFF) turns activeChecker() into constexpr nullptr, so
 * every hook below folds to nothing (the token-returning ones to the
 * constant kNoToken) — checking is zero-cost, not merely cheap. With
 * the guard on (the default) every hook and InvariantChecker::current
 * are inline, so a run without a checker pays one thread-local load
 * and branch per hook, bounded by bench/micro_simcore; with a checker
 * installed, the hot hooks' all-clear paths are inline as well.
 *
 * Runtime control is per run: core::runTrace, core::runClosedLoop and
 * serve::runService each hold a RunChecker, which installs an
 * InvariantChecker for the duration of the run unless the IDP_VERIFY
 * environment variable disables it (IDP_VERIFY=0), and the hooks see
 * it through the thread-local current. Tests install their own
 * checker (often in Record mode) through VerifyScope.
 *
 * The hooks deliberately observe and never mutate: an installed
 * checker cannot perturb event order, RNG streams, or statistics, so
 * verified runs stay byte-identical to unverified ones.
 */

#ifndef IDP_VERIFY_VERIFY_HH
#define IDP_VERIFY_VERIFY_HH

#include <optional>

#include "verify/invariant_checker.hh"

#ifndef IDP_VERIFY
#define IDP_VERIFY 1
#endif

namespace idp {
namespace verify {

#if IDP_VERIFY
constexpr bool kCompiledIn = true;

inline InvariantChecker *activeChecker()
{
    return InvariantChecker::current();
}
#else
constexpr bool kCompiledIn = false;

constexpr InvariantChecker *activeChecker() { return nullptr; }
#endif

/** True when runs should install a checker (IDP_VERIFY env, default
 *  on; any of "0", "off", "false" disables). Compiled-out builds
 *  always report false. */
bool enabledFromEnv();

/**
 * A run's checker: installs a fresh InvariantChecker for the scope's
 * lifetime when enabledFromEnv() and no checker is active yet. A
 * checker the caller already installed (tests observing the run)
 * takes precedence, and finalizing it stays the caller's job.
 */
class RunChecker
{
  public:
    RunChecker()
    {
        if (enabledFromEnv() && activeChecker() == nullptr)
            scope_.emplace(&owned_.emplace());
    }

    /** End-of-run checks on the checker this scope installed. */
    void finalize()
    {
        if (owned_)
            owned_->finalize();
    }

  private:
    std::optional<InvariantChecker> owned_;
    std::optional<VerifyScope> scope_;
};

// ---------------------------------------------------------------
// Event-kernel hooks
// ---------------------------------------------------------------

/** An event is about to fire at @p when with the calendar tagged
 *  @p domain (Simulator::verifyDomain) and the clock at @p now. */
inline void
onEventFire(std::uint32_t domain, sim::Tick now, sim::Tick when)
{
    if (InvariantChecker *vc = activeChecker())
        vc->checkKernelTime(domain, now, when);
}

// ---------------------------------------------------------------
// Disk-level hooks (dev = DiskDrive::telemetryId)
// ---------------------------------------------------------------

/** A host-visible request entered DiskDrive::submit. Returns the
 *  token the drive keeps beside the request for onDiskComplete. */
inline std::uint32_t
onDiskSubmit(std::uint32_t dev, std::uint64_t id, sim::Tick arrival,
             sim::Tick now)
{
    if (InvariantChecker *vc = activeChecker())
        return vc->diskSubmit(dev, id, arrival, now);
    return kNoToken;
}

/** A host-visible request completed (cache hit or media access);
 *  @p token is what onDiskSubmit returned for this copy. */
inline void
onDiskComplete(std::uint32_t dev, std::uint64_t id, std::uint32_t token,
               sim::Tick done, sim::Tick min_service)
{
    if (InvariantChecker *vc = activeChecker())
        vc->diskComplete(dev, id, token, done, min_service);
}

/** Occupancy conservation probe, called at service start/end. */
inline void
onDiskOccupancy(std::uint32_t dev, std::size_t in_flight,
                std::uint32_t busy_arms, std::uint32_t total_arms,
                std::uint32_t active_seeks, std::uint32_t max_seeks,
                std::uint32_t active_transfers,
                std::uint32_t max_transfers)
{
    if (InvariantChecker *vc = activeChecker())
        vc->checkDiskOccupancy(dev, in_flight, busy_arms, total_arms,
                               active_seeks, max_seeks,
                               active_transfers, max_transfers);
}

/**
 * The positioning oracle priced a (request, arm) pair: the pure-seek
 * pruning bound (also the PDES horizon floor's seek ingredient) must
 * never exceed the exact seek+rotation price — including mid-RPM-ramp,
 * where every period-derived term re-derives per segment.
 */
inline void
onPositioningBound(std::uint32_t dev, sim::Tick lower_bound,
                   sim::Tick exact)
{
    if (InvariantChecker *vc = activeChecker())
        vc->checkPositioningBound(dev, lower_bound, exact);
}

/**
 * A media access completed at @p done; its maintained completion
 * floor (the PDES dynamic-horizon ingredient) must be admissible,
 * i.e. never in the future of the actual completion.
 */
inline void
onDiskServiceBound(std::uint32_t dev, sim::Tick floor, sim::Tick done)
{
    if (InvariantChecker *vc = activeChecker())
        vc->checkServiceBound(dev, floor, done);
}

// ---------------------------------------------------------------
// Scheduler hooks
// ---------------------------------------------------------------

/**
 * A pruned (indexed) scheduler selection, sampled and re-derived with
 * the exhaustive reference scan: the two picks must be identical —
 * the pruning bounds are admissible and the tie-break order is
 * preserved by construction, so any divergence is a bug.
 */
inline void
onSchedChoice(const char *policy, std::uint32_t got_slot,
              std::uint32_t got_arm, std::uint32_t want_slot,
              std::uint32_t want_arm)
{
    if (InvariantChecker *vc = activeChecker())
        vc->checkSchedChoice(policy, got_slot, got_arm, want_slot,
                             want_arm);
}

// ---------------------------------------------------------------
// Array-level hooks (RAID split/join accounting)
// ---------------------------------------------------------------

/** A logical request fanned out under @p join_id. Returns the token
 *  the array keeps with the join for the three hooks below. */
inline std::uint32_t
onArraySplit(std::uint64_t join_id, sim::Tick arrival, sim::Tick now)
{
    if (InvariantChecker *vc = activeChecker())
        return vc->arraySplit(join_id, arrival, now);
    return kNoToken;
}

/** One sub-request was issued for @p join_id (incl. deferred RMW). */
inline void
onArraySub(std::uint64_t join_id, std::uint32_t token)
{
    if (InvariantChecker *vc = activeChecker())
        vc->arraySub(join_id, token);
}

/** One sub-request of @p join_id finished. */
inline void
onArraySubFinish(std::uint64_t join_id, std::uint32_t token,
                 sim::Tick done)
{
    if (InvariantChecker *vc = activeChecker())
        vc->arraySubFinish(join_id, token, done);
}

/** The logical request behind @p join_id completed. */
inline void
onArrayJoin(std::uint64_t join_id, std::uint32_t token,
            sim::Tick arrival, sim::Tick done)
{
    if (InvariantChecker *vc = activeChecker())
        vc->arrayJoin(join_id, token, arrival, done);
}

/** A fan-out produced a sub-request outside the member disk's
 *  [0, sectors) range — layout math lost a request. */
inline void
onArraySubRange(std::uint32_t dev, std::uint64_t lba,
                std::uint32_t sectors, std::uint64_t disk_sectors)
{
    if (InvariantChecker *vc = activeChecker())
        vc->arraySubRange(dev, lba, sectors, disk_sectors);
}

// ---------------------------------------------------------------
// Mode/energy accounting hooks
// ---------------------------------------------------------------

/** A drive closed its mode books: @p total must conserve (wall tiles
 *  total, standby within idle) and the RPM segments must tile it. */
inline void
onModeAccounting(std::uint32_t dev, const stats::ModeTimes &total,
                 const stats::ModeTimes &seg_sum, std::uint32_t arms)
{
    if (InvariantChecker *vc = activeChecker())
        vc->checkModeAccounting(dev, total, seg_sum, arms);
}

// ---------------------------------------------------------------
// Rebuild-engine hooks (spare reconstruction conservation)
// ---------------------------------------------------------------

/** Reconstruction of chunk @p chunk started (reads issued). */
inline void
onRebuildChunk(std::uint64_t chunk)
{
    if (InvariantChecker *vc = activeChecker())
        vc->rebuildChunk(chunk);
}

/** The spare write materializing chunk @p chunk was issued. */
inline void
onRebuildSpareWrite(std::uint64_t chunk)
{
    if (InvariantChecker *vc = activeChecker())
        vc->rebuildSpareWrite(chunk);
}

} // namespace verify
} // namespace idp

#endif // IDP_VERIFY_VERIFY_HH
