/**
 * @file
 * Seam between the StorageArray and a PDES engine.
 *
 * A serial run gives the array one Simulator and everything happens
 * inline. A PDES run splits the machine into a coordinator calendar
 * (workload feed + fan-out), one calendar per drive, and an
 * array-phase calendar that replays drive completions in the
 * deterministic (tick, drive id, sequence) merge order. The array
 * keeps all its layout/join logic; it only asks the bridge for the
 * current phase clock, routes sub-requests into per-drive inboxes,
 * and reports drive completions back — so the serial path stays
 * byte-identical and bridge-free.
 */

#ifndef IDP_ARRAY_ARRAY_BRIDGE_HH
#define IDP_ARRAY_ARRAY_BRIDGE_HH

#include <cstdint>

#include "sim/types.hh"

namespace idp {

namespace sim {
class Simulator;
} // namespace sim

namespace workload {
struct IoRequest;
} // namespace workload

namespace disk {
struct ServiceInfo;
} // namespace disk

namespace array {

class ArrayBridge
{
  public:
    virtual ~ArrayBridge() = default;

    /** Clock of the phase currently executing (coordinator during the
     *  fan-out phase, array-phase calendar during completion merge). */
    virtual sim::Tick now() const = 0;

    /** True while the array-phase (completion-merge) clock drives
     *  execution; bus bookings made then already run in global tick
     *  order and need no staging. */
    virtual bool inArrayPhase() const = 0;

    /** The calendar drive @p disk_idx lives on. */
    virtual sim::Simulator &driveSim(std::uint32_t disk_idx) = 0;

    /** The array-phase calendar (bus + completion replay). */
    virtual sim::Simulator &arrayPhaseSim() = 0;

    /** Queue @p sub for delivery to drive @p disk_idx at tick @p at
     *  (consumed by the drive's next conservative window). */
    virtual void deliver(std::uint32_t disk_idx,
                         const workload::IoRequest &sub,
                         sim::Tick at) = 0;

    /** A drive completion, captured on the drive's worker during its
     *  window; replayed later in merge order. */
    virtual void complete(std::uint32_t disk_idx,
                          const workload::IoRequest &sub, sim::Tick done,
                          const disk::ServiceInfo &info) = 0;

    /** Register tick @p at as a horizon barrier: no conservative
     *  window may span it, so the event at @p at executes with every
     *  calendar synchronized (a serial step). */
    virtual void addBarrier(sim::Tick at) = 0;

    /** True while execution is serially synchronized — either outside
     *  the run loop or inside a serial step, where membership-visible
     *  mutations are safe. */
    virtual bool atSerialStep() const = 0;

    /** Rebuild lifecycle: while active, the engine must treat every
     *  coordinator event as a serial step (the rebuild pump reads live
     *  foreground queue depths) and price drive completions into the
     *  horizon (completions re-arm the pump). */
    virtual void noteRebuildActive(bool active) = 0;
};

} // namespace array
} // namespace idp

#endif // IDP_ARRAY_ARRAY_BRIDGE_HH
