/**
 * @file
 * Online energy governor: time-varying RPM/actuator control under a
 * latency SLO.
 *
 * The paper's energy study (Figures 6/7) is a static sweep over fixed
 * RPM points; this module closes the loop the way Behzadnia et al.
 * (PAPERS.md) argue for: a per-drive controller observes the live
 * workload over sliding windows — busy fraction from the drive's mode
 * tracker, tail latency from the completion stream — and actuates the
 * two power knobs the mech layer models with real transition costs:
 *
 *   - spindle speed (DiskDrive::requestRpm: drain + rpmShiftMs ramp
 *     during which the drive serves nothing), and
 *   - actuator parking (DiskDrive::parkArm/unparkArm: parked arms are
 *     excluded from dispatch and shed their servo-hold power).
 *
 * Control law (evaluated every windowMs on the coordinator calendar;
 * under PDES every decision tick caps the round's horizon, so
 * governed runs stay byte-exact):
 *
 *   overloaded  := window p99 > sloP99Ms  OR  busy > busyHigh
 *   underloaded := window p99 < guard * sloP99Ms AND busy < busyLow
 *
 *   overloaded  -> unpark everything and jump straight back to full
 *                  speed (race-to-SLO; immediate, no dwell — a
 *                  staircase climb would pay one served-nothing ramp
 *                  per level, so jumping bounds the breach mass at a
 *                  single ramp)
 *   underloaded -> after minDwellMs since the last change, step one
 *                  RPM level down and park spare arms beyond
 *                  parkKeepArms
 *
 * The asymmetric dwell is the hysteresis: recovery is instant, savings
 * are earned slowly, so a bursty workload cannot make the governor
 * thrash through costly ramps.
 *
 * Transitions poison their own evidence: requests that queued behind
 * a ramp complete with the ramp's latency folded in, so the window
 * right after a speed change always looks like an SLO breach. Each
 * drive therefore gets a settling period (one ramp plus three control
 * windows) after a transition during which its decisions are
 * suspended — the breach the governor caused is not a reason to undo
 * the step. Sustained real overload outlives the settle and still
 * triggers the climb.
 *
 * Control ticks ride the calendar as cancellable events; when the
 * system drains (all drives idle, no transitions in flight, no fresh
 * completions) the governor goes dormant — even above the bottom
 * level, so a finished run is not kept alive billing phantom idle
 * energy — and the array re-arms it on the next submit.
 */

#ifndef IDP_POWER_GOVERNOR_HH
#define IDP_POWER_GOVERNOR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_queue.hh"
#include "stats/mode_tracker.hh"
#include "telemetry/telemetry.hh"

namespace idp {
namespace disk {
class DiskDrive;
} // namespace disk

namespace power {

/** Governor configuration (ArrayParams::governor). */
struct GovernorParams
{
    /** Master switch; off keeps every existing run byte-identical. */
    bool enabled = false;

    /** Control-loop evaluation period, ms. */
    double windowMs = 250.0;

    /** Latency SLO: the completion window's p99 must stay below. */
    double sloP99Ms = 50.0;

    /** Step down only while window p99 < guardFraction * sloP99Ms —
     *  the headroom margin that absorbs the next burst's onset. */
    double guardFraction = 0.5;

    /** Busy-fraction thresholds (1 - idle share of the window). */
    double busyHigh = 0.50;
    double busyLow = 0.20;

    /** Minimum dwell between *downward* transitions on one drive, ms
     *  (upward SLO-protection steps are never delayed). */
    double minDwellMs = 2000.0;

    /**
     * Spindle-speed levels, descending; levels[0] should be the
     * drive's nominal speed (it is prepended if missing). The
     * defaults are the paper's static study points.
     */
    std::vector<std::uint32_t> rpmLevels{7200, 6200, 5200, 4200};

    /**
     * When stepping below the top level, park idle arms down to this
     * many serviceable ones (0 = never park). Parking only pays off
     * when PowerParams::actuatorIdleW > 0.
     */
    std::uint32_t parkKeepArms = 0;

    /** Completion-latency sliding window capacity (p99 estimator). */
    std::size_t latencyRing = 1024;
};

/** Decision counters (also exported as telemetry counters). */
struct GovernorStats
{
    std::uint64_t ticks = 0;
    std::uint64_t stepUps = 0;
    std::uint64_t stepDowns = 0;
    std::uint64_t parks = 0;
    std::uint64_t unparks = 0;
};

/**
 * One governor instance per StorageArray, controlling every member
 * drive independently on the shared calendar. All buffers are
 * pre-allocated in the constructor; control ticks and completion
 * ingestion are allocation-free in steady state.
 */
class Governor
{
  public:
    Governor(sim::Simulator &simul, const GovernorParams &params,
             std::vector<disk::DiskDrive *> drives);

    Governor(const Governor &) = delete;
    Governor &operator=(const Governor &) = delete;

    ~Governor();

    /** Feed one logical completion latency into the sliding window.
     *  Called by the array on every response sample. */
    void onCompletion(double response_ms);

    /** A request entered the array: re-arm the control tick if the
     *  governor had gone dormant on an idle system. */
    void noteActivity();

    /** Cancel the outstanding control tick (end of run). */
    void stop();

    const GovernorStats &stats() const { return stats_; }

    const std::vector<std::uint32_t> &levels() const { return levels_; }

  private:
    struct DriveState
    {
        stats::ModeTimes lastModes;
        sim::Tick lastChange = 0;
        std::size_t levelIdx = 0;
    };

    void armTick();
    void controlTick();
    void decide(std::size_t i, double busy, double p99, sim::Tick now);
    void parkSpares(std::size_t i);
    void unparkAll(std::size_t i);
    double computeWindowP99();

    sim::Simulator &sim_;
    GovernorParams params_;
    std::vector<disk::DiskDrive *> drives_;
    std::vector<std::uint32_t> levels_;
    std::vector<DriveState> perDrive_;

    /** Completion-latency ring (ms) + reusable p99 scratch. */
    std::vector<double> ring_;
    std::size_t ringPos_ = 0;
    std::uint64_t samplesSinceTick_ = 0;
    std::vector<double> scratch_;

    sim::Tick windowTicks_ = 0;
    sim::Tick dwellTicks_ = 0;
    /** Post-transition evidence blackout: ramp + three windows. */
    sim::Tick settleTicks_ = 0;
    sim::EventId tickEv_ = sim::kInvalidEventId;
    bool dormant_ = false;
    bool stopped_ = false;
    double windowP99_ = 0.0;
    GovernorStats stats_;

    telemetry::Counter *ctrStepUps_ = nullptr;
    telemetry::Counter *ctrStepDowns_ = nullptr;
    telemetry::Counter *ctrParks_ = nullptr;
    telemetry::Counter *ctrUnparks_ = nullptr;
};

} // namespace power
} // namespace idp

#endif // IDP_POWER_GOVERNOR_HH
