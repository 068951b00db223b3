#include "power/governor.hh"

#include <algorithm>

#include "disk/disk_drive.hh"
#include "sim/logging.hh"

namespace idp {
namespace power {

Governor::Governor(sim::Simulator &simul, const GovernorParams &params,
                   std::vector<disk::DiskDrive *> drives)
    : sim_(simul), params_(params), drives_(std::move(drives))
{
    sim::simAssert(!drives_.empty(), "governor: no drives to control");
    sim::simAssert(params_.windowMs > 0.0, "governor: windowMs must be > 0");
    sim::simAssert(params_.sloP99Ms > 0.0, "governor: sloP99Ms must be > 0");
    sim::simAssert(params_.latencyRing > 0, "governor: empty latency ring");

    // Per-drive level table: descending, with the drive's nominal
    // speed prepended when the configured levels omit it (the governor
    // must always be able to return to full speed).
    levels_ = params_.rpmLevels;
    const std::uint32_t nominal = drives_.front()->spec().rpm;
    if (std::find(levels_.begin(), levels_.end(), nominal) == levels_.end())
        levels_.push_back(nominal);
    std::sort(levels_.begin(), levels_.end(),
              [](std::uint32_t a, std::uint32_t b) { return a > b; });
    sim::simAssert(levels_.front() >= nominal,
                   "governor: rpmLevels exceed the drive's nominal speed");

    perDrive_.resize(drives_.size());
    const sim::Tick now = sim_.now();
    for (std::size_t i = 0; i < drives_.size(); ++i) {
        perDrive_[i].lastModes = drives_[i]->modeTimesSnapshot();
        perDrive_[i].lastChange = now;
        // Start at the level matching the drive's current speed.
        std::size_t idx = 0;
        while (idx + 1 < levels_.size() &&
               levels_[idx] != drives_[i]->currentRpm())
            ++idx;
        perDrive_[i].levelIdx = idx;
    }

    ring_.assign(params_.latencyRing, 0.0);
    ringPos_ = 0;
    scratch_.reserve(params_.latencyRing);

    windowTicks_ = sim::msToTicks(params_.windowMs);
    dwellTicks_ = sim::msToTicks(params_.minDwellMs);
    // Ramp + 3 windows: the first tick evaluated after the blackout
    // covers a window beginning >= 2 windows past ramp end, past the
    // completions of whatever queued behind the ramp.
    settleTicks_ = 3 * windowTicks_ +
        sim::msToTicks(drives_.front()->spec().rpmShiftMs);

    ctrStepUps_ = telemetry::counterHandle("governor.step_ups");
    ctrStepDowns_ = telemetry::counterHandle("governor.step_downs");
    ctrParks_ = telemetry::counterHandle("governor.parks");
    ctrUnparks_ = telemetry::counterHandle("governor.unparks");

    armTick();
}

Governor::~Governor()
{
    stop();
}

void
Governor::onCompletion(double response_ms)
{
    ring_[ringPos_] = response_ms;
    ringPos_ = (ringPos_ + 1) % ring_.size();
    ++samplesSinceTick_;
}

void
Governor::noteActivity()
{
    if (dormant_ && !stopped_) {
        dormant_ = false;
        armTick();
    }
}

void
Governor::stop()
{
    stopped_ = true;
    if (tickEv_ != sim::kInvalidEventId) {
        sim_.cancel(tickEv_);
        tickEv_ = sim::kInvalidEventId;
    }
}

void
Governor::armTick()
{
    if (stopped_)
        return;
    tickEv_ = sim_.scheduleAfter(windowTicks_, [this] {
        tickEv_ = sim::kInvalidEventId;
        controlTick();
    });
}

double
Governor::computeWindowP99()
{
    const std::size_t n =
        std::min<std::size_t>(samplesSinceTick_, ring_.size());
    if (n == 0)
        return 0.0;
    // Copy the newest n samples into the preallocated scratch and take
    // the p99 via nth_element — O(n), no allocation, no full sort.
    scratch_.clear();
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t pos = (ringPos_ + ring_.size() - 1 - i) %
            ring_.size();
        scratch_.push_back(ring_[pos]);
    }
    const std::size_t rank = (n * 99) / 100;
    std::nth_element(scratch_.begin(),
                     scratch_.begin() + static_cast<std::ptrdiff_t>(rank),
                     scratch_.end());
    return scratch_[rank];
}

void
Governor::controlTick()
{
    ++stats_.ticks;
    const sim::Tick now = sim_.now();
    windowP99_ = computeWindowP99();
    const bool had_samples = samplesSinceTick_ != 0;
    samplesSinceTick_ = 0;

    bool any_active = false;
    bool any_shifting = false;

    for (std::size_t i = 0; i < drives_.size(); ++i) {
        disk::DiskDrive *d = drives_[i];
        DriveState &st = perDrive_[i];

        const stats::ModeTimes cur = d->modeTimesSnapshot();
        const stats::ModeTimes win = stats::ModeTimes::delta(cur, st.lastModes);
        st.lastModes = cur;

        if (!d->idle())
            any_active = true;

        // Never retarget a drive mid-transition: an RPM ramp, a
        // spin-down transition, or standby each finish (and re-price)
        // before the next decision can land.
        if (d->rpmShifting() || d->spunDown() || d->spinningDown()) {
            any_shifting = true;
            continue;
        }

        const double busy = win.total == 0
            ? 0.0
            : 1.0 -
                static_cast<double>(
                    win.wall[static_cast<std::size_t>(
                        stats::DiskMode::Idle)]) /
                    static_cast<double>(win.total);

        decide(i, busy, windowP99_, now);
    }

    // Dormancy: with every drive idle and no fresh completions,
    // rescheduling would keep an empty simulation alive forever —
    // and extend a drained run's horizon (billing phantom idle
    // energy) just to walk the remaining descent staircase. Park the
    // loop even above the bottom level; StorageArray::submit re-arms
    // it via noteActivity(), so during a sparse-but-live lull the
    // descent simply stutters along with the traffic.
    if (!any_active && !any_shifting && !had_samples) {
        dormant_ = true;
        return;
    }
    armTick();
}

void
Governor::decide(std::size_t i, double busy, double p99, sim::Tick now)
{
    disk::DiskDrive *d = drives_[i];
    DriveState &st = perDrive_[i];

    // Settling: the window right after a transition measures the
    // queue the ramp itself built up. Suspend decisions until one
    // clean window of evidence has accumulated.
    if (now - st.lastChange < settleTicks_)
        return;

    const bool overloaded =
        (p99 > params_.sloP99Ms) || (busy > params_.busyHigh);
    const bool underloaded = (p99 < params_.guardFraction * params_.sloP99Ms) &&
        (busy < params_.busyLow);

    if (overloaded) {
        // SLO protection: unpark everything and jump straight back
        // to full speed (race-to-SLO). A staircase climb would pay
        // one ramp's worth of served-nothing time per level; jumping
        // bounds the breach mass at a single ramp.
        unparkAll(i);
        if (st.levelIdx > 0) {
            st.levelIdx = 0;
            st.lastChange = now;
            d->requestRpm(levels_[0]);
            ++stats_.stepUps;
            telemetry::bump(ctrStepUps_);
        }
        return;
    }

    if (underloaded && now - st.lastChange >= dwellTicks_) {
        if (st.levelIdx + 1 < levels_.size()) {
            ++st.levelIdx;
            st.lastChange = now;
            d->requestRpm(levels_[st.levelIdx]);
            ++stats_.stepDowns;
            telemetry::bump(ctrStepDowns_);
        }
        if (st.levelIdx > 0)
            parkSpares(i);
    }
}

void
Governor::parkSpares(std::size_t i)
{
    if (params_.parkKeepArms == 0)
        return;
    disk::DiskDrive *d = drives_[i];
    const std::uint32_t arms = d->spec().dash.armAssemblies;
    std::uint32_t serviceable = d->aliveArms() - d->parkedArms();
    // Park idle arms from the highest index down, keeping
    // parkKeepArms serviceable (parkArm itself refuses the last one).
    for (std::uint32_t k = arms; k-- > 0 &&
         serviceable > params_.parkKeepArms;) {
        if (d->armParked(k) || d->armBusy(k))
            continue;
        d->parkArm(k);
        --serviceable;
        ++stats_.parks;
        telemetry::bump(ctrParks_);
    }
}

void
Governor::unparkAll(std::size_t i)
{
    disk::DiskDrive *d = drives_[i];
    if (d->parkedArms() == 0)
        return;
    const std::uint32_t arms = d->spec().dash.armAssemblies;
    for (std::uint32_t k = 0; k < arms; ++k) {
        if (!d->armParked(k))
            continue;
        d->unparkArm(k);
        ++stats_.unparks;
        telemetry::bump(ctrUnparks_);
    }
}

} // namespace power
} // namespace idp
