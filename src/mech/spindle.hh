/**
 * @file
 * Spindle rotation model.
 *
 * Tracks the platter stack's angular position under piecewise-constant
 * RPM: the speed is fixed within a segment and may change at segment
 * boundaries (setRpm), with the rotation angle continuous across the
 * change — the platter does not teleport when a governor shifts speed.
 * Within a segment, rotation is an exact integer-modulo function of
 * the ticks elapsed since the segment started, so a run that never
 * changes speed is bit-identical to the historical constant-RPM model.
 * All heads share one spindle; multi-actuator designs differ only in
 * each actuator's fixed chassis azimuth.
 *
 * Conventions: angles are in revolutions, [0, 1). The platter point
 * with platter-fixed angle `a` sits under a head at chassis azimuth
 * `h` whenever frac(a + rotation(t)) == h, i.e. the wait from time t
 * until sector-start `a` reaches head `h` is
 * frac(h - a - rotation(t)) * period.
 */

#ifndef IDP_MECH_SPINDLE_HH
#define IDP_MECH_SPINDLE_HH

#include <cstdint>

#include "sim/types.hh"

namespace idp {
namespace mech {

/** Piecewise-constant-speed spindle. */
class Spindle
{
  public:
    /** @param rpm rotational speed, revolutions per minute (> 0). */
    explicit Spindle(std::uint32_t rpm);

    /** Current segment's speed. */
    std::uint32_t rpm() const { return rpm_; }

    /** One revolution at the current segment's speed, in ticks. */
    sim::Tick periodTicks() const { return period_; }

    /** One revolution at the current segment's speed, in ms. */
    double periodMs() const;

    /**
     * Set the platter's angle at tick 0, in revolutions [0, 1).
     * Models the arbitrary rotational phase a spindle happens to be
     * in when the run starts — independent across the drives of an
     * array. Configuration-time only: must precede any setRpm. The
     * default 0 keeps a standalone drive bit-identical to the
     * historical aligned-start model.
     */
    void setPhase(double angle);

    /**
     * Switch to @p rpm at time @p at, starting a new segment whose
     * initial angle is the old segment's rotation at @p at (angle
     * continuity). @p at must not precede the current segment's start;
     * all subsequent queries must be at t >= @p at. Callers are
     * responsible for any transition-ramp modeling — the spindle
     * itself changes speed instantaneously at the boundary.
     */
    void setRpm(sim::Tick at, std::uint32_t rpm);

    /** Segments so far (1 until the first setRpm). */
    std::uint32_t segmentCount() const { return segments_; }

    /** Rotation angle at time @p t, in revolutions [0, 1). @p t must
     *  not precede the current segment's start. */
    double rotationAt(sim::Tick t) const;

    /**
     * Ticks to wait from @p now until platter angle @p sector_angle
     * passes under a head at chassis azimuth @p head_azimuth.
     * Returns a value in [0, period).
     */
    sim::Tick waitFor(sim::Tick now, double sector_angle,
                      double head_azimuth) const;

    /** Ticks to sweep @p revolutions of rotation (e.g. a transfer)
     *  at the current segment's speed. */
    sim::Tick sweepTicks(double revolutions) const;

  private:
    std::uint32_t rpm_;
    sim::Tick period_;
    /** Current segment: start tick and the angle at that tick. The
     *  initial segment starts at tick 0 with angle 0 (unless skewed
     *  via setPhase), making the single-segment case bit-identical
     *  to the constant-RPM model. */
    sim::Tick segStart_ = 0;
    double segAngle_ = 0.0;
    std::uint32_t segments_ = 1;
};

} // namespace mech
} // namespace idp

#endif // IDP_MECH_SPINDLE_HH
