#include "sched/scheduler.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "sim/logging.hh"
#include "telemetry/telemetry.hh"
#include "verify/verify.hh"

namespace idp {
namespace sched {

Choice
IoScheduler::selectIndexed(const std::vector<ArmView> &arms,
                           const PositioningFn &cost, sim::Tick now,
                           CylinderIndex &index)
{
    index.materializeWindow(windowScratch_);
    return select(windowScratch_, arms, cost, now);
}

namespace {

/** Distance helper. */
std::uint32_t
cylDistance(std::uint32_t a, std::uint32_t b)
{
    return a > b ? a - b : b - a;
}

/** Nearest idle arm to @p cylinder (by cylinder distance). */
std::uint32_t
nearestArm(const std::vector<ArmView> &arms, std::uint32_t cylinder)
{
    std::uint32_t best = 0;
    std::uint32_t best_dist = std::numeric_limits<std::uint32_t>::max();
    for (std::uint32_t i = 0; i < arms.size(); ++i) {
        const std::uint32_t d = cylDistance(arms[i].cylinder, cylinder);
        if (d < best_dist) {
            best_dist = d;
            best = i;
        }
    }
    return best;
}

/** Cheapest idle arm for @p req under the positioning oracle. */
std::uint32_t
cheapestArm(const PendingView &req, const std::vector<ArmView> &arms,
            const PositioningFn &cost)
{
    std::uint32_t best = 0;
    sim::Tick best_cost = std::numeric_limits<sim::Tick>::max();
    for (std::uint32_t i = 0; i < arms.size(); ++i) {
        const sim::Tick c = cost(req, arms[i]);
        if (c < best_cost) {
            best_cost = c;
            best = i;
        }
    }
    return best;
}

/**
 * Pruned cheapestArm: price arms in nondecreasing cylinder-distance
 * order and stop once the admissible seek lower bound at an arm's
 * distance strictly exceeds the best exact cost (ties keep scanning:
 * an equal-cost arm with a lower index must still win, exactly as
 * the exhaustive loop's strict-improvement rule decides). Returns
 * the identical arm as cheapestArm(); @p priced counts oracle calls.
 */
std::uint32_t
cheapestArmPruned(const PendingView &req,
                  const std::vector<ArmView> &arms,
                  const PositioningFn &cost, const CylinderIndex &index,
                  std::vector<std::uint32_t> &order,
                  std::uint64_t &priced)
{
    order.clear();
    for (std::uint32_t i = 0; i < arms.size(); ++i)
        order.push_back(i);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  const std::uint32_t da =
                      cylDistance(arms[a].cylinder, req.cylinder);
                  const std::uint32_t db =
                      cylDistance(arms[b].cylinder, req.cylinder);
                  return da != db ? da < db : a < b;
              });
    bool have = false;
    std::uint32_t best = 0;
    sim::Tick best_cost = 0;
    for (const std::uint32_t i : order) {
        const std::uint32_t d =
            cylDistance(arms[i].cylinder, req.cylinder);
        if (have && index.seekLowerBound(d) > best_cost)
            break;
        const sim::Tick c = cost(req, arms[i]);
        ++priced;
        if (!have || c < best_cost ||
            (c == best_cost && i < best)) {
            have = true;
            best_cost = c;
            best = i;
        }
    }
    return best;
}

/** Exhaustive SSTF pick: minimum (distance, window order, arm). */
Choice
pickSstf(const std::vector<PendingView> &pending,
         const std::vector<ArmView> &arms)
{
    std::size_t best_req = 0;
    std::uint32_t best_arm = 0;
    std::uint32_t best_dist = std::numeric_limits<std::uint32_t>::max();
    for (std::size_t r = 0; r < pending.size(); ++r) {
        const std::uint32_t a = nearestArm(arms, pending[r].cylinder);
        const std::uint32_t d =
            cylDistance(arms[a].cylinder, pending[r].cylinder);
        if (d < best_dist) {
            best_dist = d;
            best_req = r;
            best_arm = a;
        }
    }
    return {pending[best_req].slot, arms[best_arm].index};
}

/** Exhaustive C-LOOK request pick against @p sweep (window index). */
std::size_t
pickClookRequest(const std::vector<PendingView> &pending,
                 std::uint32_t sweep)
{
    std::size_t best = pending.size();
    std::size_t lowest = 0;
    for (std::size_t r = 0; r < pending.size(); ++r) {
        if (pending[r].cylinder < pending[lowest].cylinder)
            lowest = r;
        if (pending[r].cylinder < sweep)
            continue;
        if (best == pending.size() ||
            pending[r].cylinder < pending[best].cylinder)
            best = r;
    }
    return best == pending.size() ? lowest : best;
}

/** Exhaustive SPTF pick: minimum (aged cost, window order, arm). */
Choice
pickSptf(const std::vector<PendingView> &pending,
         const std::vector<ArmView> &arms, const PositioningFn &cost,
         sim::Tick now, double aging_weight)
{
    std::size_t best_req = 0;
    std::uint32_t best_arm = 0;
    double best_cost = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < pending.size(); ++r) {
        for (std::uint32_t a = 0; a < arms.size(); ++a) {
            const sim::Tick position = cost(pending[r], arms[a]);
            const double wait = static_cast<double>(
                now - std::min(now, pending[r].arrival));
            const double eff =
                static_cast<double>(position) - aging_weight * wait;
            if (eff < best_cost) {
                best_cost = eff;
                best_req = r;
                best_arm = a;
            }
        }
    }
    return {pending[best_req].slot, arms[best_arm].index};
}

/**
 * Sampled pruned-vs-exhaustive cross-check: every 64th indexed
 * selection (and always the first), when a checker is installed,
 * re-derives the choice from the materialized window with the
 * exhaustive reference pick and reports any divergence. The oracle
 * prices every call fresh and keeps no state, so the extra calls
 * leave a checked run byte-identical to an unchecked one.
 */
bool
shouldCrossCheck(std::uint64_t &tick)
{
    if (verify::activeChecker() == nullptr)
        return false;
    return (tick++ % 64) == 0;
}

class FcfsScheduler : public IoScheduler
{
  public:
    std::string name() const override { return "fcfs"; }

    Choice
    select(const std::vector<PendingView> &pending,
           const std::vector<ArmView> &arms, const PositioningFn &cost,
           sim::Tick /*now*/) override
    {
        work_ = {pending.size() + arms.size(), 0};
        // Oldest request; cheapest arm for it.
        std::size_t oldest = 0;
        for (std::size_t i = 1; i < pending.size(); ++i)
            if (pending[i].arrival < pending[oldest].arrival)
                oldest = i;
        const std::uint32_t arm =
            cheapestArm(pending[oldest], arms, cost);
        return {pending[oldest].slot, arms[arm].index};
    }

    std::uint64_t
    candidatesExamined(std::size_t pending,
                       std::size_t arms) const override
    {
        // One age scan over the window, then one priced arm per
        // idle arm for the oldest request.
        return pending + arms;
    }
};

class SstfScheduler : public IoScheduler
{
  public:
    std::string name() const override { return "sstf"; }

    Choice
    select(const std::vector<PendingView> &pending,
           const std::vector<ArmView> &arms,
           const PositioningFn & /*cost*/, sim::Tick /*now*/) override
    {
        work_ = {pending.size() * arms.size(), 0};
        return pickSstf(pending, arms);
    }

    Choice
    selectIndexed(const std::vector<ArmView> &arms,
                  const PositioningFn & /*cost*/, sim::Tick /*now*/,
                  CylinderIndex &index) override
    {
        // SSTF's cost metric *is* the cylinder distance, so the band
        // distance itself is the admissible bound: once a band's
        // minimum distance exceeds the best exact distance, no
        // remaining candidate of this arm's scan can win.
        bool have = false;
        std::uint32_t best_dist = 0;
        std::uint64_t best_order = 0;
        std::uint32_t best_arm = 0;
        std::uint32_t best_slot = 0;
        std::uint64_t priced = 0;
        for (std::uint32_t a = 0; a < arms.size(); ++a) {
            index.beginScan(arms[a].cylinder);
            std::uint32_t band_min = 0;
            while (index.nextBand(band_min, band_)) {
                if (have && band_min > best_dist)
                    break;
                for (const IndexedCandidate &c : band_) {
                    ++priced;
                    const std::uint32_t d = cylDistance(
                        c.view.cylinder, arms[a].cylinder);
                    if (!have || d < best_dist ||
                        (d == best_dist &&
                         (c.order < best_order ||
                          (c.order == best_order && a < best_arm)))) {
                        have = true;
                        best_dist = d;
                        best_order = c.order;
                        best_arm = a;
                        best_slot = c.view.slot;
                    }
                }
            }
        }
        const std::uint64_t nominal =
            static_cast<std::uint64_t>(index.windowSize()) *
            arms.size();
        work_ = {priced, nominal - std::min(nominal, priced)};
        const Choice got{best_slot, arms[best_arm].index};
        if (shouldCrossCheck(crossTick_)) {
            index.materializeWindow(windowScratch_);
            const Choice want = pickSstf(windowScratch_, arms);
            verify::onSchedChoice("sstf", got.slot, got.arm, want.slot,
                                  want.arm);
        }
        return got;
    }

    std::uint64_t
    candidatesExamined(std::size_t pending,
                       std::size_t arms) const override
    {
        // Every (request, arm) cylinder distance is compared.
        return static_cast<std::uint64_t>(pending) * arms;
    }

  private:
    std::vector<IndexedCandidate> band_;
    std::uint64_t crossTick_ = 0;
};

class ClookScheduler : public IoScheduler
{
  public:
    std::string name() const override { return "clook"; }

    Choice
    select(const std::vector<PendingView> &pending,
           const std::vector<ArmView> &arms, const PositioningFn &cost,
           sim::Tick /*now*/) override
    {
        work_ = {pending.size() + arms.size(), 0};
        // One-directional sweep: service the lowest cylinder at or
        // above the sweep position; wrap to the minimum when none.
        const std::size_t best = pickClookRequest(pending, sweep_);
        sweep_ = pending[best].cylinder;
        const std::uint32_t arm = cheapestArm(pending[best], arms, cost);
        return {pending[best].slot, arms[arm].index};
    }

    Choice
    selectIndexed(const std::vector<ArmView> &arms,
                  const PositioningFn &cost, sim::Tick /*now*/,
                  CylinderIndex &index) override
    {
        const std::uint32_t sweep_before = sweep_;
        IndexedCandidate pick;
        if (!index.firstAtOrAbove(sweep_, pick)) {
            const bool any = index.lowestCylinder(pick);
            sim::simAssert(any, "clook: empty window");
        }
        sweep_ = pick.view.cylinder;
        std::uint64_t priced = 0;
        const std::uint32_t arm = cheapestArmPruned(
            pick.view, arms, cost, index, armOrder_, priced);
        const std::uint64_t nominal = index.windowSize() + arms.size();
        const std::uint64_t seen = index.visited() + priced;
        work_ = {seen, nominal - std::min(nominal, seen)};
        const Choice got{pick.view.slot, arms[arm].index};
        if (shouldCrossCheck(crossTick_)) {
            index.materializeWindow(windowScratch_);
            const std::size_t want_req =
                pickClookRequest(windowScratch_, sweep_before);
            const std::uint32_t want_arm = cheapestArm(
                windowScratch_[want_req], arms, cost);
            verify::onSchedChoice("clook", got.slot, got.arm,
                                  windowScratch_[want_req].slot,
                                  arms[want_arm].index);
        }
        return got;
    }

    std::uint64_t
    candidatesExamined(std::size_t pending,
                       std::size_t arms) const override
    {
        // One sweep over the window's cylinders, then one priced arm
        // per idle arm for the request the sweep picked.
        return pending + arms;
    }

  private:
    std::uint32_t sweep_ = 0;
    std::vector<std::uint32_t> armOrder_;
    std::uint64_t crossTick_ = 0;
};

class SptfScheduler : public IoScheduler
{
  public:
    explicit SptfScheduler(double aging_weight = 0.0)
        : agingWeight_(aging_weight)
    {
    }

    std::string
    name() const override
    {
        return agingWeight_ > 0.0 ? "sptf-aged" : "sptf";
    }

    Choice
    select(const std::vector<PendingView> &pending,
           const std::vector<ArmView> &arms, const PositioningFn &cost,
           sim::Tick now) override
    {
        work_ = {pending.size() * arms.size(), 0};
        return pickSptf(pending, arms, cost, now, agingWeight_);
    }

    Choice
    selectIndexed(const std::vector<ArmView> &arms,
                  const PositioningFn &cost, sim::Tick now,
                  CylinderIndex &index) override
    {
        // Aging credit: a request may undercut a pure-positioning
        // bound by at most agingWeight * (longest wait in the
        // window), so the admissible bound for SptfAged widens to
        // seek_lb - credit. When the credit alone covers a
        // full-stroke seek the widened bound can never cut anything;
        // fall back to the exhaustive scan outright.
        double credit = 0.0;
        if (agingWeight_ > 0.0) {
            credit = agingWeight_ *
                static_cast<double>(index.maxQueueWait(now));
            const double full_stroke = static_cast<double>(
                index.seekLowerBound(
                    std::numeric_limits<std::uint32_t>::max()));
            if (credit >= full_stroke) {
                index.materializeWindow(windowScratch_);
                return select(windowScratch_, arms, cost, now);
            }
        }

        bool have = false;
        double best_eff = 0.0;
        std::uint64_t best_order = 0;
        std::uint32_t best_arm = 0;
        std::uint32_t best_slot = 0;
        std::uint64_t priced = 0;
        for (std::uint32_t a = 0; a < arms.size(); ++a) {
            index.beginScan(arms[a].cylinder);
            std::uint32_t band_min = 0;
            while (index.nextBand(band_min, band_)) {
                if (have) {
                    const double lb = static_cast<double>(
                        index.seekLowerBound(band_min)) - credit;
                    // Strict: an equal-bound candidate could still
                    // tie the incumbent and win on queue order.
                    if (lb > best_eff)
                        break;
                }
                for (const IndexedCandidate &c : band_) {
                    const sim::Tick position = cost(c.view, arms[a]);
                    ++priced;
                    const double wait = static_cast<double>(
                        now - std::min(now, c.view.arrival));
                    const double eff =
                        static_cast<double>(position) -
                        agingWeight_ * wait;
                    if (!have || eff < best_eff ||
                        (eff == best_eff &&
                         (c.order < best_order ||
                          (c.order == best_order && a < best_arm)))) {
                        have = true;
                        best_eff = eff;
                        best_order = c.order;
                        best_arm = a;
                        best_slot = c.view.slot;
                    }
                }
            }
        }
        const std::uint64_t nominal =
            static_cast<std::uint64_t>(index.windowSize()) *
            arms.size();
        work_ = {priced, nominal - std::min(nominal, priced)};
        const Choice got{best_slot, arms[best_arm].index};
        if (shouldCrossCheck(crossTick_)) {
            index.materializeWindow(windowScratch_);
            const Choice want = pickSptf(windowScratch_, arms, cost,
                                         now, agingWeight_);
            verify::onSchedChoice(name().c_str(), got.slot, got.arm,
                                  want.slot, want.arm);
        }
        return got;
    }

    std::uint64_t
    candidatesExamined(std::size_t pending,
                       std::size_t arms) const override
    {
        // Joint SPTF prices the full (request, arm) cross product.
        return static_cast<std::uint64_t>(pending) * arms;
    }

  private:
    double agingWeight_;
    std::vector<IndexedCandidate> band_;
    std::uint64_t crossTick_ = 0;
};

/**
 * Decorator that counts selections and the priced/pruned candidate
 * split the policy reported. Installed by the factory when a
 * telemetry registry is active; pure pass-through otherwise.
 */
class CountingScheduler : public IoScheduler
{
  public:
    explicit CountingScheduler(std::unique_ptr<IoScheduler> inner)
        : inner_(std::move(inner)),
          ctrSelections_(telemetry::counterHandle("sched.selections")),
          ctrCandidates_(
              telemetry::counterHandle("sched.candidates_seen")),
          ctrPriced_(
              telemetry::counterHandle("sched.candidates_priced")),
          ctrPruned_(
              telemetry::counterHandle("sched.candidates_pruned"))
    {
    }

    std::string name() const override { return inner_->name(); }

    Choice
    select(const std::vector<PendingView> &pending,
           const std::vector<ArmView> &arms, const PositioningFn &cost,
           sim::Tick now) override
    {
        const Choice c = inner_->select(pending, arms, cost, now);
        account();
        return c;
    }

    Choice
    selectIndexed(const std::vector<ArmView> &arms,
                  const PositioningFn &cost, sim::Tick now,
                  CylinderIndex &index) override
    {
        const Choice c = inner_->selectIndexed(arms, cost, now, index);
        account();
        return c;
    }

    std::uint64_t
    candidatesExamined(std::size_t pending,
                       std::size_t arms) const override
    {
        return inner_->candidatesExamined(pending, arms);
    }

    SelectWork lastWork() const override { return inner_->lastWork(); }

  private:
    void
    account()
    {
        const SelectWork w = inner_->lastWork();
        telemetry::bump(ctrSelections_);
        // candidates_seen = priced + pruned: the same nominal total
        // the pre-pruning decorator reported, so traces across the
        // two dispatch paths stay comparable.
        telemetry::bump(ctrCandidates_, w.priced + w.pruned);
        telemetry::bump(ctrPriced_, w.priced);
        telemetry::bump(ctrPruned_, w.pruned);
    }

    std::unique_ptr<IoScheduler> inner_;
    telemetry::Counter *ctrSelections_;
    telemetry::Counter *ctrCandidates_;
    telemetry::Counter *ctrPriced_;
    telemetry::Counter *ctrPruned_;
};

} // namespace

Policy
policyFromString(const std::string &name)
{
    if (name == "fcfs")
        return Policy::Fcfs;
    if (name == "sstf")
        return Policy::Sstf;
    if (name == "clook")
        return Policy::Clook;
    if (name == "sptf")
        return Policy::Sptf;
    if (name == "sptf-aged")
        return Policy::SptfAged;
    sim::fatal("unknown scheduling policy: " + name);
}

std::string
policyToString(Policy policy)
{
    switch (policy) {
      case Policy::Fcfs:
        return "fcfs";
      case Policy::Sstf:
        return "sstf";
      case Policy::Clook:
        return "clook";
      case Policy::Sptf:
        return "sptf";
      case Policy::SptfAged:
        return "sptf-aged";
    }
    sim::panic("policyToString: bad enum");
}

std::unique_ptr<IoScheduler>
makeScheduler(const SchedulerParams &params)
{
    std::unique_ptr<IoScheduler> sched;
    switch (params.policy) {
      case Policy::Fcfs:
        sched = std::make_unique<FcfsScheduler>();
        break;
      case Policy::Sstf:
        sched = std::make_unique<SstfScheduler>();
        break;
      case Policy::Clook:
        sched = std::make_unique<ClookScheduler>();
        break;
      case Policy::Sptf:
        sched = std::make_unique<SptfScheduler>(0.0);
        break;
      case Policy::SptfAged:
        sched = std::make_unique<SptfScheduler>(params.agingWeight);
        break;
    }
    if (sched == nullptr)
        sim::panic("makeScheduler: bad enum");
    if (telemetry::activeRegistry() != nullptr)
        return std::make_unique<CountingScheduler>(std::move(sched));
    return sched;
}

} // namespace sched
} // namespace idp
