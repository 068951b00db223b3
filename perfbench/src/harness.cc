#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "perfbench.hh"

namespace perfbench {

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"sim_requests_per_s", "requests/s"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"exec.sweep_busy_fraction", "fraction"},
        {"exec.point_s_p50", "s"},
        {"exec.point_s_p75", "s"},
        {"pdes.rounds_per_request", "rounds/request"},
        {"pdes.serial_step_fraction", "fraction"},
        {"pdes.horizon_log2_median", "log2_ticks"},
        {"pdes.us_per_round", "us"},
        {"pdes.slowdown_vs_serial", "x"},
        {"sim.events_per_request", "events/request"},
        {"sim.peak_pending", "events"},
        {"sim.cancels_per_request", "cancels/request"},
        {"sim.stale_cancel_fraction", "fraction"},
        {"sim.host_ns_per_event", "ns"},
        {"sched.selections_per_request", "selects/request"},
        {"sched.priced_per_selection", "candidates"},
        {"sched.pruned_fraction", "fraction"},
        {"disk.media_accesses_per_request", "accesses/request"},
        {"disk.cache_hit_fraction", "fraction"},
        {"disk.zero_latency_hit_fraction", "fraction"},
        {"disk.channel_blocks_per_request", "blocks/request"},
        {"array.subs_per_request", "subs/request"},
        {"array.replica_priced_per_read", "pricings/read"},
        {"array.submit_host_ns", "ns"},
        {"rebuild.chunks", "count"},
        {"rebuild.yields", "count"},
        {"rebuild.window_s", "s"},
        {"verify.overhead_fraction", "fraction"},
        {"telemetry.trace_overhead_fraction", "fraction"},
        {"serve.denied_fraction", "fraction"},
        {"serve.spec_submitted_per_completion", "subs/completion"},
        {"serve.spec_cancel_stale_fraction", "fraction"},
        {"governor.rpm_changes", "count"},
        {"governor.parks", "count"},
        {"power.finish_host_ms", "ms"},
        {"stats.seal_host_ms", "ms"},
        {"alloc.per_request", "allocs/request"},
    };
    return defs;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig8_sweep", "mirror_pdes", "serve_diurnal"};
    return names;
}

Outcome
runWorkload(const std::string &name, const RunOptions &opts)
{
    if (name == "fig8_sweep")
        return runFig8Sweep(opts);
    if (name == "mirror_pdes")
        return runMirrorPdes(opts);
    if (name == "serve_diurnal")
        return runServeDiurnal(opts);
    throw std::invalid_argument("unknown workload: " + name);
}

// ---------------------------------------------------------------
// Spans
// ---------------------------------------------------------------

std::int64_t
nowNs()
{
    static const auto origin = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

std::uint32_t
SpanLog::open(const std::string &name, std::uint32_t parent,
              std::uint32_t lane)
{
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.name = name;
    s.lane = lane;
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void
SpanLog::close(std::uint32_t id)
{
    Span &s = spans_.at(id - 1);
    s.endNs = nowNs();
    s.durNs = s.endNs - s.startNs;
}

void
SpanLog::aggregate(const std::string &name, std::uint32_t parent,
                   std::uint32_t lane, std::uint64_t count,
                   std::int64_t sum_ns, std::int64_t first_ns,
                   std::int64_t last_ns)
{
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.name = name;
    s.lane = lane;
    s.startNs = first_ns;
    s.endNs = last_ns;
    s.durNs = sum_ns;
    s.count = count;
    spans_.push_back(std::move(s));
}

void
SpanLog::append(const SpanLog &other, std::uint32_t parent)
{
    const auto base = static_cast<std::uint32_t>(spans_.size());
    for (Span s : other.spans_) {
        s.id += base;
        s.parent = s.parent ? s.parent + base : parent;
        spans_.push_back(std::move(s));
    }
}

std::vector<std::int64_t>
SpanLog::selfTimes() const
{
    // Children of one span may run in parallel (sweep points on pool
    // threads), so a span's covered time is the union of its
    // children's intervals. An aggregate child stands for calls made
    // one after another inside its parent: it covers its summed
    // duration.
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        intervals(spans_.size());
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].durNs;
    for (const Span &s : spans_) {
        if (s.parent == 0)
            continue;
        if (s.count > 1)
            self[s.parent - 1] -= s.durNs;
        else
            intervals[s.parent - 1].emplace_back(s.startNs, s.endNs);
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        auto &iv = intervals[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0, lo = 0, hi = 0;
        bool open = false;
        for (const auto &[a, b] : iv) {
            if (open && a <= hi) {
                hi = std::max(hi, b);
                continue;
            }
            if (open)
                covered += hi - lo;
            lo = a;
            hi = b;
            open = true;
        }
        if (open)
            covered += hi - lo;
        self[i] -= covered;
    }
    return self;
}

// ---------------------------------------------------------------
// Numbers
// ---------------------------------------------------------------

std::string
digestHash(const std::vector<std::string> &lines)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const std::string &line : lines) {
        for (unsigned char c : line) {
            h ^= c;
            h *= 1099511628211ULL;
        }
        h ^= '\n';
        h *= 1099511628211ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
exact(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // kB on Linux
}

std::string
spreadNote(const char *what, const std::vector<double> &v)
{
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "timed %s: n=%zu min=%.6g q1=%.6g median=%.6g q3=%.6g "
                  "max=%.6g",
                  what, v.size(), quantile(v, 0.0), quantile(v, 0.25),
                  quantile(v, 0.5), quantile(v, 0.75), quantile(v, 1.0));
    return buf;
}

std::vector<double>
timeSetups(const std::function<void()> &setup)
{
    std::vector<double> secs;
    const std::int64_t start = nowNs();
    while (secs.size() < 5 || nowNs() - start < 1000000000) {
        const std::int64_t t0 = nowNs();
        setup();
        secs.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    }
    return secs;
}

void
repeatFor(double seconds, int min_timed,
          const std::function<void(int rep)> &body)
{
    body(0); // warm-up: caches, lazy set-up, page faults
    const std::int64_t start = nowNs();
    const auto budget = static_cast<std::int64_t>(seconds * 1e9);
    for (int rep = 1;; ++rep) {
        body(rep);
        if (rep >= min_timed && nowNs() - start >= budget)
            break;
    }
}

void
addBuildProvenance(std::map<std::string, std::string> &settings)
{
#ifdef PERFBENCH_BUILD_TYPE
    settings["build_type"] = PERFBENCH_BUILD_TYPE;
#else
    settings["build_type"] = "unknown";
#endif
    settings["compiler"] = __VERSION__;
    settings["cpu_count"] =
        std::to_string(std::thread::hardware_concurrency());
    settings["checker"] = IDP_VERIFY ? "on" : "compiled-out";
    settings["telemetry_build"] = IDP_TELEMETRY ? "on" : "compiled-out";
}

} // namespace perfbench
