/**
 * @file
 * The repository benchmark: host throughput of the simulator on three
 * workloads, measured from outside the library.
 *
 * Every number here is taken by timing calls into the library's public
 * API (workload::generateSynthetic, StorageArray, PdesRun, Simulator,
 * the sweep runner, serve::runService) and by reading counters the
 * library already keeps (telemetry::Registry, PdesRun and Simulator
 * accessors). Nothing is instrumented inside the library itself.
 *
 * A run of one workload has two shapes:
 *
 *  - untraced (end to end): program defaults — invariant checker on,
 *    telemetry off. Repeats the workload for the requested host time
 *    and reports the throughput of the timed repetitions, the median
 *    set-up time and the process' peak_rss_mb;
 *  - traced: interleaves untraced, traced (registry + benchmark spans),
 *    checker-off and (for PDES) serial variants of the same repetition
 *    and reports the per-layer metrics.
 *
 * Both shapes check their simulated outputs: every repetition must
 * reproduce the digest of the workload's reference repetition.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Workload scale: Full is what BENCHMARK.json measures; Tiny is the
 *  smoke size the benchmark's own tests run. */
enum class Size
{
    Full,
    Tiny,
};

struct RunOptions
{
    std::uint64_t seed = 1;
    /** Host seconds of measurement (repetitions continue until this
     *  much time has passed; at least kMinTimedReps are timed). */
    double seconds = 10.0;
    bool trace = false;
    Size size = Size::Full;
    /** Sweep threads and PDES workers (perfbench uses min(4, nproc)). */
    unsigned threads = 1;
};

/** Timed repetitions never drop below this, however short --seconds. */
constexpr int kMinTimedReps = 3;

/** One metric definition: the name BENCHMARK.json uses and its unit. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, in print order. */
const std::vector<MetricDef> &endToEndMetrics();
/** Per-layer metrics (traced runs), in print order. */
const std::vector<MetricDef> &perLayerMetrics();

/** The workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Host-time span recorded by the benchmark around one call into the
 * library. An aggregate span stands for @c count calls of the same
 * kind (e.g. every StorageArray::submit of one run): @c durNs is their
 * summed duration and [startNs, endNs] the interval they fall in.
 */
struct Span
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0; ///< 0 = root
    std::string name;
    std::uint32_t lane = 0;   ///< sweep point / variant index
    std::int64_t startNs = 0; ///< since the process' clock origin
    std::int64_t endNs = 0;
    std::int64_t durNs = 0;
    std::uint64_t count = 1;
};

/** Spans kept in memory and written out when the run ends. Not
 *  thread-safe: one log per thread, merged with append(). */
class SpanLog
{
  public:
    /** Open a span now; returns its id. */
    std::uint32_t open(const std::string &name, std::uint32_t parent,
                       std::uint32_t lane = 0);
    /** Close span @p id now. */
    void close(std::uint32_t id);
    /** Record @p count calls summing @p sum_ns inside [first, last]. */
    void aggregate(const std::string &name, std::uint32_t parent,
                   std::uint32_t lane, std::uint64_t count,
                   std::int64_t sum_ns, std::int64_t first_ns,
                   std::int64_t last_ns);
    /** Re-parent @p other's roots under @p parent and take its spans
     *  (ids are renumbered). */
    void append(const SpanLog &other, std::uint32_t parent);

    const std::vector<Span> &spans() const { return spans_; }
    /** Duration minus the time the span's children cover. */
    std::vector<std::int64_t> selfTimes() const;

  private:
    std::vector<Span> spans_;
};

/** RAII span: open at construction, close at scope exit. A null log
 *  makes it a no-op, so untraced runs share the traced code path. */
class SpanScope
{
  public:
    SpanScope(SpanLog *log, const char *name, std::uint32_t parent,
              std::uint32_t lane = 0)
        : log_(log), id_(log ? log->open(name, parent, lane) : 0)
    {
    }
    ~SpanScope()
    {
        if (log_)
            log_->close(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    std::uint32_t id() const { return id_; }

  private:
    SpanLog *log_;
    std::uint32_t id_;
};

/** Monotonic host clock, ns since the process' clock origin. */
std::int64_t nowNs();

/** Result of one workload invocation. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Why each failed repetition failed (printed, not in the JSON). */
    std::vector<std::string> failures;
    /** name -> value; the printer fills unset metrics as 0 / "n/a". */
    std::map<std::string, double> metrics;
    /** Simulated-statistics digest of the reference repetition, one
     *  line per simulated point. */
    std::vector<std::string> digest;
    /** Extra human-readable report lines (accuracy line, notes). */
    std::vector<std::string> notes;
    /** Settings the numbers depend on (see provenance()). */
    std::map<std::string, std::string> settings;
    SpanLog spans;

    bool correct() const { return failed == 0 && attempted > 0; }
    void fail(const std::string &why)
    {
        ++failed;
        failures.push_back(why);
    }
};

Outcome runFig8Sweep(const RunOptions &opts);
Outcome runMirrorPdes(const RunOptions &opts);
Outcome runServeDiurnal(const RunOptions &opts);

/** Dispatch by workload name; throws std::invalid_argument on an
 *  unknown name. */
Outcome runWorkload(const std::string &name, const RunOptions &opts);

/** FNV-1a over the digest lines, as 16 hex digits. */
std::string digestHash(const std::vector<std::string> &lines);

/** %.17g: every digit of a double, so digests compare exactly. */
std::string exact(double v);

/** Median / linear-interpolated quantile of @p v (copied). */
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);

/**
 * Throughput of the timed repetitions: requests summed over host
 * seconds summed. A host whose core speed switches between two modes
 * gives per-repetition rates in two clusters; their median jumps from
 * one cluster to the other as the mix shifts, while the total moves
 * with the share of time spent in each.
 */
struct Throughput
{
    double requests = 0.0;
    double seconds = 0.0;
    std::vector<double> rates; ///< per repetition, for spreadNote()

    void add(double reqs, double secs)
    {
        requests += reqs;
        seconds += secs;
        rates.push_back(reqs / secs);
    }
    double rate() const { return seconds > 0 ? requests / seconds : 0.0; }
};

/** One report line: count, min, quartiles and max of @p v. */
std::string spreadNote(const char *what, const std::vector<double> &v);

/**
 * Time @p setup repeatedly — at least 5 times and for at least one
 * host second — and return each repetition's seconds; setup_s is
 * their median. A set-up of a few milliseconds is dominated by page
 * faults and allocator state, so one sample would not be steady.
 */
std::vector<double> timeSetups(const std::function<void()> &setup);

/** Peak resident set of this process, MB (getrusage). */
double peakRssMb();

/** Heap allocations the whole process makes while @p body runs
 *  (interposed global operator new, which counts only inside this
 *  call; see alloc_count.cc). Not reentrant. */
std::uint64_t countAllocs(const std::function<void()> &body);

/**
 * Time-boxed repetition loop shared by the workloads. Calls
 * @p body(rep) with rep = 0, 1, ... — rep 0 is the untimed warm-up —
 * until @p seconds of host time have passed since the first timed
 * repetition and at least @p min_timed timed repetitions ran.
 */
void repeatFor(double seconds, int min_timed,
               const std::function<void(int rep)> &body);

/** Append the workload-independent provenance keys to @p settings:
 *  build type, compiler, cpu count, checker build state. */
void addBuildProvenance(std::map<std::string, std::string> &settings);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
