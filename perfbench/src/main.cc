/**
 * @file
 * perfbench: run one workload of the repository benchmark.
 *
 *   perfbench --workload fig8_sweep|mirror_pdes|serve_diurnal
 *             --seed N --seconds S --trace 0|1
 *             [--size full|tiny] [--commit ID]
 *             [--result FILE] [--spans FILE]
 *
 * Prints the simulated-statistics digest, the report lines and every
 * metric with its unit; the last line of standard output is the JSON
 * result {"correct", "attempted", "failed", "metrics"}. --result
 * writes the same metrics plus provenance and digest as JSON;
 * --spans writes the traced run's spans (Chrome trace-event format).
 * Sweep threads and PDES workers are min(4, nproc). Exits 0 when the
 * run completed, whether or not its outputs checked out (the JSON says
 * which); 2 on a usage error.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "perfbench.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--size full|tiny] [--commit ID] "
                 "[--result FILE] [--spans FILE]\n";
    std::exit(2);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
            continue;
        }
        out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    return std::isfinite(v) ? exact(v) : "null";
}

/** The metric block of the result: every definition of the run's
 *  shape, by name, with its unit. */
std::string
metricsJson(const std::vector<MetricDef> &defs,
            const std::map<std::string, double> &values)
{
    std::string out = "{";
    for (std::size_t i = 0; i < defs.size(); ++i) {
        const auto it = values.find(defs[i].name);
        const double v = it == values.end() ? 0.0 : it->second;
        out += (i ? ", " : "") + jsonString(defs[i].name) +
            ": {\"value\": " + jsonNumber(v) +
            ", \"unit\": " + jsonString(defs[i].unit) + "}";
    }
    return out + "}";
}

void
writeSpans(const std::string &path, const SpanLog &log)
{
    std::ofstream os(path);
    const std::vector<std::int64_t> self = log.selfTimes();
    os << "{\"traceEvents\": [\n";
    const auto &spans = log.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i ? ",\n" : "") << "{\"name\": " << jsonString(s.name)
           << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.lane
           << ", \"ts\": " << exact(static_cast<double>(s.startNs) * 1e-3)
           << ", \"dur\": " << exact(static_cast<double>(s.durNs) * 1e-3)
           << ", \"args\": {\"id\": " << s.id << ", \"parent\": "
           << s.parent << ", \"count\": " << s.count << ", \"self_us\": "
           << exact(static_cast<double>(self[i]) * 1e-3) << "}}";
    }
    os << "\n]}\n";
}

/** Self time per span name, largest first. */
void
printSelfTimes(const SpanLog &log)
{
    struct Row
    {
        double durMs = 0, selfMs = 0;
        std::uint64_t count = 0;
    };
    std::map<std::string, Row> rows;
    const std::vector<std::int64_t> self = log.selfTimes();
    for (std::size_t i = 0; i < log.spans().size(); ++i) {
        const Span &s = log.spans()[i];
        Row &r = rows[s.name];
        r.durMs += static_cast<double>(s.durNs) * 1e-6;
        r.selfMs += static_cast<double>(self[i]) * 1e-6;
        r.count += s.count;
    }
    std::vector<std::pair<std::string, Row>> sorted(rows.begin(),
                                                    rows.end());
    std::sort(sorted.begin(), sorted.end(), [](auto &a, auto &b) {
        return a.second.selfMs > b.second.selfMs;
    });
    for (const auto &[name, r] : sorted)
        std::printf("span %-28s calls %10llu  total_ms %12.3f  "
                    "self_ms %12.3f\n",
                    name.c_str(), static_cast<unsigned long long>(r.count),
                    r.durMs, r.selfMs);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, commit = "unknown", result_path, spans_path;
    RunOptions opts;
    opts.threads =
        std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        try {
            if (a == "--workload")
                workload = v;
            else if (a == "--seed")
                opts.seed = std::stoull(v), have_seed = true;
            else if (a == "--seconds")
                opts.seconds = std::stod(v), have_seconds = true;
            else if (a == "--trace")
                opts.trace = std::stoi(v) != 0, have_trace = true;
            else if (a == "--size" && (v == "full" || v == "tiny"))
                opts.size = v == "full" ? Size::Full : Size::Tiny;
            else if (a == "--commit")
                commit = v;
            else if (a == "--result")
                result_path = v;
            else if (a == "--spans")
                spans_path = v;
            else
                usage("bad argument " + a + " " + v);
        } catch (const std::logic_error &) {
            usage("bad value for " + a + ": " + v);
        }
    }
    if (workload.empty() || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds and --trace are required");
    if (std::find(workloadNames().begin(), workloadNames().end(),
                  workload) == workloadNames().end())
        usage("unknown workload " + workload);
    if (!(opts.seconds > 0))
        usage("--seconds must be positive");

    Outcome oc = runWorkload(workload, opts);
    if (!opts.trace)
        oc.metrics["peak_rss_mb"] = peakRssMb();

    // Provenance: every setting the numbers depend on.
    std::map<std::string, std::string> prov = oc.settings;
    addBuildProvenance(prov);
    prov["workload"] = workload;
    prov["seed"] = std::to_string(opts.seed);
    prov["run_seconds"] = exact(opts.seconds);
    prov["trace"] = opts.trace ? "1" : "0";
    prov["size"] = opts.size == Size::Full ? "full" : "tiny";
    prov["git_commit"] = commit;

    std::string prov_json = "{";
    for (const auto &[k, v] : prov)
        prov_json += (prov_json.size() > 1 ? ", " : "") + jsonString(k) +
            ": " + jsonString(v);
    prov_json += "}";

    std::printf("provenance %s\n", prov_json.c_str());
    for (const std::string &line : oc.digest)
        std::printf("digest %s\n", line.c_str());
    std::printf("digest_hash %s\n", digestHash(oc.digest).c_str());
    for (const std::string &line : oc.notes)
        std::printf("%s\n", line.c_str());
    for (const std::string &f : oc.failures)
        std::printf("FAILED %s\n", f.c_str());
    if (opts.trace)
        printSelfTimes(oc.spans);

    const std::vector<MetricDef> &defs =
        opts.trace ? perLayerMetrics() : endToEndMetrics();
    bool finite = true;
    for (const MetricDef &d : defs) {
        const auto it = oc.metrics.find(d.name);
        const bool set = it != oc.metrics.end();
        const double v = set ? it->second : 0.0;
        finite = finite && std::isfinite(v);
        std::printf("metric %-36s %18.6f %-18s%s\n", d.name, v, d.unit,
                    set ? "" : " (n/a on this workload)");
    }
    if (!finite)
        oc.fail("a metric is not a finite number");
    // failed_fraction is the JSON's failed / attempted; it is 0 on a
    // clean run, so it is reported here rather than as a bounded metric.
    std::printf("metric %-36s %18.6f %-18s\n", "failed_fraction",
                static_cast<double>(oc.failed) /
                    static_cast<double>(
                        std::max<std::uint64_t>(1, oc.attempted)),
                "fraction");

    std::ostringstream result;
    result << "{\"correct\": " << (oc.correct() ? "true" : "false")
           << ", \"attempted\": " << oc.attempted
           << ", \"failed\": " << oc.failed
           << ", \"metrics\": " << metricsJson(defs, oc.metrics) << "}";

    if (!result_path.empty()) {
        std::ofstream os(result_path);
        os << "{\"provenance\": " << prov_json
           << ",\n \"digest_hash\": " << jsonString(digestHash(oc.digest))
           << ",\n \"digest\": [";
        for (std::size_t i = 0; i < oc.digest.size(); ++i)
            os << (i ? ", " : "") << jsonString(oc.digest[i]);
        os << "],\n \"result\": " << result.str() << "}\n";
    }
    if (!spans_path.empty() && opts.trace)
        writeSpans(spans_path, oc.spans);

    std::printf("%s\n", result.str().c_str());
    return 0;
}
