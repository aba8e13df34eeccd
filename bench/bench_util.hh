/**
 * @file
 * Shared helpers for the figure-reproduction benchmark binaries.
 *
 * Every binary prints the rows/series of one table or figure of the
 * paper. Absolute numbers depend on the simulated substrate; the
 * *shape* (who wins, by roughly what factor) is the reproduction
 * target (see EXPERIMENTS.md).
 *
 * Common CLI (BenchOptions):
 *   --ops N          FASEs per thread (bare argv[1] still accepted)
 *   --jobs N         sweep worker threads (0/default = host cores)
 *   --sim-threads N  domain-parallel host threads inside one run
 *                    (service shards / crash-exploration ops);
 *                    0 = host cores, results byte-identical for any N
 *   --json PATH      write machine-readable results (BENCH_*.json)
 *   --designs A,B    subset of IntelX86,DPO,HOPS,PMEM-Spec
 *   --trace FLAGS    event tracing (PersistPath,PmController,
 *                    SpecBuffer,Core,FaseRuntime,FaultInject or "all")
 *   --trace-out P    export the trace (.json: Chrome trace-event
 *                    format, else the compact binary log); implies
 *                    --trace all when no flags were given
 *   --trace-ring N   per-core ring capacity in events (default 64K);
 *                    raise it for a lossless checker-grade capture
 *   --flight-recorder  bounded always-on recorder, dumped on panics
 *                    and misspeculation traps
 *   --metrics        sample time-series metrics + the per-FASE-site
 *                    speculation profile into the JSON results
 *   --metrics-interval-us N  sampling cadence in simulated
 *                    microseconds (implies --metrics; default 100)
 *   --help           usage
 *
 * All flags also accept the --flag=value spelling.
 */

#ifndef PMEMSPEC_BENCH_BENCH_UTIL_HH
#define PMEMSPEC_BENCH_BENCH_UTIL_HH

#include <cerrno>
#include <cstdarg>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/trace.hh"
#include "core/experiment.hh"
#include "core/sweep.hh"
#include "observe/metrics.hh"

namespace pmemspec::bench
{

/**
 * Parse a decimal count strictly: digits only -- no sign, no blank,
 * no trailing characters -- and at most `max`, so nothing wraps or
 * saturates.
 */
inline bool
parseDecimal(const std::string &s, std::uint64_t &out,
             std::uint64_t max = UINT64_MAX)
{
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), nullptr, 10);
    if (errno == ERANGE || v > max)
        return false;
    out = v;
    return true;
}

/** A count flag's value (0 allowed) parsed by parseDecimal; anything
 *  else exits 1 with "<prog>: <flag> wants an integer, got '<s>'". */
inline std::uint64_t
parseCount(const char *prog, const char *flag, const std::string &s,
           std::uint64_t max = UINT64_MAX)
{
    std::uint64_t v = 0;
    if (!parseDecimal(s, v, max)) {
        std::fprintf(stderr, "%s: %s wants an integer, got '%s'\n", prog,
                     flag, s.c_str());
        std::exit(1);
    }
    return v;
}

/** Default FASEs per thread (the paper runs 100K; throughput is
 *  steady-state, so a few hundred per thread give the same shape in
 *  seconds instead of hours). */
constexpr std::uint64_t defaultOps = 400;

/** Parsed common command line of every bench binary. */
struct BenchOptions
{
    std::uint64_t ops = defaultOps;
    /** Sweep worker threads; 0 = hardware concurrency. */
    unsigned jobs = 0;
    /** Domain-parallel threads inside one simulated run (service
     *  shards, crash-exploration ops); 0 = hardware concurrency.
     *  Results are byte-identical for any value (DESIGN.md sec. 12),
     *  so this knob trades wall clock only. */
    unsigned simThreads = 1;
    /** Output path for the JSON results; empty = stdout only. */
    std::string jsonPath;
    std::vector<persistency::Design> designs =
        persistency::allDesigns();
    /** Event tracing / flight recorder (off unless requested). */
    trace::Config trace;
    /** Time-series metrics + FASE speculation profile (off unless
     *  requested; off keeps bench JSON byte-identical to pre-metrics
     *  output). */
    observe::MetricsConfig metrics;

    static BenchOptions
    parse(int argc, char **argv,
          std::uint64_t fallback_ops = defaultOps)
    {
        BenchOptions opt;
        opt.ops = fallback_ops;
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            // Accept both "--flag value" and "--flag=value".
            std::string inline_val;
            bool has_inline = false;
            if (arg.rfind("--", 0) == 0) {
                const std::size_t eq = arg.find('=');
                if (eq != std::string::npos) {
                    inline_val = arg.substr(eq + 1);
                    arg.resize(eq);
                    has_inline = true;
                }
            }
            auto value = [&](const char *flag) -> std::string {
                if (has_inline)
                    return inline_val;
                if (++i >= argc)
                    usageExit(argv[0], 1, "missing value for %s",
                              flag);
                return argv[i];
            };
            if (arg == "--help" || arg == "-h") {
                usageExit(argv[0], 0, nullptr);
            } else if (arg == "--ops") {
                opt.ops = parsePositive(argv[0], "--ops",
                                        value("--ops").c_str());
            } else if (arg == "--jobs") {
                opt.jobs = static_cast<unsigned>(
                    parsePositive(argv[0], "--jobs",
                                  value("--jobs").c_str(), UINT_MAX));
            } else if (arg == "--sim-threads") {
                // 0 is meaningful here (= hardware concurrency), so
                // this flag bypasses parsePositive's positivity check.
                const std::string v = value("--sim-threads");
                std::uint64_t n = 0;
                if (!parseDecimal(v, n, UINT_MAX))
                    usageExit(argv[0], 1,
                              "--sim-threads wants a non-negative "
                              "integer, got '%s'",
                              v.c_str());
                opt.simThreads = static_cast<unsigned>(n);
            } else if (arg == "--json") {
                opt.jsonPath = value("--json");
            } else if (arg == "--designs") {
                opt.designs = parseDesigns(argv[0],
                                           value("--designs"));
            } else if (arg == "--trace") {
                const std::string list = value("--trace");
                if (!trace::parseFlags(list, opt.trace.flags))
                    usageExit(argv[0], 1,
                              "unknown trace flag in '%s'",
                              list.c_str());
            } else if (arg == "--trace-out") {
                opt.trace.outPath = value("--trace-out");
            } else if (arg == "--trace-ring") {
                opt.trace.ringEntries = parsePositive(
                    argv[0], "--trace-ring",
                    value("--trace-ring").c_str());
            } else if (arg == "--flight-recorder") {
                opt.trace.flightRecorder = true;
            } else if (arg == "--metrics") {
                opt.metrics.sample = true;
            } else if (arg == "--metrics-interval-us") {
                opt.metrics.sample = true;
                opt.metrics.interval = nsToTicks(1000.0) *
                    parsePositive(argv[0], "--metrics-interval-us",
                                  value("--metrics-interval-us").c_str());
            } else if (i == 1 && !arg.empty() &&
                       arg.find_first_not_of("0123456789") ==
                           std::string::npos) {
                // Backward compatible bare ops_per_thread position.
                opt.ops = parsePositive(argv[0], "ops", argv[i]);
            } else {
                usageExit(argv[0], 1, "unknown argument '%s'",
                          arg.c_str());
            }
        }
        // An export destination with no selected components means
        // "trace everything".
        if (!opt.trace.outPath.empty() && opt.trace.flags == 0)
            opt.trace.flags = trace::FlagAll;
        return opt;
    }

  private:
    [[noreturn]] static void
    usageExit(const char *prog, int code, const char *fmt, ...)
    {
        if (fmt) {
            va_list args;
            va_start(args, fmt);
            std::fprintf(stderr, "%s: ", prog);
            std::vfprintf(stderr, fmt, args);
            std::fprintf(stderr, "\n");
            va_end(args);
        }
        std::fprintf(
            code ? stderr : stdout,
            "usage: %s [ops_per_thread] [--ops N] [--jobs N]\n"
            "       [--sim-threads N] [--json PATH] "
            "[--designs A,B,...]\n"
            "       [--trace FLAGS] [--trace-out PATH] "
            "[--trace-ring N]\n"
            "       [--flight-recorder] [--metrics]\n"
            "       [--metrics-interval-us N] [--help]\n"
            "\n"
            "  --ops N        FASEs per thread\n"
            "  --jobs N       parallel sweep workers (default: host "
            "cores)\n"
            "  --sim-threads N  domain-parallel threads inside one "
            "run\n"
            "                 (0 = host cores; output is "
            "byte-identical for any N)\n"
            "  --json PATH    write machine-readable results "
            "(pmemspec-bench-v1)\n"
            "  --designs L    comma list of IntelX86,DPO,HOPS,"
            "PMEM-Spec\n"
            "  --trace FLAGS  comma list of PersistPath,PmController,"
            "SpecBuffer,\n"
            "                 Core,FaseRuntime,FaultInject, or 'all'\n"
            "  --trace-out P  export the trace to P (.json: Chrome "
            "trace-event\n"
            "                 JSON; else compact binary); implies "
            "--trace all\n"
            "  --trace-ring N per-core ring capacity in events "
            "(default 65536);\n"
            "                 the offline checker needs a lossless "
            "(drop-free) trace\n"
            "  --flight-recorder  always-on bounded recorder, dumped "
            "on faults\n"
            "  --metrics      sample time-series metrics + the FASE "
            "speculation\n"
            "                 profile into the JSON results\n"
            "  --metrics-interval-us N  sampling cadence in simulated "
            "us\n"
            "                 (implies --metrics; default 100)\n",
            prog);
        std::exit(code);
    }

    static std::uint64_t
    parsePositive(const char *prog, const char *flag, const char *s,
                  std::uint64_t max = UINT64_MAX)
    {
        std::uint64_t v = 0;
        if (!parseDecimal(s, v, max) || v == 0)
            usageExit(prog, 1, "%s wants a positive integer, got '%s'",
                      flag, s);
        return v;
    }

    static std::vector<persistency::Design>
    parseDesigns(const char *prog, const std::string &list)
    {
        std::vector<persistency::Design> out;
        std::size_t pos = 0;
        while (pos <= list.size()) {
            const std::size_t comma = list.find(',', pos);
            const std::string name =
                list.substr(pos, comma == std::string::npos
                                     ? std::string::npos
                                     : comma - pos);
            persistency::Design d;
            if (!persistency::designFromName(name, d))
                usageExit(prog, 1, "unknown design '%s'",
                          name.c_str());
            out.push_back(d);
            if (comma == std::string::npos)
                break;
            pos = comma + 1;
        }
        if (out.empty())
            usageExit(prog, 1, "--designs wants at least one design");
        return out;
    }
};

inline workloads::WorkloadParams
params(unsigned threads, std::uint64_t ops)
{
    workloads::WorkloadParams p;
    p.numThreads = threads;
    p.opsPerThread = ops;
    p.seed = 1;
    return p;
}

/** Header: benchmark column + one column per selected design. */
inline void
printHeader(const char *title,
            const std::vector<persistency::Design> &designs =
                persistency::allDesigns())
{
    std::printf("# %s\n", title);
    std::printf("%-12s", "benchmark");
    for (auto d : designs)
        std::printf(" %10s", persistency::designName(d).c_str());
    std::printf("\n");
}

inline void
printRow(const std::string &name, const core::NormalizedRow &row)
{
    std::printf("%-12s", name.c_str());
    for (auto d : row.designs)
        std::printf(" %10.3f", row.normalized.at(d));
    std::printf("\n");
    std::fflush(stdout);
}

inline void
printRow(const core::NormalizedRow &row)
{
    printRow(workloads::benchName(row.bench), row);
}

/** Mean over every snapshot stat whose qualified name ends with
 *  `suffix` (e.g. ".occupancyDist.p99" across all persist-path
 *  lanes); `fallback` when no stat matches. */
inline double
meanStatSuffix(const core::ExperimentResult &res,
               const std::string &suffix, double fallback = 0)
{
    double sum = 0;
    unsigned n = 0;
    for (const auto &sv : res.stats) {
        if (sv.name.size() >= suffix.size() &&
            sv.name.compare(sv.name.size() - suffix.size(),
                            suffix.size(), suffix) == 0) {
            sum += sv.value;
            ++n;
        }
    }
    return n ? sum / n : fallback;
}

/** Fold per-design geomeans over the rows into one synthetic row. */
inline core::NormalizedRow
geomeanRow(const std::vector<core::NormalizedRow> &rows)
{
    core::NormalizedRow gm;
    if (rows.empty())
        return gm;
    gm.baseline = rows.front().baseline;
    gm.designs = rows.front().designs;
    for (auto d : gm.designs) {
        std::vector<double> norm_vals, raw_vals;
        for (const auto &r : rows) {
            norm_vals.push_back(r.normalized.at(d));
            raw_vals.push_back(r.throughput.at(d));
        }
        gm.normalized[d] = geomean(norm_vals);
        gm.throughput[d] = geomean(raw_vals);
    }
    return gm;
}

inline void
printGeomeanRow(const std::vector<core::NormalizedRow> &rows)
{
    printRow("GEOMEAN", geomeanRow(rows));
}

/** Append the standard normalized table (+ GEOMEAN) to the sink. */
inline void
sinkNormalizedTable(core::ResultSink &sink,
                    const std::vector<core::NormalizedRow> &rows,
                    const std::string &table = "normalized")
{
    for (const auto &r : rows)
        sink.addRow(table, core::ResultSink::rowJson(
                               workloads::benchName(r.bench), r));
    if (!rows.empty())
        sink.addRow(table, core::ResultSink::rowJson(
                               "GEOMEAN", geomeanRow(rows)));
}

/** Standard run metadata + the JSON file write (if requested). */
inline void
finishJson(core::ResultSink &sink, const BenchOptions &opt)
{
    // Job count and wall clock are host facts, not results; leaving
    // them out keeps --jobs 1 and --jobs N byte-identical.
    sink.setMeta("ops_per_thread", Json(opt.ops));
    Json designs = Json::array();
    for (auto d : opt.designs)
        designs.push(Json(persistency::designName(d)));
    sink.setMeta("designs", std::move(designs));
    if (opt.trace.enabled()) {
        Json t = Json::object();
        t.set("flags", Json(trace::flagsToString(opt.trace.flags)));
        t.set("flight_recorder", Json(opt.trace.flightRecorder));
        if (!opt.trace.outPath.empty())
            t.set("out", Json(opt.trace.outPath));
        sink.setMeta("trace", std::move(t));
    }
    if (opt.metrics.enabled()) {
        Json m = Json::object();
        m.set("interval_us",
              Json(opt.metrics.interval / ticksPerNs / 1000));
        sink.setMeta("metrics", std::move(m));
    }
    sink.writeFile(opt.jsonPath);
}

} // namespace pmemspec::bench

#endif // PMEMSPEC_BENCH_BENCH_UTIL_HH
