/**
 * @file
 * Serve-through-failure: the YCSB-style service harness under chaos.
 *
 * Runs the sharded always-on service (src/service) once per selected
 * persistency design: open-loop zipfian clients against per-shard
 * failure domains while the fault scheduler injects power cuts,
 * poisoned media and misspeculation storms mid-flight. Reports
 * client-visible SLOs -- throughput, p50/p95/p99/p999 latency,
 * availability, time-to-recover per fault -- plus the consistency
 * oracle's verdict, per design.
 *
 * The default chaos script exercises every fault kind on a different
 * shard; `--faults` replaces it (`--faults none` runs fault-free,
 * `--faults powercut:1:500` cuts power on shard 1 at t=500us -- the
 * CI smoke configuration). `--slo` turns the acceptance criteria into
 * the exit code: zero oracle violations and >= 99% availability on
 *  every shard a fault was not injected into.
 *
 * Each (config, design) run is a deterministic discrete-event
 * simulation; --jobs parallelises across designs and --sim-threads
 * parallelises the per-shard simulation domains inside one run
 * (DESIGN.md section 12). The JSON is byte-identical at any --jobs
 * or --sim-threads value.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>

#include "bench_util.hh"
#include "core/sweep.hh"
#include "service/service.hh"

using namespace pmemspec;
using bench::parseCount;
using service::FaultEvent;
using service::ServiceConfig;
using service::ServiceFault;
using service::ServiceResult;

namespace
{

[[noreturn]] void
usageExit(const char *prog, int code)
{
    std::fprintf(
        code ? stderr : stdout,
        "usage: %s [--duration-us N] [--shards N] [--clients N]\n"
        "       [--keys N] [--arrival-ns N] [--seed N]\n"
        "       [--faults SPEC[,SPEC...]|none] [--slo]\n"
        "       [--jobs N] [--sim-threads N] [--json PATH]\n"
        "       [--designs A,B,...] [--metrics]\n"
        "       [--metrics-interval-us N]\n"
        "\n"
        "  SPEC = kind:shard:at_us with kind one of\n"
        "         powercut, poison, logpoison, storm\n"
        "  --sim-threads N  host threads over the per-shard\n"
        "         simulation domains of one run (0 = host cores);\n"
        "         the output is byte-identical for any N\n"
        "  --metrics  sample per-shard time-series metrics and the\n"
        "         per-FASE-site speculation profile into the JSON\n"
        "  --metrics-interval-us N  sampling cadence in simulated us\n"
        "         (implies --metrics; default 500)\n"
        "  --slo  exit non-zero unless: zero oracle violations and\n"
        "         availability >= 0.99 on every shard without an\n"
        "         injected fault (per design)\n",
        prog);
    std::exit(code);
}

bool
faultKindFromName(const std::string &name, ServiceFault &out)
{
    if (name == "powercut") {
        out = ServiceFault::PowerCut;
    } else if (name == "poison") {
        out = ServiceFault::MediaPoison;
    } else if (name == "logpoison") {
        out = ServiceFault::LogPoison;
    } else if (name == "storm") {
        out = ServiceFault::MisspecStorm;
    } else {
        return false;
    }
    return true;
}

std::vector<FaultEvent>
parseFaults(const char *prog, const std::string &list)
{
    std::vector<FaultEvent> out;
    if (list == "none")
        return out;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string spec =
            list.substr(pos, comma == std::string::npos
                                 ? std::string::npos
                                 : comma - pos);
        const std::size_t c1 = spec.find(':');
        const std::size_t c2 =
            c1 == std::string::npos ? std::string::npos
                                    : spec.find(':', c1 + 1);
        if (c2 == std::string::npos) {
            std::fprintf(stderr,
                         "%s: fault spec '%s' is not "
                         "kind:shard:at_us\n",
                         prog, spec.c_str());
            std::exit(1);
        }
        FaultEvent ev;
        if (!faultKindFromName(spec.substr(0, c1), ev.kind)) {
            std::fprintf(stderr, "%s: unknown fault kind in '%s'\n",
                         prog, spec.c_str());
            std::exit(1);
        }
        ev.shard = static_cast<unsigned>(
            parseCount(prog, "fault shard",
                       spec.substr(c1 + 1, c2 - c1 - 1), UINT_MAX));
        ev.at = nsToTicks(1000.0 * static_cast<double>(parseCount(
                              prog, "fault at_us",
                              spec.substr(c2 + 1))));
        out.push_back(ev);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

/** The default chaos script: every fault kind, each on its own
 *  shard, spread across the middle of the run. */
std::vector<FaultEvent>
defaultFaults(const ServiceConfig &cfg)
{
    auto frac = [&](double f) {
        return static_cast<Tick>(static_cast<double>(cfg.duration) * f);
    };
    std::vector<FaultEvent> out;
    out.push_back({frac(0.25), 1 % cfg.shards,
                   ServiceFault::PowerCut, 0, 0});
    out.push_back({frac(0.40), 2 % cfg.shards,
                   ServiceFault::MediaPoison, 0, 0});
    out.push_back({frac(0.55), 0, ServiceFault::MisspecStorm, 0, 0});
    out.push_back({frac(0.70), 3 % cfg.shards,
                   ServiceFault::LogPoison, 0, 0});
    return out;
}

/** The acceptance gate: no oracle violations, and every shard that
 *  had no fault injected stayed >= 99% available. */
bool
meetsSlo(const ServiceConfig &cfg, const ServiceResult &res)
{
    if (res.oracle.violations != 0)
        return false;
    std::set<unsigned> faulted;
    for (const auto &f : res.faults)
        if (f.outcome != "skipped")
            faulted.insert(f.shard);
    for (std::size_t s = 0; s < res.shards.size(); ++s) {
        if (faulted.count(static_cast<unsigned>(s)))
            continue;
        if (res.shards[s].availability() < 0.99)
            return false;
    }
    (void)cfg;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    ServiceConfig base;
    unsigned jobs = 0;
    std::string jsonPath;
    std::vector<persistency::Design> designs =
        persistency::allDesigns();
    std::vector<FaultEvent> faults = defaultFaults(base);
    bool explicitFaults = false;
    bool gateSlo = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
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
            if (++i >= argc) {
                std::fprintf(stderr, "%s: missing value for %s\n",
                             argv[0], flag);
                std::exit(1);
            }
            return argv[i];
        };
        if (arg == "--help" || arg == "-h") {
            usageExit(argv[0], 0);
        } else if (arg == "--duration-us") {
            base.duration = nsToTicks(1000.0 * static_cast<double>(
                parseCount(argv[0], "--duration-us",
                           value("--duration-us"))));
        } else if (arg == "--shards") {
            base.shards = static_cast<unsigned>(parseCount(
                argv[0], "--shards", value("--shards"), UINT_MAX));
        } else if (arg == "--clients") {
            base.clients = static_cast<unsigned>(parseCount(
                argv[0], "--clients", value("--clients"), UINT_MAX));
        } else if (arg == "--keys") {
            base.keySpace = parseCount(argv[0], "--keys",
                                       value("--keys"));
        } else if (arg == "--arrival-ns") {
            base.interArrival = nsToTicks(static_cast<double>(
                parseCount(argv[0], "--arrival-ns",
                           value("--arrival-ns"))));
        } else if (arg == "--seed") {
            base.seed = parseCount(argv[0], "--seed",
                                   value("--seed"));
        } else if (arg == "--faults") {
            faults = parseFaults(argv[0], value("--faults"));
            explicitFaults = true;
        } else if (arg == "--metrics") {
            base.metrics = true;
        } else if (arg == "--metrics-interval-us") {
            base.metrics = true;
            base.metricsInterval = nsToTicks(1000.0) *
                parseCount(argv[0], "--metrics-interval-us",
                           value("--metrics-interval-us"));
        } else if (arg == "--slo") {
            gateSlo = true;
        } else if (arg == "--jobs") {
            jobs = static_cast<unsigned>(parseCount(
                argv[0], "--jobs", value("--jobs"), UINT_MAX));
        } else if (arg == "--sim-threads") {
            base.simThreads = static_cast<unsigned>(
                parseCount(argv[0], "--sim-threads",
                           value("--sim-threads"), UINT_MAX));
        } else if (arg == "--json") {
            jsonPath = value("--json");
        } else if (arg == "--designs") {
            designs.clear();
            const std::string list = value("--designs");
            std::size_t pos = 0;
            while (pos <= list.size()) {
                const std::size_t comma = list.find(',', pos);
                const std::string name = list.substr(
                    pos, comma == std::string::npos
                             ? std::string::npos
                             : comma - pos);
                persistency::Design d;
                if (!persistency::designFromName(name, d)) {
                    std::fprintf(stderr,
                                 "%s: unknown design '%s'\n",
                                 argv[0], name.c_str());
                    return 1;
                }
                designs.push_back(d);
                if (comma == std::string::npos)
                    break;
                pos = comma + 1;
            }
        } else {
            std::fprintf(stderr, "%s: unknown argument '%s'\n",
                         argv[0], arg.c_str());
            usageExit(argv[0], 1);
        }
    }
    // A changed duration moves the default chaos script with it.
    if (!explicitFaults)
        faults = defaultFaults(base);
    base.faults = faults;
    fatal_if(designs.empty(), "no designs selected");

    // One deterministic run per design; --jobs parallelises across
    // designs, cfg.simThreads across the shard domains inside each.
    std::vector<ServiceResult> results(designs.size());
    core::SweepRunner runner(jobs);
    runner.forEach(designs.size(), [&](std::size_t i) {
        ServiceConfig cfg = base;
        cfg.design = designs[i];
        service::Service svc(cfg);
        results[i] = svc.run();
    });

    std::printf("# ycsb_service: %u shards, %u clients, %llu keys, "
                "%llu us, %zu fault(s)\n",
                base.shards, base.clients,
                static_cast<unsigned long long>(base.keySpace),
                static_cast<unsigned long long>(
                    base.duration / ticksPerNs / 1000),
                faults.size());
    std::printf("%-10s %12s %8s %9s %9s %9s %6s %6s\n", "design",
                "ops/s", "avail", "p50(ns)", "p99(ns)", "p999(ns)",
                "viol", "SLO");
    bool sloOk = true;
    core::ResultSink sink("ycsb_service");
    for (std::size_t i = 0; i < designs.size(); ++i) {
        const ServiceResult &r = results[i];
        const bool ok = meetsSlo(base, r);
        sloOk = sloOk && ok;
        std::printf("%-10s %12.0f %8.4f %9llu %9llu %9llu %6llu %6s\n",
                    persistency::designName(designs[i]).c_str(),
                    r.throughputOpsPerSec(base.duration),
                    r.availability(),
                    static_cast<unsigned long long>(
                        r.latencyQuantile(0.50) / ticksPerNs),
                    static_cast<unsigned long long>(
                        r.latencyQuantile(0.99) / ticksPerNs),
                    static_cast<unsigned long long>(
                        r.latencyQuantile(0.999) / ticksPerNs),
                    static_cast<unsigned long long>(
                        r.oracle.violations),
                    ok ? "pass" : "FAIL");
        Json row = r.toJson(base.duration);
        row.set("slo_pass", Json(ok));
        sink.addRow("service", std::move(row));
    }

    sink.setMeta("shards", Json(base.shards));
    sink.setMeta("clients", Json(base.clients));
    sink.setMeta("keys", Json(base.keySpace));
    sink.setMeta("duration_ns", Json(base.duration / ticksPerNs));
    sink.setMeta("inter_arrival_ns",
                 Json(base.interArrival / ticksPerNs));
    sink.setMeta("seed", Json(base.seed));
    Json fj = Json::array();
    for (const auto &f : faults) {
        Json row = Json::object();
        row.set("kind", Json(service::serviceFaultName(f.kind)));
        row.set("shard", Json(f.shard));
        row.set("at_ns", Json(f.at / ticksPerNs));
        fj.push(std::move(row));
    }
    sink.setMeta("faults", std::move(fj));
    Json dj = Json::array();
    for (auto d : designs)
        dj.push(Json(persistency::designName(d)));
    sink.setMeta("designs", std::move(dj));
    // Only when on: metrics-off envelopes stay bit-for-bit unchanged.
    if (base.metrics) {
        Json mj = Json::object();
        mj.set("interval_us",
               Json(base.metricsInterval / ticksPerNs / 1000));
        sink.setMeta("metrics", std::move(mj));
    }
    sink.writeFile(jsonPath);

    if (gateSlo && !sloOk) {
        std::fprintf(stderr, "ycsb_service: SLO gate FAILED\n");
        return 1;
    }
    return 0;
}
