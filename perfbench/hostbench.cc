/**
 * @file
 * perfbench: host-time benchmark of the simulator's three heavy paths.
 *
 * One binary, three workloads (see perfbench/README.md for why each
 * was chosen and what one "item" is):
 *
 *   fig09-matrix   8 benchmarks x 4 designs on the 8-core Table 3
 *                  machine (workloads -> persistency -> cpu/mem/sim);
 *   ycsb-serve     the sharded service under the default chaos
 *                  schedule, all 4 designs (service/runtime/pmds);
 *   crash-explore  the crash-state model checker over the 8 crash
 *                  workloads with reordering at depth 6 (faultinject).
 *
 * Every layer is timed from outside, by wrapping the calls this file
 * makes into its public functions; nothing inside src/ is touched.
 * A run alternates a pass at one host thread with a pass at N host
 * threads, N the CPUs this process may run on, until `--seconds`
 * elapse, times a set-up before every such round, and reports
 * medians. Every pass must reproduce the first pass's
 * exact counts and simulated values; a mismatch fails the run.
 *
 * With --trace 1 the run also makes traced passes: a span around
 * every wrapped call (name, start, end, parent = the workload point)
 * kept in memory and written to --spans at the end. The per-layer
 * metrics come from those spans and from what the calls return.
 *
 * The result is one JSON document on stdout; perfbench/run.py adds
 * the host fingerprint and the cross-run determinism ledger.
 */

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "core/experiment.hh"
#include "core/sweep.hh"
#include "cpu/machine.hh"
#include "faultinject/crash_explorer.hh"
#include "faultinject/pmds_workloads.hh"
#include "mem/mem_config.hh"
#include "mem/persist_path.hh"
#include "persistency/lowering.hh"
#include "service/service.hh"
#include "workloads/workload.hh"

namespace
{

using namespace pmemspec;
using persistency::Design;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** CPUs this process may run on: the N of the parallel passes. */
unsigned
hostThreads()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

double
maxRssMb(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
processSysSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/** One timed call: `name` is "<layer>::<function>", `label` names the
 *  design or crash workload it ran for. */
struct Span
{
    std::string name;
    std::string label;
    long parent = -1;
    double start = 0; ///< seconds since the tracer's origin
    double end = 0;
    double sysS = 0;  ///< process system CPU seconds inside the span
    unsigned tid = 0;
};

/** In-memory span store, shared by the worker threads of a pass. */
class Tracer
{
  public:
    explicit Tracer(Clock::time_point origin) : origin(origin) {}

    long
    begin(const char *name, const std::string &label, long parent,
          bool sys)
    {
        Span s;
        s.name = name;
        s.label = label;
        s.parent = parent;
        s.sysS = sys ? processSysSeconds() : 0;
        s.tid = threadIndex();
        s.start = secondsBetween(origin, Clock::now());
        std::lock_guard<std::mutex> g(mu);
        spans.push_back(std::move(s));
        return static_cast<long>(spans.size() - 1);
    }

    void
    end(long id, bool sys)
    {
        const double t = secondsBetween(origin, Clock::now());
        const double sysNow = sys ? processSysSeconds() : 0;
        std::lock_guard<std::mutex> g(mu);
        Span &s = spans[static_cast<std::size_t>(id)];
        s.end = t;
        s.sysS = sys ? sysNow - s.sysS : 0;
    }

    /** Spans recorded so far (call between passes only). */
    const std::vector<Span> &all() const { return spans; }

  private:
    unsigned
    threadIndex()
    {
        std::lock_guard<std::mutex> g(mu);
        const auto id = std::this_thread::get_id();
        auto it = tids.find(id);
        if (it == tids.end())
            it = tids.emplace(id, static_cast<unsigned>(tids.size()))
                     .first;
        return it->second;
    }

    Clock::time_point origin;
    std::mutex mu; ///< guards spans and tids
    std::vector<Span> spans;
    std::map<std::thread::id, unsigned> tids;
};

/** RAII span; records nothing without a tracer. */
class Scope
{
  public:
    Scope(Tracer *tr, const char *name, const std::string &label = {},
          long parent = -1, bool sys = false)
        : tr(tr), sys(sys)
    {
        if (tr)
            spanId = tr->begin(name, label, parent, sys);
    }
    ~Scope()
    {
        if (tr)
            tr->end(spanId, sys);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    long id() const { return spanId; }

  private:
    Tracer *tr;
    bool sys;
    long spanId = -1;
};

/** "cpu::Machine::run" -> "cpu"; point spans belong to "perfbench". */
std::string
layerOf(const std::string &name)
{
    const std::size_t sep = name.find("::");
    return sep == std::string::npos ? "perfbench" : name.substr(0, sep);
}

/** Self time per layer over spans [from, to): each span's duration
 *  minus the union of its children's intervals. */
std::map<std::string, double>
layerSelfTimes(const std::vector<Span> &spans, std::size_t from,
               std::size_t to)
{
    std::map<long, std::vector<std::pair<double, double>>> kids;
    for (std::size_t i = from; i < to; ++i)
        if (spans[i].parent >= 0)
            kids[spans[i].parent].emplace_back(spans[i].start,
                                               spans[i].end);
    std::map<std::string, double> self;
    for (std::size_t i = from; i < to; ++i) {
        double covered = 0;
        auto it = kids.find(static_cast<long>(i));
        if (it != kids.end()) {
            auto &iv = it->second;
            std::sort(iv.begin(), iv.end());
            double lo = iv.front().first, hi = iv.front().second;
            for (const auto &[a, b] : iv) {
                if (a > hi) {
                    covered += hi - lo;
                    lo = a;
                    hi = b;
                } else {
                    hi = std::max(hi, b);
                }
            }
            covered += hi - lo;
        }
        self[layerOf(spans[i].name)] +=
            spans[i].end - spans[i].start - covered;
    }
    return self;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** Run sizes: the measured size and a tiny one for the smoke test. */
struct Size
{
    std::uint64_t fig09Ops;
    std::uint64_t ycsbDurationUs;
    std::size_t crashWorkloads; ///< first N of the crash workloads
};

constexpr Size fullSize{200, 500000, 8};
constexpr Size smokeSize{4, 4000, 2};

/** What one pass over a workload's whole input produced. */
struct PassOutput
{
    double wallS = 0;
    std::uint64_t items = 0;
    /** Items the model resolved as failed (failed_share numerator). */
    std::uint64_t failedItems = 0;
    /** Exact counts and simulated values, named as per-layer metrics. */
    std::map<std::string, double> exact;
    /** Everything that must repeat exactly, serialized. */
    std::string digest;
    /** Failed output checks, one line each. */
    std::vector<std::string> problems;
};

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Build what the passes consume; timed as one setup_s sample. */
    virtual void setup(Tracer *tr) = 0;
    /** One pass over the whole input at `threads` host threads. */
    virtual PassOutput pass(unsigned threads, Tracer *tr) = 0;
    /** Layer metrics derived from spans of one traced serial pass
     *  (and of the setups before it). */
    virtual void spanMetrics(const std::vector<Span> &setupSpans,
                             const std::vector<Span> &passSpans,
                             std::map<std::string, double> &out) = 0;
};

double
sumSpans(const std::vector<Span> &spans, const char *name,
         const std::string &label = {})
{
    double s = 0;
    for (const auto &sp : spans)
        if (sp.name == name && (label.empty() || sp.label == label))
            s += sp.end - sp.start;
    return s;
}

/** Fold per-instance stats ("machine.core3.fases") into one sum per
 *  instance-free name ("machine.core.fases"). */
std::map<std::string, double>
foldStats(const std::vector<StatValue> &stats)
{
    std::map<std::string, double> out;
    for (const auto &sv : stats) {
        std::string key;
        key.reserve(sv.name.size());
        for (const char c : sv.name)
            if (c < '0' || c > '9' || key.empty() || key.back() == '.')
                key += c;
        out[key] += sv.value;
    }
    return out;
}

// ---- fig09-matrix ---------------------------------------------------

class Fig09Matrix : public Workload
{
  public:
    Fig09Matrix(std::uint64_t seed, const Size &size, bool inject)
        : inject(inject)
    {
        params.numThreads = 8;
        params.opsPerThread = size.fig09Ops;
        params.seed = seed;
        for (auto b : workloads::allBenchmarks())
            for (Design d : persistency::allDesigns())
                points.push_back({b, d});
    }

    void
    setup(Tracer *tr) override
    {
        lowered.assign(points.size(), {});
        fasesGenerated = 0;
        traceOps = 0;
        for (auto b : workloads::allBenchmarks()) {
            Scope pt(tr, "setup", workloads::benchName(b));
            std::vector<persistency::LogicalTrace> logical;
            {
                Scope s(tr, "workloads::generateTraces",
                        workloads::benchName(b), pt.id());
                logical = workloads::generateTraces(b, params);
            }
            for (const auto &lt : logical)
                for (const auto &ev : lt)
                    fasesGenerated +=
                        ev.kind == persistency::EventKind::FaseBegin;
            for (std::size_t p = 0; p < points.size(); ++p) {
                if (points[p].bench != b)
                    continue;
                const std::string dn =
                    persistency::designName(points[p].design);
                for (const auto &lt : logical) {
                    Scope s(tr, "persistency::lower", dn, pt.id());
                    lowered[p].push_back(
                        persistency::lower(lt, points[p].design));
                    traceOps += lowered[p].back().size();
                }
            }
        }
        if (inject) {
            // Drop the last FASE's commit marker of one thread: that
            // FASE can never commit, so the "every FASE commits"
            // check must fail.
            auto &t = lowered.front().front();
            for (auto it = t.rbegin(); it != t.rend(); ++it) {
                if (it->op == cpu::TraceOp::FaseEnd) {
                    t.erase(std::next(it).base());
                    break;
                }
            }
        }
    }

    PassOutput
    pass(unsigned threads, Tracer *tr) override
    {
        struct PointOut
        {
            cpu::RunResult run;
            std::map<std::string, double> stats;
        };
        std::vector<PointOut> outs(points.size());
        core::SweepRunner runner(threads);
        const auto t0 = Clock::now();
        runner.forEach(points.size(), [&](std::size_t i) {
            const Point &pt = points[i];
            const std::string dn = persistency::designName(pt.design);
            Scope ps(tr, "fig09-point",
                     std::string(workloads::benchName(pt.bench)) + "/" +
                         dn);
            std::vector<cpu::Trace> traces = lowered[i];
            // The machine configuration of core::runExperiment.
            cpu::MachineConfig mc = core::defaultMachineConfig(8);
            mc.design = pt.design;
            mc.mem.numCores = params.numThreads;
            mc.mem.l1ToLlcExtra =
                pt.design == Design::HOPS ? nsToTicks(1.0) : 0;
            std::unique_ptr<cpu::Machine> m;
            {
                Scope s(tr, "cpu::Machine::Machine", dn, ps.id());
                m = std::make_unique<cpu::Machine>(mc);
            }
            {
                Scope s(tr, "cpu::Machine::setTraces", dn, ps.id());
                m->setTraces(std::move(traces));
            }
            {
                Scope s(tr, "cpu::Machine::run", dn, ps.id());
                outs[i].run = m->run();
            }
            outs[i].stats = foldStats(m->stats().flatten());
        });
        PassOutput po;
        po.wallS = secondsBetween(t0, Clock::now());

        const std::uint64_t expectedPerPoint =
            params.numThreads * params.opsPerThread;
        std::map<std::string, double> &x = po.exact;
        std::ostringstream dig;
        dig.precision(17);
        std::map<Design, std::vector<double>> norm;
        for (std::size_t i = 0; i < points.size(); ++i) {
            const cpu::RunResult &r = outs[i].run;
            const auto &st = outs[i].stats;
            const std::string dn =
                persistency::designName(points[i].design);
            auto stat = [&](const char *k) {
                auto it = st.find(k);
                return it == st.end() ? 0.0 : it->second;
            };
            po.items += r.fases;
            po.failedItems += expectedPerPoint > r.fases
                                  ? expectedPerPoint - r.fases
                                  : 0;
            x["sim.events"] += static_cast<double>(r.events);
            x["sim.events." + dn] += static_cast<double>(r.events);
            x["cpu.fases." + dn] += static_cast<double>(r.fases);
            x["cpu.sim_us." + dn] +=
                static_cast<double>(r.simTicks) / ticksPerNs / 1000.0;
            x["cpu.instructions"] += static_cast<double>(r.instructions);
            x["cpu.fases"] += static_cast<double>(r.fases);
            x["cpu.aborts"] += static_cast<double>(r.aborts);
            x["cpu.sq_full_stalls"] += stat("machine.core.sqFullStalls");
            x["cpu.sfence_stalls"] += stat("machine.core.sfenceStalls");
            x["cpu.dfence_stalls"] += stat("machine.core.dfenceStalls");
            x["cpu.spec_barrier_stalls"] +=
                stat("machine.core.specBarrierStalls");
            x["cpu.locks.contended_acquires"] +=
                stat("machine.locks.contendedAcquires");
            x["mem.pmc.reads"] += stat("machine.memsys.pmc.reads");
            x["mem.pmc.writes"] += stat("machine.memsys.pmc.writes");
            x["mem.pmc.write_coalesces"] +=
                stat("machine.memsys.pmc.writeCoalesces");
            x["mem.pmc.persists_accepted"] +=
                stat("machine.memsys.pmc.persistsAccepted");
            x["mem.pmc.persists_refused"] +=
                stat("machine.memsys.pmc.persistsRefused");
            x["mem.persist_path.sends"] +=
                stat("machine.memsys.persistPath.sends");
            x["mem.persist_path.deliveries"] +=
                stat("machine.memsys.persistPath.deliveries");
            x["mem.persist_path.retries"] +=
                stat("machine.memsys.persistPath.pathRetries");
            x["mem.persist_buffer.deliveries"] +=
                stat("machine.memsys.persistBuf.persistsDone");
            x["mem.persist_buffer.retries"] +=
                stat("machine.memsys.persistBuf.pathRetries");
            x["mem.specbuf.allocations"] +=
                stat("machine.memsys.pmc.specbuf.allocations");
            x["mem.specbuf.expirations"] +=
                stat("machine.memsys.pmc.specbuf.expirations");
            x["mem.specbuf.full_pauses"] +=
                static_cast<double>(r.specBufFullPauses);
            x["mem.specbuf.load_misspecs"] +=
                static_cast<double>(r.loadMisspecs);
            x["mem.specbuf.store_misspecs"] +=
                static_cast<double>(r.storeMisspecs);
            x["mem.pmc.bloom_false_positives"] +=
                stat("machine.memsys.pmc.bloomFalsePositives");
            x["mem.coherence_invalidations"] +=
                stat("machine.memsys.coherenceInvalidations");
            x["mem.store_alloc_fetches"] +=
                stat("machine.memsys.storeAllocFetches");
            x["mem.cross_pmc_reorder_hazards"] +=
                static_cast<double>(r.crossPmcReorderHazards);
            norm[points[i].design].push_back(r.throughput());

            dig << workloads::benchName(points[i].bench) << '/' << dn
                << " ticks=" << r.simTicks << " fases=" << r.fases
                << " instr=" << r.instructions
                << " events=" << r.events << " aborts=" << r.aborts
                << " lm=" << r.loadMisspecs
                << " sm=" << r.storeMisspecs
                << " pauses=" << r.specBufFullPauses
                << " hazards=" << r.crossPmcReorderHazards;
            for (const auto &[k, v] : st)
                dig << ' ' << k << '=' << v;
            dig << '\n';

            if (r.fases != expectedPerPoint)
                po.problems.push_back(
                    std::string(workloads::benchName(points[i].bench)) +
                    "/" + dn + ": " + std::to_string(r.fases) + " of " +
                    std::to_string(expectedPerPoint) +
                    " FASEs committed");
            if (r.loadMisspecs + r.storeMisspecs != 0)
                po.problems.push_back(
                    std::string(workloads::benchName(points[i].bench)) +
                    "/" + dn + ": natural misspeculation");
            if (r.crossPmcReorderHazards != 0)
                po.problems.push_back(
                    std::string(workloads::benchName(points[i].bench)) +
                    "/" + dn + ": cross-PMC reorder hazard");
        }
        // Figure 9's GEOMEAN row: throughput normalised to IntelX86.
        const auto &base = norm[Design::IntelX86];
        for (Design d : persistency::allDesigns()) {
            double logSum = 0;
            for (std::size_t b = 0; b < base.size(); ++b)
                logSum += std::log(ratio(norm[d][b], base[b]));
            x["cpu.norm_geomean." + persistency::designName(d)] =
                std::exp(logSum / static_cast<double>(base.size()));
        }
        x["sim.events_per_fase"] = ratio(x["sim.events"], x["cpu.fases"]);
        x["mem.pmc.accept_ratio"] =
            ratio(x["mem.pmc.persists_accepted"],
                  x["mem.pmc.persists_accepted"] +
                      x["mem.pmc.persists_refused"]);
        x["mem.persist_path.delivery_ratio"] =
            ratio(x["mem.persist_path.deliveries"],
                  x["mem.persist_path.deliveries"] +
                      x["mem.persist_path.retries"]);
        x["mem.persist_buffer.delivery_ratio"] =
            ratio(x["mem.persist_buffer.deliveries"],
                  x["mem.persist_buffer.deliveries"] +
                      x["mem.persist_buffer.retries"]);
        x["workloads.fases_generated"] =
            static_cast<double>(fasesGenerated);
        x["persistency.trace_ops"] = static_cast<double>(traceOps);
        po.digest = dig.str();
        return po;
    }

    void
    spanMetrics(const std::vector<Span> &setupSpans,
                const std::vector<Span> &passSpans,
                std::map<std::string, double> &out) override
    {
        out["workloads.generate_s"] =
            sumSpans(setupSpans, "workloads::generateTraces");
        out["persistency.lower_s"] =
            sumSpans(setupSpans, "persistency::lower");
        out["cpu.run_s"] = sumSpans(passSpans, "cpu::Machine::run");
        for (Design d : persistency::allDesigns()) {
            const std::string dn = persistency::designName(d);
            out["cpu.run_s." + dn] =
                sumSpans(passSpans, "cpu::Machine::run", dn);
        }
    }

  private:
    struct Point
    {
        workloads::BenchId bench;
        Design design;
    };
    workloads::WorkloadParams params;
    std::vector<Point> points;
    bool inject;
    std::vector<std::vector<cpu::Trace>> lowered;
    std::uint64_t fasesGenerated = 0;
    std::uint64_t traceOps = 0;
};

// ---- ycsb-serve -----------------------------------------------------

/** bench/ycsb_service's default chaos script: every fault kind, each
 *  on its own shard, spread across the middle of the run. */
std::vector<service::FaultEvent>
defaultFaults(const service::ServiceConfig &cfg)
{
    using service::ServiceFault;
    auto frac = [&](double f) {
        return static_cast<Tick>(static_cast<double>(cfg.duration) * f);
    };
    return {
        {frac(0.25), 1 % cfg.shards, ServiceFault::PowerCut, 0, 0},
        {frac(0.40), 2 % cfg.shards, ServiceFault::MediaPoison, 0, 0},
        {frac(0.55), 0, ServiceFault::MisspecStorm, 0, 0},
        {frac(0.70), 3 % cfg.shards, ServiceFault::LogPoison, 0, 0},
    };
}

/** bench/ycsb_service's --slo gate: >= 99% availability on every shard
 *  no fault was injected into. */
bool
unfaultedShardsMeetSlo(const service::ServiceResult &res)
{
    std::set<unsigned> faulted;
    for (const auto &f : res.faults)
        if (f.outcome != "skipped")
            faulted.insert(f.shard);
    for (std::size_t s = 0; s < res.shards.size(); ++s)
        if (!faulted.count(static_cast<unsigned>(s)) &&
            res.shards[s].availability() < 0.99)
            return false;
    return true;
}

class YcsbServe : public Workload
{
  public:
    YcsbServe(std::uint64_t seed, const Size &size, bool inject)
    {
        base.seed = seed;
        base.duration = nsToTicks(1000.0 * static_cast<double>(
                                               size.ycsbDurationUs));
        base.faults = defaultFaults(base);
        if (inject) {
            // Offer ~30x the provisioned load: unfaulted shards miss
            // their availability SLO, so that check must fail.
            base.interArrival = nsToTicks(2000);
        }
    }

    void
    setup(Tracer *tr) override
    {
        build(1, tr);
        services.clear();
    }

    PassOutput
    pass(unsigned threads, Tracer *tr) override
    {
        // Services are single-use: build this pass's outside its timed
        // region (setup() times the same construction for setup_s).
        build(threads, tr);
        PassOutput po;
        const auto designs = persistency::allDesigns();
        std::vector<service::ServiceResult> res(designs.size());
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < designs.size(); ++i) {
            const std::string dn = persistency::designName(designs[i]);
            Scope pt(tr, "ycsb-point", dn);
            Scope s(tr, "service::Service::run", dn, pt.id());
            res[i] = services[i]->run();
        }
        po.wallS = secondsBetween(t0, Clock::now());
        services.clear();

        auto &x = po.exact;
        std::ostringstream dig;
        for (std::size_t i = 0; i < designs.size(); ++i) {
            const service::ServiceResult &r = res[i];
            const std::string dn = persistency::designName(designs[i]);
            po.items += r.offered;
            po.failedItems += r.offered - r.succeeded;
            x["service.offered"] += static_cast<double>(r.offered);
            x["service.succeeded"] += static_cast<double>(r.succeeded);
            x["service.retries"] += static_cast<double>(r.retries);
            x["service.deadline_failures"] +=
                static_cast<double>(r.deadlineFailures);
            x["service.shed_rejects"] +=
                static_cast<double>(r.shedRejects);
            x["service.degraded_rejects"] +=
                static_cast<double>(r.degradedRejects);
            for (const auto &sh : r.shards)
                x["service.recoveries"] +=
                    static_cast<double>(sh.recoveries);
            x["service.oracle_checks"] +=
                static_cast<double>(r.oracle.checks);
            x["service.oracle_violations"] +=
                static_cast<double>(r.oracle.violations);
            x["service.sim_p50_ns." + dn] = static_cast<double>(
                r.latencyQuantile(0.50) / ticksPerNs);
            x["service.sim_p99_ns." + dn] = static_cast<double>(
                r.latencyQuantile(0.99) / ticksPerNs);
            dig << r.toJson(base.duration).dump() << '\n';
            if (r.oracle.violations != 0)
                po.problems.push_back(dn + ": " +
                                      std::to_string(r.oracle.violations) +
                                      " shadow-map oracle violations");
            if (!unfaultedShardsMeetSlo(r))
                po.problems.push_back(
                    dn + ": an unfaulted shard missed the 99% "
                         "availability SLO");
        }
        po.digest = dig.str();
        return po;
    }

    void
    spanMetrics(const std::vector<Span> &,
                const std::vector<Span> &passSpans,
                std::map<std::string, double> &out) override
    {
        out["service.run_s"] =
            sumSpans(passSpans, "service::Service::run");
    }

  private:
    void
    build(unsigned threads, Tracer *tr)
    {
        services.clear();
        for (Design d : persistency::allDesigns()) {
            service::ServiceConfig cfg = base;
            cfg.design = d;
            cfg.simThreads = threads;
            Scope s(tr, "service::Service::Service",
                    persistency::designName(d));
            services.push_back(std::make_unique<service::Service>(cfg));
        }
    }

    service::ServiceConfig base;
    std::vector<std::unique_ptr<service::Service>> services;
};

// ---- crash-explore --------------------------------------------------

class CrashExplore : public Workload
{
  public:
    CrashExplore(const Size &size, bool inject)
    {
        for (const auto &wl : faultinject::makeAllWorkloads())
            if (names.size() < size.crashWorkloads)
                names.emplace_back(wl->name());
        // A seeded misordered-undo bug that only reorder exploration
        // can see: the "every crash workload passes" check must fail.
        if (inject)
            names.emplace_back("misordered_undo");
        // crash_check's defaults: reordering on at depth 6, clamped
        // to what the default timing model's window can hold.
        opts.reorderings = true;
        const mem::MemConfig timing;
        opts.windowDepth = static_cast<unsigned>(std::min<std::size_t>(
            6, mem::persistsInWindow(timing.effectiveSpecWindow(),
                                     timing.persistPathLatency)));
        // Keep every violation message: failedCrashPoints() reads the
        // crash point each one names. A passing run has none.
        opts.maxMessages = std::numeric_limits<std::size_t>::max();
    }

    void
    setup(Tracer *tr) override
    {
        factories.clear();
        for (const auto &n : names) {
            Scope s(tr, "faultinject::workloadFactory", n);
            factories.push_back(faultinject::workloadFactory(n));
        }
    }

    PassOutput
    pass(unsigned threads, Tracer *tr) override
    {
        PassOutput po;
        std::vector<faultinject::ExploreResult> res(names.size());
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < names.size(); ++i)
            res[i] = explore(i, threads, tr);
        po.wallS = secondsBetween(t0, Clock::now());

        auto &x = po.exact;
        std::ostringstream dig;
        for (std::size_t i = 0; i < names.size(); ++i) {
            const faultinject::ExploreResult &r = res[i];
            po.items += r.crashPoints;
            po.failedItems += failedCrashPoints(r);
            x["faultinject.crash_points"] +=
                static_cast<double>(r.crashPoints);
            x["faultinject.reorder_windows"] +=
                static_cast<double>(r.reorderWindows);
            x["faultinject.naive_states"] +=
                static_cast<double>(r.naiveStates);
            x["faultinject.reorder_states_explored"] +=
                static_cast<double>(r.reorderStatesExplored);
            x["faultinject.reorder_states_deduped"] +=
                static_cast<double>(r.reorderStatesDeduped);
            x["faultinject.elided_persists"] +=
                static_cast<double>(r.elidedPersists);
            x["faultinject.orderings_collapsed"] +=
                static_cast<double>(r.orderingsCollapsed);
            x["faultinject.failures"] += static_cast<double>(r.failures);
            dig << names[i] << " ops=" << r.ops
                << " points=" << r.crashPoints
                << " torn=" << r.tornTrials
                << " corrupt=" << r.corruptionReported
                << " failures=" << r.failures
                << " windows=" << r.reorderWindows
                << " naive=" << r.naiveStates
                << " explored=" << r.reorderStatesExplored
                << " deduped=" << r.reorderStatesDeduped
                << " elided=" << r.elidedPersists
                << " collapsed=" << r.orderingsCollapsed << '\n';
            for (const auto &m : r.messages)
                dig << "  " << m << '\n';
            if (!r.passed())
                po.problems.push_back(names[i] + ": " +
                                      std::to_string(r.failures) +
                                      " crash-oracle failures");
        }
        x["faultinject.dedup_ratio"] =
            ratio(x["faultinject.reorder_states_explored"],
                  x["faultinject.reorder_states_explored"] +
                      x["faultinject.reorder_states_deduped"]);
        po.digest = dig.str();
        return po;
    }

    void
    spanMetrics(const std::vector<Span> &,
                const std::vector<Span> &passSpans,
                std::map<std::string, double> &out) override
    {
        const char *ex = "faultinject::exploreCrashPointsParallel";
        out["faultinject.explore_s"] = sumSpans(passSpans, ex);
        double sys = 0;
        for (const auto &sp : passSpans)
            if (sp.name == ex)
                sys += sp.sysS;
        out["faultinject.explore_sys_s"] = sys;
        for (const auto &n : names)
            out["faultinject.explore_s." + n] = sumSpans(passSpans, ex, n);
    }

  private:
    /** Crash points with at least one oracle violation. The explorer
     *  counts violations, not points, so the points are read from the
     *  messages ("<workload>: op <i>, crash prefix <k>: <what>"). A
     *  violation found after the op committed names the op's next
     *  prefix and counts as one more failed point of that op. */
    static std::uint64_t
    failedCrashPoints(const faultinject::ExploreResult &r)
    {
        std::set<std::string> points;
        for (const auto &m : r.messages) {
            const std::size_t at = m.find(", crash prefix ");
            points.insert(m.substr(0, m.find(':', at)));
        }
        return points.size();
    }

    faultinject::ExploreResult
    explore(std::size_t i, unsigned threads, Tracer *tr)
    {
        Scope pt(tr, "crash-point", names[i]);
        Scope s(tr, "faultinject::exploreCrashPointsParallel", names[i],
                pt.id(), true);
        if (!tr)
            return faultinject::exploreCrashPointsParallel(factories[i],
                                                           opts, threads);
        // Traced: one span per replica the explorer builds.
        const long parent = s.id();
        const auto &inner = factories[i];
        const std::string &label = names[i];
        faultinject::WorkloadFactory wrapped = [&, parent]() {
            Scope f(tr, "faultinject::WorkloadFactory()", label, parent);
            return inner();
        };
        return faultinject::exploreCrashPointsParallel(wrapped, opts,
                                                       threads);
    }

    std::vector<std::string> names;
    std::vector<faultinject::WorkloadFactory> factories;
    faultinject::ExploreOptions opts;
};

// ---------------------------------------------------------------------
// Metric catalogue
// ---------------------------------------------------------------------

/** Every per-layer metric with its unit, for every workload: a layer
 *  the workload does not call reads 0. */
std::vector<std::pair<std::string, std::string>>
perLayerCatalogue()
{
    std::vector<std::pair<std::string, std::string>> c;
    auto add = [&](const std::string &n, const char *u) {
        c.emplace_back(n, u);
    };
    std::vector<std::string> designs;
    for (Design d : persistency::allDesigns())
        designs.push_back(persistency::designName(d));

    add("sim.events", "count");
    add("sim.events_per_fase", "event/FASE");
    for (const auto &d : designs)
        add("sim.host_ns_per_event." + d, "ns/event");
    add("sim.domain_pool_speedup", "x");

    for (const char *n :
         {"mem.pmc.reads", "mem.pmc.writes", "mem.pmc.write_coalesces",
          "mem.pmc.persists_accepted", "mem.pmc.persists_refused"})
        add(n, "count");
    add("mem.pmc.accept_ratio", "ratio");
    add("mem.persist_path.sends", "count");
    add("mem.persist_path.retries", "count");
    add("mem.persist_path.delivery_ratio", "ratio");
    add("mem.persist_buffer.deliveries", "count");
    add("mem.persist_buffer.retries", "count");
    add("mem.persist_buffer.delivery_ratio", "ratio");
    for (const char *n :
         {"mem.specbuf.allocations", "mem.specbuf.expirations",
          "mem.specbuf.full_pauses", "mem.specbuf.load_misspecs",
          "mem.specbuf.store_misspecs", "mem.pmc.bloom_false_positives",
          "mem.coherence_invalidations", "mem.store_alloc_fetches",
          "mem.cross_pmc_reorder_hazards"})
        add(n, "count");

    add("cpu.run_s", "s");
    for (const auto &d : designs)
        add("cpu.run_s." + d, "s");
    for (const auto &d : designs)
        add("cpu.fases_per_host_s." + d, "1/s");
    for (const char *n :
         {"cpu.instructions", "cpu.fases", "cpu.aborts",
          "cpu.sq_full_stalls", "cpu.sfence_stalls", "cpu.dfence_stalls",
          "cpu.spec_barrier_stalls", "cpu.locks.contended_acquires"})
        add(n, "count");
    for (const auto &d : designs)
        add("cpu.sim_us." + d, "us");
    for (const auto &d : designs)
        add("cpu.norm_geomean." + d, "ratio");

    add("workloads.generate_s", "s");
    add("workloads.fases_generated", "count");
    add("persistency.lower_s", "s");
    add("persistency.trace_ops", "count");

    add("service.run_s", "s");
    for (const char *n :
         {"service.offered", "service.succeeded", "service.retries",
          "service.deadline_failures", "service.shed_rejects",
          "service.degraded_rejects", "service.recoveries",
          "service.oracle_checks", "service.oracle_violations"})
        add(n, "count");
    for (const auto &d : designs)
        add("service.sim_p50_ns." + d, "ns");
    for (const auto &d : designs)
        add("service.sim_p99_ns." + d, "ns");

    add("faultinject.explore_s", "s");
    for (const auto &wl : faultinject::makeAllWorkloads())
        add(std::string("faultinject.explore_s.") + wl->name(), "s");
    add("faultinject.explore_sys_s", "s");
    for (const char *n :
         {"faultinject.crash_points", "faultinject.reorder_windows",
          "faultinject.naive_states",
          "faultinject.reorder_states_explored",
          "faultinject.reorder_states_deduped"})
        add(n, "count");
    add("faultinject.dedup_ratio", "ratio");
    for (const char *n :
         {"faultinject.elided_persists", "faultinject.orderings_collapsed",
          "faultinject.failures"})
        add(n, "count");

    for (const char *l :
         {"workloads", "persistency", "cpu", "service", "faultinject"})
        add(std::string(l) + ".self_s", "s");
    add("trace.overhead_share", "share");
    return c;
}

// ---------------------------------------------------------------------
// Command line and run
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;
    bool inject = false;
    std::string spansPath;
};

[[noreturn]] void
usage(int code)
{
    std::fprintf(
        code ? stderr : stdout,
        "usage: perfbench --workload fig09-matrix|ycsb-serve|"
        "crash-explore\n"
        "                 [--seed N] [--seconds S] [--trace 0|1]\n"
        "                 [--smoke] [--inject-failure]\n"
        "                 [--spans PATH]\n");
    std::exit(code);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto val = [&]() -> std::string {
            if (++i >= argc)
                usage(2);
            return argv[i];
        };
        if (a == "--workload")
            o.workload = val();
        else if (a == "--seed")
            o.seed = std::strtoull(val().c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::strtod(val().c_str(), nullptr);
        else if (a == "--trace")
            o.trace = val() != "0";
        else if (a == "--smoke")
            o.smoke = true;
        else if (a == "--inject-failure")
            o.inject = true;
        else if (a == "--spans")
            o.spansPath = val();
        else if (a == "--help" || a == "-h")
            usage(0);
        else
            usage(2);
    }
    return o;
}

Json
metric(double v, const std::string &unit)
{
    Json m = Json::object();
    m.set("value", Json(v));
    m.set("unit", Json(unit));
    return m;
}

Json
toJsonArray(const std::vector<double> &v)
{
    Json a = Json::array();
    for (double x : v)
        a.push(Json(x));
    return a;
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    Json ev = Json::array();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        Json e = Json::object();
        e.set("name", Json(s.name));
        e.set("ph", Json("X"));
        e.set("pid", Json(0));
        e.set("tid", Json(s.tid));
        e.set("ts", Json(s.start * 1e6));
        e.set("dur", Json((s.end - s.start) * 1e6));
        Json args = Json::object();
        args.set("id", Json(static_cast<std::uint64_t>(i)));
        args.set("parent", Json(static_cast<double>(s.parent)));
        args.set("label", Json(s.label));
        if (s.sysS > 0)
            args.set("sys_s", Json(s.sysS));
        e.set("args", std::move(args));
        ev.push(std::move(e));
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(ev));
    std::ofstream os(path);
    doc.write(os);
    if (!os)
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     path.c_str());
}

/**
 * Peak resident memory, in MB, of a child process that does one
 * set-up and one pass at one host thread. With worker threads the
 * peak depends on which of glibc's per-thread arenas the threads
 * happen to share, and moves by ~12% from run to run; one thread
 * allocates the same sequence every time. Call it while the process
 * has no other thread, so the fork is safe. 0 if the child failed.
 */
double
serialPeakRssMb(Workload &wl)
{
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0)
        return 0;
    if (pid == 0) {
        int code = 0;
        try {
            wl.setup(nullptr);
            wl.pass(1, nullptr);
        } catch (...) {
            code = 1;
        }
        _exit(code);
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0)
        if (errno != EINTR)
            return 0;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return 0;
    return maxRssMb(RUSAGE_CHILDREN);
}

int
runBenchmark(const Options &o)
{
    const Size size = o.smoke ? smokeSize : fullSize;
    std::unique_ptr<Workload> wl;
    if (o.workload == "fig09-matrix")
        wl = std::make_unique<Fig09Matrix>(o.seed, size, o.inject);
    else if (o.workload == "ycsb-serve")
        wl = std::make_unique<YcsbServe>(o.seed, size, o.inject);
    else if (o.workload == "crash-explore")
        wl = std::make_unique<CrashExplore>(size, o.inject);
    else
        usage(2);

    // The run's budget starts here: peak memory, set-up and warm-up
    // count against --seconds, so a run lasts about --seconds.
    const auto start = Clock::now();
    const double serialPeakMb = serialPeakRssMb(*wl);

    const auto origin = Clock::now();
    Tracer tracer(origin);
    Tracer *tr = o.trace ? &tracer : nullptr;

    const unsigned nThreads = hostThreads();

    // Set-up, repeated. A sample times a batch of set-ups that lasts
    // at least 0.2 s, so the clock and the allocator's phases average
    // out; it is the batch's time per set-up. The batch size is found
    // by doubling from one set-up. Those trials also build the first
    // inputs, and are not samples: they run on a fresh heap, while the
    // samples, one before every round of passes, all follow a pass.
    // Only unbatched set-ups are traced.
    std::vector<double> setupS;
    std::vector<std::pair<std::size_t, std::size_t>> setupSpanRanges;
    std::size_t batch = 1;
    auto timeBatch = [&]() {
        const std::size_t from = tracer.all().size();
        const auto t = Clock::now();
        for (std::size_t b = 0; b < batch; ++b)
            wl->setup(batch == 1 ? tr : nullptr);
        const double s = secondsBetween(t, Clock::now());
        if (batch == 1)
            setupSpanRanges.emplace_back(from, tracer.all().size());
        return s / static_cast<double>(batch);
    };
    while (timeBatch() * static_cast<double>(batch) < 0.2)
        batch *= 2;

    // Passes. A warm-up pass at N threads fills the allocator and the
    // caches and is the determinism reference; it is not timed. Then
    // rounds of a set-up sample and passes at (1 thread, N threads),
    // plus the same two traced when tracing: at least three rounds,
    // then stop before a round would overrun --seconds.
    struct PassRec
    {
        unsigned threads;
        bool traced;
        double wallS;
        std::uint64_t items;
        std::size_t spanFrom, spanTo;
        std::size_t setupRange; ///< spans of the set-up before the pass
    };
    std::vector<PassRec> recs;
    std::vector<std::string> problems;
    PassOutput ref;
    std::uint64_t attempted = 0, failedChecks = 0;
    unsigned passes = 0;
    auto runPass = [&](unsigned threads, bool traced, bool timed) {
        const std::size_t from = tracer.all().size();
        PassOutput po = wl->pass(threads, traced ? tr : nullptr);
        if (timed)
            recs.push_back({threads, traced, po.wallS, po.items, from,
                            tracer.all().size(),
                            setupSpanRanges.size() - 1});
        attempted += po.items;
        std::vector<std::string> bad = po.problems;
        if (passes == 0)
            ref = po;
        else if (po.digest != ref.digest)
            bad.push_back("determinism: pass " + std::to_string(passes) +
                          " (" + std::to_string(threads) + " threads" +
                          (traced ? ", traced" : "") +
                          ") differs from the warm-up pass");
        ++passes;
        if (!bad.empty()) {
            failedChecks += po.items;
            for (auto &b : bad)
                if (problems.size() < 20 &&
                    std::find(problems.begin(), problems.end(), b) ==
                        problems.end())
                    problems.push_back(std::move(b));
        }
    };
    runPass(nThreads, false, false);
    const unsigned minRounds = o.smoke ? 2 : 3;
    unsigned rounds = 0;
    for (;;) {
        const auto r0 = Clock::now();
        setupS.push_back(timeBatch());
        for (bool traced : {false, true}) {
            if (traced && !tr)
                continue;
            for (unsigned threads : {1u, nThreads})
                runPass(threads, traced, true);
        }
        ++rounds;
        const double elapsed = secondsBetween(start, Clock::now());
        const double roundS = secondsBetween(r0, Clock::now());
        if (rounds >= minRounds && elapsed + roundS > o.seconds)
            break;
    }

    auto passRates = [&](unsigned threads, bool traced) {
        std::vector<double> v;
        for (const auto &r : recs)
            if (r.threads == threads && r.traced == traced)
                v.push_back(static_cast<double>(r.items) / r.wallS);
        return v;
    };
    auto rate = [&](unsigned threads, bool traced) {
        return median(passRates(threads, traced));
    };
    const double serialRate = rate(1, false);
    const double parRate = rate(nThreads, false);
    if (serialPeakMb <= 0)
        problems.push_back("peak memory: the serial child process failed");

    const double processPeakRssMb = maxRssMb(RUSAGE_SELF);

    const double failedShare =
        ratio(static_cast<double>(ref.failedItems),
              static_cast<double>(ref.items));

    Json metrics = Json::object();
    Json info = Json::object();
    if (!o.trace) {
        metrics.set("items_per_host_s", metric(serialRate, "1/s"));
        metrics.set("items_per_host_s_par", metric(parRate, "1/s"));
        metrics.set("setup_s", metric(median(setupS), "s"));
        metrics.set("peak_rss_mb", metric(serialPeakMb, "MB"));
        metrics.set("succeeded_share", metric(1.0 - failedShare, "share"));
    } else {
        std::map<std::string, double> vals = ref.exact;
        // Host times: median over the traced serial passes, each with
        // the spans of the last traced set-up before it.
        std::map<std::string, std::vector<double>> hostSamples;
        for (const auto &r : recs) {
            if (!r.traced || r.threads != 1)
                continue;
            const auto &sr = setupSpanRanges[r.setupRange];
            const auto &all = tracer.all();
            std::vector<Span> setupSpans(all.begin() + sr.first,
                                         all.begin() + sr.second);
            std::vector<Span> passSpans(all.begin() + r.spanFrom,
                                        all.begin() + r.spanTo);
            std::map<std::string, double> m;
            wl->spanMetrics(setupSpans, passSpans, m);
            auto self = layerSelfTimes(all, r.spanFrom, r.spanTo);
            for (const auto &[layer, s] :
                 layerSelfTimes(all, sr.first, sr.second))
                self[layer] += s;
            for (const auto &[layer, s] : self)
                m[layer + ".self_s"] = s;
            for (const auto &[n, v] : m)
                hostSamples[n].push_back(v);
        }
        for (const auto &[n, v] : hostSamples)
            vals[n] = median(v);
        for (Design d : persistency::allDesigns()) {
            const std::string dn = persistency::designName(d);
            const double run = vals["cpu.run_s." + dn];
            vals["sim.host_ns_per_event." + dn] =
                ratio(run * 1e9, vals["sim.events." + dn]);
            vals["cpu.fases_per_host_s." + dn] =
                ratio(vals["cpu.fases." + dn], run);
        }
        vals["sim.domain_pool_speedup"] = ratio(parRate, serialRate);
        vals["trace.overhead_share"] =
            ratio(serialRate, rate(1, true)) - 1.0;
        for (const auto &[n, unit] : perLayerCatalogue()) {
            auto it = vals.find(n);
            metrics.set(n, metric(it == vals.end() ? 0.0 : it->second,
                                  unit));
        }
        Json selfTimes = Json::object();
        for (const auto &[n, v] : hostSamples)
            if (n.size() > 7 && n.compare(n.size() - 7, 7, ".self_s") == 0)
                selfTimes.set(n, Json(median(v)));
        info.set("self_s", std::move(selfTimes));
        info.set("traced_serial_rates", toJsonArray(passRates(1, true)));
        info.set("traced_par_rates",
                 toJsonArray(passRates(nThreads, true)));
        if (!o.spansPath.empty())
            writeSpans(o.spansPath, tracer.all());
    }

    Json exact = Json::object();
    for (const auto &[n, v] : ref.exact)
        exact.set(n, Json(v));

    info.set("rounds", Json(rounds));
    info.set("threads", Json(nThreads));
    info.set("serial_rates", toJsonArray(passRates(1, false)));
    info.set("par_rates", toJsonArray(passRates(nThreads, false)));
    info.set("setup_samples", toJsonArray(setupS));
    info.set("items_per_pass", Json(ref.items));
    info.set("failed_share", Json(failedShare));
    info.set("serial_peak_rss_mb", Json(serialPeakMb));
    info.set("process_peak_rss_mb", Json(processPeakRssMb));

    Json build = Json::object();
    build.set("compiler", Json(PERFBENCH_COMPILER));
    build.set("flags", Json(PERFBENCH_FLAGS));
    build.set("build_type", Json(PERFBENCH_BUILD_TYPE));

    Json probs = Json::array();
    for (const auto &p : problems)
        probs.push(Json(p));

    Json doc = Json::object();
    doc.set("workload", Json(o.workload));
    doc.set("seed", Json(o.seed));
    doc.set("smoke", Json(o.smoke));
    doc.set("trace", Json(o.trace));
    doc.set("correct", Json(problems.empty()));
    doc.set("attempted", Json(attempted));
    doc.set("failed", Json(failedChecks));
    doc.set("metrics", std::move(metrics));
    doc.set("problems", std::move(probs));
    doc.set("exact", std::move(exact));
    doc.set("digest", Json(ref.digest));
    doc.set("info", std::move(info));
    doc.set("build", std::move(build));
    std::printf("%s\n", doc.dump().c_str());
    return problems.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    try {
        return runBenchmark(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 3;
    }
}
