#include "persist_path.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pmemspec::mem
{

PersistPath::PersistPath(sim::EventQueue &eq, StatGroup *parent,
                         CoreId core, Tick latency, unsigned capacity,
                         DeliverFn deliver_fn)
    : sim::SimObject("persistPath" + std::to_string(core), eq, parent),
      occupancyHist(0, capacity + 1.0,
                    std::min<std::size_t>(capacity + 1, 64)),
      coreId(core),
      pathLatency(latency),
      fifoCapacity(capacity),
      deliver(std::move(deliver_fn))
{
    fatal_if(capacity == 0, "persist path capacity must be >= 1");
    stats().addCounter("sends", &sends, "persists pushed onto the path");
    stats().addCounter("deliveries", &deliveries,
                       "persists accepted by the PMC");
    stats().addCounter("pathRetries", &pathRetries,
                       "deliveries refused on PMC backpressure; "
                       "each parks once");
    stats().addAccumulator("occupancy", &occupancyStat,
                           "FIFO occupancy sampled at each send");
    stats().addHistogram("occupancyDist", &occupancyHist,
                         "FIFO occupancy distribution at each send");
}

void
PersistPath::send(Addr block_addr, std::optional<SpecId> spec_id)
{
    panic_if(full(), "persist path overflow; the store queue must "
                     "apply backpressure via full()");
    // Entries traverse the path in order: one flit per path cycle of
    // throughput, pathLatency of pipeline depth.
    const Tick one_flit = ticksPerNs; // 1 GB-ish flit rate: 1 flit/ns
    const Tick injected = delayHook ? delayHook(block_addr) : 0;
    Tick arrival = std::max(curTick() + pathLatency + injected,
                            lastArrival + one_flit);
    lastArrival = arrival;
    fifo.push_back(Flit{block_addr, spec_id, arrival});
    ++sends;
    occupancyStat.sample(static_cast<double>(fifo.size()));
    occupancyHist.sample(static_cast<double>(fifo.size()));
    PMEMSPEC_TRACE(traceMgr, FlagPersistPath, trace::EventKind::PathSend,
                   curTick(), coreId, block_addr,
                   {.specId = spec_id ? *spec_id : trace::kNoSpecId,
                    .arg = fifo.size(), .unit = traceUnit});
    if (!armed) {
        armed = true;
        schedule(After{arrival - curTick()}, [this] { pump(); });
    }
}

void
PersistPath::pump()
{
    // Runs at the head's arrival, or when the PMC resumes it.
    panic_if(fifo.empty(), "persist path pumped while empty");
    Flit &head = fifo.front();
    if (!deliver(coreId, head.addr, head.specId, [this] { pump(); })) {
        // PMC write queue full: parked there, the chain stays armed.
        ++pathRetries;
        PMEMSPEC_TRACE(traceMgr, FlagPersistPath,
                       trace::EventKind::PathRetry, curTick(), coreId,
                       head.addr, {.unit = traceUnit});
        return;
    }
    ++deliveries;
    PMEMSPEC_TRACE(traceMgr, FlagPersistPath,
                   trace::EventKind::PathDeliver, curTick(), coreId,
                   head.addr,
                   {.specId = head.specId ? *head.specId
                                          : trace::kNoSpecId,
                    .arg = fifo.size() - 1, .unit = traceUnit});
    fifo.pop_front();
    // Re-arm before waking waiters: a parked store that sends now
    // must join this chain, not start a second one.
    armed = !fifo.empty();
    if (armed) {
        const Tick ready = fifo.front().readyAt;
        schedule(After{ready > curTick() ? ready - curTick() : 0},
                 [this] { pump(); });
    }
    if (fifo.empty())
        emptyWaiters.runAll();
    if (!full())
        spaceWaiters.runAll();
}

void
PersistPath::notifyWhenEmpty(Waiter cb)
{
    if (fifo.empty()) {
        cb();
        return;
    }
    emptyWaiters.push(std::move(cb));
}

void
PersistPath::notifyWhenNotFull(Waiter cb)
{
    if (!full()) {
        cb();
        return;
    }
    spaceWaiters.push(std::move(cb));
}

} // namespace pmemspec::mem
