#include "pm_controller.hh"

#include "common/logging.hh"

namespace pmemspec::mem
{

using persistency::Design;

PmController::PmController(sim::EventQueue &eq, StatGroup *parent,
                           const MemConfig &cfg_, Design design_,
                           std::string name)
    : sim::SimObject(std::move(name), eq, parent),
      cfg(cfg_),
      design(design_),
      banks(cfg_.pmBanks, 0),
      bloom(cfg_.bloomCounters, cfg_.bloomHashes)
{
    if (design == Design::PmemSpec) {
        specBuf.emplace(eq, &stats(), cfg.specBufferEntries,
                        cfg.effectiveSpecWindow());
    }
    stats().addCounter("reads", &reads, "PM device reads");
    stats().addCounter("writes", &writes, "PM device writes");
    stats().addCounter("writeCoalesces", &writeCoalesces,
                       "persists coalesced into a buffered block");
    stats().addCounter("droppedWritebacks", &droppedWritebacks,
                       "regular-path writebacks dropped by design");
    stats().addCounter("persistsAccepted", &persistsAccepted,
                       "persists accepted into the ADR domain");
    stats().addCounter("persistsRefused", &persistsRefused,
                       "persists refused on a full write queue; "
                       "each refused agent parks once");
    stats().addCounter("bloomTrueHits", &bloomTrueHits,
                       "PM reads delayed on a real buffer conflict");
    stats().addCounter("bloomFalsePositives", &bloomFalsePositives,
                       "PM reads delayed on a bloom false positive");
    stats().addCounter("poisonRetries", &poisonRetries,
                       "device re-reads of an uncorrectable block");
    stats().addCounter("poisonedReads", &poisonedReads,
                       "reads that propagated poison after retries");
    stats().addCounter("poisonHeals", &poisonHeals,
                       "transient media errors cleared by retrying");
    stats().addAccumulator("readLatency", &readLatencyStat,
                           "PM read latency (ns), enqueue to data");
}

SpeculationBuffer &
PmController::specBuffer()
{
    panic_if(!specBuf, "speculation buffer only exists for PMEM-Spec");
    return *specBuf;
}

void
PmController::setTraceManager(trace::Manager *mgr, std::uint16_t unit)
{
    traceMgr = mgr;
    traceUnit = unit;
    if (specBuf)
        specBuf->setTraceManager(mgr, unit);
}

Tick &
PmController::bankFree(Addr block_addr)
{
    return banks[blockNumber(block_addr) % banks.size()];
}

void
PmController::serviceRead(PendingRead r)
{
    if (outstandingReads >= cfg.pmcReadQueue) {
        // Read queue full: wait for the next fill, in arrival order.
        waitingReads.push_back(r);
        return;
    }
    ++outstandingReads;
    ++reads;
    PMEMSPEC_TRACE(traceMgr, FlagPmController, trace::EventKind::PmcRead,
                   curTick(), trace::kNoCore, r.block,
                   {.arg = outstandingReads, .unit = traceUnit});

    if (design == Design::PmemSpec)
        specBuf->read(r.block);

    Tick &free_at = bankFree(r.block);
    Tick start = std::max(curTick(), free_at);
    Tick done = start + cfg.pmReadLatency;
    free_at = done;
    auto fill = [this, r] {
        --outstandingReads;
        readLatencyStat.sample(
            static_cast<double>(curTick() - r.enq) / ticksPerNs);
        // The freed slot goes to the oldest waiting read first.
        if (!waitingReads.empty()) {
            const PendingRead next = waitingReads.front();
            waitingReads.pop_front();
            serviceRead(next);
        }
        finishRead(r);
    };
    static_assert(sim::EventQueue::storesInline<decltype(fill)>);
    schedule(After{done - curTick()}, std::move(fill));
}

void
PmController::issueRead(Addr block_addr, unsigned retries_left)
{
    const PendingRead r{block_addr, curTick(), retries_left};

    if (design == Design::HOPS) {
        // Every PM read pays the bloom-filter lookup (Section 8.2.2).
        const Tick lookup = cfg.bloomLookupLatency;
        if (bloom.mayContain(block_addr)) {
            if (blocks.pendingPersists(block_addr) > 0) {
                // Real conflict: the block sits in a persist buffer.
                // HOPS postpones the read until the buffer drains it.
                ++bloomTrueHits;
                auto resume = [this, r] { serviceRead(r); };
                static_assert(BlockTable::PersistWaiter::storesInline<
                              decltype(resume)>);
                blocks.addPersistWaiter(block_addr, std::move(resume));
                return;
            }
            // False positive: delay by the configured penalty.
            ++bloomFalsePositives;
            schedule(After{lookup + cfg.bloomFalsePositivePenalty},
                     [this, r] { serviceRead(r); });
            return;
        }
        schedule(After{lookup}, [this, r] { serviceRead(r); });
        return;
    }

    serviceRead(r);
}

void
PmController::read(Addr block_addr)
{
    issueRead(block_addr, cfg.pmcPoisonRetries);
}

void
PmController::poisonBlock(Addr block_addr, unsigned transient_reads)
{
    blocks.poison(block_addr, transient_reads);
}

bool
PmController::clearPoisonedBlock(Addr block_addr)
{
    return blocks.clearPoison(block_addr);
}

void
PmController::finishRead(PendingRead r)
{
    ReadStatus status = ReadStatus::Ok;
    switch (blocks.notePoisonRead(r.block)) {
      case BlockTable::PoisonRead::Clean:
        break;
      case BlockTable::PoisonRead::Healed:
        // A transient error: this completed device read was the one
        // that scrubbed the cell back to health.
        ++poisonHeals;
        break;
      case BlockTable::PoisonRead::Faulted:
        if (r.retriesLeft > 0) {
            ++poisonRetries;
            warn_once("PMC read of block %#llx hit poisoned media; "
                      "retrying (logged once; the poisonRetries "
                      "counter tracks the total)",
                      static_cast<unsigned long long>(r.block));
            issueRead(r.block, r.retriesLeft - 1);
            return;
        }
        // Retry budget exhausted: the poison propagates to the
        // requester (machine-check on data delivery), the controller
        // itself keeps serving every other block.
        ++poisonedReads;
        warn_once("PMC poison-retry budget exhausted for block %#llx; "
                  "delivering machine-check (logged once; the "
                  "poisonedReads counter tracks the total)",
                  static_cast<unsigned long long>(r.block));
        status = ReadStatus::Poisoned;
        break;
    }
    if (onFill)
        onFill(r.block, status);
}

void
PmController::serviceWrite(Addr block_addr)
{
    // Coalesce into a queued (not yet started) write of this block:
    // the PMC buffers whole cache blocks, so another store to the
    // same block merges for free (Section 4.2). A coalesced store
    // consumes no extra write-queue entry.
    if (!blocks.markCoalescable(block_addr)) {
        ++writeCoalesces;
        return;
    }

    ++writeQueue;
    ++writes;
    // A full-block write remaps an uncorrectable line: fresh data
    // heals the poison (hard or transient alike).
    blocks.clearPoison(block_addr);
    // Writes drain in the background at the device's aggregate write
    // bandwidth; reads have priority and never queue behind them
    // (standard PMC scheduling -- ADR makes write *latency* invisible
    // to the program, only write-queue occupancy matters).
    Tick start = std::max(curTick(), writeServerFree);
    writeServerFree = start + cfg.pmWriteLatency / cfg.pmBanks;
    Tick done = start + cfg.pmWriteLatency;
    // The block stops being coalescable once its device write starts.
    schedule(After{start - curTick()},
               [this, block_addr] { blocks.clearCoalescable(block_addr); });
    schedule(After{done - curTick()}, [this] {
        panic_if(writeQueue == 0, "write queue underflow");
        --writeQueue;
        resumeParked();
    });
}

void
PmController::park(Addr block_addr, Resume resume)
{
    parked.push_back(Parked{block_addr, std::move(resume)});
}

void
PmController::resumeParked()
{
    while (!parked.empty() && writeQueue < cfg.pmcWriteQueue) {
        Parked head = std::move(parked.front());
        parked.pop_front();
        head.resume();
        // A full queue admits a block only through a woken agent. Once
        // its re-offer has returned (spec-buffer input and spec-ID
        // check done), the agents parked on that block coalesce.
        for (std::size_t n = parked.size(); n > 0; --n) {
            Parked p = std::move(parked.front());
            parked.pop_front();
            if (p.block == head.block && blocks.coalescable(p.block))
                p.resume();
            else
                parked.push_back(std::move(p));
        }
    }
}

bool
PmController::writeBack(Addr block_addr)
{
    switch (design) {
      case Design::IntelX86:
        // Normal memory behaviour: the writeback enters the write
        // queue; ADR makes it durable at acceptance.
        if (writeQueue >= cfg.pmcWriteQueue &&
            !blocks.coalescable(block_addr))
            return false;
        serviceWrite(block_addr);
        return true;

      case Design::DPO:
      case Design::HOPS:
        // The persist buffers are the agents of persistence; dirty
        // LLC evictions are dropped (Section 2.2).
        ++droppedWritebacks;
        return true;

      case Design::PmemSpec:
        // Silently dropped -- but the WriteBack *request* is the
        // speculation buffer's monitoring trigger (Table 2).
        ++droppedWritebacks;
        PMEMSPEC_TRACE(traceMgr, FlagPmController,
                       trace::EventKind::PmcWriteBack, curTick(),
                       trace::kNoCore, block_addr,
                       {.arg = writeQueue, .unit = traceUnit});
        specBuf->writeBack(block_addr);
        return true;
    }
    panic("unhandled design");
}

bool
PmController::acceptPersist(CoreId core, Addr block_addr,
                            std::optional<SpecId> spec_id)
{
    (void)core; // only the trace points consume it today
    if (writeQueue >= cfg.pmcWriteQueue &&
        !blocks.coalescable(block_addr)) {
        ++persistsRefused;
        PMEMSPEC_TRACE(traceMgr, FlagPmController,
                       trace::EventKind::PmcPersistRefuse, curTick(),
                       core, block_addr,
                       {.specId = spec_id ? *spec_id : trace::kNoSpecId,
                        .unit = traceUnit});
        return false;
    }
    ++persistsAccepted;
    PMEMSPEC_TRACE(traceMgr, FlagPmController,
                   trace::EventKind::PmcPersistAccept, curTick(), core,
                   block_addr,
                   {.specId = spec_id ? *spec_id : trace::kNoSpecId,
                    .arg = writeQueue, .unit = traceUnit});
    serviceWrite(block_addr);
    if (design == Design::PmemSpec) {
        specBuf->persist(block_addr);
        if (spec_id)
            checkStoreOrder(block_addr, *spec_id);
    }
    return true;
}

void
PmController::checkStoreOrder(Addr block_addr, SpecId spec_id)
{
    const Tick window = cfg.effectiveSpecWindow();
    const auto r = blocks.specPersist(block_addr, spec_id, curTick(),
                                      window);
    switch (r.step) {
      case BlockTable::SpecStep::Violation:
        // A store ordered *earlier* by the happens-before order
        // persisted after a later one: missing-update hazard.
        PMEMSPEC_TRACE(traceMgr, FlagPmController,
                       trace::EventKind::PmcStoreOrderViolation,
                       curTick(), trace::kNoCore, block_addr,
                       {.specId = spec_id, .arg = r.prev,
                        .unit = traceUnit});
        specBuf->reportStoreMisspec(block_addr);
        return;

      case BlockTable::SpecStep::Refreshed:
        return;

      case BlockTable::SpecStep::Inserted:
        // Bound the table: expire this entry after the window unless
        // it was refreshed (lazy sweep keyed on the insertion tick).
        schedule(After{window + 1}, [this, block_addr] {
            SpecId expired;
            if (blocks.specExpire(block_addr, curTick(),
                                  cfg.effectiveSpecWindow(), &expired)) {
                PMEMSPEC_TRACE(traceMgr, FlagPmController,
                               trace::EventKind::PmcTrackExpire,
                               curTick(), trace::kNoCore, block_addr,
                               {.specId = expired, .unit = traceUnit});
            }
        });
        return;
    }
}

void
PmController::filterInsert(Addr block_addr)
{
    bloom.insert(block_addr);
    blocks.persistBuffered(block_addr);
}

void
PmController::filterRemove(Addr block_addr)
{
    bloom.remove(block_addr);
    if (blocks.persistDrained(block_addr))
        blocks.runPersistWaiters(block_addr);
}

} // namespace pmemspec::mem
