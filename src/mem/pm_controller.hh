/**
 * @file
 * The persistent-memory controller.
 *
 * The PMC owns the read/write queues (32/64 entries, Table 3), a
 * banked Optane-like device model (read 175ns, write 94ns), and the
 * design-specific persistence machinery:
 *
 *  - IntelX86: dirty LLC writebacks and CLWB flushes enter the write
 *    queue; ADR makes a write durable at acceptance.
 *  - HOPS/DPO: regular-path writebacks are dropped (the persist
 *    buffers are the persistence agents); HOPS additionally keeps a
 *    counting bloom filter of buffered addresses that every PM read
 *    must consult, delaying on (possibly false-positive) hits.
 *  - PMEM-Spec: regular-path writebacks are dropped but reported to
 *    the speculation buffer as WriteBack inputs; persists arriving on
 *    the decoupled paths enter the write queue and feed the Persist
 *    input; PM reads feed the Read input.
 *
 * Backpressure never polls: a refused persist or writeback parks its
 * re-offer (park()) and a read facing a full read queue waits, each
 * woken inside the retirement or fill that frees its slot.
 */

#ifndef PMEMSPEC_MEM_PM_CONTROLLER_HH
#define PMEMSPEC_MEM_PM_CONTROLLER_HH

#include <optional>
#include <vector>

#include "common/bloom_filter.hh"
#include "common/inplace_fn.hh"
#include "common/ring_queue.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/block_table.hh"
#include "mem/mem_config.hh"
#include "mem/speculation_buffer.hh"
#include "persistency/design.hh"
#include "sim/sim_object.hh"

namespace pmemspec::mem
{

/**
 * The Section 5.2.2 store-order predicate, shared by the timing
 * PMC's order check, the functional fault injector's mirror of it,
 * and the crash-state reorder explorer's ordering-edge construction:
 * given the highest speculation ID already recorded for a block
 * within the window, an arriving persist with a *lower* ID persisted
 * after a store that happens-before ordered later -- a WAW inversion
 * (missing-update hazard). Equal IDs are the same store re-observed
 * and are never a violation.
 */
constexpr bool
storeOrderViolated(SpecId recorded, SpecId arriving)
{
    return arriving < recorded;
}

/** Outcome of a checked PM read (media-fault aware read path). */
enum class ReadStatus
{
    Ok,
    /** The block is uncorrectable and the bounded retry budget is
     *  exhausted: the poison propagates to the requester (the
     *  device-level analogue of runtime::MediaError). */
    Poisoned,
};

/** The PM controller at the bottom of the memory system. */
class PmController : public sim::SimObject
{
  public:
    PmController(sim::EventQueue &eq, StatGroup *parent,
                 const MemConfig &cfg, persistency::Design design,
                 std::string name = "pmc");

    /** Receives every completed PM read: the block, and whether its
     *  data is good or poisoned. Installed once by the owner (the
     *  memory system routes fills to its LLC MSHRs), so a read in
     *  flight carries no continuation of its own. */
    using FillHandler = InplaceFn<void(Addr, ReadStatus), 16>;

    void setFillHandler(FillHandler h) { onFill = std::move(h); }

    /**
     * Regular-path PM read (the request missed every cache); the fill
     * handler runs when the data returns from the device. Media-fault
     * aware: if the block is poisoned the PMC retries the device read
     * up to cfg.pmcPoisonRetries times (each paying full device
     * latency -- a transient error may clear) and then delivers
     * ReadStatus::Poisoned instead of data. Graceful degradation:
     * one bad block fails one request, never the controller.
     */
    void read(Addr block_addr);

    /**
     * Mark a block uncorrectable. With transient_reads == 0 the
     * poison is hard (only clearPoison removes it); with N > 0 the
     * error clears after N completed device reads (a marginal cell
     * that the retry sequence scrubs back to health).
     */
    void poisonBlock(Addr block_addr, unsigned transient_reads = 0);

    /** Remove poison (host scrub / page retirement + remap).
     *  @return true if the block was poisoned. */
    bool clearPoisonedBlock(Addr block_addr);

    /** Is the block currently poisoned? */
    bool isBlockPoisoned(Addr block_addr) const
    {
        return blocks.poisoned(block_addr);
    }

    /**
     * Regular-path writeback (dirty LLC eviction or explicit CLWB
     * flush). Handling is design-specific; see the file comment.
     * @return true once the writeback is accepted into the persistent
     *         domain (always, for designs that drop it -- the flush is
     *         then trivially "complete"); false when the IntelX86
     *         write queue is full, in which case nothing happened and
     *         the caller parks its re-offer (park()).
     */
    bool writeBack(Addr block_addr);

    /**
     * A persist arrives from a persist-path or persist buffer.
     * @return false when the write queue is full; the caller parks.
     */
    bool acceptPersist(CoreId core, Addr block_addr,
                       std::optional<SpecId> spec_id);

    /** A refused agent's re-offer; sized for the memory system's
     *  writeback re-offer, which carries the CLWB ack. */
    using Resume = InplaceFn<void(), 48>;

    /** Park a refused agent, once per refusal. `resume` runs once:
     *  FIFO as write-queue slots retire, or as soon as `block_addr`
     *  enters the queue (the re-offer then coalesces). */
    void park(Addr block_addr, Resume resume);

    /** HOPS: keep the PMC bloom filter in sync with buffer contents. */
    void filterInsert(Addr block_addr);
    void filterRemove(Addr block_addr);

    /** The speculation buffer (valid only for Design::PmemSpec). */
    SpeculationBuffer &specBuffer();

    /** Attach the machine's event recorder; `unit` is this PMC's
     *  index (forwarded to the speculation buffer). */
    void setTraceManager(trace::Manager *mgr, std::uint16_t unit = 0);

    /** Occupancies, for tests. */
    unsigned readQueueOccupancy() const { return outstandingReads; }
    unsigned writeQueueOccupancy() const
    {
        return static_cast<unsigned>(writeQueue);
    }
    std::size_t parkedAgents() const { return parked.size(); }

    Counter reads;
    Counter writes;
    Counter writeCoalesces;
    Counter droppedWritebacks;
    Counter persistsAccepted;
    Counter persistsRefused;
    Counter bloomTrueHits;
    Counter bloomFalsePositives;
    Counter poisonRetries;
    Counter poisonedReads;
    Counter poisonHeals;
    Accumulator readLatencyStat;

  private:
    /** One PM read in flight; the poison-retry budget travels with
     *  it, so every hop of the read path is a small plain closure. */
    struct PendingRead
    {
        Addr block = 0;
        Tick enq = 0; ///< when this attempt entered the controller
        unsigned retriesLeft = 0;
    };

    /** Start one read attempt: the HOPS bloom front end, then the
     *  device queue. */
    void issueRead(Addr block_addr, unsigned retries_left);

    /** Issue a device read; finishRead() at service end. */
    void serviceRead(PendingRead r);

    /** Step the poison automaton for a completed device read: retry,
     *  or hand the fill to the fill handler. */
    void finishRead(PendingRead r);

    /** Push one write into the banked device. */
    void serviceWrite(Addr block_addr);

    /** A write-queue slot retired: re-offer parked agents, oldest
     *  first, while slots are free. */
    void resumeParked();

    Tick &bankFree(Addr block_addr);

    const MemConfig cfg;
    persistency::Design design;

    std::vector<Tick> banks; ///< per-bank availability (reads)
    Tick writeServerFree = 0; ///< aggregate write-bandwidth server
    unsigned outstandingReads = 0;
    unsigned writeQueue = 0;

    /** Reads waiting for a read-queue slot, served by the next fill. */
    RingQueue<PendingRead> waitingReads;

    /** Refused agents, oldest first, with the block each offered. */
    struct Parked
    {
        Addr block = 0;
        Resume resume;
    };
    RingQueue<Parked> parked;

    /**
     * All per-block controller state -- write-queue coalescability
     * (Section 4.2), media poison, the HOPS pending-persist count and
     * read waiters, and the Section 5.2.2 spec-ID order automaton --
     * in one struct-of-arrays open-addressing table.
     */
    BlockTable blocks;

    /** HOPS: bloom filter over the persist buffers' contents; the
     *  block table holds the true counts behind it. */
    BloomFilter bloom;

    /** PMEM-Spec machinery. */
    std::optional<SpeculationBuffer> specBuf;

    FillHandler onFill;

    /** Run the spec-ID check for a tagged persist. */
    void checkStoreOrder(Addr block_addr, SpecId spec_id);

    trace::Manager *traceMgr = nullptr;
    std::uint16_t traceUnit = 0;
};

} // namespace pmemspec::mem

#endif // PMEMSPEC_MEM_PM_CONTROLLER_HH
