/**
 * @file
 * The PM controller's backpressure retry schedules.
 *
 * Three agents poll a busy PM controller, on two kinds of schedule:
 *
 *  - Persist delivery (bounded exponential). Both agents that hand
 *    persists to the PMC -- the PMEM-Spec persist path and the
 *    HOPS/DPO persist buffers -- can see the write queue full and
 *    must retry without giving up FIFO order. They share one
 *    deterministic policy, pmcRetryBackoff(): first retry after 4ns,
 *    doubling to a 32ns clamp, reset on the first accepted delivery,
 *    so a congested PMC is probed quickly but a persistently full
 *    queue is not hammered every 4ns. Each user surfaces the retry
 *    count as the "pathRetries" stat in its StatGroup.
 *
 *  - Regular-path writebacks and reads (fixed interval). An IntelX86
 *    writeback (dirty LLC eviction or CLWB flush) that finds the
 *    write queue full is re-offered every pmcWriteBackRetry (4ns) by
 *    the memory system; a PM read that finds the read queue full
 *    re-polls inside the PMC every pmcReadQueueRetry (1ns). Neither
 *    backs off and neither is counted in a stat. Both are kept as
 *    they are: changing either would move the simulated timing of
 *    every IntelX86 and read-heavy run.
 */

#ifndef PMEMSPEC_MEM_PMC_RETRY_HH
#define PMEMSPEC_MEM_PMC_RETRY_HH

#include "common/backoff.hh"

namespace pmemspec::mem
{

/** The shared PMC-backpressure retry schedule (fresh instance). */
constexpr BoundedBackoff
pmcRetryBackoff()
{
    return BoundedBackoff{4 * ticksPerNs, 32 * ticksPerNs};
}

/** Poll interval of a regular-path writeback refused by a full
 *  IntelX86 write queue (PmController::writeBack returned false). */
constexpr Tick pmcWriteBackRetry = 4 * ticksPerNs;

/** Poll interval of a PM read waiting for a read-queue slot. */
constexpr Tick pmcReadQueueRetry = 1 * ticksPerNs;

} // namespace pmemspec::mem

#endif // PMEMSPEC_MEM_PMC_RETRY_HH
