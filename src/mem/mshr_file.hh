/**
 * @file
 * A flat miss-status holding register file.
 *
 * One entry per outstanding miss, keyed by block address, holding the
 * requests merged into it in arrival order. A core has a handful of
 * misses in flight (its load MLP plus one draining store), and the
 * shared LLC a few dozen, so entries live in two parallel arrays that
 * are scanned linearly; at these sizes a scan reads a line or two.
 * Opening and closing a miss allocates nothing once the file has
 * warmed up: waiter vectors keep their capacity and are recycled
 * through a spare pool.
 */

#ifndef PMEMSPEC_MEM_MSHR_FILE_HH
#define PMEMSPEC_MEM_MSHR_FILE_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace pmemspec::mem
{

/** Outstanding misses, each with its FIFO of merged waiters W. */
template <typename W>
class MshrFile
{
  public:
    /**
     * Merge w into the outstanding miss to `block`, or open one.
     * @return true when this opened a new miss (the caller issues
     *         it); false when w merged into one already in flight.
     */
    bool
    add(Addr block, W w)
    {
        for (std::size_t i = 0; i < live; ++i) {
            if (blocks[i] == block) {
                waiters[i].push_back(std::move(w));
                return false;
            }
        }
        if (live == blocks.size()) {
            blocks.push_back(block);
            waiters.emplace_back();
        } else {
            blocks[live] = block;
        }
        std::vector<W> &list = waiters[live];
        if (list.capacity() == 0 && !spares.empty()) {
            list.swap(spares.back());
            spares.pop_back();
        }
        list.push_back(std::move(w));
        ++live;
        return true;
    }

    /**
     * Close the miss to `block` and call each(w) on its waiters in
     * arrival order. The entry is gone before the first call, so a
     * waiter may open a new miss to the same block.
     */
    template <typename F>
    void
    complete(Addr block, F &&each)
    {
        std::size_t i = 0;
        while (i < live && blocks[i] != block)
            ++i;
        panic_if(i == live, "MSHR vanished for block");
        std::vector<W> batch;
        batch.swap(waiters[i]);
        --live;
        std::swap(blocks[i], blocks[live]);
        waiters[i].swap(waiters[live]);

        for (W &w : batch)
            each(w);
        batch.clear();
        spares.push_back(std::move(batch));
    }

  private:
    /** Entries [0, live) are outstanding; the rest are free slots. */
    std::vector<Addr> blocks;
    std::vector<std::vector<W>> waiters;
    std::size_t live = 0;
    /** Emptied waiter vectors that kept their capacity. */
    std::vector<std::vector<W>> spares;
};

} // namespace pmemspec::mem

#endif // PMEMSPEC_MEM_MSHR_FILE_HH
