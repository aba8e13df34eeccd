/**
 * @file
 * One-shot waiter lists that keep their storage.
 *
 * Timing components park continuations until a condition holds (a
 * FIFO empties, a slot frees, a token is released) and then run the
 * whole batch. Moving the list out to run it hands its buffer to a
 * temporary, so the next park reallocates -- one heap allocation per
 * wait cycle on the simulator's hot path. WaiterList swaps the batch
 * with a retained spare instead: after warm-up, parking and waking
 * never touch the heap.
 */

#ifndef PMEMSPEC_COMMON_WAITER_LIST_HH
#define PMEMSPEC_COMMON_WAITER_LIST_HH

#include <utility>
#include <vector>

namespace pmemspec
{

/** FIFO of one-shot nullary callables (typically InplaceFn). */
template <typename W>
class WaiterList
{
  public:
    void push(W w) { live.push_back(std::move(w)); }

    /** Drop every parked waiter without running it. */
    void clear() { live.clear(); }

    /**
     * Run and remove every parked waiter, oldest first. Waiters
     * parked while the batch runs wait for the next call, exactly as
     * if the list had been moved out first. Re-entrant: a nested call
     * runs only what was parked since the outer call began.
     */
    void
    runAll()
    {
        if (live.empty())
            return;
        std::vector<W> batch = std::move(spare);
        batch.swap(live);
        for (auto &w : batch)
            w();
        batch.clear();
        spare = std::move(batch);
    }

  private:
    std::vector<W> live;
    /** Empty buffer with retained capacity, swapped in by runAll(). */
    std::vector<W> spare;
};

} // namespace pmemspec

#endif // PMEMSPEC_COMMON_WAITER_LIST_HH
