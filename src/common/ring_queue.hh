/**
 * @file
 * A growable FIFO ring buffer.
 *
 * std::deque allocates and frees a chunk every few hundred bytes of
 * push/pop traffic even when its length stays flat, which puts a
 * malloc/free pair on the simulator's hot path every handful of
 * store-queue entries or persist-path flits. RingQueue keeps one
 * power-of-two array and only grows it (doubling) when the queue is
 * longer than it has ever been.
 */

#ifndef PMEMSPEC_COMMON_RING_QUEUE_HH
#define PMEMSPEC_COMMON_RING_QUEUE_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace pmemspec
{

/** FIFO over default-constructible, movable T. */
template <typename T>
class RingQueue
{
  public:
    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }

    T &front() { return buf[head]; }
    const T &front() const { return buf[head]; }

    /** i-th element from the front (0 = front). */
    T &operator[](std::size_t i) { return buf[(head + i) & (buf.size() - 1)]; }

    void
    push_back(T v)
    {
        if (count == buf.size())
            grow();
        buf[(head + count) & (buf.size() - 1)] = std::move(v);
        ++count;
    }

    void
    pop_front()
    {
        buf[head] = T{};
        head = (head + 1) & (buf.size() - 1);
        --count;
    }

  private:
    void
    grow()
    {
        std::vector<T> bigger(buf.empty() ? 8 : buf.size() * 2);
        for (std::size_t i = 0; i < count; ++i)
            bigger[i] = std::move((*this)[i]);
        buf.swap(bigger);
        head = 0;
    }

    std::vector<T> buf; ///< capacity is zero or a power of two
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace pmemspec

#endif // PMEMSPEC_COMMON_RING_QUEUE_HH
