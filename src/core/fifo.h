/**
 * @file
 * Bounded FIFO with occupancy statistics — the hardware data queue of
 * the multi-queue dataflow (paper Fig. 3(b)). A full queue exerts
 * backpressure on the NT-to-MP adapter, which in turn stalls the NT
 * unit's output stream, exactly as an HLS stream would.
 *
 * Concurrency contract: this type models hardware inside one
 * single-threaded cycle-stepped engine and is deliberately
 * unsynchronized — it carries no thread-safety annotations because it
 * has no locks. Its thread-safe software counterpart is the
 * PoolScheduler's bounded pending-job queue (pool/scheduler.h), guarded
 * by an annotated flowgnn::Mutex (core/sync.h).
 */
#ifndef FLOWGNN_CORE_FIFO_H
#define FLOWGNN_CORE_FIFO_H

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace flowgnn {

/**
 * Bounded FIFO modeling a hardware stream between pipeline units.
 * Storage is a ring that grows to the peak occupancy and is then
 * reused, so a queue in steady state stops allocating however many
 * items stream through it.
 */
template <typename T>
class Fifo
{
  public:
    explicit Fifo(std::size_t capacity = 8) : capacity_(capacity) {}

    bool empty() const { return size_ == 0; }
    bool full() const { return size_ >= capacity_; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return capacity_; }

    /** Pushes if space is available; returns false (backpressure) if not. */
    bool
    push(const T &item)
    {
        return !full() && push(T(item));
    }

    /** Move push, for element types that are move-only (e.g. jobs that
     * carry a std::promise). */
    bool
    push(T &&item)
    {
        if (full())
            return false;
        if (size_ == ring_.size())
            resize_ring(ring_.empty() ? 4 : 2 * ring_.size());
        std::size_t tail = head_ + size_;
        if (tail >= ring_.size())
            tail -= ring_.size();
        ring_[tail].emplace(std::move(item));
        ++size_;
        record_push();
        return true;
    }

    /** Pre-sizes the ring for `items` (capped at the capacity), like
     * vector::reserve: no push allocates until occupancy exceeds it. */
    void
    reserve(std::size_t items)
    {
        if (ring_.size() < items)
            resize_ring(items);
    }

    /** Pops the oldest item; call only when !empty(). */
    T
    pop()
    {
        T item = std::move(*ring_[head_]);
        ring_[head_].reset();
        ++head_;
        if (head_ == ring_.size())
            head_ = 0;
        --size_;
        return item;
    }

    const T &front() const { return *ring_[head_]; }

    /** Lifetime statistics for queue-sizing studies. */
    std::uint64_t total_pushes() const { return total_pushes_; }
    std::size_t peak_occupancy() const { return peak_occupancy_; }

  private:
    void
    record_push()
    {
        ++total_pushes_;
        if (size_ > peak_occupancy_)
            peak_occupancy_ = size_;
    }

    /** Re-seats the items, oldest first, in a ring of `slots` slots
     * (capped at the capacity); a no-op unless that grows the ring. */
    void
    resize_ring(std::size_t slots)
    {
        if (slots > capacity_)
            slots = capacity_;
        if (slots <= ring_.size())
            return;
        std::vector<std::optional<T>> bigger(slots);
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i].emplace(std::move(*ring_[(head_ + i) % ring_.size()]));
        ring_ = std::move(bigger);
        head_ = 0;
    }

    std::size_t capacity_;
    std::vector<std::optional<T>> ring_;
    std::size_t head_ = 0; ///< slot of the oldest item
    std::size_t size_ = 0;
    std::uint64_t total_pushes_ = 0;
    std::size_t peak_occupancy_ = 0;
};

} // namespace flowgnn

#endif // FLOWGNN_CORE_FIFO_H
