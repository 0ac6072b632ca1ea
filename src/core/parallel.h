/**
 * @file
 * Host-side range parallelism for the embarrassingly parallel stages
 * of graph ingestion, planning and the ghost functional pass (degree
 * counting, CSR fill, closure extraction, chunked checksums, NT
 * transforms and the src-major pull).
 *
 * parallel_ranges splits [0, total) into at most `threads` balanced
 * contiguous ranges and runs one callback per range on its own
 * std::thread (range 0 on the calling thread), with a per-call serial
 * cutoff for callers whose elements are not cheap (e.g. 64 MiB
 * checksum chunks); parallel_cost_ranges splits by a prefix cost
 * instead, for elements of uneven weight (destinations by in-edges).
 * Every algorithm built on them is required to be *bit-identical to
 * its serial form regardless of thread count* — per-thread partial
 * results are merged in thread-index order, never in completion order
 * — so a differential test pinning serial == parallel output is
 * meaningful, and callers may default to all host cores without a
 * determinism knob.
 *
 * Small inputs run serially: below kSerialCutoff elements the thread
 * launch costs more than it saves, and every tiny test graph would
 * otherwise pay it.
 */
#ifndef FLOWGNN_CORE_PARALLEL_H
#define FLOWGNN_CORE_PARALLEL_H

#include <cstddef>
#include <exception>
#include <thread>
#include <utility>
#include <vector>

namespace flowgnn {

/**
 * Resolves a thread-count request: 0 means "all host cores"
 * (std::thread::hardware_concurrency, at least 1), anything else is
 * taken as given.
 */
inline unsigned
host_threads(unsigned requested = 0)
{
    if (requested != 0)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

/** Elements below which parallel_ranges stays serial. */
inline constexpr std::size_t kSerialCutoff = 1u << 16;

namespace detail {

/** Runs fn(bound(k), bound(k + 1), k) for k in [0, t), range 0 on the
 * calling thread; rethrows the first range's exception after all
 * threads join. */
template <class Bound, class Fn>
void
run_ranges(unsigned t, Bound &&bound, Fn &&fn)
{
    std::vector<std::exception_ptr> errors(t);
    auto run_range = [&](unsigned tid) {
        try {
            fn(bound(tid), bound(tid + 1), tid);
        } catch (...) {
            errors[tid] = std::current_exception();
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(t - 1);
    for (unsigned tid = 1; tid < t; ++tid)
        pool.emplace_back(run_range, tid);
    run_range(0);
    for (std::thread &th : pool)
        th.join();
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
}

} // namespace detail

/**
 * Runs fn(begin, end, tid) over a balanced split of [0, total) across
 * up to `threads` threads (0 = all host cores). Ranges are contiguous,
 * ascending, and differ in size by at most one element; tid is the
 * range index, and range 0 runs on the calling thread. Serial (one
 * range, tid 0) when threads <= 1 or total < serial_cutoff — override
 * the cutoff when elements are expensive (checksum chunks, shard
 * closures) rather than per-edge cheap. The first exception thrown by
 * any range is rethrown on the caller after all threads join.
 */
template <class Fn>
void
parallel_ranges(std::size_t total, unsigned threads, Fn &&fn,
                std::size_t serial_cutoff = kSerialCutoff)
{
    unsigned t = host_threads(threads);
    if (t > total)
        t = total == 0 ? 1 : static_cast<unsigned>(total);
    if (t <= 1 || total < serial_cutoff) {
        fn(std::size_t(0), total, 0u);
        return;
    }
    detail::run_ranges(
        t, [&](unsigned k) { return total * k / t; }, fn);
}

/**
 * Runs fn(begin, end, tid) over [0, n) cut into exactly `ranges`
 * contiguous, ascending ranges of about equal cost, where
 * cost_before(i) is the non-decreasing cost of [0, i), cost_before(0)
 * == 0 — e.g. a CSC's column offsets, to balance destinations by
 * in-edges instead of by count. A range may be empty (one heavy
 * element can outweigh a share). Range 0 runs on the calling thread;
 * `ranges` <= 1 runs serially. Exceptions as in parallel_ranges.
 */
template <class Cost, class Fn>
void
parallel_cost_ranges(std::size_t n, unsigned ranges, Cost &&cost_before,
                     Fn &&fn)
{
    if (ranges <= 1) {
        fn(std::size_t(0), n, 0u);
        return;
    }
    const std::size_t total = cost_before(n);
    detail::run_ranges(
        ranges,
        [&](unsigned k) {
            if (k == ranges)
                return n;
            // First i whose prefix cost reaches k/ranges of the total.
            const std::size_t target = total * k / ranges;
            std::size_t lo = 0, hi = n;
            while (lo < hi) {
                const std::size_t mid = lo + (hi - lo) / 2;
                if (cost_before(mid) < target)
                    lo = mid + 1;
                else
                    hi = mid;
            }
            return lo;
        },
        fn);
}

/** The number of ranges parallel_ranges would use — for sizing
 * per-thread scratch (count matrices, partial sums) up front. */
inline unsigned
parallel_range_count(std::size_t total, unsigned threads,
                     std::size_t serial_cutoff = kSerialCutoff)
{
    unsigned t = host_threads(threads);
    if (t > total)
        t = total == 0 ? 1 : static_cast<unsigned>(total);
    if (t <= 1 || total < serial_cutoff)
        return 1;
    return t;
}

} // namespace flowgnn

#endif // FLOWGNN_CORE_PARALLEL_H
