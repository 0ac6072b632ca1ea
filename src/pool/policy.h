/**
 * @file
 * flowgnn::pool — the dispatch policy core.
 *
 * One pure function decides, for a snapshot of the pool, how many dies
 * may run (the active-die cap), which pending job gets the next free
 * die, and which running tasks an urgent newcomer should preempt. The
 * live PoolScheduler calls it with nanosecond ticks under its mutex;
 * the cycle-domain schedule simulator calls it with kernel cycles at
 * every event. Every rule lives here once:
 *  - cap: the autoscaler target, raised to the widest pending job so a
 *    gang wider than a shrunk pool can still start, clamped to the pool;
 *  - kSpaceShare: the FIFO head;
 *  - kPriority: highest priority plus one aging step per `aging` ticks
 *    waited, ties FIFO;
 *  - kEdf: earliest absolute deadline (none sorts last), ties FIFO,
 *    started only when its full width is free (the gang width rule);
 *  - kFifoGang: strict FIFO with the gang width rule, plus EASY
 *    backfill (Lifka 1995): a blocked head takes a reservation at the
 *    instant enough running tasks finish to free its width; a later job
 *    may start now if it ends by the reservation, or if it fits in the
 *    dies the head will not need even then (the extra-dies rule);
 *  - preemption victims: running tasks strictly less urgent than the
 *    newcomer, least urgent first, as many as its width needs.
 *
 * What stays with the callers: tokens, threads and wall-clock
 * conversion in the live pool; yield arithmetic, the event clock and
 * the autoscaler stepping in the simulator.
 */
#ifndef FLOWGNN_POOL_POLICY_H
#define FLOWGNN_POOL_POLICY_H

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace flowgnn {

/** How pending tasks are matched to free dies. */
enum class PoolPolicy {
    /** Jobs start strictly in submission order, each only when its
     * full width is free at once (gang scheduling); optional EASY
     * backfill. */
    kFifoGang,
    /** Work-conserving: tasks dispatch in job-FIFO order as dies free
     * up; later jobs backfill once earlier ones are fully dispatched. */
    kSpaceShare,
    /** Next task from the job with the highest aged priority. */
    kPriority,
    /** Earliest absolute deadline first with the gang width rule; with
     * equal deadlines on every job it IS kFifoGang. */
    kEdf,
};

/** Human-readable policy name. */
const char *pool_policy_name(PoolPolicy policy);

/** Integer time: nanoseconds since the scheduler's epoch in the live
 * pool, kernel cycles in the simulator. */
using Tick = std::uint64_t;
/** "No deadline" / "unknown estimate". */
inline constexpr Tick kNoTick = std::numeric_limits<Tick>::max();

/** The policy and its knobs, in ticks. */
struct PolicyRules {
    PoolPolicy policy = PoolPolicy::kSpaceShare;
    /** kFifoGang only. */
    bool easy_backfill = false;
    /** kPriority: one effective-priority step per this many ticks
     * waited; 0 disables aging. */
    Tick aging = 0;
    /** kPriority / kEdf: choose victims for an urgent newcomer. */
    bool preemption = false;
    int preempt_priority_gap = 1;
};

/** One job with tasks still needing a die. */
struct QueuedJob {
    std::size_t remaining = 0; ///< tasks not yet on a die
    std::size_t width = 0;     ///< tasks not yet finished (>= remaining)
    bool started = false;      ///< some task was already dispatched
    int priority = 0;
    Tick admit = 0;
    Tick deadline = kNoTick;     ///< absolute
    Tick longest_task = kNoTick; ///< estimated, or kNoTick = unknown
};

/** One busy die. */
struct RunningTask {
    int priority = 0;        ///< its job's
    Tick deadline = kNoTick; ///< its job's, absolute
    Tick finish = kNoTick;   ///< estimated, or kNoTick = unknown
    /** Already yielding, or cannot yield before it finishes: never a
     * victim. */
    bool yielding = false;
};

/** A snapshot of the pool. */
struct PolicyInput {
    std::span<const QueuedJob> queue;     ///< in admission order
    std::span<const RunningTask> running; ///< one entry per busy die
    std::size_t target = 0;               ///< autoscaler's active dies
    std::size_t num_dies = 0;
    Tick now = 0;
    /** Queue index of a newly arrived job to choose victims for, or
     * PolicyDecision::kNone. */
    std::size_t urgent = std::numeric_limits<std::size_t>::max();
};

struct PolicyDecision {
    static constexpr std::size_t kNone =
        std::numeric_limits<std::size_t>::max();

    /** Active-die cap: tasks may run on at most this many dies. */
    std::size_t cap = 0;
    /** Queue index of the job whose next task takes a free die. */
    std::size_t pick = kNone;
    /** kFifoGang + EASY: the blocked head's queue index and the tick
     * it is guaranteed to start by, when a backfill candidate made the
     * reservation necessary. */
    std::size_t reserved = kNone;
    Tick reservation = kNoTick;
    /** Running indices to preempt for `urgent`, least urgent first. */
    std::vector<std::size_t> victims;
};

/** Applies the rules to a snapshot. Pure: no clock, no state. */
PolicyDecision decide(const PolicyRules &rules, const PolicyInput &in);

} // namespace flowgnn

#endif // FLOWGNN_POOL_POLICY_H
