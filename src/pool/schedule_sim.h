/**
 * @file
 * Cycle-domain pool-schedule simulator: replays the PoolScheduler's
 * dispatch policies over modeled task durations, with no threads and
 * no wall clock. Every dispatch decision is the live pool's own policy
 * core (pool/policy.h) called with cycle ticks; the simulator adds
 * only the event clock, the yield arithmetic and autoscaler stepping. Given each job's per-task cycle counts (from isolated
 * engine runs) it answers "what makespan and die utilization would
 * this trace see under policy X" deterministically — the modeled
 * counterpart of the live pool's wall-clock numbers, and the thing CI
 * can assert on without timing flakiness.
 *
 * Beyond the base policies the simulator replays the whole SLO stack
 * (SimOptions):
 *  - kEdf ordering with per-job deadlines, lateness, and miss counts;
 *  - EASY backfill for kFifoGang, with the head job's start-time
 *    reservation recorded per job so tests can assert the non-delay
 *    invariant exactly;
 *  - layer-boundary preemption (kPriority/kEdf): an arriving
 *    more-urgent job evicts the least-urgent running task at its next
 *    boundary multiple; the remainder (plus a checkpoint overhead)
 *    requeues — mirroring Engine::run_resumable. Each task yields on
 *    its own, so one chain of a sharded job can be evicted while the
 *    others run; the live pool yields the whole job at once;
 *  - elastic capacity: an AutoscalerPolicy stepped on exact windowed
 *    busy-die means and queue depths, its active-die cap applied to
 *    dispatch and its decision sequence recorded for pinning.
 *
 * Unlike the live scheduler (which backfills only on caller-provided
 * estimates), the simulator knows exact durations, so easy_backfill
 * defaults OFF to keep plain-gang pins stable; tests opt in.
 */
#ifndef FLOWGNN_POOL_SCHEDULE_SIM_H
#define FLOWGNN_POOL_SCHEDULE_SIM_H

#include <cstdint>
#include <vector>

#include "pool/autoscaler.h"
#include "pool/policy.h"

namespace flowgnn {

/** One job of a simulated trace. All times in this header are modeled
 * kernel cycles (take them from RunStats of isolated runs), not wall
 * time — which is what makes the simulator's output flake-free. */
struct SimJob {
    /** Modeled duration of each shard task (kernel cycles). Size =
     * job width; must be <= the simulated die count. */
    std::vector<std::uint64_t> task_cycles;
    /** Submission time (cycles since trace start). */
    std::uint64_t arrival = 0;
    /** kPriority only. */
    int priority = 0;
    /** Relative deadline in cycles (absolute = arrival + deadline);
     * 0 = none. Orders kEdf and feeds lateness/miss accounting. */
    std::uint64_t deadline = 0;
    /** Message-passing layer-boundary spacing in cycles: a preempted
     * task yields at the next boundary multiple since its start.
     * 0 = not preemptible (runs to completion). */
    std::uint64_t boundary_cycles = 0;
};

/** Everything simulate_pool_schedule can vary beyond the trace. */
struct SimOptions {
    std::uint32_t num_dies = 4;
    PoolPolicy policy = PoolPolicy::kSpaceShare;
    /** kPriority aging step (cycles waited per step); 0 disables. */
    std::uint64_t aging_cycles = 0;
    /** kFifoGang EASY backfill (exact-duration variant). OFF by
     * default — see the header comment. */
    bool easy_backfill = false;
    /** kPriority/kEdf: evict the least-urgent running preemptible
     * task when a strictly more-urgent job arrives and no die is
     * free. */
    bool enable_preemption = false;
    int preempt_priority_gap = 1;
    /** Cycles added to a preempted task's remainder (checkpoint store
     * + reload DMA — price it from LayerCheckpoint::checkpoint_words
     * at the engine's word rate). */
    std::uint64_t preempt_overhead_cycles = 0;
    /** Elasticity: when set, the policy is stepped every
     * window_cycles on the window's exact mean busy dies and
     * end-of-window queue depth, and its target caps concurrent
     * tasks. The caller's object is mutated (its final state is the
     * end-of-trace target). */
    AutoscalerPolicy *autoscaler = nullptr;
    std::uint64_t window_cycles = 0;
};

/** Outcome of one simulated schedule. */
struct SimResult {
    /** reservation(j) when job j never took one. */
    static constexpr std::uint64_t kNoReservation = ~0ull;

    std::uint64_t makespan = 0; ///< last task completion (cycles)
    std::vector<std::uint64_t> die_busy; ///< busy cycles per die
    std::uint64_t job_start(std::size_t j) const { return start_[j]; }
    std::uint64_t job_finish(std::size_t j) const { return finish_[j]; }

    /** The start-time guarantee job j held while it was the blocked
     * gang head under EASY backfill (earliest recorded), or
     * kNoReservation. The invariant tests assert
     * job_start(j) <= reservation(j). */
    std::uint64_t
    reservation(std::size_t j) const
    {
        return reservation_[j];
    }

    /** Cycles past the absolute deadline (0 for on-time or
     * deadline-less jobs). */
    std::uint64_t lateness(std::size_t j) const { return lateness_[j]; }

    /** Deadline jobs that finished late. */
    std::size_t deadline_misses = 0;
    /** Layer-boundary evictions performed. */
    std::size_t preemptions = 0;
    /** Active-die cap steps as (cycle, target), starting with the
     * initial cap at cycle 0 — the autoscaler's exact decision
     * sequence, pinnable. Empty without an autoscaler. */
    std::vector<std::pair<std::uint64_t, std::size_t>> active_timeline;

    /** Fraction of die-cycles spent working: sum(busy) / (D * makespan). */
    double utilization() const;

    std::vector<std::uint64_t> start_;  ///< first dispatch per job
    std::vector<std::uint64_t> finish_; ///< last completion per job
    std::vector<std::uint64_t> reservation_;
    std::vector<std::uint64_t> lateness_;
};

/**
 * Simulates the trace under `policy` on `num_dies` dies with the same
 * semantics as the live PoolScheduler: kFifoGang gang-starts jobs
 * strictly in arrival order, kSpaceShare dispatches tasks
 * work-conservingly in job-FIFO order, kPriority picks the highest
 * effective priority (aging one step per `aging_cycles` waited;
 * 0 disables aging), kEdf gang-starts in earliest-absolute-deadline
 * order (ties FIFO — equal deadlines everywhere IS kFifoGang).
 * Throws if any job is wider than the pool.
 */
SimResult simulate_pool_schedule(const std::vector<SimJob> &jobs,
                                 const SimOptions &options);

/** Back-compat shorthand for the base policies (no backfill, no
 * preemption, no elasticity). */
SimResult simulate_pool_schedule(const std::vector<SimJob> &jobs,
                                 std::uint32_t num_dies,
                                 PoolPolicy policy,
                                 std::uint64_t aging_cycles = 0);

} // namespace flowgnn

#endif // FLOWGNN_POOL_SCHEDULE_SIM_H
