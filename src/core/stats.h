/**
 * @file
 * Execution statistics gathered by the engine: cycle counts, per-unit
 * utilization, queue behaviour, and the observed MP workload split
 * (the measured counterpart of Table VII's imbalance metric).
 */
#ifndef FLOWGNN_CORE_STATS_H
#define FLOWGNN_CORE_STATS_H

#include <cstdint>
#include <vector>

#include "core/trace.h"

namespace flowgnn {

/** Busy/idle cycle counts for one processing unit. */
struct UnitStats {
    std::uint64_t busy = 0;
    std::uint64_t idle = 0;

    double
    utilization() const
    {
        std::uint64_t total = busy + idle;
        return total == 0 ? 0.0 : static_cast<double>(busy) / total;
    }
};

/** Statistics of one engine run (one graph through all layers). */
struct RunStats {
    /** Kernel clock the producing engine was configured with; filled
     * in by Engine::run so latency reports always use the real clock
     * rather than an assumed default. */
    double clock_mhz = 300.0;
    std::uint64_t total_cycles = 0;
    std::uint64_t load_cycles = 0; ///< input DMA (graph + features)
    std::uint64_t head_cycles = 0; ///< pooled MLP head
    std::vector<std::uint64_t> phase_cycles; ///< per pipeline phase
    std::vector<UnitStats> nt_units;
    std::vector<UnitStats> mp_units;
    /** Edge-work items processed per MP unit (workload imbalance). */
    std::vector<std::uint64_t> mp_edge_work;
    std::uint64_t adapter_stall_cycles = 0; ///< multicast backpressure
    /** Inter-die exchange cycles (zero for single-die runs): the sum
     * over all per-layer exchanges on the die with the most link
     * time. Its exposed part is included in total_cycles, so
     * latency_ms() reports the end-to-end figure. */
    std::uint64_t comm_cycles = 0;
    /** Sharded runs only: per-exchange link cycles, maxed over dies
     * (entry p is the boundary exchange feeding phase p's scatter).
     * Empty for single-die runs. */
    std::vector<std::uint64_t> layer_comm_cycles;
    std::size_t queue_peak_occupancy = 0;
    std::uint64_t queue_total_pushes = 0;
    /** Busy intervals per unit (when RunOptions::capture_trace). */
    std::vector<TraceEvent> trace;
    /**
     * Per-die end-to-end chain length (exchanges + compute) of a
     * composed multi-die run, one entry per shard; empty for
     * single-die runs. total_cycles is the max of these, so
     * die_cycles[d] / total_cycles is die d's utilization of the
     * system-level makespan.
     */
    std::vector<std::uint64_t> die_cycles;

    /** Wall latency at the producing engine's configured clock. */
    double
    latency_ms() const
    {
        return latency_ms(clock_mhz);
    }

    /** Wall latency at an explicit what-if clock. */
    double
    latency_ms(double at_clock_mhz) const
    {
        return static_cast<double>(total_cycles) / (at_clock_mhz * 1e3);
    }

    /** Observed MP imbalance: (max-min)/total work, as in Table VII. */
    double observed_mp_imbalance() const;

    /** Per-die fraction of the system makespan each die spent working
     * (die_cycles / total_cycles); empty for single-die runs. */
    std::vector<double> die_utilizations() const;
};

/**
 * Composes per-die statistics of one sharded (ghost-exchange) run into
 * a single RunStats, as if the multi-die system were one wider
 * accelerator. `per_layer_comm[d][p]` is die d's link cycles for the
 * boundary exchange feeding its phase p's scatter.
 *
 * - Die d's chain is its compute total plus the exposed cost of every
 *   exchange. Serial composition exposes each exchange in full
 *   (chain = total + sum_p comm[p]); with `overlap_comm` the exchange
 *   streams concurrently with the phase it feeds (ghost contributions
 *   arrive as the scatter consumes them), so only
 *   max(0, comm[p] - phase_cycles[p]) delays the chain.
 * - Chains are recorded in RunStats::die_cycles; total_cycles is their
 *   max (dies run concurrently) and comm_cycles the max over dies of
 *   sum_p comm[p]. layer_comm_cycles holds the per-exchange max over
 *   dies.
 * - Per-unit and per-bank vectors concatenate across dies, so
 *   utilization and imbalance metrics span the whole system; trace
 *   events get their unit ids offset per die so a merged trace shows
 *   every die's units as separate rows.
 */
RunStats compose_shard_stats(
    const std::vector<RunStats> &shards,
    const std::vector<std::vector<std::uint64_t>> &per_layer_comm,
    bool overlap_comm = false);

} // namespace flowgnn

#endif // FLOWGNN_CORE_STATS_H
