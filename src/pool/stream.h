/**
 * @file
 * Consecutive-graph stream processing (the paper's deployment model:
 * "graphs are streamed in consecutively and processed on-the-fly").
 *
 * The StreamRunner models the board-level double buffering between the
 * HBM input DMA and the compute kernel: while graph i is being
 * computed, graph i+1's edge list and features are already loading, so
 * in steady state the stream runs at max(load, compute) cycles per
 * graph. Per-graph latency is unchanged (a single graph still pays
 * load + compute); only throughput improves.
 */
#ifndef FLOWGNN_POOL_STREAM_H
#define FLOWGNN_POOL_STREAM_H

#include "datasets/dataset.h"
#include "pool/scheduler.h"

namespace flowgnn {

/** Aggregate results of a pipelined stream run. */
struct StreamRunStats {
    std::size_t graphs = 0;
    /** End-to-end cycles for the whole stream with load/compute
     * overlap across consecutive graphs. */
    std::uint64_t pipelined_cycles = 0;
    /** Cycles the same stream takes without cross-graph overlap. */
    std::uint64_t sequential_cycles = 0;
    /** Mean single-graph latency (load + compute), in cycles. */
    double avg_latency_cycles = 0.0;
    double avg_prediction = 0.0; ///< sanity signal for tests

    double
    throughput_speedup() const
    {
        return pipelined_cycles == 0
            ? 1.0
            : static_cast<double>(sequential_cycles) /
                  static_cast<double>(pipelined_cycles);
    }

    /** Graphs per second at the given kernel clock. */
    double
    graphs_per_second(double clock_mhz) const
    {
        if (pipelined_cycles == 0)
            return 0.0;
        return static_cast<double>(graphs) * clock_mhz * 1e6 /
               static_cast<double>(pipelined_cycles);
    }
};

/**
 * Runs a sample stream through a die pool with cross-graph
 * load/compute overlap (two-stage pipeline: DMA, then kernel).
 *
 * Samples are submitted asynchronously and the board-level timeline is
 * reconstructed from the per-run stats in submission order, so the
 * modeled cycle counts are bit-identical however many dies the pool
 * runs.
 */
class StreamRunner
{
  public:
    explicit StreamRunner(PoolScheduler &pool) : pool_(pool) {}

    /** Processes `count` consecutive samples from the stream. */
    StreamRunStats run(SampleStream &stream, std::size_t count) const;

  private:
    PoolScheduler &pool_;
};

} // namespace flowgnn

#endif // FLOWGNN_POOL_STREAM_H
