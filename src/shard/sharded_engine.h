/**
 * @file
 * flowgnn::shard — multi-die sharded execution for graphs larger than
 * one die's buffers.
 *
 * A large COO graph is split into P shards by a node-to-die
 * assignment (graph/partition.h strategies). Each die keeps its owned
 * nodes plus a one-deep ghost fringe and receives the fringe's
 * embeddings over the inter-die link before every message-passing
 * layer — the per-layer boundary exchange of src/ghost. The answer is
 * computed once in src-major order, the arrival order of a
 * single-NT-unit die, so with one NT unit sharded runs are
 * bit-identical to single-engine runs.
 *
 * Timing model: dies run concurrently; each die prices its phases over
 * its local subgraph and pays a link transfer (LinkConfig bandwidth and
 * latency) per exchange, serialized before the phase it feeds or, with
 * LinkConfig::overlap, hidden behind that phase's compute. The
 * composed RunStats takes the slowest die's chain.
 *
 * ShardedEngine is the one-job-uses-all-dies wrapper; the die-pool
 * scheduler (src/pool) runs the same plan as a job that leases its P
 * dies.
 */
#ifndef FLOWGNN_SHARD_SHARDED_ENGINE_H
#define FLOWGNN_SHARD_SHARDED_ENGINE_H

#include "shard/shard_plan.h"

namespace flowgnn {

/**
 * Multi-die FlowGNN instance: one model, P identical engine dies.
 * Thread-safe for concurrent run() calls (each run owns its scratch).
 */
class ShardedEngine
{
  public:
    ShardedEngine(const Model &model, EngineConfig engine_config = {},
                  ShardConfig shard_config = {});

    const EngineConfig &engine_config() const { return engine_.config(); }
    const ShardConfig &shard_config() const { return shard_config_; }
    const Model &model() const { return model_; }

    /**
     * Runs one graph across all dies. Models with a virtual node
     * execute on a single die regardless of num_shards: the virtual
     * node is connected to every node, so every node would be a
     * boundary node and sharding cannot help.
     */
    ShardedRunResult run(const GraphSample &sample,
                         const RunOptions &opts = {}) const;

  private:
    const Model &model_;
    Engine engine_; ///< validates config and model at construction
    ShardConfig shard_config_;
};

} // namespace flowgnn

#endif // FLOWGNN_SHARD_SHARDED_ENGINE_H
