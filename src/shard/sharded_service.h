/**
 * @file
 * ShardedService: the serving entry point that makes graph size an
 * operational detail. Every submission routes into one flowgnn::pool
 * die pool: small graphs become one-die jobs (many in flight at once),
 * graphs at or above the shard threshold become sharded jobs that
 * lease one die per modeled die — and the PoolScheduler interleaves
 * both kinds over the same D dies, so small traffic backfills whatever
 * a sharded job leaves idle (no dedicated worker, no partitioned
 * replica set). Callers submit a
 * GraphSample and receive a std::future<RunResult> with the pool's
 * admission-control semantics (kBlock backpressure / kReject +
 * ServiceOverloaded) on both paths.
 */
#ifndef FLOWGNN_SHARD_SHARDED_SERVICE_H
#define FLOWGNN_SHARD_SHARDED_SERVICE_H

#include "pool/scheduler.h"

namespace flowgnn {

/** Deployment shape of a ShardedService. */
struct ShardedServiceConfig {
    /**
     * Graphs with at least this many nodes run sharded; smaller ones
     * run whole on one die. The default is sized to the paper's
     * workloads: every Table IV sample is far below it, while the
     * scale-out graphs this subsystem exists for are far above.
     */
    std::size_t shard_threshold_nodes = 4096;
    /** How large graphs are split (num_shards is clamped to the
     * pool's die count at submission). */
    ShardConfig shard{};
    /** The die pool both paths draw from: die count, scheduling
     * policy, admission control, queue bound. */
    PoolConfig pool{};

    void
    validate() const
    {
        shard.validate();
        pool.validate();
    }
};

/**
 * Size-routing inference service over one model and one die pool. The
 * model must outlive the service; destruction drains accepted work.
 */
class ShardedService
{
  public:
    ShardedService(const Model &model, EngineConfig engine_config = {},
                   ShardedServiceConfig config = {});

    ShardedService(const ShardedService &) = delete;
    ShardedService &operator=(const ShardedService &) = delete;

    /** Unparks the pool (no-op when already running). */
    void start();

    std::future<RunResult> submit(GraphSample sample);
    std::future<RunResult> submit(GraphSample sample,
                                  const RunOptions &opts,
                                  int priority = 0);

    /** Blocks until every accepted request completed. */
    void drain();

    /** Drains, closes admission, joins the dies (idempotent). */
    void shutdown();

    /** Pool telemetry: per-path counters (`fast` = small graphs,
     * `sharded` = large), die utilization, queueing delay, occupancy. */
    PoolStats stats() const;

    std::size_t shard_threshold() const
    {
        return config_.shard_threshold_nodes;
    }
    const ShardConfig &shard_config() const { return config_.shard; }
    std::size_t num_dies() const { return scheduler_.num_dies(); }
    const PoolScheduler &scheduler() const { return scheduler_; }

  private:
    ShardedServiceConfig config_;
    PoolScheduler scheduler_;
};

} // namespace flowgnn

#endif // FLOWGNN_SHARD_SHARDED_SERVICE_H
