#include "shard/sharded_engine.h"

#include <utility>

#include "ghost/ghost_engine.h"
#include "obs/trace_session.h"

namespace flowgnn {

ShardedEngine::ShardedEngine(const Model &model, EngineConfig engine_config,
                             ShardConfig shard_config)
    : model_(model), engine_(model, engine_config),
      shard_config_(shard_config)
{
    shard_config_.validate();
}

ShardedRunResult
ShardedEngine::run(const GraphSample &sample, const RunOptions &opts) const
{
    opts.validate();
    GraphSample prepared = model_.prepare(sample);
    if (!prepared.consistent())
        throw std::invalid_argument("ShardedEngine: inconsistent sample");

    GhostPlan plan;
    {
        obs::Span span(obs::Track::kShard, "ghost plan");
        plan = make_ghost_plan(model_, prepared, shard_config_);
    }
    return run_ghost_plan(model_, engine_.config(), prepared,
                          std::move(plan), opts, shard_config_.link);
}

} // namespace flowgnn
