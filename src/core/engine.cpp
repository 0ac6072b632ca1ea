#include "core/engine.h"

namespace flowgnn {

Engine::Engine(const Model &model, EngineConfig config)
    : model_(model), config_(config)
{
    config_.validate();
    check_stage_dataflow(model_);
}

RunResult
Engine::run(const GraphSample &sample) const
{
    RunWorkspace ws;
    return run(sample, RunOptions{}, ws);
}

RunResult
Engine::run(const GraphSample &sample, const RunOptions &opts) const
{
    RunWorkspace ws;
    return run(sample, opts, ws);
}

RunResult
Engine::run(const GraphSample &sample, const RunOptions &opts,
            RunWorkspace &ws) const
{
    GraphSample prepared = model_.prepare(sample);
    return run_prepared(prepared, opts, ws);
}

RunResult
Engine::run_prepared(const GraphSample &prepared, const RunOptions &opts,
                     RunWorkspace &ws) const
{
    // The GraphSample front door keeps the stronger structural check
    // (feature-row counts vs graph sizes) that SampleRef cannot see.
    if (!prepared.consistent())
        throw std::invalid_argument("Engine: inconsistent sample");
    return run_prepared(SampleRef(prepared), opts, ws, 1);
}

RunResult
Engine::run_prepared(const SampleRef &prepared, const RunOptions &opts,
                     RunWorkspace &ws, unsigned threads) const
{
    // Run-to-completion wrapper: a fresh checkpoint and a masked
    // preemption token, so this entry point keeps its historical
    // semantics even when callers set RunOptions::preempt.
    RunOptions whole = opts;
    whole.preempt = nullptr;
    LayerCheckpoint ckpt;
    RunResult result;
    run_resumable(prepared, whole, ws, ckpt, result, std::size_t(-1),
                  threads);
    return result;
}

SegmentOutcome
Engine::run_resumable(const SampleRef &prepared, const RunOptions &opts,
                      RunWorkspace &ws, LayerCheckpoint &ckpt,
                      RunResult &result, std::size_t max_stages,
                      unsigned threads) const
{
    const bool resuming = ckpt.next_stage > 0;
    StageExecutor exec(model_, prepared, opts, ws.values_, ckpt, threads);

    // One die owns every node; its input DMA carries the nodes, their
    // features and the raw COO edge list.
    const NodeId n = prepared.num_nodes();
    const DieShape die{
        .n_nodes = n,
        .n_owned = n,
        .load_words = std::uint64_t(n) * (prepared.node_dim + 1) +
                      std::uint64_t(prepared.num_edges()) *
                          (prepared.edge_dim + 2)};
    DiePricer pricer(model_, config_, opts, die, prepared.graph,
                     ws.pricing_, threads);

    // Timing accumulated over the completed stages carries over on a
    // resume; everything derived (banks, CSR, schedule) was rebuilt
    // above from (sample, config) so it cannot drift from the original.
    RunStats &stats = result.stats;
    if (resuming)
        stats = std::move(ckpt.stats);
    else
        pricer.begin(stats);

    // Each stage is priced first, then its values are computed in the
    // MP completion order the pricing recorded.
    while (!exec.done()) {
        pricer.stage(exec.next_stage(), stats, &ws.order_);
        exec.run_stage(&ws.order_, ws.pricing_.bank_of.data());
        if (exec.should_yield(max_stages)) {
            exec.checkpoint(ckpt);
            ckpt.stats = std::move(stats);
            return SegmentOutcome::kPreempted;
        }
    }
    pricer.finish(stats);
    exec.finish(result.embeddings, result.prediction);

    // A completed run leaves the checkpoint fresh: the same object can
    // drive the next job without the caller having to reset it.
    ckpt = LayerCheckpoint{};
    return SegmentOutcome::kComplete;
}

} // namespace flowgnn
