/**
 * @file
 * The functional half of a run: one stage executor computes every
 * value (NT transforms, message scatter and aggregation, the deferred
 * GAT combine, pooling, head) for the engine, the ghost path and
 * preempted runs alike, and prices nothing. A destination's sum order
 * is the order in which its bank's MP unit completed source nodes; it
 * arrives as the MpCompletion list DiePricer recorded
 * (core/phase_model.h) and is replayed as a push over the CSR; when
 * none is given the executor pulls each destination's column of a
 * (src, edge id)-ordered CSC, which is the src-major order every bank
 * sees with one NT unit. The NT transforms and the pull run over node
 * ranges on the host threads, each node's arithmetic unchanged, so
 * every thread count computes the same bits.
 */
#ifndef FLOWGNN_CORE_STAGE_EXECUTOR_H
#define FLOWGNN_CORE_STAGE_EXECUTOR_H

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.h"
#include "core/phase_model.h"
#include "graph/graph.h"
#include "graph/sample.h"
#include "nn/aggregator.h"
#include "nn/layer.h"
#include "nn/model.h"

namespace flowgnn {

class GatLayer;
struct LayerCheckpoint;

/** Throws std::invalid_argument unless every NT-to-MP stage that
 * aggregates messages follows an NT-to-MP stage, whose phase scatters
 * them. */
void check_stage_dataflow(const Model &model);

/** Graph-sized value buffers, resized (never shrunk) per run. */
struct StageBuffers {
    Matrix cur; ///< embeddings entering the stage, one row per node
    Matrix out; ///< the stage's outputs, one row per node
    Matrix gat_scores; ///< GatLayer::node_scores of the projections
    std::vector<float> prev_state; ///< aggregates consumed this stage
    std::vector<float> next_state; ///< aggregates scattered this stage
    // One row per host thread of the stage:
    Matrix msg;     ///< one message
    Matrix fin;     ///< one finalized aggregate
    Matrix scratch; ///< transform_into / gat_combine scratch
};

/** Computes one model's stages over one prepared sample, one at a
 * time, so a caller can price each first and checkpoint between. */
class StageExecutor
{
  public:
    /** Validates options, sample and a resumed checkpoint, then loads
     * the input features or, when ckpt.next_stage > 0, takes the
     * checkpoint's buffers. References are borrowed; `threads`
     * parallelizes the adjacency builds and, from kSerialCutoff edges
     * up, the node loops (0 = all cores, same bits). */
    StageExecutor(const Model &model, const SampleRef &prepared,
                  const RunOptions &opts, StageBuffers &buf,
                  LayerCheckpoint &ckpt, unsigned threads = 0);

    std::size_t next_stage() const { return next_stage_; }
    bool done() const { return next_stage_ == model_.num_stages(); }

    /** Computes stage next_stage(): the pending GAT combine, every
     * node's NT transform, then the phase's scatter — each (node,
     * bank) of `order` pushes the node's edges into that bank of
     * `bank_of`; no order pulls every destination src-major. */
    void run_stage(const std::vector<MpCompletion> *order = nullptr,
                   const std::uint32_t *bank_of = nullptr);

    /** The yield rule, asked after run_stage(): once `max_stages`
     * stages ran here or opts.preempt is requested, never after the
     * final stage (its epilogue is cheaper than a checkpoint). */
    bool should_yield(std::size_t max_stages) const;

    /** Moves the boundary state into `ckpt` (all but ckpt.stats). */
    void checkpoint(LayerCheckpoint &ckpt);

    /** The final GAT combine, global pooling and the head. */
    void finish(Matrix &embeddings, float &prediction);

  private:
    void combine_pending_gat();
    void push_scatter(const Layer &stage,
                      const std::vector<MpCompletion> &order,
                      const std::uint32_t *bank_of);
    void pull_scatter(const Layer &stage);

    const Model &model_;
    const SampleRef prepared_;
    const RunOptions &opts_;
    StageBuffers &buf_;
    const unsigned threads_;
    /** Host threads of the node loops: 1 below kSerialCutoff edges. */
    const unsigned lanes_;
    /** The fixed-point format, or null for fp32. */
    const FixedPointFormat *const quant_;
    LayerContext ctx_;
    // Each adjacency is built on first use; no shipped model needs
    // two: GAT models never scatter, and a run replays an order
    // (Engine) or pulls (ghost pass), never both.
    std::unique_ptr<CsrGraph> csr_; ///< out-edges, for the push
    std::unique_ptr<CscGraph> pull_; ///< (src, edge id) columns
    std::unique_ptr<CscGraph> csc_; ///< edge-order columns, for GAT
    Aggregator prev_agg_; ///< of buf_.prev_state, if have_prev_agg_
    bool have_prev_agg_ = false;
    /** buf_.cur holds this GAT layer's uncombined projections. */
    const GatLayer *pending_gat_ = nullptr;
    std::size_t next_stage_ = 0;
    std::size_t stages_run_ = 0;
};

} // namespace flowgnn

#endif // FLOWGNN_CORE_STAGE_EXECUTOR_H
