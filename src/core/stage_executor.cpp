#include "core/stage_executor.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/engine.h"
#include "core/parallel.h"
#include "nn/gat_layer.h"

namespace flowgnn {

namespace {

/** A stage that aggregates messages scattered by the previous phase. */
bool
consumes_scatter(const Layer &stage)
{
    return stage.msg_dim() > 0 && stage.dataflow() == DataflowKind::kNtToMp;
}

} // namespace

void
check_stage_dataflow(const Model &model)
{
    for (std::size_t si = 0; si < model.num_stages(); ++si)
        if (consumes_scatter(model.stage(si)) &&
            (si == 0 || model.stage(si - 1).dataflow() !=
                            DataflowKind::kNtToMp))
            throw std::invalid_argument(
                "Engine: stage " + std::to_string(si) + " (" +
                model.stage(si).name() +
                ") aggregates messages but no preceding NT-to-MP stage "
                "scatters them");
}

StageExecutor::StageExecutor(const Model &model, const SampleRef &prepared,
                             const RunOptions &opts, StageBuffers &buf,
                             LayerCheckpoint &ckpt, unsigned threads)
    : model_(model), prepared_(prepared), opts_(opts), buf_(buf),
      threads_(threads),
      lanes_(parallel_range_count(prepared.num_edges(), threads)),
      quant_(opts.emulate_fixed_point ? &opts.fixed_point : nullptr),
      next_stage_(ckpt.next_stage)
{
    opts.validate();
    if (!prepared.consistent(threads))
        throw std::invalid_argument("Engine: inconsistent sample");
    const bool resuming = ckpt.next_stage > 0;
    if (resuming && ckpt.next_stage >= model.num_stages())
        throw std::invalid_argument(
            "Engine: checkpoint resume point past the last stage");
    model.check_sample(prepared.node_dim, prepared.edge_dim);
    const NodeId n_nodes = prepared.num_nodes();
    if (resuming) {
        if (ckpt.embeddings.rows() != n_nodes ||
            ckpt.embeddings.cols() !=
                model.stage(ckpt.next_stage - 1).out_dim())
            throw std::invalid_argument(
                "Engine: checkpoint does not match the sample");
        // Pending aggregation state exists exactly when the resumed
        // stage consumes scattered messages, and is read per node at
        // that stage's state width: a corrupt one must never be read.
        const Layer &next = model.stage(ckpt.next_stage);
        const bool wants_agg = consumes_scatter(next);
        if (ckpt.have_agg != wants_agg ||
            ckpt.agg_state.size() !=
                (wants_agg ? std::size_t(n_nodes) *
                                 next.aggregator().state_dim()
                           : 0))
            throw std::invalid_argument(
                "Engine: checkpoint aggregation state does not match the "
                "model and sample");
    }

    ctx_ = make_layer_context(prepared, model.pna_params(), threads);

    Matrix &cur = buf.cur;
    if (!resuming) {
        const std::size_t dim = prepared.node_dim;
        cur.resize(n_nodes, dim);
        for (NodeId i = 0; i < n_nodes && dim > 0; ++i) {
            std::copy(prepared.node_row(i), prepared.node_row(i) + dim,
                      cur.row(i));
            if (quant_)
                quantize_inplace(cur.row(i), dim, *quant_);
        }
        return;
    }
    // The aggregator object and the GAT layer pointer carry no run
    // state; only their identity is checkpointed (have_agg /
    // pending_gat flags) and both are recovered from the model.
    cur = std::move(ckpt.embeddings);
    buf.prev_state = std::move(ckpt.agg_state);
    have_prev_agg_ = ckpt.have_agg;
    if (have_prev_agg_)
        prev_agg_ = model.stage(ckpt.next_stage).aggregator();
    if (ckpt.pending_gat) {
        pending_gat_ = dynamic_cast<const GatLayer *>(
            &model.stage(ckpt.next_stage - 1));
        if (pending_gat_ == nullptr)
            throw std::logic_error(
                "Engine: checkpoint pending_gat at non-GAT stage");
    }
}

void
StageExecutor::combine_pending_gat()
{
    // buf_.cur holds the pending GAT stage's projections: combine them
    // through buf_.out (free until this stage's NT writes it).
    if (pending_gat_ == nullptr)
        return;
    if (!csc_)
        csc_ = std::make_unique<CscGraph>(prepared_.graph, threads_);
    const CscGraph &csc = *csc_;
    const NodeId n_nodes = prepared_.num_nodes();
    const std::size_t width = pending_gat_->out_dim();
    Matrix &cur = buf_.cur;
    Matrix &out = buf_.out;
    Matrix &scores = buf_.gat_scores;
    scores.resize(n_nodes, pending_gat_->score_dim());
    out.resize(n_nodes, width);
    buf_.scratch.resize(lanes_, pending_gat_->score_dim());
    parallel_cost_ranges(
        n_nodes, lanes_, [](std::size_t i) { return i; },
        [&](std::size_t begin, std::size_t end, unsigned) {
            for (std::size_t i = begin; i < end; ++i)
                pending_gat_->node_scores(cur.row(i), scores.row(i));
        });
    parallel_cost_ranges(
        n_nodes, lanes_,
        [&](std::size_t i) { return csc.col_begin(NodeId(i)) + i; },
        [&](std::size_t begin, std::size_t end, unsigned lane) {
            float *tmp = buf_.scratch.row(lane);
            for (NodeId i = NodeId(begin); i < end; ++i) {
                gat_combine(*pending_gat_, cur.data(), scores.data(), i,
                            csc.srcs(i), csc.in_degree(i), out.row(i),
                            tmp);
                if (quant_)
                    quantize_inplace(out.row(i), width, *quant_);
            }
        });
    std::swap(cur, out);
    pending_gat_ = nullptr;
}

void
StageExecutor::run_stage(const std::vector<MpCompletion> *order,
                         const std::uint32_t *bank_of)
{
    const std::size_t si = next_stage_;
    const Layer &stage = model_.stage(si);
    const bool is_gat = (stage.dataflow() == DataflowKind::kMpToNt);
    const auto *gat = dynamic_cast<const GatLayer *>(&stage);
    if (is_gat && gat == nullptr)
        throw std::logic_error("Engine: MP-to-NT stage is not GAT");
    const Layer *scatter_stage = scattered_stage(model_, si);

    // Prologue: materialize a pending GAT combine so this stage sees
    // real embeddings.
    combine_pending_gat();

    const NodeId n_nodes = prepared_.num_nodes();
    Matrix &cur = buf_.cur;
    Matrix &out = buf_.out;

    // NT: every node's output into its 'out' row. Nodes are
    // independent here, so the NT completion order is immaterial and
    // node ranges run on their own threads.
    const std::size_t out_dim = stage.out_dim();
    out.resize(n_nodes, out_dim);
    buf_.scratch.resize(lanes_, stage.scratch_dim());
    if (have_prev_agg_ && !is_gat)
        buf_.fin.resize(lanes_, prev_agg_.out_dim());
    parallel_cost_ranges(
        n_nodes, lanes_, [](std::size_t i) { return i; },
        [&](std::size_t begin, std::size_t end, unsigned lane) {
            float *tmp = buf_.scratch.row(lane);
            for (NodeId node = NodeId(begin); node < end; ++node) {
                float *y = out.row(node);
                if (is_gat) {
                    gat->project_into(cur.row(node), y);
                } else {
                    const float *agg = nullptr;
                    if (have_prev_agg_) {
                        float *fin = buf_.fin.row(lane);
                        prev_agg_.finalize_into(
                            buf_.prev_state.data() +
                                std::size_t(node) * prev_agg_.state_dim(),
                            ctx_.in_deg[node], ctx_.pna, fin);
                        if (quant_)
                            quantize_inplace(fin, prev_agg_.out_dim(),
                                             *quant_);
                        agg = fin;
                    }
                    stage.transform_into(cur.row(node), agg, node, ctx_, y,
                                         tmp);
                }
                if (quant_)
                    quantize_inplace(y, out_dim, *quant_);
            }
        });
    // The consumed aggregates are dead from here on.
    have_prev_agg_ = false;

    // MP: accumulate the messages of this stage's outputs into their
    // destinations' states (buf_.next_state).
    if (scatter_stage != nullptr) {
        prev_agg_ = scatter_stage->aggregator();
        have_prev_agg_ = true;
        buf_.next_state.resize(std::size_t(n_nodes) * prev_agg_.state_dim());
        buf_.msg.resize(lanes_, scatter_stage->msg_dim());
        if (order == nullptr)
            pull_scatter(*scatter_stage);
        else
            push_scatter(*scatter_stage, *order, bank_of);
    }

    // Commit. Swap instead of move-assign: the displaced buffers stay
    // in the workspace and their capacity is reused next stage / next
    // run (every node's slot is overwritten before it is read again).
    std::swap(cur, out);
    std::swap(buf_.prev_state, buf_.next_state);
    if (is_gat)
        pending_gat_ = gat;
    ++next_stage_;
    ++stages_run_;
}

void
StageExecutor::push_scatter(const Layer &stage,
                            const std::vector<MpCompletion> &order,
                            const std::uint32_t *bank_of)
{
    // Each source's messages, in the order the MP units completed
    // them, into the destinations of the completing bank.
    if (!csr_)
        csr_ = std::make_unique<CsrGraph>(prepared_.graph, threads_);
    const CsrGraph &csr = *csr_;
    const Matrix &x = buf_.out;
    const std::size_t state_dim = prev_agg_.state_dim();
    const std::size_t msg_dim = stage.msg_dim();
    float *state = buf_.next_state.data();
    for (NodeId i = 0; i < prepared_.num_nodes(); ++i)
        prev_agg_.init(state + std::size_t(i) * state_dim);
    float *msg = buf_.msg.row(0);
    for (const MpCompletion &c : order) {
        const NodeId src = c.node;
        for (std::size_t s = csr.row_begin(src); s < csr.row_end(src); ++s) {
            const NodeId dst = csr.dst(s);
            if (bank_of[dst] != c.bank)
                continue;
            const float *ef = prepared_.edge_dim
                ? prepared_.edge_row(csr.edge_id(s))
                : nullptr;
            stage.message_into(x.row(src), ef, src, dst, ctx_, msg);
            if (quant_)
                quantize_inplace(msg, msg_dim, *quant_);
            float *dst_state = state + std::size_t(dst) * state_dim;
            prev_agg_.accumulate(dst_state, msg);
            if (quant_)
                quantize_inplace(dst_state, state_dim, *quant_);
        }
    }
}

void
StageExecutor::pull_scatter(const Layer &stage)
{
    // Src-major without a push: each destination gathers its column of
    // the (src, edge id)-ordered CSC, the order a src-major push would
    // deliver, so its sum and quantization points are the push's. The
    // destinations split into ranges of equal in-edges plus nodes, one
    // per thread; hubs sit on low ids in power-law graphs.
    if (!pull_)
        pull_ = std::make_unique<CscGraph>(
            CscGraph::src_major(prepared_.graph, prepared_.edge_dim > 0,
                                threads_));
    const CscGraph &csc = *pull_;
    const Matrix &x = buf_.out;
    const std::size_t state_dim = prev_agg_.state_dim();
    float *state = buf_.next_state.data();
    parallel_cost_ranges(
        prepared_.num_nodes(), lanes_,
        [&](std::size_t d) { return csc.col_begin(NodeId(d)) + d; },
        [&](std::size_t begin, std::size_t end, unsigned lane) {
            float *msg = buf_.msg.row(lane);
            for (NodeId d = NodeId(begin); d < end; ++d) {
                float *dst_state = state + std::size_t(d) * state_dim;
                prev_agg_.init(dst_state);
                stage.gather_into(InEdges{d, csc.srcs(d), csc.edge_ids(d),
                                          csc.in_degree(d)},
                                  x, prepared_, ctx_, quant_, dst_state,
                                  msg);
            }
        });
}

bool
StageExecutor::should_yield(std::size_t max_stages) const
{
    return !done() &&
           (stages_run_ >= max_stages ||
            (opts_.preempt != nullptr && opts_.preempt->requested()));
}

void
StageExecutor::checkpoint(LayerCheckpoint &ckpt)
{
    ckpt.next_stage = next_stage_;
    ckpt.embeddings = std::move(buf_.cur);
    if (have_prev_agg_)
        ckpt.agg_state = std::move(buf_.prev_state);
    else
        ckpt.agg_state.clear(); // prev_state may be stale
    ckpt.have_agg = have_prev_agg_;
    ckpt.pending_gat = (pending_gat_ != nullptr);
}

void
StageExecutor::finish(Matrix &embeddings, float &prediction)
{
    combine_pending_gat();
    // Global mean pooling (accumulated while the final embeddings
    // stream out — free on the accelerator) + the MLP head.
    embeddings = buf_.cur;
    Vec pooled = model_.global_pool(embeddings, prepared_.pool_nodes());
    prediction = model_.head().forward(pooled)[0];
}

} // namespace flowgnn
