#include "core/stage_executor.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/engine.h"
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
      threads_(threads), next_stage_(ckpt.next_stage)
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
    csr_ = CsrGraph(prepared.graph, threads);

    Matrix &cur = buf.cur;
    if (!resuming) {
        const std::size_t dim = prepared.node_dim;
        cur.resize(n_nodes, dim);
        for (NodeId i = 0; i < n_nodes && dim > 0; ++i) {
            std::copy(prepared.node_row(i), prepared.node_row(i) + dim,
                      cur.row(i));
            if (opts.emulate_fixed_point)
                quantize_inplace(cur.row(i), dim, opts.fixed_point);
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
    const NodeId n_nodes = prepared_.num_nodes();
    const std::size_t width = pending_gat_->out_dim();
    Matrix &cur = buf_.cur;
    Matrix &out = buf_.out;
    Matrix &scores = buf_.gat_scores;
    scores.resize(n_nodes, pending_gat_->score_dim());
    for (NodeId i = 0; i < n_nodes; ++i)
        pending_gat_->node_scores(cur.row(i), scores.row(i));
    buf_.scratch.resize(
        std::max(buf_.scratch.size(), pending_gat_->score_dim()));
    float *tmp = buf_.scratch.data();
    out.resize(n_nodes, width);
    for (NodeId i = 0; i < n_nodes; ++i) {
        gat_combine(*pending_gat_, cur.data(), scores.data(), i,
                    csc_->srcs(i), csc_->in_degree(i), out.row(i), tmp);
        if (opts_.emulate_fixed_point)
            quantize_inplace(out.row(i), width, opts_.fixed_point);
    }
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

    const bool quant = opts_.emulate_fixed_point;
    const FixedPointFormat &fmt = opts_.fixed_point;
    const NodeId n_nodes = prepared_.num_nodes();
    Matrix &cur = buf_.cur;
    Matrix &out = buf_.out;

    // NT: every node's output into its 'out' row. Nodes are
    // independent here, so the NT completion order is immaterial.
    const std::size_t out_dim = stage.out_dim();
    out.resize(n_nodes, out_dim);
    buf_.scratch.resize(std::max(buf_.scratch.size(), stage.scratch_dim()));
    float *tmp = buf_.scratch.data();
    if (have_prev_agg_ && !is_gat)
        buf_.fin.resize(prev_agg_.out_dim());
    for (NodeId node = 0; node < n_nodes; ++node) {
        float *y = out.row(node);
        if (is_gat) {
            gat->project_into(cur.row(node), y);
        } else {
            const float *agg = nullptr;
            if (have_prev_agg_) {
                float *fin = buf_.fin.data();
                prev_agg_.finalize_into(
                    buf_.prev_state.data() +
                        std::size_t(node) * prev_agg_.state_dim(),
                    ctx_.in_deg[node], ctx_.pna, fin);
                if (quant)
                    quantize_inplace(fin, prev_agg_.out_dim(), fmt);
                agg = fin;
            }
            stage.transform_into(cur.row(node), agg, node, ctx_, y, tmp);
        }
        if (quant)
            quantize_inplace(y, out_dim, fmt);
    }
    // The consumed aggregates are dead from here on.
    have_prev_agg_ = false;

    // MP: accumulate each source's messages into its destinations'
    // states (buf_.next_state), in the order the MP units completed
    // them.
    if (scatter_stage != nullptr) {
        prev_agg_ = scatter_stage->aggregator();
        have_prev_agg_ = true;
        const std::size_t state_dim = prev_agg_.state_dim();
        std::vector<float> &state = buf_.next_state;
        state.assign(std::size_t(n_nodes) * state_dim, 0.0f);
        for (NodeId i = 0; i < n_nodes; ++i)
            prev_agg_.init(state.data() + std::size_t(i) * state_dim);

        buf_.msg.resize(scatter_stage->msg_dim());
        float *msg = buf_.msg.data();
        const std::size_t msg_dim = buf_.msg.size();
        auto scatter_row = [&](NodeId src, auto &&keep) {
            for (std::size_t s = csr_.row_begin(src); s < csr_.row_end(src);
                 ++s) {
                const NodeId dst = csr_.dst(s);
                if (!keep(dst))
                    continue;
                const float *ef = prepared_.edge_dim
                    ? prepared_.edge_row(csr_.edge_id(s))
                    : nullptr;
                scatter_stage->message_into(out.row(src), ef, src, dst,
                                            ctx_, msg);
                if (quant)
                    quantize_inplace(msg, msg_dim, fmt);
                float *dst_state = state.data() + std::size_t(dst) * state_dim;
                prev_agg_.accumulate(dst_state, msg);
                if (quant)
                    quantize_inplace(dst_state, state_dim, fmt);
            }
        };
        if (order == nullptr) {
            for (NodeId src = 0; src < n_nodes; ++src)
                scatter_row(src, [](NodeId) { return true; });
        } else {
            for (const MpCompletion &c : *order)
                scatter_row(c.node, [&](NodeId dst) {
                    return bank_of[dst] == c.bank;
                });
        }
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
