#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>

#include "core/phase_model.h"
#include "graph/partition.h"
#include "nn/gat_layer.h"

namespace flowgnn {

namespace {

std::uint64_t
ceil_div(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

} // namespace

/**
 * Graph-sized scratch buffers reused across runs. Buffers are resized
 * (never shrunk) per graph, so a steady-state replica serving a stream
 * of similar graphs stops allocating in the run loop.
 */
struct RunWorkspace::Impl {
    std::vector<std::uint32_t> bank_of;
    std::vector<std::uint32_t> bank_count;
    std::vector<std::vector<BankWork>> banks;
    std::vector<std::uint64_t> acc_cycles;
    std::vector<std::uint64_t> acc_zero;
    Matrix cur; ///< embeddings entering the stage, one row per node
    Matrix out; ///< the stage's outputs, one row per node
    Matrix gat_scores; ///< GatLayer::node_scores of the projections
    std::vector<float> prev_state;
    std::vector<float> next_state;
    Vec msg;     ///< one message, written by the MP callback
    Vec fin;     ///< one finalized aggregate, read by the NT callback
    Vec scratch; ///< transform_into / gat_combine scratch
};

RunWorkspace::RunWorkspace() : impl_(std::make_unique<Impl>()) {}
RunWorkspace::~RunWorkspace() = default;
RunWorkspace::RunWorkspace(RunWorkspace &&) noexcept = default;
RunWorkspace &RunWorkspace::operator=(RunWorkspace &&) noexcept = default;

Engine::Engine(const Model &model, EngineConfig config)
    : model_(model), config_(config)
{
    config_.validate();
    // An NT-to-MP conv's messages are scattered during the previous
    // stage's phase, so it needs an NT-to-MP predecessor (an encoder
    // or another conv); otherwise its aggregate would never exist.
    for (std::size_t si = 0; si < model_.num_stages(); ++si) {
        const Layer &stage = model_.stage(si);
        if (stage.msg_dim() > 0 &&
            stage.dataflow() == DataflowKind::kNtToMp &&
            (si == 0 || model_.stage(si - 1).dataflow() !=
                            DataflowKind::kNtToMp))
            throw std::invalid_argument(
                "Engine: stage " + std::to_string(si) + " (" +
                stage.name() +
                ") aggregates messages but no preceding NT-to-MP stage "
                "scatters them");
    }
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
    opts.validate();
    const EngineConfig &cfg = config_;
    RunWorkspace::Impl &wsi = *ws.impl_;
    if (!prepared.consistent(threads))
        throw std::invalid_argument("Engine: inconsistent sample");
    const bool resuming = ckpt.next_stage > 0;
    if (resuming && ckpt.next_stage >= model_.num_stages())
        throw std::invalid_argument(
            "Engine: checkpoint resume point past the last stage");
    model_.check_sample(prepared.node_dim, prepared.edge_dim);
    if (resuming &&
        (ckpt.embeddings.rows() != prepared.num_nodes() ||
         ckpt.embeddings.cols() !=
             model_.stage(ckpt.next_stage - 1).out_dim()))
        throw std::invalid_argument(
            "Engine: checkpoint does not match the sample");
    if (resuming) {
        // Pending aggregation state exists exactly when the resumed
        // stage consumes scattered messages, and is read per node at
        // that stage's state width: a corrupt one must never be read.
        const Layer &next = model_.stage(ckpt.next_stage);
        const bool wants_agg = next.msg_dim() > 0 &&
                               next.dataflow() == DataflowKind::kNtToMp;
        if (ckpt.have_agg != wants_agg ||
            ckpt.agg_state.size() !=
                (wants_agg ? std::size_t(prepared.num_nodes()) *
                                 next.aggregator().state_dim()
                           : 0))
            throw std::invalid_argument(
                "Engine: checkpoint aggregation state does not match the "
                "model and sample");
    }

    const NodeId n_nodes = prepared.num_nodes();
    LayerContext ctx =
        make_layer_context(prepared, model_.pna_params(), threads);
    CsrGraph csr(prepared.graph, threads);

    // Destination-node -> MP-bank map. Modulo is the on-the-fly
    // default; greedy balancing is the pre-processing ablation.
    std::vector<std::uint32_t> &bank_of = wsi.bank_of;
    if (cfg.bank_policy == BankPolicy::kGreedyBalanced) {
        bank_of =
            balanced_bank_assignment(prepared.graph, cfg.p_edge, threads);
    } else {
        bank_of.resize(n_nodes);
        for (NodeId n = 0; n < n_nodes; ++n)
            bank_of[n] = n % cfg.p_edge;
    }

    // Per-node destination-bank split, computed on the fly from the
    // streamed edge list, shared across phases.
    std::vector<std::vector<BankWork>> &banks = wsi.banks;
    if (banks.size() < n_nodes)
        banks.resize(n_nodes);
    {
        std::vector<std::uint32_t> &count = wsi.bank_count;
        count.assign(cfg.p_edge, 0);
        for (NodeId n = 0; n < n_nodes; ++n) {
            banks[n].clear();
            std::fill(count.begin(), count.end(), 0);
            for (std::size_t s = csr.row_begin(n); s < csr.row_end(n); ++s)
                ++count[bank_of[csr.dst(s)]];
            for (std::uint32_t b = 0; b < cfg.p_edge; ++b)
                if (count[b] > 0)
                    banks[n].push_back({b, count[b]});
        }
    }

    RunStats &stats = result.stats;
    if (resuming) {
        // Timing accumulated over the completed stages carries over;
        // everything derived (banks, CSR, schedule) was rebuilt above
        // from (sample, config) so it cannot drift from the original.
        stats = std::move(ckpt.stats);
    } else {
        stats = RunStats{};
        stats.clock_mhz = cfg.clock_mhz;
        stats.nt_units.assign(cfg.p_node, {});
        stats.mp_units.assign(cfg.p_edge, {});
        stats.mp_edge_work.assign(cfg.p_edge, 0);

        // Input DMA: nodes, features, and the raw COO edge list stream
        // in at 64 words/cycle (a conservative fraction of the U50's
        // 460 GB/s HBM2 bandwidth, ~380 words/cycle at 300 MHz); not
        // overlapped with compute, as documented in docs/DESIGN.md.
        stats.load_cycles = ceil_div(
            std::uint64_t(n_nodes) * (prepared.node_dim + 1) +
                std::uint64_t(prepared.num_edges()) *
                    (prepared.edge_dim + 2),
            64);
    }

    // ---- Functional state ----
    const bool quant = opts.emulate_fixed_point;
    const FixedPointFormat &fmt = opts.fixed_point;
    Matrix &cur = wsi.cur;
    Matrix &out = wsi.out;
    if (resuming) {
        cur = std::move(ckpt.embeddings);
    } else {
        cur.resize(n_nodes, prepared.node_dim);
        for (NodeId i = 0; i < n_nodes; ++i) {
            if (prepared.node_dim == 0)
                continue;
            const float *row = prepared.node_row(i);
            std::copy(row, row + prepared.node_dim, cur.row(i));
            if (quant)
                quantize_inplace(cur.row(i), prepared.node_dim, fmt);
        }
    }
    // Grows (never shrinks) the shared kernel scratch.
    auto reserve_scratch = [&](std::size_t floats) {
        if (wsi.scratch.size() < floats)
            wsi.scratch.resize(floats);
    };

    Aggregator prev_agg;        // aggregator of messages consumed now
    std::vector<float> &prev_state = wsi.prev_state;
    bool have_prev_agg = false;

    const GatLayer *pending_gat = nullptr; // 'cur' holds projections
    std::unique_ptr<CscGraph> csc;         // built lazily for GAT

    if (resuming) {
        // The aggregator object and the GAT layer pointer carry no run
        // state; only their *identity* is checkpointed (have_agg /
        // pending_gat flags) and both are recovered from the model.
        prev_state = std::move(ckpt.agg_state);
        have_prev_agg = ckpt.have_agg;
        if (have_prev_agg)
            prev_agg = model_.stage(ckpt.next_stage).aggregator();
        if (ckpt.pending_gat) {
            pending_gat = dynamic_cast<const GatLayer *>(
                &model_.stage(ckpt.next_stage - 1));
            if (pending_gat == nullptr)
                throw std::logic_error(
                    "Engine: checkpoint pending_gat at non-GAT stage");
        }
    }

    // 'cur' holds the pending GAT stage's projections: combine them
    // through 'out' (free until this stage's NT writes it).
    auto combine_pending_gat = [&]() {
        if (pending_gat == nullptr)
            return;
        if (!csc)
            csc = std::make_unique<CscGraph>(prepared.graph, threads);
        const std::size_t width = pending_gat->out_dim();
        Matrix &scores = wsi.gat_scores;
        scores.resize(n_nodes, pending_gat->score_dim());
        for (NodeId i = 0; i < n_nodes; ++i)
            pending_gat->node_scores(cur.row(i), scores.row(i));
        reserve_scratch(pending_gat->score_dim());
        out.resize(n_nodes, width);
        for (NodeId i = 0; i < n_nodes; ++i) {
            gat_combine(*pending_gat, cur.data(), scores.data(), i,
                        csc->srcs(i), csc->in_degree(i), out.row(i),
                        wsi.scratch.data());
            if (quant)
                quantize_inplace(out.row(i), width, fmt);
        }
        std::swap(cur, out);
        pending_gat = nullptr;
    };

    const float *efeat = prepared.edge_features;
    const std::size_t edge_dim = prepared.edge_dim;

    const std::size_t n_stages = model_.num_stages();
    const std::vector<StageSchedule> schedule =
        build_stage_schedule(model_, cfg);
    std::uint64_t phase_base = resuming ? ckpt.phase_base : 0;
    std::size_t stages_this_call = 0;
    for (std::size_t si = ckpt.next_stage; si < n_stages; ++si) {
        const Layer &stage = model_.stage(si);
        const bool is_gat = (stage.dataflow() == DataflowKind::kMpToNt);
        const bool prev_was_gat = (pending_gat != nullptr);
        const auto *gat = dynamic_cast<const GatLayer *>(&stage);
        if (is_gat && gat == nullptr)
            throw std::logic_error("Engine: MP-to-NT stage is not GAT");

        // The scatter fused into this phase: either the next NT-to-MP
        // conv's message pass, or this GAT stage's own gather rounds.
        const Layer *scatter_stage = nullptr;
        if (is_gat) {
            scatter_stage = &stage;
        } else if (si + 1 < n_stages) {
            const Layer &next = model_.stage(si + 1);
            if (next.msg_dim() > 0 &&
                next.dataflow() == DataflowKind::kNtToMp)
                scatter_stage = &next;
        }

        // Functional prologue: materialize pending GAT combine so this
        // stage sees real embeddings. (Its cycle cost is folded into
        // the schedule's acc_cycles as an extra NT pass.)
        if (prev_was_gat)
            combine_pending_gat();

        // ---- Build this phase's work description ----
        // Timing constants come from the shared per-stage schedule —
        // the same numbers the ghost-exchange executor prices with.
        const StageSchedule &sched = schedule[si];
        PhaseWork w;
        w.n_nodes = n_nodes;
        w.stream_elems = sched.stream_elems;
        w.banks = &banks;
        w.has_scatter = sched.has_scatter;
        w.expansion = sched.expansion;
        wsi.acc_cycles.assign(n_nodes, sched.acc_cycles);
        w.acc_cycles = &wsi.acc_cycles;

        Aggregator next_agg;
        std::vector<float> &next_state = wsi.next_state;
        next_state.clear();
        if (scatter_stage != nullptr && !is_gat) {
            next_agg = scatter_stage->aggregator();
            next_state.assign(std::size_t(n_nodes) *
                                  next_agg.state_dim(),
                              0.0f);
            for (NodeId i = 0; i < n_nodes; ++i)
                next_agg.init(next_state.data() +
                              std::size_t(i) * next_agg.state_dim());
        }

        // Functional NT: compute this stage's node outputs into their
        // 'out' rows; the kernels work in the workspace scratch.
        const std::size_t out_dim = stage.out_dim();
        out.resize(n_nodes, out_dim);
        reserve_scratch(stage.scratch_dim());
        if (have_prev_agg && !is_gat)
            wsi.fin.resize(prev_agg.out_dim());
        w.on_nt_complete = [&, is_gat, gat, out_dim](NodeId node) {
            float *y = out.row(node);
            if (is_gat) {
                gat->project_into(cur.row(node), y);
            } else if (have_prev_agg) {
                float *fin = wsi.fin.data();
                prev_agg.finalize_into(
                    prev_state.data() +
                        std::size_t(node) * prev_agg.state_dim(),
                    ctx.in_deg[node], ctx.pna, fin);
                if (quant)
                    quantize_inplace(fin, prev_agg.out_dim(), fmt);
                stage.transform_into(cur.row(node), fin, node, ctx, y,
                                     wsi.scratch.data());
            } else {
                stage.transform_into(cur.row(node), nullptr, node, ctx, y,
                                     wsi.scratch.data());
            }
            if (quant)
                quantize_inplace(y, out_dim, fmt);
        };

        // Functional MP: accumulate this node's messages into the
        // destination states owned by the completing bank, in arrival
        // order (the real dataflow behaviour).
        if (w.has_scatter && !is_gat) {
            Aggregator *agg_ptr = &next_agg;
            std::vector<float> *state_ptr = &next_state;
            wsi.msg.resize(scatter_stage->msg_dim());
            w.on_mp_complete = [&, agg_ptr, state_ptr, scatter_stage](
                                   NodeId node, std::uint32_t bank) {
                float *msg = wsi.msg.data();
                const std::size_t msg_dim = wsi.msg.size();
                for (std::size_t s = csr.row_begin(node);
                     s < csr.row_end(node); ++s) {
                    NodeId dst = csr.dst(s);
                    if (bank_of[dst] != bank)
                        continue;
                    EdgeId eid = csr.edge_id(s);
                    const float *ef = edge_dim
                        ? efeat + std::size_t(eid) * edge_dim
                        : nullptr;
                    scatter_stage->message_into(out.row(node), ef, node,
                                                dst, ctx, msg);
                    if (quant)
                        quantize_inplace(msg, msg_dim, fmt);
                    float *dst_state = state_ptr->data() +
                        std::size_t(dst) * agg_ptr->state_dim();
                    agg_ptr->accumulate(dst_state, msg);
                    if (quant)
                        quantize_inplace(dst_state,
                                         agg_ptr->state_dim(), fmt);
                }
            };
        }

        // ---- Timing: run the phase (GAT gathers need two rounds) ----
        PhaseEnv env{w, cfg, opts, stats, phase_base};
        std::uint64_t cycles = run_phase(env);
        if (is_gat) {
            // Round 2: re-stream the projections from the node buffer
            // (no recomputation) for the weighted sum.
            PhaseWork w2 = w;
            wsi.acc_zero.assign(n_nodes, 0);
            w2.acc_cycles = &wsi.acc_zero;
            w2.on_nt_complete = nullptr;
            w2.on_mp_complete = nullptr;
            PhaseEnv env2{w2, cfg, opts, stats, phase_base + cycles};
            cycles += run_phase(env2);
        }
        phase_base += cycles;
        stats.phase_cycles.push_back(cycles);
        stats.total_cycles += cycles;

        // ---- Commit functional state ----
        // Swap instead of move-assign: the displaced buffers stay in
        // the workspace and their element capacity is reused next
        // stage / next run (every node's slot is overwritten before
        // it is read again).
        std::swap(cur, out);
        if (is_gat) {
            pending_gat = gat;
            have_prev_agg = false;
        } else if (w.has_scatter) {
            prev_agg = next_agg;
            std::swap(prev_state, next_state);
            have_prev_agg = true;
        } else {
            have_prev_agg = false;
        }

        // ---- Layer-boundary yield point ----
        // Checked only after at least one stage completed this call
        // (progress guarantee) and never after the final stage, whose
        // epilogue + head are cheaper than a checkpoint round-trip.
        ++stages_this_call;
        if (si + 1 < n_stages &&
            (stages_this_call >= max_stages ||
             (opts.preempt != nullptr && opts.preempt->requested()))) {
            ckpt.next_stage = si + 1;
            ckpt.embeddings = std::move(cur);
            if (have_prev_agg)
                ckpt.agg_state = std::move(prev_state);
            else
                ckpt.agg_state.clear(); // prev_state may be stale
            ckpt.have_agg = have_prev_agg;
            ckpt.pending_gat = (pending_gat != nullptr);
            ckpt.stats = std::move(stats);
            ckpt.phase_base = phase_base;
            return SegmentOutcome::kPreempted;
        }
    }

    // Epilogue: final GAT combine if the last stage was attention.
    if (pending_gat != nullptr) {
        std::uint64_t per_node =
            ceil_div(model_.stage(n_stages - 1).out_dim(), cfg.p_apply);
        std::uint64_t epi =
            ceil_div(std::uint64_t(n_nodes), cfg.p_node) * per_node;
        stats.phase_cycles.push_back(epi);
        stats.total_cycles += epi;
        combine_pending_gat();
    }

    // Global mean pooling (accumulated while the final embeddings
    // stream out — free) + the MLP head.
    result.embeddings = cur;
    Vec pooled =
        model_.global_pool(result.embeddings, prepared.pool_nodes());
    result.prediction = model_.head().forward(pooled)[0];

    std::uint64_t head_cycles = 0;
    for (std::size_t l = 0; l < model_.head().num_layers(); ++l)
        head_cycles +=
            ceil_div(model_.head().layer(l).in_dim(), cfg.p_apply);
    stats.head_cycles = head_cycles;
    stats.total_cycles += head_cycles + stats.load_cycles;

    // A completed run leaves the checkpoint fresh: the same object can
    // drive the next job without the caller having to reset it.
    ckpt = LayerCheckpoint{};
    return SegmentOutcome::kComplete;
}

} // namespace flowgnn
