/**
 * @file
 * Abstract GNN layer kernel: the unit of the FlowGNN programming model.
 *
 * A layer supplies the three differentiable pieces of the
 * message-passing formulation (paper Eq. 2)
 *
 *   x_i^{l+1} = gamma(x_i^l, A_{j in N(i)}(phi(x_i^l, x_j^l, e_ij^l)))
 *
 * as `message_into` (phi), an AggregatorKind (A), and `transform_into`
 * (gamma), plus the timing metadata the dataflow engine needs (widths
 * of the input-stationary fully-connected passes performed by the NT
 * unit). phi and gamma write into caller-owned buffers, so executors
 * run them without a heap allocation per edge or per node.
 *
 * Adapting FlowGNN to a new GNN means writing one subclass — exactly
 * the "few highlighted lines" of Listing 1 in the paper.
 */
#ifndef FLOWGNN_NN_LAYER_H
#define FLOWGNN_NN_LAYER_H

#include <cstdint>
#include <vector>

#include "graph/sample.h"
#include "nn/aggregator.h"
#include "tensor/fixed_point.h"
#include "tensor/linear.h"

namespace flowgnn {

/** Which dataflow a layer prefers (paper Sec. III-D2). */
enum class DataflowKind {
    kNtToMp, ///< transform, then scatter (GCN/GIN/PNA/DGN)
    kMpToNt, ///< gather, then transform (GAT attention)
};

/**
 * Per-graph context computed on the fly while a graph streams in:
 * degrees and the DGN directional-field normalizers. This is a single
 * pass over the incoming edge list — part of processing, not
 * pre-processing (no reordering or partition analysis).
 */
struct LayerContext {
    /** Per-node DGN scalar field (num_nodes entries), or null when the
     * sample carries none. A raw pointer rather than the whole sample:
     * the context must not pin a GraphSample when the engine runs off
     * a borrowed SampleRef (mmap-backed graphs). */
    const float *dgn_field = nullptr;
    std::vector<std::uint32_t> in_deg;
    std::vector<std::uint32_t> out_deg;
    /** Per-node sum of |u_j - u_i| over in-neighbors j (+eps), DGN. */
    Vec dgn_norm;
    /** PNA degree-scaler parameters. */
    PnaParams pna;
};

/** Builds the LayerContext for a sample (one pass over the edges). */
LayerContext make_layer_context(const GraphSample &sample,
                                const PnaParams &pna = {});

/**
 * SampleRef overload, the canonical build. Degree counting runs on
 * `threads` host cores (0 = all); the dgn_norm accumulation stays a
 * serial edge loop on purpose — float addition order is part of the
 * bit-identity contract. The context borrows the ref's dgn_field
 * pointer, so the backing must outlive the context.
 */
LayerContext make_layer_context(const SampleRef &sample,
                                const PnaParams &pna = {},
                                unsigned threads = 0);

/**
 * The pre-activation message shared by GIN, PNA and DGN:
 * m = x_src + EdgeEnc(e), or m = x_src when `enc` is empty (the layer
 * has no edge encoder). Writes enc.out_dim() == dim floats to `m`.
 */
void encode_edge_message(const Linear &enc, const float *x_src,
                         const float *edge_feat, std::size_t dim, float *m);

/** One destination's in-edges, in the order their messages are
 * summed. */
struct InEdges {
    NodeId dst = 0;
    const NodeId *srcs = nullptr;     ///< each in-edge's source
    /** Each in-edge's id (its feature row); null when the sample has
     * no edge features. */
    const EdgeId *edge_ids = nullptr;
    std::size_t count = 0;
};

/**
 * Base class of all FlowGNN layer kernels.
 */
class Layer
{
  public:
    virtual ~Layer() = default;

    /** Kernel name for reports. */
    virtual const char *name() const = 0;

    /** Preferred dataflow; the engine picks the matching schedule. */
    virtual DataflowKind dataflow() const { return DataflowKind::kNtToMp; }

    /** Node embedding dimension consumed. */
    virtual std::size_t in_dim() const = 0;

    /** Node embedding dimension produced. */
    virtual std::size_t out_dim() const = 0;

    /**
     * Message vector dimension produced by phi. Zero means the layer
     * has no message-passing step (e.g. the input encoder).
     */
    virtual std::size_t msg_dim() const { return 0; }

    /** Aggregation function for this layer's messages. */
    virtual AggregatorKind aggregator_kind() const
    {
        return AggregatorKind::kSum;
    }

    /** Aggregator policy instance (kind + msg_dim). */
    Aggregator aggregator() const
    {
        return Aggregator(aggregator_kind(), msg_dim());
    }

    /**
     * Raw edge-feature count phi reads (0: phi ignores edge features).
     * A sample run through the layer must carry exactly this many;
     * Model::check_sample rejects any other count.
     */
    virtual std::size_t edge_dim() const { return 0; }

    /** Whether phi reads edge features. */
    bool uses_edge_features() const { return edge_dim() > 0; }

    /**
     * phi: writes the message along edge src->dst, msg_dim() floats, to
     * `msg`, given the source node's embedding at this layer's input.
     * Allocates nothing.
     *
     * @param x_src     source embedding (in_dim floats)
     * @param edge_feat the edge's feature row, edge_dim() floats (null
     *                  when edge_dim() == 0)
     * @param msg       destination; must not alias x_src
     */
    virtual void message_into(const float *x_src, const float *edge_feat,
                              NodeId src, NodeId dst,
                              const LayerContext &ctx, float *msg) const;

    /**
     * Folds the messages along `in`'s edges into the destination's
     * aggregator state, in order: per edge, message_into, then
     * aggregator().accumulate, and with `quant` set each message and
     * then the state are quantized after their step. This default is
     * that loop; an override is a fused kernel that must stay
     * bit-identical to it (tests/test_layers.cpp pins each).
     *
     * @param x      source embeddings at this layer's input, one row
     *               per node
     * @param sample the edge features (edge_row of each edge id)
     * @param quant  the fixed-point format, or null for fp32
     * @param state  the destination's aggregator state
     * @param msg    msg_dim() floats of scratch
     */
    virtual void gather_into(const InEdges &in, const Matrix &x,
                             const SampleRef &sample,
                             const LayerContext &ctx,
                             const FixedPointFormat *quant, float *state,
                             float *msg) const;

    /**
     * gamma: writes the new embedding, out_dim() floats, to `out` from
     * the node's own embedding and the finalized aggregate (null when
     * msg_dim() == 0). `scratch` holds scratch_dim() floats the layer
     * may overwrite; `out` must not alias the inputs or the scratch.
     */
    virtual void transform_into(const float *x_self, const float *agg,
                                NodeId node, const LayerContext &ctx,
                                float *out, float *scratch) const = 0;

    /** Floats of scratch transform_into needs. */
    virtual std::size_t scratch_dim() const { return 0; }

    /**
     * Timing metadata: input widths of the sequential input-stationary
     * FC passes the NT unit performs per node (one entry per Linear in
     * the transform). The NT accumulate phase takes
     * sum_p ceil(width_p / Papply) cycles.
     */
    virtual std::vector<std::size_t> nt_pass_dims() const = 0;

    /**
     * Timing metadata: how many times the MP units must stream this
     * layer's edges (GAT attention needs two passes: scores, then the
     * normalized weighted sum).
     */
    virtual std::size_t mp_rounds() const { return 1; }

    /** Multiply-accumulates in gamma, per node (CPU/GPU cost models). */
    virtual std::size_t transform_macs() const = 0;

    /** Multiply-accumulates in phi, per edge (CPU/GPU cost models). */
    virtual std::size_t message_macs() const { return 0; }
};

} // namespace flowgnn

#endif // FLOWGNN_NN_LAYER_H
