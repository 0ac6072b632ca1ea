/**
 * @file
 * Graph Attention Network layer: multi-head self-attention over the
 * in-neighborhood (self-loop included).
 *
 *   h_j      = W x_j                       (projection, per head)
 *   s_ij     = LeakyReLU(a_src . h_j + a_dst . h_i)
 *   alpha_ij = softmax_j(s_ij)             (normalized over N(i) u {i})
 *   x_i'     = act( concat_heads( sum_j alpha_ij h_j ) )
 *
 * GAT is the paper's representative anisotropic model: the attention
 * coefficient depends on all of a node's neighbors, so it cannot be
 * expressed as matrix multiplication and favors the gather-first
 * (MP-to-NT) dataflow. The softmax uses the numerically stable
 * two-pass form (max, then exp-sum), identically in the reference
 * executor and the dataflow engine.
 */
#ifndef FLOWGNN_NN_GAT_LAYER_H
#define FLOWGNN_NN_GAT_LAYER_H

#include "nn/layer.h"
#include "tensor/activations.h"
#include "tensor/linear.h"

namespace flowgnn {

/** Multi-head graph attention convolution. */
class GatLayer : public Layer
{
  public:
    GatLayer(std::size_t in_dim, std::size_t num_heads,
             std::size_t head_dim, Activation act, Rng &rng);

    const char *name() const override { return "gat"; }
    DataflowKind dataflow() const override { return DataflowKind::kMpToNt; }
    std::size_t in_dim() const override { return proj_.in_dim(); }
    std::size_t out_dim() const override { return heads_ * head_dim_; }
    std::size_t msg_dim() const override { return out_dim(); }

    std::size_t num_heads() const { return heads_; }
    std::size_t head_dim() const { return head_dim_; }

    /** Projection h = W x (all heads concatenated), out_dim() floats. */
    void project_into(const float *x, float *h) const
    {
        proj_.forward_into(x, h);
    }

    /** Floats per node written by node_scores(). */
    std::size_t score_dim() const { return 2 * heads_; }

    /**
     * The per-node halves of the attention logit, from a projection h:
     * scores[k] = a_src . h (head k, as a source) and
     * scores[heads + k] = a_dst . h (head k, as a destination). Every
     * edge logit combines one source row and one destination row
     * (edge_score), so executors compute these once per node instead
     * of once per edge.
     */
    void node_scores(const float *h, float *scores) const;

    /** Attention logit of edge j->i for one head:
     * LeakyReLU(src half of j + dst half of i). */
    float
    edge_score(const float *src_scores, const float *dst_scores,
               std::size_t head) const
    {
        return activate(src_scores[head] + dst_scores[heads_ + head],
                        Activation::kLeakyRelu);
    }

    /** Output activation (ELU except on the last layer). */
    Activation activation() const { return act_; }

    /**
     * Not used directly — GAT layers run through the attention path of
     * the executor/engine. Kept to satisfy the interface; computes the
     * full layer for a degenerate single-node neighborhood.
     */
    void transform_into(const float *x_self, const float *agg,
                        NodeId node, const LayerContext &ctx, float *out,
                        float *scratch) const override;

    /** Projection, score row, and gat_combine's scratch. */
    std::size_t scratch_dim() const override
    {
        return out_dim() + 2 * score_dim();
    }

    std::vector<std::size_t> nt_pass_dims() const override
    {
        return {proj_.in_dim()};
    }

    std::size_t mp_rounds() const override { return 2; }

    std::size_t transform_macs() const override
    {
        // Projection plus the per-node half of the attention logits.
        return proj_.macs() + 2 * heads_ * head_dim_;
    }

    std::size_t message_macs() const override
    {
        // Score combine + exp-weighted accumulation per edge.
        return 2 * heads_ * head_dim_;
    }

  private:
    std::size_t heads_;
    std::size_t head_dim_;
    Linear proj_; ///< [in_dim -> heads*head_dim]
    Matrix att_src_; ///< [heads x head_dim]
    Matrix att_dst_; ///< [heads x head_dim]
    Activation act_;
};

/**
 * Runs the full two-pass attention for destination node `dst`. Shared
 * by the reference executor and the dataflow engine so arithmetic is
 * identical; allocates nothing.
 *
 * @param layer   the GAT layer
 * @param h       per-node projections, out_dim() floats per node
 * @param scores  per-node node_scores(), score_dim() floats per node
 * @param dst     the destination node (row index into h and scores)
 * @param srcs    dst's in-neighbors in arrival order (n_srcs entries)
 * @param out     the activated output embedding, out_dim() floats
 * @param scratch score_dim() floats
 */
void gat_combine(const GatLayer &layer, const float *h, const float *scores,
                 NodeId dst, const NodeId *srcs, std::size_t n_srcs,
                 float *out, float *scratch);

} // namespace flowgnn

#endif // FLOWGNN_NN_GAT_LAYER_H
