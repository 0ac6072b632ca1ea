#include "nn/gin_layer.h"

namespace flowgnn {

GinLayer::GinLayer(std::size_t dim, std::size_t edge_dim, Activation act,
                   Rng &rng)
    : dim_(dim), edge_dim_(edge_dim),
      mlp_({dim, 2 * dim, dim}, Activation::kRelu, Activation::kIdentity),
      act_(act)
{
    if (edge_dim_ > 0) {
        edge_enc_ = Linear(edge_dim_, dim);
        edge_enc_.init_glorot(rng);
    }
    mlp_.init_glorot(rng);
}

void
GinLayer::message_into(const float *x_src, const float *edge_feat, NodeId,
                       NodeId, const LayerContext &, float *msg) const
{
    encode_edge_message(edge_enc_, x_src, edge_feat, dim_, msg);
    apply_activation(msg, dim_, Activation::kRelu);
}

void
GinLayer::transform_into(const float *x_self, const float *agg, NodeId,
                         const LayerContext &, float *out,
                         float *scratch) const
{
    float *combined = scratch;
    const float self_w = 1.0f + eps_;
    for (std::size_t i = 0; i < dim_; ++i)
        combined[i] = agg[i] + self_w * x_self[i];
    float *ping = combined + dim_;
    mlp_.forward_into(combined, out, ping, ping + mlp_.max_hidden_dim());
    apply_activation(out, dim_, act_);
}

} // namespace flowgnn
