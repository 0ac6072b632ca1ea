#include "nn/pna_layer.h"

#include <algorithm>

namespace flowgnn {

PnaLayer::PnaLayer(std::size_t dim, std::size_t edge_dim, Activation act,
                   Rng &rng)
    : dim_(dim), edge_dim_(edge_dim), mix_(13 * dim, dim), act_(act)
{
    if (edge_dim_ > 0) {
        edge_enc_ = Linear(edge_dim_, dim);
        edge_enc_.init_glorot(rng);
    }
    mix_.init_glorot(rng);
}

void
PnaLayer::message_into(const float *x_src, const float *edge_feat, NodeId,
                       NodeId, const LayerContext &, float *msg) const
{
    encode_edge_message(edge_enc_, x_src, edge_feat, dim_, msg);
    apply_activation(msg, dim_, Activation::kRelu);
}

void
PnaLayer::transform_into(const float *x_self, const float *agg, NodeId,
                         const LayerContext &, float *out,
                         float *scratch) const
{
    // [x_self || 12 aggregates], one input-stationary pass.
    std::copy(x_self, x_self + dim_, scratch);
    std::copy(agg, agg + 12 * dim_, scratch + dim_);
    mix_.forward_into(scratch, out);
    apply_activation(out, dim_, act_);
}

} // namespace flowgnn
