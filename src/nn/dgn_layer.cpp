#include "nn/dgn_layer.h"

#include <algorithm>
#include <stdexcept>

namespace flowgnn {

DgnLayer::DgnLayer(std::size_t dim, std::size_t edge_dim, Activation act,
                   Rng &rng)
    : dim_(dim), edge_dim_(edge_dim), mix_(3 * dim, dim), act_(act)
{
    if (edge_dim_ > 0) {
        edge_enc_ = Linear(edge_dim_, dim);
        edge_enc_.init_glorot(rng);
    }
    mix_.init_glorot(rng);
}

void
DgnLayer::message_into(const float *x_src, const float *edge_feat,
                       NodeId src, NodeId dst, const LayerContext &ctx,
                       float *msg) const
{
    if (ctx.dgn_field == nullptr)
        throw std::invalid_argument("DgnLayer: sample has no dgn_field");

    // msg = [m, w*m]: the mean half, then the directional half.
    float *m = msg;
    encode_edge_message(edge_enc_, x_src, edge_feat, dim_, m);

    // Directional weight from the vector field, normalized at the
    // destination (anisotropic: depends on both endpoints).
    float w = (ctx.dgn_field[src] - ctx.dgn_field[dst]) /
              ctx.dgn_norm[dst];
    for (std::size_t i = 0; i < dim_; ++i)
        msg[dim_ + i] = w * m[i];
}

void
DgnLayer::transform_into(const float *x_self, const float *agg, NodeId,
                         const LayerContext &, float *out,
                         float *scratch) const
{
    // [x_self || mean || dir], one input-stationary pass.
    std::copy(x_self, x_self + dim_, scratch);
    std::copy(agg, agg + 2 * dim_, scratch + dim_);
    mix_.forward_into(scratch, out);
    apply_activation(out, dim_, act_);
}

} // namespace flowgnn
