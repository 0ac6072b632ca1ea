#include "nn/gcn_layer.h"

#include <cmath>

namespace flowgnn {

GcnLayer::GcnLayer(std::size_t in_dim, std::size_t out_dim, Activation act,
                   Rng &rng)
    : linear_(in_dim, out_dim), act_(act)
{
    linear_.init_glorot(rng);
}

void
GcnLayer::message_into(const float *x_src, const float *, NodeId src,
                       NodeId dst, const LayerContext &ctx,
                       float *msg) const
{
    // Symmetric normalization with renormalized degrees (deg + 1).
    float d_src = static_cast<float>(ctx.out_deg[src]) + 1.0f;
    float d_dst = static_cast<float>(ctx.in_deg[dst]) + 1.0f;
    float norm = 1.0f / std::sqrt(d_src * d_dst);
    for (std::size_t i = 0; i < linear_.in_dim(); ++i)
        msg[i] = x_src[i] * norm;
}

void
GcnLayer::transform_into(const float *x_self, const float *agg,
                         NodeId node, const LayerContext &ctx, float *out,
                         float *scratch) const
{
    // Self-loop term: x_i / (deg_i + 1).
    float d_hat = static_cast<float>(ctx.in_deg[node]) + 1.0f;
    float self_w = 1.0f / d_hat;
    for (std::size_t i = 0; i < linear_.in_dim(); ++i)
        scratch[i] = agg[i] + self_w * x_self[i];
    linear_.forward_into(scratch, out);
    apply_activation(out, linear_.out_dim(), act_);
}

} // namespace flowgnn
