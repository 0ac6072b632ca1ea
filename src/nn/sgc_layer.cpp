#include "nn/sgc_layer.h"

#include <cmath>

namespace flowgnn {

void
SgcLayer::message_into(const float *x_src, const float *, NodeId src,
                       NodeId dst, const LayerContext &ctx,
                       float *msg) const
{
    float d_src = static_cast<float>(ctx.out_deg[src]) + 1.0f;
    float d_dst = static_cast<float>(ctx.in_deg[dst]) + 1.0f;
    float norm = 1.0f / std::sqrt(d_src * d_dst);
    for (std::size_t i = 0; i < dim_; ++i)
        msg[i] = x_src[i] * norm;
}

void
SgcLayer::transform_into(const float *x_self, const float *agg,
                         NodeId node, const LayerContext &ctx, float *out,
                         float *) const
{
    float d_hat = static_cast<float>(ctx.in_deg[node]) + 1.0f;
    float self_w = 1.0f / d_hat;
    for (std::size_t i = 0; i < dim_; ++i)
        out[i] = agg[i] + self_w * x_self[i];
}

} // namespace flowgnn
