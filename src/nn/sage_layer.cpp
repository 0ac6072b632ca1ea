#include "nn/sage_layer.h"

#include <algorithm>

namespace flowgnn {

SageLayer::SageLayer(std::size_t in_dim, std::size_t out_dim,
                     Activation act, Rng &rng)
    : self_(in_dim, out_dim), nbr_(in_dim, out_dim), act_(act)
{
    self_.init_glorot(rng);
    nbr_.init_glorot(rng);
}

void
SageLayer::message_into(const float *x_src, const float *, NodeId, NodeId,
                        const LayerContext &, float *msg) const
{
    // Raw neighbor embedding; the mean is taken by the aggregator.
    std::copy(x_src, x_src + self_.in_dim(), msg);
}

void
SageLayer::transform_into(const float *x_self, const float *agg, NodeId,
                          const LayerContext &, float *out,
                          float *scratch) const
{
    self_.forward_into(x_self, out);
    nbr_.forward_into(agg, scratch);
    for (std::size_t i = 0; i < self_.out_dim(); ++i)
        out[i] = out[i] + scratch[i];
    apply_activation(out, self_.out_dim(), act_);
}

} // namespace flowgnn
