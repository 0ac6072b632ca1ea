#include "nn/gcn_layer.h"

#include <algorithm>
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

namespace {

/** Edges whose norms are computed ahead of their rows' sums. */
constexpr std::size_t kNormBatch = 64;
/** Columns summed in registers at a time. */
constexpr std::size_t kColBlock = 16;

/** acc[0, W) += x[srcs[j]][col + i] * norm[j], in j order: a fixed
 * width keeps the running sums in registers, where a sum kept in the
 * state would chain every edge through a store and a reload. */
template <std::size_t W>
void
add_weighted_rows(float *acc, const Matrix &x, std::size_t col,
                  const NodeId *srcs, const float *norm, std::size_t n)
{
    float sum[W];
    std::copy(acc, acc + W, sum);
    for (std::size_t j = 0; j < n; ++j) {
        const float *row = x.row(srcs[j]) + col;
        for (std::size_t i = 0; i < W; ++i)
            sum[i] += row[i] * norm[j];
    }
    std::copy(sum, sum + W, acc);
}

} // namespace

void
GcnLayer::gather_into(const InEdges &in, const Matrix &x,
                      const SampleRef &sample, const LayerContext &ctx,
                      const FixedPointFormat *quant, float *state,
                      float *msg) const
{
    if (quant != nullptr) {
        Layer::gather_into(in, x, sample, ctx, quant, state, msg);
        return;
    }
    // message_into's norm, per edge and written the same way (no norm
    // table: it would cost 4 B per edge); `sum += x * norm` rounds the
    // product and the sum apart, as the message and accumulate calls
    // do, because -ffp-contract=off forbids an FMA. Each element still
    // sums its edges in order, so blocking by edges and columns moves
    // no bit. GCN reads no edge features, so the default's edge rows
    // never matter here.
    const std::size_t dim = linear_.in_dim();
    const float d_dst = static_cast<float>(ctx.in_deg[in.dst]) + 1.0f;
    float norm[kNormBatch];
    for (std::size_t k0 = 0; k0 < in.count; k0 += kNormBatch) {
        const NodeId *srcs = in.srcs + k0;
        const std::size_t n = std::min(kNormBatch, in.count - k0);
        for (std::size_t j = 0; j < n; ++j) {
            const float d_src =
                static_cast<float>(ctx.out_deg[srcs[j]]) + 1.0f;
            norm[j] = 1.0f / std::sqrt(d_src * d_dst);
        }
        std::size_t col = 0;
        for (; col + kColBlock <= dim; col += kColBlock)
            add_weighted_rows<kColBlock>(state + col, x, col, srcs, norm,
                                         n);
        for (std::size_t j = 0; j < n && col < dim; ++j) {
            const float *row = x.row(srcs[j]);
            for (std::size_t i = col; i < dim; ++i)
                state[i] += row[i] * norm[j];
        }
    }
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
