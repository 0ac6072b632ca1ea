#include "nn/gat_layer.h"

#include <algorithm>
#include <cmath>

namespace flowgnn {

GatLayer::GatLayer(std::size_t in_dim, std::size_t num_heads,
                   std::size_t head_dim, Activation act, Rng &rng)
    : heads_(num_heads), head_dim_(head_dim),
      proj_(in_dim, num_heads * head_dim), att_src_(num_heads, head_dim),
      att_dst_(num_heads, head_dim), act_(act)
{
    proj_.init_glorot(rng);
    double limit = std::sqrt(6.0 / static_cast<double>(head_dim + 1));
    for (std::size_t h = 0; h < heads_; ++h) {
        for (std::size_t d = 0; d < head_dim_; ++d) {
            att_src_(h, d) = static_cast<float>(rng.uniform(-limit, limit));
            att_dst_(h, d) = static_cast<float>(rng.uniform(-limit, limit));
        }
    }
}

void
GatLayer::node_scores(const float *h, float *scores) const
{
    for (std::size_t hd = 0; hd < heads_; ++hd) {
        const float *head = h + hd * head_dim_;
        float src = 0.0f;
        float dst = 0.0f;
        for (std::size_t d = 0; d < head_dim_; ++d) {
            src += att_src_(hd, d) * head[d];
            dst += att_dst_(hd, d) * head[d];
        }
        scores[hd] = src;
        scores[heads_ + hd] = dst;
    }
}

void
GatLayer::transform_into(const float *x_self, const float *, NodeId,
                         const LayerContext &, float *out,
                         float *scratch) const
{
    float *h = scratch;
    float *scores = h + out_dim();
    project_into(x_self, h);
    node_scores(h, scores);
    gat_combine(*this, h, scores, 0, nullptr, 0, out,
                scores + score_dim());
}

void
gat_combine(const GatLayer &layer, const float *h, const float *scores,
            NodeId dst, const NodeId *srcs, std::size_t n_srcs, float *out,
            float *scratch)
{
    const std::size_t heads = layer.num_heads();
    const std::size_t hd = layer.head_dim();
    const std::size_t width = heads * hd;
    const float *h_dst = h + std::size_t(dst) * width;
    const float *s_dst = scores + std::size_t(dst) * layer.score_dim();
    auto src_scores = [&](NodeId j) {
        return scores + std::size_t(j) * layer.score_dim();
    };

    // Pass 1: per-head running max over {self} u in-neighbors.
    float *max_score = scratch;
    float *denom = scratch + heads;
    for (std::size_t k = 0; k < heads; ++k)
        max_score[k] = layer.edge_score(s_dst, s_dst, k);
    for (std::size_t j = 0; j < n_srcs; ++j) {
        const float *s_src = src_scores(srcs[j]);
        for (std::size_t k = 0; k < heads; ++k)
            max_score[k] =
                std::max(max_score[k], layer.edge_score(s_src, s_dst, k));
    }

    // Pass 2: exp-weighted sum in arrival order, self term first,
    // accumulated in place in `out`.
    for (std::size_t k = 0; k < heads; ++k) {
        float w = std::exp(layer.edge_score(s_dst, s_dst, k) - max_score[k]);
        denom[k] = w;
        for (std::size_t d = 0; d < hd; ++d)
            out[k * hd + d] = w * h_dst[k * hd + d];
    }
    for (std::size_t j = 0; j < n_srcs; ++j) {
        const float *s_src = src_scores(srcs[j]);
        const float *h_src = h + std::size_t(srcs[j]) * width;
        for (std::size_t k = 0; k < heads; ++k) {
            float w =
                std::exp(layer.edge_score(s_src, s_dst, k) - max_score[k]);
            denom[k] += w;
            for (std::size_t d = 0; d < hd; ++d)
                out[k * hd + d] += w * h_src[k * hd + d];
        }
    }

    for (std::size_t k = 0; k < heads; ++k)
        for (std::size_t d = 0; d < hd; ++d)
            out[k * hd + d] = out[k * hd + d] / denom[k];
    apply_activation(out, width, layer.activation());
}

} // namespace flowgnn
