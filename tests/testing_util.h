/**
 * @file
 * Shared helpers for the fuzz/differential suites: deterministic
 * random GraphSamples over the library's synthetic graph generators.
 */
#ifndef FLOWGNN_TESTS_TESTING_UTIL_H
#define FLOWGNN_TESTS_TESTING_UTIL_H

#include "graph/generators.h"
#include "graph/sample.h"
#include "nn/layer.h"
#include "tensor/rng.h"

namespace flowgnn::testing {

/** Wraps a graph with deterministic random node/edge features. */
inline GraphSample
make_random_sample(CooGraph graph, std::size_t node_dim,
                   std::size_t edge_dim, std::uint64_t seed)
{
    GraphSample s;
    s.graph = std::move(graph);
    Rng rng(seed);
    s.node_features = Matrix(s.graph.num_nodes, node_dim);
    for (std::size_t r = 0; r < s.node_features.rows(); ++r)
        for (std::size_t c = 0; c < node_dim; ++c)
            s.node_features(r, c) =
                static_cast<float>(rng.normal(0.0, 0.5));
    if (edge_dim > 0) {
        s.edge_features = Matrix(s.graph.num_edges(), edge_dim);
        for (std::size_t r = 0; r < s.edge_features.rows(); ++r)
            for (std::size_t c = 0; c < edge_dim; ++c)
                s.edge_features(r, c) =
                    static_cast<float>(rng.normal(0.0, 0.5));
    }
    return s;
}

/** Deterministic random graph; `flavor` rotates the generator family
 * so a fuzz loop covers chemistry-, random-, and power-law-shaped
 * structure. */
inline CooGraph
make_random_graph(std::uint32_t flavor, NodeId num_nodes,
                  std::uint64_t seed)
{
    Rng rng(seed);
    switch (flavor % 3) {
      case 0:
        return make_molecule(num_nodes, rng);
      case 1:
        return make_erdos_renyi(num_nodes, 2 * std::size_t(num_nodes),
                                rng);
      default:
        return make_barabasi_albert(num_nodes, 2, rng);
    }
}

/** Sets W(o, i) = [o == i] and a zero bias: the identity map, or
 * [I; 0] / [I 0] for a non-square layer. */
inline void
make_identity(Linear &lin)
{
    for (std::size_t o = 0; o < lin.out_dim(); ++o)
        for (std::size_t i = 0; i < lin.in_dim(); ++i)
            lin.weight(o, i) = (o == i) ? 1.0f : 0.0f;
    lin.bias_ref().assign(lin.out_dim(), 0.0f);
}

/** phi through the span kernel, returned as a Vec (unit tests). */
inline Vec
message(const Layer &layer, const Vec &x_src, const float *edge_feat,
        NodeId src, NodeId dst, const LayerContext &ctx)
{
    Vec msg(layer.msg_dim());
    layer.message_into(x_src.data(), edge_feat, src, dst, ctx, msg.data());
    return msg;
}

/** gamma through the span kernel, returned as a Vec (unit tests). An
 * empty `agg` stands for "no aggregate" (msg_dim() == 0). */
inline Vec
transform(const Layer &layer, const Vec &x_self, const Vec &agg,
          NodeId node, const LayerContext &ctx)
{
    Vec out(layer.out_dim());
    Vec scratch(layer.scratch_dim());
    layer.transform_into(x_self.data(), agg.empty() ? nullptr : agg.data(),
                         node, ctx, out.data(), scratch.data());
    return out;
}

} // namespace flowgnn::testing

#endif // FLOWGNN_TESTS_TESTING_UTIL_H
