/** @file Layer-kernel unit tests (phi / gamma semantics per model). */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "graph/generators.h"
#include "nn/dgn_layer.h"
#include "nn/encoder_layer.h"
#include "nn/gat_layer.h"
#include "nn/gcn_layer.h"
#include "nn/gin_layer.h"
#include "nn/pna_layer.h"
#include "tensor/ops.h"
#include "testing_util.h"

namespace flowgnn {
namespace {

using testing::make_identity;
using testing::message;
using testing::transform;

Vec
project(const GatLayer &gat, const Vec &x)
{
    Vec h(gat.out_dim());
    gat.project_into(x.data(), h.data());
    return h;
}

Vec
scores_of(const GatLayer &gat, const Vec &h)
{
    Vec s(gat.score_dim());
    gat.node_scores(h.data(), s.data());
    return s;
}

/** gat_combine over explicit projections: h[0] is the destination,
 * h[1..] its in-neighbors in arrival order. */
Vec
combine(const GatLayer &gat, const std::vector<Vec> &h)
{
    Matrix table(h.size(), gat.out_dim());
    Matrix scores(h.size(), gat.score_dim());
    std::vector<NodeId> srcs;
    for (std::size_t i = 0; i < h.size(); ++i) {
        table.set_row(i, h[i]);
        gat.node_scores(table.row(i), scores.row(i));
        if (i > 0)
            srcs.push_back(static_cast<NodeId>(i));
    }
    Vec out(gat.out_dim());
    Vec scratch(gat.score_dim());
    gat_combine(gat, table.data(), scores.data(), 0, srcs.data(),
                srcs.size(), out.data(), scratch.data());
    return out;
}

GraphSample
tiny_sample(std::size_t node_dim = 4, std::size_t edge_dim = 2)
{
    Rng rng(1);
    GraphSample s;
    s.graph.num_nodes = 4;
    s.graph.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}};
    s.node_features = Matrix(4, node_dim, 0.3f);
    if (edge_dim > 0)
        s.edge_features = Matrix(5, edge_dim, 0.1f);
    return s;
}

TEST(LayerContext, DegreesAndDgnNorm)
{
    GraphSample s = tiny_sample();
    s.dgn_field = {0.0f, 1.0f, 3.0f, -1.0f};
    LayerContext ctx = make_layer_context(s);
    EXPECT_EQ(ctx.out_deg, (std::vector<std::uint32_t>{2, 1, 1, 1}));
    EXPECT_EQ(ctx.in_deg, (std::vector<std::uint32_t>{1, 1, 2, 1}));
    // dgn_norm[2] = |u0 - u2| + |u1 - u2| + eps = 3 + 2 + eps.
    ASSERT_EQ(ctx.dgn_norm.size(), 4u);
    EXPECT_NEAR(ctx.dgn_norm[2], 5.0f, 1e-4f);
}

TEST(EncoderLayer, IsPureLinear)
{
    Rng rng(2);
    EncoderLayer enc(4, 8, rng);
    EXPECT_EQ(enc.msg_dim(), 0u);
    GraphSample s = tiny_sample();
    LayerContext ctx = make_layer_context(s);
    Vec x{1, 2, 3, 4};
    EXPECT_EQ(transform(enc, x, {}, 0, ctx), enc.linear().forward(x));
    EXPECT_EQ(enc.nt_pass_dims(), (std::vector<std::size_t>{4}));
}

TEST(GcnLayer, MessageAppliesSymmetricNorm)
{
    Rng rng(3);
    GcnLayer gcn(4, 4, Activation::kRelu, rng);
    GraphSample s = tiny_sample();
    LayerContext ctx = make_layer_context(s);
    Vec x{1, 1, 1, 1};
    // Edge 0->1: out_deg[0]=2, in_deg[1]=1 -> 1/sqrt(3*2).
    Vec m = message(gcn, x, nullptr, 0, 1, ctx);
    float expected = 1.0f / std::sqrt(6.0f);
    for (float v : m)
        EXPECT_NEAR(v, expected, 1e-6f);
}

TEST(GcnLayer, TransformAddsScaledSelfLoop)
{
    Rng rng(3);
    GcnLayer gcn(2, 2, Activation::kIdentity, rng);
    // Identity weights isolate the combine arithmetic.
    GraphSample s = tiny_sample(2, 0);
    LayerContext ctx = make_layer_context(s);
    make_identity(const_cast<Linear &>(gcn.linear()));
    // Node 0 has in_deg 1 -> self scale 1/2.
    Vec out = transform(gcn, {4, 8}, {1, 1}, 0, ctx);
    EXPECT_FLOAT_EQ(out[0], 1.0f + 2.0f);
    EXPECT_FLOAT_EQ(out[1], 1.0f + 4.0f);
}

TEST(GcnLayer, FusedGatherIsBitIdenticalToTheDefault)
{
    // The fused row kernel against Layer's message_into + accumulate
    // loop, bit for bit: across column blocks (dims 7, 16, 100), across
    // norm batches (a 150-edge hub), on a zero-in-degree destination,
    // a repeated source and self-loops, in fp32 and fixed point.
    CooGraph g;
    g.num_nodes = 160;
    for (NodeId s = 1; s < 151; ++s)
        g.edges.push_back({s, 0});
    g.edges.push_back({0, 0});
    g.edges.push_back({3, 1});
    g.edges.push_back({3, 1});
    g.edges.push_back({2, 2});
    g.edges.push_back({1, 2});
    for (NodeId s = 4; s < 159; ++s)
        g.edges.push_back({s, s + 1});
    const CscGraph csc = CscGraph::src_major(g, true, 1);
    ASSERT_EQ(csc.in_degree(0), 151u);
    ASSERT_EQ(csc.in_degree(3), 0u);

    for (std::size_t dim : {7u, 16u, 100u}) {
        Rng rng(dim);
        GcnLayer gcn(dim, 4, Activation::kRelu, rng);
        GraphSample s = testing::make_random_sample(g, dim, 0, 0x6A + dim);
        const SampleRef ref(s);
        const LayerContext ctx = make_layer_context(s);
        const FixedPointFormat *formats[] = {nullptr, &kFixed16_10};
        for (const FixedPointFormat *quant : formats) {
            Vec fused(dim), plain(dim), msg(dim);
            for (NodeId d = 0; d < g.num_nodes; ++d) {
                SCOPED_TRACE(::testing::Message()
                             << "dim " << dim << " dst " << d
                             << (quant ? " fixed" : " fp32"));
                const InEdges in{d, csc.srcs(d), csc.edge_ids(d),
                                 csc.in_degree(d)};
                std::fill(fused.begin(), fused.end(), 0.0f);
                std::fill(plain.begin(), plain.end(), 0.0f);
                gcn.gather_into(in, s.node_features, ref, ctx, quant,
                                fused.data(), msg.data());
                gcn.Layer::gather_into(in, s.node_features, ref, ctx,
                                       quant, plain.data(), msg.data());
                ASSERT_EQ(std::memcmp(fused.data(), plain.data(),
                                      dim * sizeof(float)),
                          0);
            }
        }
    }
}

TEST(GinLayer, MessageIsReluOfSumWithEdgeEncoding)
{
    Rng rng(4);
    GinLayer gin(3, 0, Activation::kRelu, rng); // no edge features
    GraphSample s = tiny_sample(3, 0);
    LayerContext ctx = make_layer_context(s);
    Vec m = message(gin, {-1.0f, 0.0f, 2.0f}, nullptr, 0, 1, ctx);
    EXPECT_EQ(m, (Vec{0.0f, 0.0f, 2.0f}));
}

TEST(GinLayer, EdgeFeaturesShiftMessages)
{
    Rng rng(4);
    GinLayer gin(3, 2, Activation::kRelu, rng);
    GraphSample s = tiny_sample(3, 2);
    LayerContext ctx = make_layer_context(s);
    float ef_a[2] = {0.5f, -0.5f};
    float ef_b[2] = {-0.5f, 0.5f};
    Vec x{1.0f, 1.0f, 1.0f};
    Vec ma = message(gin, x, ef_a, 0, 1, ctx);
    Vec mb = message(gin, x, ef_b, 0, 1, ctx);
    EXPECT_GT(max_abs_diff(ma, mb), 0.0f)
        << "distinct edge features must yield distinct messages";
}

TEST(GinLayer, TransformUsesEpsilonWeightedSelf)
{
    Rng rng(4);
    GinLayer gin(2, 0, Activation::kIdentity, rng);
    GraphSample s = tiny_sample(2, 0);
    LayerContext ctx = make_layer_context(s);
    // (1+eps)*x + agg with eps=0.1.
    Vec a = transform(gin, {1, 1}, {0, 0}, 0, ctx);
    Vec b = transform(gin, {0, 0}, {1.1f, 1.1f}, 0, ctx);
    EXPECT_LT(max_abs_diff(a, b), 1e-5f);
}

TEST(PnaLayer, DimsAndAggregator)
{
    Rng rng(5);
    PnaLayer pna(8, 2, Activation::kRelu, rng);
    EXPECT_EQ(pna.msg_dim(), 8u);
    EXPECT_EQ(pna.aggregator_kind(), AggregatorKind::kPna);
    EXPECT_EQ(pna.aggregator().out_dim(), 96u);
    EXPECT_EQ(pna.nt_pass_dims(), (std::vector<std::size_t>{104}));
}

TEST(PnaLayer, TransformConsumesConcatenation)
{
    Rng rng(5);
    PnaLayer pna(4, 0, Activation::kIdentity, rng);
    GraphSample s = tiny_sample(4, 0);
    LayerContext ctx = make_layer_context(s);
    Vec agg(48, 0.1f);
    Vec out = transform(pna, {1, 2, 3, 4}, agg, 0, ctx);
    EXPECT_EQ(out.size(), 4u);
}

TEST(DgnLayer, MessageCarriesMeanAndDirectionalParts)
{
    Rng rng(6);
    DgnLayer dgn(2, 0, Activation::kRelu, rng);
    GraphSample s = tiny_sample(2, 0);
    s.dgn_field = {0.0f, 2.0f, 0.0f, 0.0f};
    LayerContext ctx = make_layer_context(s);
    // Edge 0->1: w = (u0-u1)/norm[1] = -2/(2+eps) ~ -1.
    Vec m = message(dgn, {3.0f, 5.0f}, nullptr, 0, 1, ctx);
    ASSERT_EQ(m.size(), 4u);
    EXPECT_FLOAT_EQ(m[0], 3.0f);
    EXPECT_FLOAT_EQ(m[1], 5.0f);
    EXPECT_NEAR(m[2], -3.0f, 1e-4f);
    EXPECT_NEAR(m[3], -5.0f, 1e-4f);
}

TEST(DgnLayer, MissingFieldThrows)
{
    Rng rng(6);
    DgnLayer dgn(2, 0, Activation::kRelu, rng);
    GraphSample s = tiny_sample(2, 0);
    LayerContext ctx = make_layer_context(s);
    EXPECT_THROW(message(dgn, {1, 1}, nullptr, 0, 1, ctx),
                 std::invalid_argument);
}

TEST(GatLayer, DimsAndDataflow)
{
    Rng rng(7);
    GatLayer gat(8, 4, 16, Activation::kElu, rng);
    EXPECT_EQ(gat.out_dim(), 64u);
    EXPECT_EQ(gat.dataflow(), DataflowKind::kMpToNt);
    EXPECT_EQ(gat.mp_rounds(), 2u);
}

TEST(GatLayer, UniformNeighborhoodAveragesToSelf)
{
    // If all projections are identical, attention weights are uniform
    // and the combine returns act(h) itself.
    Rng rng(7);
    GatLayer gat(4, 2, 3, Activation::kIdentity, rng);
    Vec h = project(gat, {0.5f, -0.5f, 1.0f, 0.0f});
    Vec out = combine(gat, {h, h, h, h});
    EXPECT_LT(max_abs_diff(out, h), 1e-5f);
}

TEST(GatLayer, AttentionIsAWeightedAverage)
{
    // Output of each head must lie inside the convex hull of the
    // inputs (attention weights sum to 1 and are positive).
    Rng rng(8);
    GatLayer gat(4, 1, 4, Activation::kIdentity, rng);
    Vec h_self = project(gat, {1, 0, 0, 0});
    Vec h_a = project(gat, {0, 1, 0, 0});
    Vec h_b = project(gat, {0, 0, 1, 0});
    Vec out = combine(gat, {h_self, h_a, h_b});
    for (std::size_t d = 0; d < 4; ++d) {
        float lo = std::min({h_self[d], h_a[d], h_b[d]});
        float hi = std::max({h_self[d], h_a[d], h_b[d]});
        EXPECT_GE(out[d], lo - 1e-5f);
        EXPECT_LE(out[d], hi + 1e-5f);
    }
}

TEST(GatLayer, EmptyNeighborhoodReturnsActivatedSelf)
{
    Rng rng(9);
    GatLayer gat(4, 2, 2, Activation::kElu, rng);
    Vec h = project(gat, {1, 2, 3, 4});
    Vec out = combine(gat, {h});
    Vec expected = h;
    apply_activation(expected, Activation::kElu);
    EXPECT_LT(max_abs_diff(out, expected), 1e-6f);
}

TEST(GatLayer, ScoresUseLeakyRelu)
{
    Rng rng(10);
    GatLayer gat(2, 1, 2, Activation::kIdentity, rng);
    Vec s1 = scores_of(gat, project(gat, {1, 0}));
    Vec s2 = scores_of(gat, project(gat, {0, 1}));
    // Edge 1->2, head 0: source half of node 1 + destination half of
    // node 2 (the row's second half, after num_heads() source scores).
    float raw = s1[0] + s2[gat.num_heads()];
    EXPECT_FLOAT_EQ(gat.edge_score(s1.data(), s2.data(), 0),
                    activate(raw, Activation::kLeakyRelu));
}

TEST(Layer, BaseMessageThrowsForMessagelessLayers)
{
    Rng rng(11);
    EncoderLayer enc(2, 2, rng);
    GraphSample s = tiny_sample(2, 0);
    LayerContext ctx = make_layer_context(s);
    EXPECT_THROW(message(enc, {1, 1}, nullptr, 0, 1, ctx),
                 std::logic_error);
}

} // namespace
} // namespace flowgnn
