/** @file Linear / MLP layer unit tests. */
#include <gtest/gtest.h>

#include <cmath>

#include "tensor/linear.h"
#include "tensor/mlp.h"
#include "tensor/ops.h"

namespace flowgnn {
namespace {

TEST(Linear, ZeroWeightsYieldBias)
{
    Linear lin(3, 2);
    lin.bias_ref() = {1.0f, -1.0f};
    Vec y = lin.forward({5, 6, 7});
    EXPECT_EQ(y, (Vec{1.0f, -1.0f}));
}

TEST(Linear, KnownMatrixVectorProduct)
{
    Linear lin(2, 2);
    lin.weight(0, 0) = 1.0f;
    lin.weight(0, 1) = 2.0f;
    lin.weight(1, 0) = -1.0f;
    lin.weight(1, 1) = 0.5f;
    lin.bias_ref() = {10.0f, 0.0f};
    Vec y = lin.forward({3.0f, 4.0f});
    EXPECT_FLOAT_EQ(y[0], 10.0f + 3.0f + 8.0f);
    EXPECT_FLOAT_EQ(y[1], -3.0f + 2.0f);
}

TEST(Linear, PartialAccumulateEqualsForward)
{
    Rng rng(3);
    Linear lin(10, 7);
    lin.init_glorot(rng);
    Vec x(10);
    for (auto &v : x)
        v = static_cast<float>(rng.uniform(-1, 1));

    // Accumulating in Papply-sized chunks must equal one full pass —
    // this is the NT unit's correctness contract.
    for (std::size_t chunk : {1u, 2u, 3u, 4u, 5u, 10u}) {
        Vec acc = lin.bias();
        for (std::size_t b = 0; b < 10; b += chunk)
            lin.accumulate(x.data(), acc.data(), b,
                           std::min<std::size_t>(b + chunk, 10));
        EXPECT_EQ(acc, lin.forward(x)) << "chunk=" << chunk;
    }
}

TEST(Linear, DimensionChecks)
{
    Linear lin(3, 2);
    EXPECT_THROW(lin.forward({1, 2}), std::invalid_argument);
    Vec acc(2, 0.0f);
    Vec x{1, 2, 3};
    EXPECT_THROW(lin.accumulate(x.data(), acc.data(), 2, 5),
                 std::invalid_argument);
    EXPECT_THROW(lin.accumulate(x.data(), acc.data(), 2, 1),
                 std::invalid_argument);
}

TEST(Linear, GlorotBoundsRespectFanInOut)
{
    Rng rng(1);
    Linear lin(50, 50);
    lin.init_glorot(rng);
    double limit = std::sqrt(6.0 / 100.0);
    for (std::size_t o = 0; o < 50; ++o)
        for (std::size_t i = 0; i < 50; ++i) {
            EXPECT_LE(lin.weight(o, i), limit);
            EXPECT_GE(lin.weight(o, i), -limit);
        }
}

TEST(Linear, GlorotIsSeedDeterministic)
{
    Rng a(9), b(9);
    Linear la(8, 8), lb(8, 8);
    la.init_glorot(a);
    lb.init_glorot(b);
    for (std::size_t o = 0; o < 8; ++o)
        for (std::size_t i = 0; i < 8; ++i)
            EXPECT_EQ(la.weight(o, i), lb.weight(o, i));
    EXPECT_EQ(la.bias(), lb.bias());
}

TEST(Linear, GlorotDrawsOutputMajorThenBias)
{
    // The draw order is part of every model's identity: W is drawn
    // row by row in (o, i) order, then the bias, whatever the storage
    // layout.
    const std::size_t in = 3, out = 5;
    Rng rng(21), replay(21);
    Linear lin(in, out);
    lin.init_glorot(rng);
    const double limit = std::sqrt(6.0 / static_cast<double>(in + out));
    for (std::size_t o = 0; o < out; ++o)
        for (std::size_t i = 0; i < in; ++i)
            EXPECT_EQ(lin.weight(o, i),
                      static_cast<float>(replay.uniform(-limit, limit)));
    for (std::size_t o = 0; o < out; ++o)
        EXPECT_EQ(lin.bias()[o],
                  static_cast<float>(replay.uniform(-limit, limit) * 0.1));
}

/** The pre-blocking kernel: bias, then acc[o] += W(o, i) * x[i] for
 * i = 0, 1, ... — the summation order every pin is built on. */
Vec
naive_forward(const Linear &lin, const Vec &x)
{
    Vec acc = lin.bias();
    for (std::size_t i = 0; i < lin.in_dim(); ++i) {
        const float xi = x[i];
        for (std::size_t o = 0; o < lin.out_dim(); ++o)
            acc[o] += lin.weight(o, i) * xi;
    }
    return acc;
}

Linear
random_linear(std::size_t in, std::size_t out, std::uint64_t seed,
              Vec &x)
{
    Rng rng(seed);
    Linear lin(in, out);
    lin.init_glorot(rng);
    x.resize(in);
    for (auto &v : x)
        v = static_cast<float>(rng.normal(0.0, 1.0));
    return lin;
}

TEST(LinearKernel, BlockedMatchesNaiveBitExactOnAllTailShapes)
{
    // in_dim 1..9 covers zero, one and two 4-input blocks with every
    // scalar tail; out_dim 1..17 covers every vector-width remainder.
    for (std::size_t in = 1; in <= 9; ++in) {
        for (std::size_t out = 1; out <= 17; ++out) {
            Vec x;
            Linear lin = random_linear(in, out, 100 * in + out, x);
            const Vec want = naive_forward(lin, x);
            EXPECT_EQ(lin.forward(x), want) << in << "x" << out;
            Vec got(out);
            lin.forward_into(x.data(), got.data());
            EXPECT_EQ(got, want) << in << "x" << out;
        }
    }
}

TEST(LinearKernel, BlockedMatchesNaiveBitExactOnPnaMix)
{
    // The PNA mix, Linear(13 * 80 -> 80): the widest paper layer.
    Vec x;
    Linear lin = random_linear(1040, 80, 7, x);
    EXPECT_EQ(lin.forward(x), naive_forward(lin, x));
}

TEST(LinearKernel, SplitRangeAccumulateEqualsForward)
{
    // Ranges that start and end off the 4-input grid must still add
    // each input in order: any split equals the full pass bit for bit.
    Vec x;
    Linear lin = random_linear(1040, 80, 11, x);
    const Vec full = lin.forward(x);
    for (std::size_t split : {1u, 3u, 5u, 7u, 517u, 1039u}) {
        Vec acc = lin.bias();
        lin.accumulate(x.data(), acc.data(), 0, split);
        lin.accumulate(x.data(), acc.data(), split, 1040);
        EXPECT_EQ(acc, full) << "split=" << split;
    }
    Vec acc = lin.bias();
    for (std::size_t b = 0; b < 1040; b += 7)
        lin.accumulate(x.data(), acc.data(), b,
                       std::min<std::size_t>(b + 7, 1040));
    EXPECT_EQ(acc, full) << "7-wide chunks";
}

TEST(Linear, MacsCount)
{
    EXPECT_EQ(Linear(10, 7).macs(), 70u);
    EXPECT_EQ(Linear(1, 1).macs(), 1u);
}

TEST(Mlp, DimsAndLayerCount)
{
    Mlp mlp({80, 40, 20, 1});
    EXPECT_EQ(mlp.num_layers(), 3u);
    EXPECT_EQ(mlp.in_dim(), 80u);
    EXPECT_EQ(mlp.out_dim(), 1u);
    EXPECT_EQ(mlp.macs(), 80u * 40 + 40 * 20 + 20 * 1);
}

TEST(Mlp, RequiresTwoDims)
{
    EXPECT_THROW(Mlp({5}), std::invalid_argument);
}

TEST(Mlp, SingleLayerEqualsLinear)
{
    Rng rng(4);
    Mlp mlp({6, 3});
    mlp.init_glorot(rng);
    Vec x{1, -1, 2, -2, 0.5, 0};
    EXPECT_EQ(mlp.forward(x), mlp.layer(0).forward(x));
}

TEST(Mlp, ForwardIntoPingPongsMatchesForward)
{
    Rng rng(6);
    Mlp mlp({7, 13, 5, 9, 2}, Activation::kRelu);
    mlp.init_glorot(rng);
    EXPECT_EQ(mlp.max_hidden_dim(), 13u);
    Vec x(7);
    for (auto &v : x)
        v = static_cast<float>(rng.normal(0.0, 1.0));
    // Layer by layer through Linear::forward: the reference order.
    Vec want = x;
    for (std::size_t l = 0; l < mlp.num_layers(); ++l) {
        want = mlp.layer(l).forward(want);
        if (l + 1 < mlp.num_layers())
            apply_activation(want, Activation::kRelu);
    }
    Vec ping(mlp.max_hidden_dim()), pong(mlp.max_hidden_dim());
    Vec out(2);
    mlp.forward_into(x.data(), out.data(), ping.data(), pong.data());
    EXPECT_EQ(out, want);
    EXPECT_EQ(mlp.forward(x), want);
}

TEST(Mlp, HiddenActivationApplied)
{
    // Weights forcing a negative hidden pre-activation: ReLU must zero
    // it, so the output equals the final bias.
    Mlp mlp({1, 1, 1}, Activation::kRelu);
    mlp.layer(0).weight(0, 0) = -1.0f;
    mlp.layer(1).weight(0, 0) = 5.0f;
    mlp.layer(1).bias_ref() = {2.0f};
    Vec y = mlp.forward({3.0f});
    EXPECT_FLOAT_EQ(y[0], 2.0f);
}

TEST(Mlp, FinalActivationOptional)
{
    Mlp relu_out({1, 1}, Activation::kRelu, Activation::kRelu);
    relu_out.layer(0).weight(0, 0) = -1.0f;
    EXPECT_FLOAT_EQ(relu_out.forward({2.0f})[0], 0.0f);

    Mlp identity_out({1, 1}, Activation::kRelu, Activation::kIdentity);
    identity_out.layer(0).weight(0, 0) = -1.0f;
    EXPECT_FLOAT_EQ(identity_out.forward({2.0f})[0], -2.0f);
}

} // namespace
} // namespace flowgnn
