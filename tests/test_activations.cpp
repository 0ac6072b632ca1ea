/** @file Activation and softmax unit tests. */
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "tensor/activations.h"
#include "tensor/ops.h"

namespace flowgnn {
namespace {

TEST(Activations, ReluClampsNegatives)
{
    EXPECT_EQ(activate(-1.0f, Activation::kRelu), 0.0f);
    EXPECT_EQ(activate(2.5f, Activation::kRelu), 2.5f);
    EXPECT_EQ(activate(0.0f, Activation::kRelu), 0.0f);
}

TEST(Activations, LeakyReluUsesGatSlope)
{
    EXPECT_FLOAT_EQ(activate(-1.0f, Activation::kLeakyRelu), -0.2f);
    EXPECT_FLOAT_EQ(activate(3.0f, Activation::kLeakyRelu), 3.0f);
}

TEST(Activations, EluMatchesDefinition)
{
    EXPECT_FLOAT_EQ(activate(1.0f, Activation::kElu), 1.0f);
    EXPECT_NEAR(activate(-1.0f, Activation::kElu), std::expm1(-1.0f),
                1e-6f);
}

TEST(Activations, SigmoidAndTanhRangeAndSymmetry)
{
    EXPECT_FLOAT_EQ(activate(0.0f, Activation::kSigmoid), 0.5f);
    EXPECT_NEAR(activate(10.0f, Activation::kSigmoid), 1.0f, 1e-4f);
    EXPECT_FLOAT_EQ(activate(0.0f, Activation::kTanh), 0.0f);
    EXPECT_FLOAT_EQ(activate(-2.0f, Activation::kTanh),
                    -activate(2.0f, Activation::kTanh));
}

TEST(Activations, IdentityIsNoop)
{
    Vec x{-1, 0, 3};
    Vec before = x;
    apply_activation(x, Activation::kIdentity);
    EXPECT_EQ(x, before);
}

TEST(Activations, ApplyActivationMatchesScalar)
{
    Vec x{-2, -0.5, 0, 0.5, 2};
    for (auto act : {Activation::kRelu, Activation::kLeakyRelu,
                     Activation::kElu, Activation::kSigmoid,
                     Activation::kTanh}) {
        Vec v = x;
        apply_activation(v, act);
        for (std::size_t i = 0; i < x.size(); ++i)
            EXPECT_FLOAT_EQ(v[i], activate(x[i], act))
                << activation_name(act);
    }
}

TEST(Activations, NamesAreDistinct)
{
    EXPECT_STREQ(activation_name(Activation::kRelu), "relu");
    EXPECT_STRNE(activation_name(Activation::kElu),
                 activation_name(Activation::kTanh));
}

TEST(Softmax, SumsToOne)
{
    Vec p = softmax({1.0f, 2.0f, 3.0f});
    EXPECT_NEAR(std::accumulate(p.begin(), p.end(), 0.0f), 1.0f, 1e-6f);
    EXPECT_GT(p[2], p[1]);
    EXPECT_GT(p[1], p[0]);
}

TEST(Softmax, InvariantToConstantShift)
{
    Vec a = softmax({1.0f, 2.0f, 3.0f});
    Vec b = softmax({101.0f, 102.0f, 103.0f});
    EXPECT_LT(max_abs_diff(a, b), 1e-6f);
}

TEST(Softmax, StableForLargeInputs)
{
    Vec p = softmax({1000.0f, 1000.0f});
    EXPECT_NEAR(p[0], 0.5f, 1e-6f);
    EXPECT_FALSE(std::isnan(p[0]));
}

TEST(Softmax, UniformInputsUniformOutput)
{
    Vec p = softmax({4.0f, 4.0f, 4.0f, 4.0f});
    for (float v : p)
        EXPECT_NEAR(v, 0.25f, 1e-6f);
}

TEST(Softmax, EmptyInputYieldsEmpty)
{
    EXPECT_TRUE(softmax({}).empty());
}

} // namespace
} // namespace flowgnn
