/** @file Matrix / vector-op unit tests. */
#include <gtest/gtest.h>

#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace flowgnn {
namespace {

TEST(Matrix, ConstructionAndFill)
{
    Matrix m(3, 4, 1.5f);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 4u);
    EXPECT_EQ(m.size(), 12u);
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            EXPECT_EQ(m(r, c), 1.5f);
    m.fill(-2.0f);
    EXPECT_EQ(m(2, 3), -2.0f);
}

TEST(Matrix, DefaultIsEmpty)
{
    Matrix m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.rows(), 0u);
}

TEST(Matrix, RowAccessIsContiguous)
{
    Matrix m(2, 3);
    m(1, 0) = 1.0f;
    m(1, 1) = 2.0f;
    m(1, 2) = 3.0f;
    const float *row = m.row(1);
    EXPECT_EQ(row[0], 1.0f);
    EXPECT_EQ(row[2], 3.0f);
    Vec v = m.row_vec(1);
    EXPECT_EQ(v, (Vec{1.0f, 2.0f, 3.0f}));
}

TEST(Matrix, SetRowValidatesDimension)
{
    Matrix m(2, 3);
    m.set_row(0, {1, 2, 3});
    EXPECT_EQ(m(0, 1), 2.0f);
    EXPECT_THROW(m.set_row(0, {1, 2}), std::invalid_argument);
}

TEST(Matrix, EqualityIsElementwise)
{
    Matrix a(2, 2, 1.0f), b(2, 2, 1.0f);
    EXPECT_EQ(a, b);
    b(1, 1) = 2.0f;
    EXPECT_NE(a, b);
}

TEST(Ops, SizeMismatchThrows)
{
    Vec y{1, 2}, x{1, 2, 3};
    EXPECT_THROW(max_abs_diff(y, x), std::invalid_argument);
}

TEST(Ops, MaxAbsDiffVectorsAndMatrices)
{
    EXPECT_FLOAT_EQ(max_abs_diff(Vec{1, 2}, Vec{1, 2}), 0.0f);
    EXPECT_FLOAT_EQ(max_abs_diff(Vec{1, 2}, Vec{0, 5}), 3.0f);
    Matrix a(2, 2, 1.0f), b(2, 2, 1.0f);
    b(0, 1) = -1.0f;
    EXPECT_FLOAT_EQ(max_abs_diff(a, b), 2.0f);
    Matrix c(3, 2);
    EXPECT_THROW(max_abs_diff(a, c), std::invalid_argument);
}

} // namespace
} // namespace flowgnn
