#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace flowgnn {

float
max_abs_diff(const Vec &x, const Vec &y)
{
    if (x.size() != y.size())
        throw std::invalid_argument("max_abs_diff: size mismatch");
    float m = 0.0f;
    for (std::size_t i = 0; i < x.size(); ++i)
        m = std::max(m, std::abs(x[i] - y[i]));
    return m;
}

float
max_abs_diff(const Matrix &x, const Matrix &y)
{
    if (x.rows() != y.rows() || x.cols() != y.cols())
        throw std::invalid_argument("max_abs_diff: shape mismatch");
    float m = 0.0f;
    for (std::size_t i = 0; i < x.size(); ++i)
        m = std::max(m, std::abs(x.data()[i] - y.data()[i]));
    return m;
}

} // namespace flowgnn
