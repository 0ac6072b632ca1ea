#include "tensor/linear.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace flowgnn {

Linear::Linear(std::size_t in_dim, std::size_t out_dim)
    : in_dim_(in_dim), out_dim_(out_dim), weight_(in_dim, out_dim),
      bias_(out_dim, 0.0f)
{
}

void
Linear::init_glorot(Rng &rng)
{
    double limit = std::sqrt(6.0 / static_cast<double>(in_dim_ + out_dim_));
    for (std::size_t o = 0; o < out_dim_; ++o)
        for (std::size_t i = 0; i < in_dim_; ++i)
            weight(o, i) = static_cast<float>(rng.uniform(-limit, limit));
    for (auto &b : bias_)
        b = static_cast<float>(rng.uniform(-limit, limit) * 0.1);
}

Vec
Linear::forward(const Vec &x) const
{
    if (x.size() != in_dim_)
        throw std::invalid_argument("Linear: input dimension mismatch");
    Vec out(out_dim_);
    forward_into(x.data(), out.data());
    return out;
}

void
Linear::forward_into(const float *x, float *out) const
{
    std::copy(bias_.begin(), bias_.end(), out);
    accumulate(x, out, 0, in_dim_);
}

void
Linear::accumulate(const float *x, float *__restrict acc,
                   std::size_t begin, std::size_t end) const
{
    if (end > in_dim_ || begin > end)
        throw std::invalid_argument("Linear: bad accumulate range");
    // Input-stationary: each input element updates the entire output
    // vector, mirroring the NT unit's accumulate phase. Four inputs
    // are folded per sweep over acc (register blocking); within one
    // acc[o] the adds still run i, i+1, i+2, i+3 in order, and the
    // loop vectorizes across outputs only, never along i.
    const std::size_t n = out_dim_;
    std::size_t i = begin;
    for (; i + 4 <= end; i += 4) {
        const float *__restrict w0 = weight_.row(i);
        const float *__restrict w1 = w0 + n;
        const float *__restrict w2 = w1 + n;
        const float *__restrict w3 = w2 + n;
        const float x0 = x[i], x1 = x[i + 1], x2 = x[i + 2],
                    x3 = x[i + 3];
#pragma omp simd
        for (std::size_t o = 0; o < n; ++o) {
            float a = acc[o];
            a += w0[o] * x0;
            a += w1[o] * x1;
            a += w2[o] * x2;
            a += w3[o] * x3;
            acc[o] = a;
        }
    }
    for (; i < end; ++i) {
        const float *__restrict w = weight_.row(i);
        const float xi = x[i];
#pragma omp simd
        for (std::size_t o = 0; o < n; ++o)
            acc[o] += w[o] * xi;
    }
}

} // namespace flowgnn
