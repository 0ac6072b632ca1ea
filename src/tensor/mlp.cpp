#include "tensor/mlp.h"

#include <algorithm>
#include <stdexcept>

namespace flowgnn {

Mlp::Mlp(const std::vector<std::size_t> &dims, Activation hidden_activation,
         Activation final_activation)
    : hidden_activation_(hidden_activation),
      final_activation_(final_activation)
{
    if (dims.size() < 2)
        throw std::invalid_argument("Mlp: need at least two dims");
    for (std::size_t i = 0; i + 1 < dims.size(); ++i)
        layers_.emplace_back(dims[i], dims[i + 1]);
}

void
Mlp::init_glorot(Rng &rng)
{
    for (auto &layer : layers_)
        layer.init_glorot(rng);
}

Vec
Mlp::forward(const Vec &x) const
{
    if (x.size() != in_dim())
        throw std::invalid_argument("Mlp: input dimension mismatch");
    Vec out(out_dim());
    Vec ping(max_hidden_dim()), pong(max_hidden_dim());
    forward_into(x.data(), out.data(), ping.data(), pong.data());
    return out;
}

void
Mlp::forward_into(const float *x, float *out, float *ping,
                  float *pong) const
{
    const float *h = x;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        const bool is_last = (i + 1 == layers_.size());
        float *y = is_last ? out : (i % 2 == 0 ? ping : pong);
        layers_[i].forward_into(h, y);
        apply_activation(y, layers_[i].out_dim(),
                         is_last ? final_activation_ : hidden_activation_);
        h = y;
    }
}

std::size_t
Mlp::max_hidden_dim() const
{
    std::size_t widest = 0;
    for (std::size_t i = 0; i + 1 < layers_.size(); ++i)
        widest = std::max(widest, layers_[i].out_dim());
    return widest;
}

std::size_t
Mlp::in_dim() const
{
    return layers_.empty() ? 0 : layers_.front().in_dim();
}

std::size_t
Mlp::out_dim() const
{
    return layers_.empty() ? 0 : layers_.back().out_dim();
}

std::size_t
Mlp::macs() const
{
    std::size_t total = 0;
    for (const auto &layer : layers_)
        total += layer.macs();
    return total;
}

} // namespace flowgnn
