/**
 * @file
 * Fully-connected (linear) layer with deterministic initialization.
 *
 * The forward pass is written in the same input-stationary order the
 * FlowGNN NT unit uses on the FPGA (each input element updates the
 * whole output vector), so reference and engine results are
 * bit-identical. Weights are stored input-major, so the row one input
 * element streams over is contiguous (see docs/DESIGN.md, "Host kernel
 * layout and the summation-order contract").
 */
#ifndef FLOWGNN_TENSOR_LINEAR_H
#define FLOWGNN_TENSOR_LINEAR_H

#include "tensor/matrix.h"
#include "tensor/rng.h"

namespace flowgnn {

/**
 * Linear layer: y = W x + b with W of shape [out_dim x in_dim], stored
 * transposed ([in_dim x out_dim]) in memory.
 */
class Linear
{
  public:
    Linear() = default;

    /** Creates a layer with zero weights. */
    Linear(std::size_t in_dim, std::size_t out_dim);

    /** Glorot-uniform initialization using the provided RNG stream
     * (draws W in (o, i) order, then the bias). */
    void init_glorot(Rng &rng);

    std::size_t in_dim() const { return in_dim_; }
    std::size_t out_dim() const { return out_dim_; }

    /**
     * Forward pass in input-stationary order: out starts at the bias
     * and each input element accumulates its weight column.
     */
    Vec forward(const Vec &x) const;

    /** Span forward: out[0, out_dim) = W x + b; x holds in_dim floats.
     * out must not alias x. */
    void forward_into(const float *x, float *out) const;

    /**
     * Partial input-stationary accumulation: folds inputs x[begin, end)
     * into acc[0, out_dim). Each acc[o] receives + W(o, i) * x[i] for
     * i = begin, begin + 1, ... strictly in that order, so a full range
     * starting from the bias equals forward() bit for bit, however the
     * range is split. The NT unit uses this to model Papply-wide
     * accumulation. acc must not alias x or the weights.
     */
    void accumulate(const float *x, float *acc, std::size_t begin,
                    std::size_t end) const;

    /** The bias; the starting value for accumulate. */
    const Vec &bias() const { return bias_; }
    Vec &bias_ref() { return bias_; }

    /** Weight W(o, i) (output o, input i). */
    float &weight(std::size_t o, std::size_t i) { return weight_(i, o); }
    float weight(std::size_t o, std::size_t i) const
    {
        return weight_(i, o);
    }

    /** Number of multiply-accumulate operations per forward pass. */
    std::size_t macs() const { return in_dim_ * out_dim_; }

  private:
    std::size_t in_dim_ = 0;
    std::size_t out_dim_ = 0;
    Matrix weight_; ///< input-major: row i is W(:, i), out_dim floats
    Vec bias_;
};

} // namespace flowgnn

#endif // FLOWGNN_TENSOR_LINEAR_H
