/**
 * @file
 * Comparison helpers over Vec and Matrix, used by tests and benches to
 * measure how far two executors' results are apart. (The layer kernels
 * compute in place on spans; see tensor/linear.h.)
 */
#ifndef FLOWGNN_TENSOR_OPS_H
#define FLOWGNN_TENSOR_OPS_H

#include "tensor/matrix.h"

namespace flowgnn {

/** Maximum absolute element-wise difference between two vectors. */
float max_abs_diff(const Vec &x, const Vec &y);

/** Maximum absolute element-wise difference between two matrices. */
float max_abs_diff(const Matrix &x, const Matrix &y);

} // namespace flowgnn

#endif // FLOWGNN_TENSOR_OPS_H
