/**
 * @file
 * Dense row-major matrix and vector types used throughout the library.
 *
 * These are deliberately small and dependency-free: FlowGNN's workloads
 * are many small graphs with embedding dimensions of 16-100, so a
 * cache-friendly contiguous buffer with simple loops is both sufficient
 * and easy to keep bit-identical between the reference library and the
 * dataflow engine.
 */
#ifndef FLOWGNN_TENSOR_MATRIX_H
#define FLOWGNN_TENSOR_MATRIX_H

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace flowgnn {

/** Dense float vector. Alias kept simple so slices interoperate with STL. */
using Vec = std::vector<float>;

/**
 * Dense row-major matrix of floats.
 *
 * Rows are contiguous so a row can be exposed as a cheap span for the
 * per-node embedding operations that dominate GNN compute.
 */
class Matrix
{
  public:
    Matrix() = default;

    /** Creates a rows x cols matrix initialized to the given value. */
    Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f);

    Matrix(const Matrix &) = default;
    Matrix &operator=(const Matrix &) = default;
    /** A moved-from matrix is empty (0 x 0), never a shape without
     * storage. */
    Matrix(Matrix &&other) noexcept
        : rows_(std::exchange(other.rows_, 0)),
          cols_(std::exchange(other.cols_, 0)),
          data_(std::move(other.data_))
    {
        other.data_.clear();
    }

    Matrix &
    operator=(Matrix &&other) noexcept
    {
        rows_ = std::exchange(other.rows_, 0);
        cols_ = std::exchange(other.cols_, 0);
        data_ = std::move(other.data_);
        other.data_.clear();
        return *this;
    }

    /**
     * Reshapes to rows x cols. Element values are unspecified
     * afterwards; capacity is kept, so a workspace matrix reshaped per
     * graph or per layer stops allocating once it has seen its largest
     * shape.
     */
    void resize(std::size_t rows, std::size_t cols);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    float &
    operator()(std::size_t r, std::size_t c)
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    float
    operator()(std::size_t r, std::size_t c) const
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    /** Pointer to the first element of row r. */
    float *
    row(std::size_t r)
    {
        assert(r < rows_);
        return data_.data() + r * cols_;
    }

    const float *
    row(std::size_t r) const
    {
        assert(r < rows_);
        return data_.data() + r * cols_;
    }

    /** Copies row r into a standalone vector. */
    Vec row_vec(std::size_t r) const;

    /** Overwrites row r with the given vector (must match cols()). */
    void set_row(std::size_t r, const Vec &v);

    /** Sets every element to the given value. */
    void fill(float value);

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    bool operator==(const Matrix &other) const = default;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float> data_;
};

} // namespace flowgnn

#endif // FLOWGNN_TENSOR_MATRIX_H
