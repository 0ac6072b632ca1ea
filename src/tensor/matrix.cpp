#include "tensor/matrix.h"

#include <algorithm>
#include <stdexcept>

namespace flowgnn {

Matrix::Matrix(std::size_t rows, std::size_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
}

void
Matrix::resize(std::size_t rows, std::size_t cols)
{
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
}

Vec
Matrix::row_vec(std::size_t r) const
{
    assert(r < rows_);
    return Vec(row(r), row(r) + cols_);
}

void
Matrix::set_row(std::size_t r, const Vec &v)
{
    if (v.size() != cols_)
        throw std::invalid_argument("Matrix::set_row: dimension mismatch");
    std::copy(v.begin(), v.end(), row(r));
}

void
Matrix::fill(float value)
{
    std::fill(data_.begin(), data_.end(), value);
}

} // namespace flowgnn
