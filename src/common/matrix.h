#pragma once

/// @file
/// Minimal dense row-major matrix used throughout the library.
///
/// The repository deliberately avoids a heavyweight tensor abstraction:
/// every workload in the paper is a 2-D GeMM (tokens x channels), so a
/// row-major float matrix plus std::span row views covers all needs.

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"

namespace anda {

/// Dense row-major matrix of float32.
class Matrix {
  public:
    Matrix() = default;

    /// Creates a rows x cols matrix initialized to zero.
    Matrix(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, 0.0f)
    {
    }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    float &operator()(std::size_t r, std::size_t c)
    {
        ANDA_DCHECK(r < rows_ && c < cols_, "Matrix index out of range");
        return data_[r * cols_ + c];
    }
    float operator()(std::size_t r, std::size_t c) const
    {
        ANDA_DCHECK(r < rows_ && c < cols_, "Matrix index out of range");
        return data_[r * cols_ + c];
    }

    /// Mutable view of one row.
    std::span<float> row(std::size_t r)
    {
        ANDA_DCHECK_LT(r, rows_, "Matrix row out of range");
        return {data_.data() + r * cols_, cols_};
    }
    std::span<const float> row(std::size_t r) const
    {
        ANDA_DCHECK_LT(r, rows_, "Matrix row out of range");
        return {data_.data() + r * cols_, cols_};
    }

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    std::span<float> flat() { return {data_.data(), data_.size()}; }
    std::span<const float> flat() const
    {
        return {data_.data(), data_.size()};
    }

    /// Moves the row-major storage out, leaving an empty matrix.
    std::vector<float> release()
    {
        rows_ = 0;
        cols_ = 0;
        return std::move(data_);
    }

    /// Reinterprets the first rows * cols elements as a [rows x cols]
    /// matrix and drops the rest, without reallocating.
    void reshape_prefix(std::size_t rows, std::size_t cols)
    {
        ANDA_CHECK_LE(rows * cols, data_.size(), "reshape grows matrix");
        rows_ = rows;
        cols_ = cols;
        data_.resize(rows * cols);
    }

    /// Fills every element with a constant.
    void fill(float v)
    {
        for (auto &x : data_) {
            x = v;
        }
    }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float> data_;
};

/// Maximum absolute elementwise difference between two same-shape matrices.
double max_abs_diff(const Matrix &a, const Matrix &b);

/// Root-mean-square elementwise difference between two same-shape matrices.
double rms_diff(const Matrix &a, const Matrix &b);

}  // namespace anda
