#pragma once

/// @file
/// Weight-only post-training quantization (the W4A16g128 substrate).
///
/// Weights are quantized per output row in groups of `group_size` along
/// the reduction dimension to symmetric INT4 with an FP16 scale per
/// group. A per-group clip-ratio grid search minimizes reconstruction
/// MSE -- the learned-clipping mechanism of Omniquant/AWQ without
/// backprop (see DESIGN.md substitution #6).

#include <cstdint>
#include <span>
#include <vector>

#include "common/matrix.h"

namespace anda {

/// Parameters of the weight quantizer.
struct WeightQuantParams {
    /// Values per scale group along the reduction (column) dimension.
    int group_size = 128;
    /// Quantized bit-width (symmetric signed range).
    int bits = 4;
    /// If true, grid-search a clip ratio in [0.7, 1.0] per group.
    bool clip_search = true;
};

/// A weight matrix quantized to grouped symmetric INT values.
///
/// Logical layout matches the dense weight: rows = output channels,
/// cols = reduction dimension. q(r, c) in [-(2^(bits-1)-1), 2^(bits-1)-1].
class QuantizedWeight {
  public:
    QuantizedWeight() = default;

    /// Quantizes a dense matrix.
    static QuantizedWeight quantize(const Matrix &w,
                                    const WeightQuantParams &params);

    /// Assembles a quantized weight from row-major integer values
    /// [rows x cols] and per-(row, group) scales, for values the
    /// quantizer never emits (the two's-complement minimum, a zero
    /// scale over nonzero values). Values may span the full signed
    /// `bits`-bit range. Throws std::invalid_argument on a size or
    /// range mismatch.
    static QuantizedWeight from_values(const WeightQuantParams &params,
                                       std::size_t rows, std::size_t cols,
                                       std::vector<std::int8_t> q,
                                       std::vector<float> scales);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    int group_size() const { return params_.group_size; }
    int bits() const { return params_.bits; }
    std::size_t groups_per_row() const { return groups_per_row_; }

    /// Quantized integer value of element (r, c).
    std::int8_t q(std::size_t r, std::size_t c) const
    {
        return q_[r * cols_ + c];
    }

    /// FP16-rounded scale of the group containing column c in row r.
    float scale(std::size_t r, std::size_t c) const
    {
        return scales_[r * groups_per_row_ +
                       c / static_cast<std::size_t>(params_.group_size)];
    }

    /// Scale of group g in row r.
    float group_scale(std::size_t r, std::size_t g) const
    {
        return scales_[r * groups_per_row_ + g];
    }

    /// Row view of quantized integers.
    std::span<const std::int8_t> row(std::size_t r) const
    {
        return {q_.data() + r * cols_, cols_};
    }

    /// Reconstructs the dequantized dense matrix (what an FP16 pipeline
    /// computes with after weight dequantization).
    Matrix dequantize() const;

    /// Storage bits: bits per weight + 16-bit scale per group.
    std::size_t storage_bits() const;

  private:
    WeightQuantParams params_;
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::size_t groups_per_row_ = 0;
    std::vector<std::int8_t> q_;
    std::vector<float> scales_;
};

}  // namespace anda
