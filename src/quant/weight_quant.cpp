#include "quant/weight_quant.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

#include "common/fp16.h"

namespace anda {

namespace {

/// Quantizes one group with a given scale; returns the squared error.
double
quantize_group(std::span<const float> w, float scale, int qmax,
               std::span<std::int8_t> out)
{
    double err = 0.0;
    const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
    for (std::size_t i = 0; i < w.size(); ++i) {
        int q = static_cast<int>(std::lround(w[i] * inv));
        q = std::clamp(q, -qmax, qmax);
        out[i] = static_cast<std::int8_t>(q);
        const double d = static_cast<double>(w[i]) -
                         static_cast<double>(q) * scale;
        err += d * d;
    }
    return err;
}

void
check_params(const WeightQuantParams &params)
{
    ANDA_CHECK_GE(params.group_size, 1, "group_size must be >= 1");
    ANDA_CHECK(params.bits >= 2 && params.bits <= 8,
               "weight bits must be in [2, 8]");
}

}  // namespace

QuantizedWeight
QuantizedWeight::quantize(const Matrix &w, const WeightQuantParams &params)
{
    check_params(params);
    QuantizedWeight out;
    out.params_ = params;
    out.rows_ = w.rows();
    out.cols_ = w.cols();
    const std::size_t gs = static_cast<std::size_t>(params.group_size);
    out.groups_per_row_ = (w.cols() + gs - 1) / gs;
    out.q_.resize(w.rows() * w.cols());
    out.scales_.resize(w.rows() * out.groups_per_row_);

    const int qmax = (1 << (params.bits - 1)) - 1;
    std::vector<std::int8_t> trial(gs);

    for (std::size_t r = 0; r < w.rows(); ++r) {
        const auto row = w.row(r);
        for (std::size_t g = 0; g < out.groups_per_row_; ++g) {
            const std::size_t base = g * gs;
            const std::size_t len = std::min(gs, w.cols() - base);
            const auto group = row.subspan(base, len);

            float absmax = 0.0f;
            for (float v : group) {
                absmax = std::max(absmax, std::abs(v));
            }

            float best_scale =
                fp16_round(absmax / static_cast<float>(qmax));
            std::span<std::int8_t> dst(out.q_.data() + r * w.cols() + base,
                                       len);
            if (absmax == 0.0f) {
                out.scales_[r * out.groups_per_row_ + g] = 0.0f;
                std::fill(dst.begin(), dst.end(), std::int8_t{0});
                continue;
            }

            if (params.clip_search) {
                double best_err = -1.0;
                for (int step = 0; step <= 6; ++step) {
                    const float ratio = 1.0f - 0.05f * step;  // 1.0..0.70
                    const float scale = fp16_round(
                        absmax * ratio / static_cast<float>(qmax));
                    if (scale == 0.0f) {
                        continue;
                    }
                    const double err = quantize_group(
                        group, scale, qmax,
                        std::span<std::int8_t>(trial.data(), len));
                    if (best_err < 0.0 || err < best_err) {
                        best_err = err;
                        best_scale = scale;
                        std::copy_n(trial.data(), len, dst.data());
                    }
                }
            } else {
                quantize_group(group, best_scale, qmax, dst);
            }
            out.scales_[r * out.groups_per_row_ + g] = best_scale;
        }
    }
    return out;
}

QuantizedWeight
QuantizedWeight::from_values(const WeightQuantParams &params,
                             std::size_t rows, std::size_t cols,
                             std::vector<std::int8_t> q,
                             std::vector<float> scales)
{
    check_params(params);
    QuantizedWeight out;
    out.params_ = params;
    out.rows_ = rows;
    out.cols_ = cols;
    const std::size_t gs = static_cast<std::size_t>(params.group_size);
    out.groups_per_row_ = (cols + gs - 1) / gs;
    ANDA_CHECK_EQ(q.size(), rows * cols,
                  "from_values: one value per (row, column)");
    ANDA_CHECK_EQ(scales.size(), rows * out.groups_per_row_,
                  "from_values: one scale per (row, group)");
    const int lo = -(1 << (params.bits - 1));
    for (const std::int8_t v : q) {
        ANDA_CHECK(v >= lo && v <= -lo - 1,
                   "from_values: value outside the signed bits range");
    }
    out.q_ = std::move(q);
    out.scales_ = std::move(scales);
    return out;
}

Matrix
QuantizedWeight::dequantize() const
{
    Matrix w(rows_, cols_);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t c = 0; c < cols_; ++c) {
            w(r, c) = static_cast<float>(q(r, c)) * scale(r, c);
        }
    }
    return w;
}

std::size_t
QuantizedWeight::storage_bits() const
{
    return q_.size() * static_cast<std::size_t>(params_.bits) +
           scales_.size() * 16;
}

}  // namespace anda
