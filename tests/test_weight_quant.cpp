// Tests for the weight-only INT4 quantizer (W4A16g128 substrate).

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "quant/weight_quant.h"

namespace anda {
namespace {

Matrix
random_weights(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    SplitMix64 rng(seed);
    Matrix w(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            w(r, c) = static_cast<float>(
                rng.normal(0.0, 1.0 / std::sqrt(double(cols))));
        }
    }
    return w;
}

TEST(WeightQuant, ValuesStayInSymmetricRange)
{
    const Matrix w = random_weights(8, 256, 1);
    const auto q = QuantizedWeight::quantize(w, {128, 4, true});
    for (std::size_t r = 0; r < q.rows(); ++r) {
        for (std::size_t c = 0; c < q.cols(); ++c) {
            EXPECT_GE(q.q(r, c), -7);
            EXPECT_LE(q.q(r, c), 7);
        }
    }
    EXPECT_EQ(q.groups_per_row(), 2u);
}

TEST(WeightQuant, ReconstructionErrorBounded)
{
    const Matrix w = random_weights(16, 512, 2);
    const auto q = QuantizedWeight::quantize(w, {128, 4, true});
    const Matrix d = q.dequantize();
    for (std::size_t r = 0; r < w.rows(); ++r) {
        // Per group, the error of any element is at most ~scale/2 (plus
        // clipping, which the search only accepts when it lowers MSE).
        for (std::size_t c = 0; c < w.cols(); ++c) {
            const float scale = q.scale(r, c);
            EXPECT_LE(std::abs(w(r, c) - d(r, c)), scale * 4.0f + 1e-7f);
        }
    }
}

TEST(WeightQuant, ClipSearchNeverWorseThanPlainRtn)
{
    SplitMix64 rng(3);
    Matrix w(4, 256);
    for (std::size_t r = 0; r < w.rows(); ++r) {
        for (std::size_t c = 0; c < w.cols(); ++c) {
            w(r, c) = static_cast<float>(rng.normal(0.0, 0.05));
            // Inject rare huge weights that make plain RTN waste range.
            if (rng.uniform() < 0.01) {
                w(r, c) *= 40.0f;
            }
        }
    }
    auto mse = [&](const QuantizedWeight &q) {
        const Matrix d = q.dequantize();
        double s = 0.0;
        for (std::size_t i = 0; i < w.size(); ++i) {
            const double e = w.flat()[i] - d.flat()[i];
            s += e * e;
        }
        return s;
    };
    const double with_clip =
        mse(QuantizedWeight::quantize(w, {128, 4, true}));
    const double without =
        mse(QuantizedWeight::quantize(w, {128, 4, false}));
    EXPECT_LE(with_clip, without + 1e-12);
}

TEST(WeightQuant, ZeroGroupHasZeroScale)
{
    Matrix w(1, 128);
    w.fill(0.0f);
    const auto q = QuantizedWeight::quantize(w, {128, 4, true});
    EXPECT_EQ(q.group_scale(0, 0), 0.0f);
    const Matrix d = q.dequantize();
    for (float v : d.flat()) {
        EXPECT_EQ(v, 0.0f);
    }
}

TEST(WeightQuant, StorageBitsAccounting)
{
    const Matrix w = random_weights(4, 256, 9);
    const auto q = QuantizedWeight::quantize(w, {128, 4, true});
    // 4*256 weights * 4b + 4 rows * 2 groups * 16b scales.
    EXPECT_EQ(q.storage_bits(), 4u * 256u * 4u + 4u * 2u * 16u);
}

TEST(WeightQuant, RejectsBadParams)
{
    const Matrix w = random_weights(2, 64, 4);
    EXPECT_THROW(QuantizedWeight::quantize(w, {0, 4, true}),
                 std::invalid_argument);
    EXPECT_THROW(QuantizedWeight::quantize(w, {64, 1, true}),
                 std::invalid_argument);
    EXPECT_THROW(QuantizedWeight::quantize(w, {64, 9, true}),
                 std::invalid_argument);
}

class WeightBitsSweep : public ::testing::TestWithParam<int> {};

TEST_P(WeightBitsSweep, HigherBitsLowerError)
{
    const int bits = GetParam();
    const Matrix w = random_weights(8, 256, 11);
    auto mse = [&](int b) {
        const auto q = QuantizedWeight::quantize(w, {128, b, false});
        const Matrix d = q.dequantize();
        double s = 0.0;
        for (std::size_t i = 0; i < w.size(); ++i) {
            const double e = w.flat()[i] - d.flat()[i];
            s += e * e;
        }
        return s;
    };
    EXPECT_LT(mse(bits + 1), mse(bits));
}

INSTANTIATE_TEST_SUITE_P(Bits, WeightBitsSweep,
                         ::testing::Values(2, 3, 4, 5, 6, 7));

}  // namespace
}  // namespace anda
