// Tests for the GeMM kernels, including bit-exact equivalence between
// the Anda integer datapath and the fake-quantized float path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "kernels/gemm.h"

namespace anda {
namespace {

Matrix
random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed,
              double scale = 1.0, double outlier_prob = 0.0)
{
    SplitMix64 rng(seed);
    Matrix m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            float v = static_cast<float>(rng.normal(0.0, scale));
            if (outlier_prob > 0 && rng.uniform() < outlier_prob) {
                v *= 30.0f;
            }
            m(r, c) = v;
        }
    }
    return m;
}

TEST(Gemm, MatmulMatchesDoubleReference)
{
    const Matrix a = random_matrix(9, 130, 1);
    const Matrix w = random_matrix(7, 130, 2);
    const Matrix fast = matmul_wt(a, w);
    const Matrix ref = gemm_ref(a, w);
    EXPECT_LT(max_abs_diff(fast, ref), 1e-3);
}

// Random values with the IEEE corner cases a reordered or fused
// accumulation would expose: -0.0f, subnormals, +-inf, and magnitudes
// whose products overflow. No NaN input: every NaN the GeMM makes is
// then the one default NaN, so results compare with memcmp.
Matrix
special_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    SplitMix64 rng(seed);
    Matrix m(rows, cols);
    for (float &v : m.flat()) {
        const double u = rng.uniform();
        if (u < 0.04) {
            v = -0.0f;
        } else if (u < 0.08) {
            v = static_cast<float>(rng.normal(0.0, 1.0)) * 1e-39f;
        } else if (u < 0.09) {
            // 1e20 * 1e20 overflows; 1e20 times a normal value does not.
            v = rng.uniform() < 0.5 ? 1e20f : -1e20f;
        } else if (u < 0.091) {
            v = rng.uniform() < 0.5 ? INFINITY : -INFINITY;
        } else {
            v = static_cast<float>(rng.normal(0.0, 1.0));
        }
    }
    return m;
}

// dot_f32 over every (token, output channel): the GeMM oracle.
Matrix
dot_f32_gemm(const Matrix &a, const Matrix &w)
{
    Matrix c(a.rows(), w.rows());
    for (std::size_t t = 0; t < a.rows(); ++t) {
        for (std::size_t n = 0; n < w.rows(); ++n) {
            c(t, n) = dot_f32(a.row(t).data(), w.row(n).data(), a.cols());
        }
    }
    return c;
}

bool
same_bits(const Matrix &x, const Matrix &y)
{
    return x.rows() == y.rows() && x.cols() == y.cols() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

TEST(Gemm, PanelMatmulMatchesDotF32BitForBit)
{
    std::string ran;
    for (const auto &variant : detail::panel_gemm_variants()) {
        if (!simd::isa_supported(variant.isa)) {
            continue;
        }
        ran += std::string(ran.empty() ? "" : ", ") +
               simd::isa_name(variant.isa);
        for (std::size_t k : {1u, 15u, 17u, 128u, 130u, 384u, 512u}) {
            for (std::size_t n : {1u, 17u, 33u}) {
                const Matrix w = special_matrix(n, k, 1000 + 7 * k + n);
                const WeightPanels panels(w);
                for (std::size_t m : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                      33u}) {
                    const Matrix a = special_matrix(m, k, 2000 + k + m);
                    const Matrix want = dot_f32_gemm(a, w);
                    Matrix got(m, n);
                    variant.run(a.data(), m, panels, 0, panels.panels(),
                                got.data());
                    EXPECT_TRUE(same_bits(got, want))
                        << simd::isa_name(variant.isa) << " m=" << m
                        << " n=" << n << " k=" << k;
                }
            }
        }
    }
    std::cout << "[ INFO     ] panel GeMM variants run: " << ran << "\n";
    ASSERT_FALSE(ran.empty());

    // The public overloads (dispatched, threaded, and packing a
    // row-major weight per call) give the same bits.
    const Matrix a = special_matrix(33, 130, 3);
    const Matrix w = special_matrix(33, 130, 4);
    const Matrix want = dot_f32_gemm(a, w);
    EXPECT_TRUE(same_bits(matmul_wt(a, w), want));
    EXPECT_TRUE(same_bits(matmul_wt(a, w, 1), want));
    EXPECT_TRUE(same_bits(matmul_wt(a, WeightPanels(w), 4), want));
}

// A W4 weight (group 128) whose values run through every INT4 value
// -8..7 in each row of at least 16 columns, and whose (row, group)
// scales cycle through 0, an FP16 subnormal and two normal FP16 values.
QuantizedWeight
w4_weight(std::size_t n, std::size_t k, std::uint64_t seed)
{
    SplitMix64 rng(seed);
    std::vector<std::int8_t> q(n * k);
    for (std::size_t i = 0; i < q.size(); ++i) {
        q[i] = static_cast<std::int8_t>(
            static_cast<int>((i * 7 + seed) % 16) - 8);
    }
    const std::size_t groups = (k + 127) / 128;
    std::vector<float> scales(n * groups);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t g = 0; g < groups; ++g) {
            float &s = scales[r * groups + g];
            switch ((r + g) % 4) {
            case 0:
                s = 0.0f;
                break;
            case 1:  // m * 2^-24, m < 2^10: an FP16 subnormal.
                s = std::ldexp(
                    static_cast<float>(1 + rng.uniform_index(1023)), -24);
                break;
            default:  // m * 2^-16, 2^10 <= m < 2^11: a normal FP16.
                s = std::ldexp(
                    static_cast<float>(1024 + rng.uniform_index(1024)),
                    -16);
                break;
            }
        }
    }
    return QuantizedWeight::from_values({128, 4, true}, n, k, std::move(q),
                                        std::move(scales));
}

TEST(Gemm, PackedW4PanelsMatchDequantizedBitForBit)
{
    std::string ran;
    for (const auto &variant : detail::panel_gemm_variants()) {
        if (!simd::isa_supported(variant.isa)) {
            continue;
        }
        ran += std::string(ran.empty() ? "" : ", ") +
               simd::isa_name(variant.isa);
        for (std::size_t k : {1u, 15u, 17u, 128u, 130u, 384u, 512u}) {
            for (std::size_t n : {1u, 17u, 33u}) {
                const QuantizedWeight w = w4_weight(n, k, 3000 + 7 * k + n);
                const Matrix dq = w.dequantize();
                const WeightPanels packed(w);
                const WeightPanels floats(dq);
                ASSERT_TRUE(packed.w4());
                for (std::size_t m : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                      33u}) {
                    const Matrix a = special_matrix(m, k, 4000 + k + m);
                    const Matrix want = dot_f32_gemm(a, dq);
                    Matrix got(m, n);
                    Matrix got_float(m, n);
                    // Panel 0, then the rest: each range writes only
                    // its own columns.
                    variant.run(a.data(), m, packed, 0, 1, got.data());
                    variant.run(a.data(), m, packed, 1, packed.panels(),
                                got.data());
                    variant.run(a.data(), m, floats, 0, floats.panels(),
                                got_float.data());
                    EXPECT_TRUE(same_bits(got, want))
                        << simd::isa_name(variant.isa) << " m=" << m
                        << " n=" << n << " k=" << k;
                    EXPECT_TRUE(same_bits(got, got_float))
                        << simd::isa_name(variant.isa) << " m=" << m
                        << " n=" << n << " k=" << k;
                }
            }
        }
    }
    std::cout << "[ INFO     ] W4 panel GeMM variants run: " << ran << "\n";
    ASSERT_FALSE(ran.empty());

    // The dispatched, threaded entry point gives the same bits at every
    // thread count: its chunks are panel ranges, so one- and few-row
    // taps split too.
    for (std::size_t m : {1u, 5u, 33u}) {
        const QuantizedWeight w = w4_weight(70, 130, 5);
        const Matrix a = special_matrix(m, 130, 6);
        const Matrix want = dot_f32_gemm(a, w.dequantize());
        const WeightPanels packed(w);
        for (std::size_t threads : {1u, 2u, 3u, 4u}) {
            EXPECT_TRUE(same_bits(matmul_wt(a, packed, threads), want))
                << "m=" << m << " threads=" << threads;
        }
    }

    // Wider weights do not fit a nibble; values outside the signed
    // range are rejected when assembled.
    EXPECT_THROW(WeightPanels(QuantizedWeight::quantize(
                     random_matrix(2, 64, 7), {64, 8, true})),
                 std::invalid_argument);
    EXPECT_THROW(QuantizedWeight::from_values({64, 4, true}, 1, 1, {8},
                                              {1.0f}),
                 std::invalid_argument);
}

TEST(Gemm, DotHandlesShortAndUnalignedLengths)
{
    SplitMix64 rng(3);
    for (std::size_t n : {0u, 1u, 7u, 15u, 16u, 17u, 33u, 100u}) {
        std::vector<float> a(n);
        std::vector<float> b(n);
        double ref = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            a[i] = static_cast<float>(rng.normal(0, 1));
            b[i] = static_cast<float>(rng.normal(0, 1));
            ref += static_cast<double>(a[i]) * b[i];
        }
        EXPECT_NEAR(dot_f32(a.data(), b.data(), n), ref, 1e-4)
            << "n=" << n;
    }
}

TEST(Gemm, Fp16PathErrorSmall)
{
    const Matrix a = random_matrix(8, 256, 4);
    const Matrix w = random_matrix(16, 256, 5, 0.06);
    const auto q = QuantizedWeight::quantize(w, {128, 4, true});
    const Matrix out = gemm_fp16_dequant(a, q);
    const Matrix ref = gemm_ref(a, q.dequantize());
    // Only activation FP16 rounding differs from the reference.
    EXPECT_LT(rms_diff(out, ref), 0.05);
}

TEST(Gemm, AndaMatchesFakeQuantBitExactWithoutGroupRounding)
{
    const Matrix a = random_matrix(6, 256, 6, 1.0, 0.05);
    const Matrix w = random_matrix(10, 256, 7, 0.06);
    const auto q = QuantizedWeight::quantize(w, {128, 4, true});
    for (int m : {2, 4, 6, 8, 11, 13}) {
        AndaGemmOptions opts;
        opts.mantissa_bits = m;
        opts.fp16_group_rounding = false;
        opts.fp16_output = false;
        const Matrix hw = gemm_anda(a, q, opts);
        const Matrix fq = gemm_bfp_fakequant(a, q, {kAndaGroupSize, m});
        // The integer path computes the same products; only float
        // summation order differs (integer group dots are exact, the
        // fake-quant path sums 64 floats). Tolerance covers that.
        EXPECT_LT(rms_diff(hw, fq), 2e-4) << "m=" << m;
    }
}

TEST(Gemm, AndaGroupDotMatchesScalarProducts)
{
    SplitMix64 rng(9);
    std::vector<float> vals(64);
    std::vector<std::int8_t> w(64);
    for (int i = 0; i < 64; ++i) {
        vals[static_cast<std::size_t>(i)] =
            static_cast<float>(rng.normal(0.0, 2.0));
        w[static_cast<std::size_t>(i)] =
            static_cast<std::int8_t>(static_cast<int>(rng.next() % 15) - 7);
    }
    for (int m : {1, 4, 8, 12, 16}) {
        const AndaTensor t = AndaTensor::encode(vals, m);
        const std::int64_t hw = anda_group_dot(t.group(0), m, w);
        std::int64_t ref = 0;
        for (int i = 0; i < 64; ++i) {
            const std::int64_t mant =
                t.mantissa_of(static_cast<std::size_t>(i));
            const std::int64_t s =
                t.sign_of(static_cast<std::size_t>(i)) ? -1 : 1;
            ref += s * mant * w[static_cast<std::size_t>(i)];
        }
        EXPECT_EQ(hw, ref) << "m=" << m;
    }
}

TEST(Gemm, AndaFp16GroupRoundingStaysClose)
{
    const Matrix a = random_matrix(4, 128, 10);
    const Matrix w = random_matrix(6, 128, 11, 0.08);
    const auto q = QuantizedWeight::quantize(w, {128, 4, true});
    AndaGemmOptions exact{8, false, false};
    AndaGemmOptions rounded{8, true, false};
    const Matrix e = gemm_anda(a, q, exact);
    const Matrix r = gemm_anda(a, q, rounded);
    // FP16 rounding of group partials adds bounded relative error.
    double max_rel = 0.0;
    for (std::size_t i = 0; i < e.size(); ++i) {
        const double denom = std::max(1.0, std::abs(double(e.flat()[i])));
        max_rel = std::max(
            max_rel, std::abs(double(e.flat()[i]) - r.flat()[i]) / denom);
    }
    EXPECT_LT(max_rel, 0.01);
}

// Reference gemm_anda built directly on the bit-serial anda_group_dot
// oracle, replicating the exact float scaling/accumulation sequence of
// the production kernel. The fast path must match it bit for bit.
Matrix
gemm_anda_bit_serial(const Matrix &a, const QuantizedWeight &q,
                     const AndaGemmOptions &opts)
{
    const std::size_t k = a.cols();
    const std::size_t n_groups =
        (k + kAndaGroupSize - 1) / kAndaGroupSize;
    Matrix c(a.rows(), q.rows());
    std::vector<std::int8_t> wbuf(kAndaGroupSize);
    for (std::size_t t = 0; t < a.rows(); ++t) {
        const AndaTensor act =
            AndaTensor::encode(a.row(t), opts.mantissa_bits);
        for (std::size_t n = 0; n < q.rows(); ++n) {
            const auto wrow = q.row(n);
            float acc = 0.0f;
            for (std::size_t g = 0; g < n_groups; ++g) {
                const std::size_t base = g * kAndaGroupSize;
                const std::size_t len =
                    std::min<std::size_t>(kAndaGroupSize, k - base);
                std::fill(wbuf.begin(), wbuf.end(), std::int8_t{0});
                std::copy_n(wrow.data() + base, len, wbuf.begin());
                const std::int64_t idot = anda_group_dot(
                    act.group(g), opts.mantissa_bits, wbuf);
                float gval =
                    static_cast<float>(idot) *
                    bfp_group_scale(act.group(g).shared_exponent,
                                    opts.mantissa_bits);
                if (opts.fp16_group_rounding) {
                    gval = fp16_round(gval);
                }
                acc += gval *
                       q.group_scale(
                           n, base / static_cast<std::size_t>(
                                         q.group_size()));
            }
            c(t, n) = opts.fp16_output ? fp16_round(acc) : acc;
        }
    }
    return c;
}

void
expect_bit_identical(const Matrix &fast, const Matrix &ref,
                     const std::string &label)
{
    ASSERT_EQ(fast.rows(), ref.rows());
    ASSERT_EQ(fast.cols(), ref.cols());
    for (std::size_t i = 0; i < fast.size(); ++i) {
        // EXPECT_EQ on floats: bit-identical (both paths produce the
        // same finite values, so -0.0/NaN corner cases do not apply).
        ASSERT_EQ(fast.flat()[i], ref.flat()[i])
            << label << " flat index " << i;
    }
}

TEST(Gemm, AndaFastPathBitExactVsBitSerialOracleAllMantissas)
{
    const Matrix a = random_matrix(5, 256, 20, 1.0, 0.05);
    const Matrix w = random_matrix(9, 256, 21, 0.06);
    const auto q = QuantizedWeight::quantize(w, {128, 4, true});
    for (int m = 1; m <= 16; ++m) {
        for (bool round_groups : {false, true}) {
            AndaGemmOptions opts;
            opts.mantissa_bits = m;
            opts.fp16_group_rounding = round_groups;
            opts.fp16_output = false;
            opts.threads = 1;
            expect_bit_identical(
                gemm_anda(a, q, opts), gemm_anda_bit_serial(a, q, opts),
                "m=" + std::to_string(m) +
                    " round=" + std::to_string(round_groups));
        }
    }
}

TEST(Gemm, AndaFastPathBitExactOnTrailingPartialGroup)
{
    // k = 100 leaves a 36-element trailing partial group; the weight
    // scale group (64) still divides the Anda group size.
    const Matrix a = random_matrix(7, 100, 22, 1.0, 0.05);
    const Matrix w = random_matrix(6, 100, 23, 0.07);
    const auto q = QuantizedWeight::quantize(w, {64, 4, true});
    for (int m : {1, 3, 8, 13, 16}) {
        AndaGemmOptions opts;
        opts.mantissa_bits = m;
        opts.fp16_output = true;
        opts.threads = 1;
        expect_bit_identical(gemm_anda(a, q, opts),
                             gemm_anda_bit_serial(a, q, opts),
                             "partial m=" + std::to_string(m));
    }
}

TEST(Gemm, AndaFastPathBitExactOnSubnormalInputs)
{
    Matrix a = random_matrix(4, 128, 24);
    for (float &v : a.flat()) {
        v *= 1e-41f;  // Well inside the FP32 subnormal range.
    }
    a(1, 5) = 0.0f;
    a(2, 0) = -0.0f;
    const Matrix w = random_matrix(5, 128, 25, 0.07);
    const auto q = QuantizedWeight::quantize(w, {128, 4, true});
    for (int m : {1, 4, 8, 16}) {
        for (bool round_groups : {false, true}) {
            AndaGemmOptions opts;
            opts.mantissa_bits = m;
            opts.fp16_group_rounding = round_groups;
            opts.fp16_output = false;
            opts.threads = 1;
            expect_bit_identical(
                gemm_anda(a, q, opts), gemm_anda_bit_serial(a, q, opts),
                "subnormal m=" + std::to_string(m));
        }
    }
}

TEST(Gemm, AndaThreadsKnobPreservesResults)
{
    const Matrix a = random_matrix(19, 192, 26, 1.0, 0.05);
    const Matrix w = random_matrix(11, 192, 27, 0.06);
    const auto q = QuantizedWeight::quantize(w, {192, 4, true});
    AndaGemmOptions serial;
    serial.threads = 1;
    const Matrix ref = gemm_anda(a, q, serial);
    for (std::size_t threads : {std::size_t{0}, std::size_t{2},
                                std::size_t{5}}) {
        AndaGemmOptions opts;
        opts.threads = threads;
        const Matrix out = gemm_anda(a, q, opts);
        expect_bit_identical(out, ref,
                             "threads=" + std::to_string(threads));
    }
}

TEST(Gemm, ShapeMismatchThrowsInsteadOfReadingOutOfBounds)
{
    // Death-free negative test: mismatched reduction dimensions must
    // throw in every build type (the old assert vanished in Release).
    const Matrix a = random_matrix(2, 64, 28);
    const Matrix w = random_matrix(3, 128, 29);
    const auto q = QuantizedWeight::quantize(w, {128, 4, true});
    EXPECT_THROW(matmul_wt(a, w), std::invalid_argument);
    EXPECT_THROW(gemm_ref(a, w), std::invalid_argument);
    EXPECT_THROW(gemm_fp16_dequant(a, q), std::invalid_argument);
    EXPECT_THROW(gemm_bfp_fakequant(a, q, {kAndaGroupSize, 8}),
                 std::invalid_argument);
    AndaGemmOptions opts;
    EXPECT_THROW(gemm_anda(a, q, opts), std::invalid_argument);
}

TEST(Gemm, AndaRejectsMisalignedWeightGroups)
{
    const Matrix a = random_matrix(2, 96, 12);
    const Matrix w = random_matrix(2, 96, 13);
    const auto q = QuantizedWeight::quantize(w, {96, 4, true});
    AndaGemmOptions opts;
    EXPECT_THROW(gemm_anda(a, q, opts), std::invalid_argument);
}

TEST(Gemm, HigherMantissaMonotonicallyImprovesGemmAccuracy)
{
    const Matrix a = random_matrix(8, 512, 14, 1.0, 0.05);
    const Matrix w = random_matrix(12, 512, 15, 0.05);
    const auto q = QuantizedWeight::quantize(w, {128, 4, true});
    const Matrix ref = gemm_ref(a, q.dequantize());
    double prev = 1e30;
    for (int m = 2; m <= 12; m += 2) {
        const Matrix out = gemm_bfp_fakequant(a, q, {kAndaGroupSize, m});
        const double err = rms_diff(out, ref);
        EXPECT_LE(err, prev * 1.05) << "m=" << m;
        prev = err;
    }
    // At m=13+ the conversion is nearly lossless vs FP16 activations.
    const Matrix out13 = gemm_bfp_fakequant(a, q, {kAndaGroupSize, 13});
    const Matrix fp16 = gemm_fp16_dequant(a, q);
    EXPECT_LT(rms_diff(out13, fp16), 0.02);
}

struct ShapeParam {
    std::size_t t, n, k;
};

class GemmShapeSweep : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(GemmShapeSweep, AllPathsAgreeOnShape)
{
    const auto [t, n, k] = GetParam();
    const Matrix a = random_matrix(t, k, 16 + t);
    const Matrix w = random_matrix(n, k, 17 + n, 0.07);
    const auto q = QuantizedWeight::quantize(
        w, {static_cast<int>(std::min<std::size_t>(128, k)), 4, true});
    const Matrix fp = gemm_fp16_dequant(a, q);
    EXPECT_EQ(fp.rows(), t);
    EXPECT_EQ(fp.cols(), n);
    if (k % 64 == 0) {
        AndaGemmOptions opts{10, false, false};
        const Matrix hw = gemm_anda(a, q, opts);
        EXPECT_LT(rms_diff(hw, fp), 0.05);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeSweep,
    ::testing::Values(ShapeParam{1, 1, 64}, ShapeParam{3, 5, 128},
                      ShapeParam{16, 16, 256}, ShapeParam{5, 3, 100},
                      ShapeParam{2, 8, 192}, ShapeParam{33, 9, 64}));

}  // namespace
}  // namespace anda
