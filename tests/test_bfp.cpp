// Unit + property tests for the BFP conversion (paper Fig. 4 semantics).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "format/bfp.h"

namespace anda {
namespace {

TEST(Bfp, SharedExponentIsGroupMax)
{
    const std::vector<float> vals = {1.0f, 4.0f, 0.25f};
    const BfpGroup g = encode_bfp_group(vals, {3, 8});
    // 4.0 has biased exponent 15 + 2 = 17.
    EXPECT_EQ(g.shared_exponent, 17);
}

TEST(Bfp, ZerosStayExactlyZero)
{
    const std::vector<float> vals = {0.0f, -0.0f, 1000.0f, 0.0f};
    const auto out = bfp_roundtrip(vals, {4, 4});
    EXPECT_EQ(out[0], 0.0f);
    EXPECT_EQ(out[1], 0.0f);
    EXPECT_EQ(out[3], 0.0f);
}

TEST(Bfp, GroupSizeOneFullMantissaIsLosslessForFp16Values)
{
    SplitMix64 rng(7);
    for (int i = 0; i < 200; ++i) {
        const float v = fp16_round(
            static_cast<float>(rng.normal(0.0, 10.0)));
        const auto out = bfp_roundtrip(std::vector<float>{v}, {1, 11});
        EXPECT_EQ(out[0], v) << "i=" << i;
    }
}

TEST(Bfp, TruncationIsTowardZero)
{
    // 1.875 = significand 11110000000_2; with a 3-bit mantissa only the
    // top 3 bits survive -> 111 -> 1.75.
    const auto out = bfp_roundtrip(std::vector<float>{1.875f}, {1, 3});
    EXPECT_FLOAT_EQ(out[0], 1.75f);
    const auto neg = bfp_roundtrip(std::vector<float>{-1.875f}, {1, 3});
    EXPECT_FLOAT_EQ(neg[0], -1.75f);
}

TEST(Bfp, SmallValueFlushedByLargeGroupMax)
{
    // With an outlier 1024 = 2^10 and mantissa 4, a value of 1.0 needs a
    // 10-position shift; only 4 mantissa bits exist, so 1.0 truncates to
    // zero. This is exactly the outlier-induced precision loss the
    // paper's Fig. 4 illustrates.
    const std::vector<float> vals = {1024.0f, 1.0f};
    const auto out = bfp_roundtrip(vals, {2, 4});
    EXPECT_FLOAT_EQ(out[0], 1024.0f);
    EXPECT_FLOAT_EQ(out[1], 0.0f);
}

TEST(Bfp, ExtendedMantissaAbsorbsShift)
{
    // Same values with a 14-bit mantissa hold 1.0 exactly
    // (shift 10 <= 14 - 11 + headroom of the value's own bits).
    const std::vector<float> vals = {1024.0f, 1.0f};
    const auto out = bfp_roundtrip(vals, {2, 14});
    EXPECT_FLOAT_EQ(out[0], 1024.0f);
    EXPECT_FLOAT_EQ(out[1], 1.0f);
}

TEST(Bfp, SubnormalsAlignAtMinimumNormalExponent)
{
    const float sub = std::ldexp(3.0f, -24);  // subnormal FP16
    const auto out = bfp_roundtrip(std::vector<float>{sub}, {1, 11});
    EXPECT_EQ(out[0], sub);
}

TEST(Bfp, DecodeMatchesRoundtrip)
{
    SplitMix64 rng(11);
    std::vector<float> vals(64);
    for (auto &v : vals) {
        v = static_cast<float>(rng.normal(0.0, 3.0));
    }
    const BfpParams p{64, 7};
    const BfpGroup g = encode_bfp_group(vals, p);
    const auto direct = decode_bfp_group(g, p);
    const auto rt = bfp_roundtrip(vals, p);
    ASSERT_EQ(direct.size(), rt.size());
    for (std::size_t i = 0; i < rt.size(); ++i) {
        EXPECT_EQ(direct[i], rt[i]);
    }
}

TEST(Bfp, BitsPerElementAccounting)
{
    EXPECT_DOUBLE_EQ(bfp_bits_per_element({64, 7}), 1 + 7 + 8.0 / 64);
    EXPECT_DOUBLE_EQ(bfp_bits_per_element({1, 11}), 1 + 11 + 8.0);
}

TEST(Bfp, RoundtripRejectsBadParamsUpFront)
{
    std::vector<float> vals(8, 1.0f);
    std::vector<float> out(8);
    const std::span<const float> none;
    // Checked at entry: an empty span does not hide a bad configuration.
    EXPECT_THROW(bfp_roundtrip(none, std::span<float>(), {64, 0}),
                 std::invalid_argument);
    EXPECT_THROW(bfp_roundtrip(none, std::span<float>(), {0, 8}),
                 std::invalid_argument);
    EXPECT_THROW(bfp_roundtrip(vals, out, {64, 0}), std::invalid_argument);
    EXPECT_THROW(bfp_roundtrip(vals, out, {64, 32}),
                 std::invalid_argument);
    EXPECT_THROW(bfp_roundtrip(vals, out, {-1, 8}), std::invalid_argument);
    EXPECT_THROW(
        bfp_roundtrip(vals, std::span<float>(out.data(), 7), {64, 8}),
        std::invalid_argument);
    EXPECT_THROW((void)bfp_roundtrip(vals, {0, 8}), std::invalid_argument);
    EXPECT_NO_THROW(bfp_roundtrip(none, std::span<float>(), {64, 8}));
}

// Random activations with the cases the converter must keep exact:
// -0.0f, float subnormals (FP16 zero), FP16 subnormals, outliers, an
// all-zero second group, and in every fifth group one element that
// overflows FP16 or is +-inf or NaN (such a group's shared exponent is
// 31, which flushes every ordinary element, so most groups stay
// finite).
std::vector<float>
bfp_inputs(std::size_t n, std::size_t gs, std::uint64_t seed)
{
    SplitMix64 rng(seed);
    std::vector<float> v(n);
    for (float &x : v) {
        const double u = rng.uniform();
        const float z = static_cast<float>(rng.normal(0.0, 1.0));
        if (u < 0.04) {
            x = -0.0f;
        } else if (u < 0.07) {
            x = z * 1e-40f;
        } else if (u < 0.15) {
            x = z * 3e-6f;
        } else if (u < 0.2) {
            x = z * 200.0f;
        } else {
            x = z;
        }
    }
    for (std::size_t i = gs; i < std::min(n, 2 * gs); ++i) {
        v[i] = 0.0f;
    }
    const float specials[] = {1e5f, INFINITY, -INFINITY,
                              std::numeric_limits<float>::quiet_NaN()};
    for (std::size_t g = 2, j = 0; g * gs < n; g += 5, ++j) {
        v[std::min(n - 1, g * gs + j % gs)] = specials[j % 4];
    }
    return v;
}

// decode_bfp_group(encode_bfp_group(group)) per group: the oracle.
std::vector<float>
bfp_oracle(const std::vector<float> &in, const BfpParams &p)
{
    std::vector<float> out;
    const std::size_t gs = static_cast<std::size_t>(p.group_size);
    for (std::size_t base = 0; base < in.size(); base += gs) {
        const std::size_t len = std::min(gs, in.size() - base);
        const auto dec = decode_bfp_group(
            encode_bfp_group(
                std::span<const float>(in.data() + base, len), p),
            p);
        out.insert(out.end(), dec.begin(), dec.end());
    }
    return out;
}

TEST(Bfp, EveryRoundtripVariantMatchesEncodeDecodeOracle)
{
    std::string ran;
    for (const auto &variant : detail::bfp_roundtrip_variants()) {
        if (!simd::isa_supported(variant.isa)) {
            continue;
        }
        ran += std::string(ran.empty() ? "" : ", ") +
               simd::isa_name(variant.isa);
        for (int gs : {1, 7, 64, 100, 300}) {
            // At least eight full groups and a partial one.
            const std::size_t n = static_cast<std::size_t>(
                gs * std::max(8, 400 / gs) + gs / 2 + 1);
            const std::vector<float> in =
                bfp_inputs(n, static_cast<std::size_t>(gs),
                           static_cast<std::uint64_t>(gs));
            for (int m = 1; m <= 31; ++m) {
                const std::vector<float> want = bfp_oracle(in, {gs, m});
                std::vector<float> out(n);
                variant.run(in.data(), out.data(), n, gs, m);
                EXPECT_EQ(std::memcmp(out.data(), want.data(),
                                      n * sizeof(float)),
                          0)
                    << simd::isa_name(variant.isa) << " gs=" << gs
                    << " m=" << m;
                std::vector<float> alias(in);
                variant.run(alias.data(), alias.data(), n, gs, m);
                EXPECT_EQ(std::memcmp(alias.data(), want.data(),
                                      n * sizeof(float)),
                          0)
                    << simd::isa_name(variant.isa) << " in place gs=" << gs
                    << " m=" << m;
            }
        }
    }
    std::cout << "[ INFO     ] bfp_roundtrip variants run: " << ran
              << "\n";
    ASSERT_FALSE(ran.empty());
    // The dispatched entry point, in place.
    std::vector<float> buf = bfp_inputs(1000, 64, 5);
    const std::vector<float> want = bfp_oracle(buf, {64, 7});
    bfp_roundtrip(buf, buf, {64, 7});
    EXPECT_EQ(
        std::memcmp(buf.data(), want.data(), buf.size() * sizeof(float)),
        0);
}

struct BfpSweepParam {
    int group_size;
    int mantissa_bits;
};

class BfpPropertyTest
    : public ::testing::TestWithParam<BfpSweepParam> {};

TEST_P(BfpPropertyTest, ErrorBoundedByGroupScale)
{
    // |x - bfp(x)| < 2^(E* - 14 - M + shift-allowance): the truncation
    // error of any element is strictly below one unit of the group scale.
    const auto [gs, m] = GetParam();
    SplitMix64 rng(static_cast<std::uint64_t>(gs * 131 + m));
    std::vector<float> vals(256);
    for (auto &v : vals) {
        // Mix of magnitudes incl. outliers.
        v = static_cast<float>(rng.normal(0.0, 1.0));
        if (rng.uniform() < 0.05) {
            v *= 100.0f;
        }
    }
    const BfpParams p{gs, m};
    for (std::size_t base = 0; base < vals.size();
         base += static_cast<std::size_t>(gs)) {
        const std::size_t len = std::min<std::size_t>(
            static_cast<std::size_t>(gs), vals.size() - base);
        const std::span<const float> group(vals.data() + base, len);
        const BfpGroup enc = encode_bfp_group(group, p);
        const auto dec = decode_bfp_group(enc, p);
        const float ulp = bfp_group_scale(enc.shared_exponent, m);
        for (std::size_t i = 0; i < len; ++i) {
            const float orig = fp16_round(group[i]);
            EXPECT_LT(std::abs(orig - dec[i]), ulp)
                << "gs=" << gs << " m=" << m << " i=" << i;
            // Truncation never increases magnitude.
            EXPECT_LE(std::abs(dec[i]), std::abs(orig));
            // Sign is preserved (or value flushed to zero).
            if (dec[i] != 0.0f) {
                EXPECT_EQ(std::signbit(dec[i]), std::signbit(orig));
            }
        }
    }
}

TEST_P(BfpPropertyTest, MoreMantissaBitsNeverHurt)
{
    const auto [gs, m] = GetParam();
    if (m >= 13) {
        GTEST_SKIP() << "needs m+1 comparison headroom";
    }
    SplitMix64 rng(static_cast<std::uint64_t>(gs * 977 + m));
    std::vector<float> vals(128);
    for (auto &v : vals) {
        v = static_cast<float>(rng.normal(0.0, 2.0));
    }
    const auto lo = bfp_roundtrip(vals, {gs, m});
    const auto hi = bfp_roundtrip(vals, {gs, m + 1});
    double err_lo = 0.0;
    double err_hi = 0.0;
    for (std::size_t i = 0; i < vals.size(); ++i) {
        const float orig = fp16_round(vals[i]);
        err_lo += std::abs(orig - lo[i]);
        err_hi += std::abs(orig - hi[i]);
    }
    EXPECT_LE(err_hi, err_lo);
}

INSTANTIATE_TEST_SUITE_P(
    GroupAndMantissaSweep, BfpPropertyTest,
    ::testing::Values(BfpSweepParam{1, 4}, BfpSweepParam{1, 11},
                      BfpSweepParam{8, 4}, BfpSweepParam{8, 8},
                      BfpSweepParam{16, 6}, BfpSweepParam{32, 7},
                      BfpSweepParam{64, 4}, BfpSweepParam{64, 8},
                      BfpSweepParam{64, 11}, BfpSweepParam{64, 13},
                      BfpSweepParam{128, 5}, BfpSweepParam{256, 9}));

}  // namespace
}  // namespace anda
