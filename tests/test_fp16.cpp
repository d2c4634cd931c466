// Unit tests for the software IEEE binary16 implementation.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fp16.h"
#include "common/simd.h"

namespace anda {
namespace {

// The seed's branchy conversions, copied verbatim as the oracle of the
// branch-free ones (only the member accesses of to_float are spelled
// out on a raw bit pattern).
std::uint32_t
bits_of(float f)
{
    return std::bit_cast<std::uint32_t>(f);
}

float
float_of(std::uint32_t b)
{
    return std::bit_cast<float>(b);
}

constexpr std::int32_t kBias = Fp16::kBias;

std::uint16_t
oracle_from_float_bits(float value)
{
    const std::uint32_t f = bits_of(value);
    const std::uint32_t sign = (f >> 16) & 0x8000u;
    const std::int32_t exp32 = static_cast<std::int32_t>((f >> 23) & 0xff);
    std::uint32_t mant32 = f & 0x7fffffu;

    if (exp32 == 0xff) {
        // Inf or NaN. Preserve NaN-ness with a quiet mantissa bit.
        if (mant32 != 0) {
            return static_cast<std::uint16_t>(sign | 0x7e00u);
        }
        return static_cast<std::uint16_t>(sign | 0x7c00u);
    }

    // Unbiased exponent, re-biased for FP16.
    std::int32_t exp16 = exp32 - 127 + kBias;

    if (exp16 >= 0x1f) {
        // Overflow: round-to-nearest maps large values to infinity.
        return static_cast<std::uint16_t>(sign | 0x7c00u);
    }

    if (exp16 <= 0) {
        // Subnormal or zero. The significand (with hidden bit when the
        // source is normal) must be shifted right by (1 - exp16) extra
        // positions on top of the 13-bit narrowing shift.
        if (exp16 < -10) {
            return static_cast<std::uint16_t>(sign);  // Rounds to +-0.
        }
        std::uint32_t sig = mant32 | (exp32 == 0 ? 0u : 0x800000u);
        const int shift = 13 + (1 - exp16);
        const std::uint32_t kept = sig >> shift;
        const std::uint32_t round_bit = (sig >> (shift - 1)) & 1u;
        const std::uint32_t sticky =
            (sig & ((1u << (shift - 1)) - 1u)) != 0 ? 1u : 0u;
        std::uint32_t out = kept;
        if (round_bit && (sticky || (kept & 1u))) {
            ++out;  // May carry into the exponent field: that is correct.
        }
        return static_cast<std::uint16_t>(sign | out);
    }

    // Normal range: narrow the 23-bit mantissa to 10 bits with RNE.
    const std::uint32_t kept = mant32 >> 13;
    const std::uint32_t round_bit = (mant32 >> 12) & 1u;
    const std::uint32_t sticky = (mant32 & 0xfffu) != 0 ? 1u : 0u;
    std::uint32_t out =
        (static_cast<std::uint32_t>(exp16) << 10) | kept;
    if (round_bit && (sticky || (kept & 1u))) {
        ++out;  // Carry may bump the exponent (possibly to infinity).
    }
    return static_cast<std::uint16_t>(sign | out);
}

float
oracle_to_float(std::uint16_t bits)
{
    const std::uint32_t sign = static_cast<std::uint32_t>(bits & 0x8000u)
                               << 16;
    const int exp16 = (bits >> 10) & 0x1f;
    const std::uint32_t mant = static_cast<std::uint32_t>(bits & 0x3ff);

    if (exp16 == 0) {
        if (mant == 0) {
            return float_of(sign);  // Signed zero.
        }
        // Subnormal: value = mant * 2^-24. Normalize into float32.
        int e = 0;
        std::uint32_t m = mant;
        while ((m & 0x400u) == 0) {
            m <<= 1;
            --e;
        }
        m &= 0x3ffu;
        const std::uint32_t exp32 =
            static_cast<std::uint32_t>(e + 1 - kBias + 127);
        return float_of(sign | (exp32 << 23) | (m << 13));
    }
    if (exp16 == 0x1f) {
        return float_of(sign | 0x7f800000u | (mant << 13));
    }
    const std::uint32_t exp32 = static_cast<std::uint32_t>(exp16 - kBias + 127);
    return float_of(sign | (exp32 << 23) | (mant << 13));
}

float
oracle_round(float v)
{
    return oracle_to_float(oracle_from_float_bits(v));
}

// The float -> FP16 inputs the converter tests cover: every FP16 value,
// its float +-1-ulp neighbours, the round-to-nearest-even midpoint to
// the next FP16 value and that midpoint's neighbours, both signs, the
// 65504 / 65520 overflow boundaries, and a strided sweep of 2^24 bit
// patterns over all of float32 (NaNs, infinities and subnormals
// included).
std::vector<float>
converter_inputs()
{
    std::vector<float> v;
    v.reserve((1u << 24) + 6 * 0x10000 + 16);
    const auto with_neighbours = [&](float f) {
        v.push_back(f);
        v.push_back(std::nextafter(f, -INFINITY));
        v.push_back(std::nextafter(f, INFINITY));
    };
    for (std::uint32_t b = 0; b < 0x10000; ++b) {
        const float f = oracle_to_float(static_cast<std::uint16_t>(b));
        if (std::isnan(f)) {
            v.push_back(f);
            continue;
        }
        with_neighbours(f);
        if ((b & 0x7fffu) < 0x7c00u) {
            // Midpoint between this value and the next one away from
            // zero (exact in float: 12 significant bits).
            const float next =
                oracle_to_float(static_cast<std::uint16_t>(b + 1));
            with_neighbours(static_cast<float>(
                (static_cast<double>(f) + static_cast<double>(next)) / 2));
        }
    }
    for (float f : {65504.0f, 65520.0f, -65504.0f, -65520.0f}) {
        with_neighbours(f);
    }
    // Stride 2^8 with a varying low byte, so every mantissa bit moves.
    for (std::uint32_t i = 0; i < (1u << 24); ++i) {
        v.push_back(float_of((i << 8) | ((i * 0x9du) & 0xffu)));
    }
    return v;
}


TEST(Fp16, ZeroRoundTrips)
{
    EXPECT_EQ(Fp16(0.0f).bits(), 0x0000);
    EXPECT_EQ(Fp16(-0.0f).bits(), 0x8000);
    EXPECT_EQ(Fp16(0.0f).to_float(), 0.0f);
    EXPECT_TRUE(std::signbit(Fp16(-0.0f).to_float()));
}

TEST(Fp16, KnownEncodings)
{
    EXPECT_EQ(Fp16(1.0f).bits(), 0x3c00);
    EXPECT_EQ(Fp16(-2.0f).bits(), 0xc000);
    EXPECT_EQ(Fp16(0.5f).bits(), 0x3800);
    EXPECT_EQ(Fp16(65504.0f).bits(), 0x7bff);
    // Smallest positive normal: 2^-14.
    EXPECT_EQ(Fp16(6.103515625e-05f).bits(), 0x0400);
    // Smallest positive subnormal: 2^-24.
    EXPECT_EQ(Fp16(5.960464477539063e-08f).bits(), 0x0001);
}

TEST(Fp16, RoundsToNearestEven)
{
    // 1 + 2^-11 is exactly halfway between 1.0 and 1 + 2^-10:
    // must round to even mantissa (1.0).
    EXPECT_EQ(Fp16(1.0f + 0x1.0p-11f).bits(), 0x3c00);
    // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9: rounds up
    // to the even mantissa 1+2^-9.
    EXPECT_EQ(Fp16(1.0f + 3 * 0x1.0p-11f).bits(), 0x3c02);
    // Just above halfway rounds up.
    EXPECT_EQ(Fp16(1.0f + 0x1.02p-11f).bits(), 0x3c01);
}

TEST(Fp16, OverflowGoesToInfinity)
{
    EXPECT_TRUE(Fp16(1e6f).is_inf());
    EXPECT_TRUE(Fp16(-1e6f).is_inf());
    EXPECT_EQ(Fp16(1e6f).bits(), 0x7c00);
    // 65520 is the rounding boundary to infinity.
    EXPECT_TRUE(Fp16(65520.0f).is_inf());
    EXPECT_EQ(Fp16(65519.0f).bits(), 0x7bff);
}

TEST(Fp16, NanPropagates)
{
    EXPECT_TRUE(Fp16(std::numeric_limits<float>::quiet_NaN()).is_nan());
    EXPECT_TRUE(std::isnan(
        Fp16(std::numeric_limits<float>::quiet_NaN()).to_float()));
}

TEST(Fp16, SubnormalRoundTrip)
{
    // 2^-24 * k for k in [1, 1023] are exactly representable.
    for (std::uint32_t k = 1; k < 1024; k += 37) {
        const float v = std::ldexp(static_cast<float>(k), -24);
        const Fp16 h(v);
        EXPECT_EQ(h.to_float(), v) << "k=" << k;
        EXPECT_EQ(h.biased_exponent(), 0);
    }
}

TEST(Fp16, UnderflowFlushesToZeroWithRounding)
{
    // Below half the smallest subnormal rounds to zero.
    EXPECT_EQ(Fp16(std::ldexp(1.0f, -26)).bits(), 0x0000);
    // Exactly half the smallest subnormal: ties-to-even -> zero.
    EXPECT_EQ(Fp16(std::ldexp(1.0f, -25)).bits(), 0x0000);
    // Slightly above half rounds to the smallest subnormal.
    EXPECT_EQ(Fp16(std::ldexp(1.1f, -25)).bits(), 0x0001);
}

TEST(Fp16, AllBitPatternsRoundTripThroughFloat)
{
    // Every finite FP16 value widened to float and converted back must
    // reproduce its bit pattern (float32 is a superset).
    for (std::uint32_t b = 0; b < 0x10000; ++b) {
        const Fp16 h = Fp16::from_bits(static_cast<std::uint16_t>(b));
        if (h.is_nan()) {
            continue;  // NaN payloads are canonicalized.
        }
        const Fp16 back(h.to_float());
        EXPECT_EQ(back.bits(), h.bits()) << "bits=" << b;
    }
}

TEST(Fp16, SignificandIncludesHiddenBit)
{
    EXPECT_EQ(Fp16(1.0f).significand(), 1 << 10);
    EXPECT_EQ(Fp16(1.5f).significand(), (1 << 10) | (1 << 9));
    // Subnormals have no hidden bit.
    EXPECT_EQ(Fp16::from_bits(0x0001).significand(), 1);
}

TEST(Fp16, RoundHelperIsIdempotent)
{
    for (float v : {0.1f, 3.14159f, -123.456f, 1e-5f, 40000.0f}) {
        const float once = fp16_round(v);
        EXPECT_EQ(fp16_round(once), once);
    }
}

TEST(Fp16, ToFloatMatchesSeedOracleOnAllBitPatterns)
{
    // All 65,536 patterns, signalling-NaN payloads included: widening
    // must reproduce the oracle's float bits exactly.
    for (std::uint32_t b = 0; b < 0x10000; ++b) {
        const auto h = static_cast<std::uint16_t>(b);
        ASSERT_EQ(bits_of(Fp16::from_bits(h).to_float()),
                  bits_of(oracle_to_float(h)))
            << "bits=" << b;
    }
}

TEST(Fp16, FromFloatMatchesSeedOracle)
{
    for (const float f : converter_inputs()) {
        ASSERT_EQ(Fp16(f).bits(), oracle_from_float_bits(f))
            << "float bits=" << bits_of(f);
        ASSERT_EQ(bits_of(fp16_round(f)), bits_of(oracle_round(f)))
            << "float bits=" << bits_of(f);
    }
}

TEST(Fp16, EverySpanRoundVariantMatchesSeedOracle)
{
    const std::vector<float> in = converter_inputs();
    std::vector<float> want(in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
        want[i] = oracle_round(in[i]);
    }
    std::string ran;
    for (const auto &variant : detail::fp16_round_variants()) {
        if (!simd::isa_supported(variant.isa)) {
            continue;
        }
        ran += std::string(ran.empty() ? "" : ", ") +
               simd::isa_name(variant.isa);
        std::vector<float> out(in.size());
        variant.run(in.data(), out.data(), in.size());
        EXPECT_EQ(std::memcmp(out.data(), want.data(),
                              in.size() * sizeof(float)),
                  0)
            << simd::isa_name(variant.isa);
        // Short lengths (the zero-padded tail vector) and in place.
        for (std::size_t n = 0; n <= 33; ++n) {
            std::vector<float> buf(in.begin() + 1000,
                                   in.begin() + 1000 + n);
            variant.run(buf.data(), buf.data(), n);
            // An empty vector's data() may be null, which memcmp must
            // not see.
            EXPECT_TRUE(n == 0 ||
                        std::memcmp(buf.data(), want.data() + 1000,
                                    n * sizeof(float)) == 0)
                << simd::isa_name(variant.isa) << " n=" << n;
        }
    }
    std::cout << "[ INFO     ] fp16_round variants run: " << ran << "\n";
    ASSERT_FALSE(ran.empty());
    // The dispatched entry point, in place.
    std::vector<float> buf(in);
    fp16_round(buf, buf);
    EXPECT_EQ(
        std::memcmp(buf.data(), want.data(), in.size() * sizeof(float)),
        0);
    EXPECT_THROW(fp16_round(std::span<const float>(in.data(), 2),
                            std::span<float>(buf.data(), 3)),
                 std::invalid_argument);
}

class Fp16MonotonicTest : public ::testing::TestWithParam<int> {};

TEST_P(Fp16MonotonicTest, ConversionIsMonotonic)
{
    // Rounding must preserve ordering across a dense sweep around
    // different magnitudes.
    const float base = std::ldexp(1.0f, GetParam());
    float prev = -std::numeric_limits<float>::infinity();
    for (int i = 0; i < 1000; ++i) {
        const float v = base * (1.0f + static_cast<float>(i) * 1e-4f);
        const float r = fp16_round(v);
        EXPECT_GE(r, prev);
        prev = r;
    }
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, Fp16MonotonicTest,
                         ::testing::Values(-20, -14, -8, -1, 0, 1, 8, 14));

}  // namespace
}  // namespace anda
