#pragma once

/// @file
/// Software implementation of IEEE 754 binary16 ("FP16").
///
/// The Anda pipeline starts from genuine FP16 activations (the W4A16
/// deployment format of the paper), so conversions must be bit-exact:
/// round-to-nearest-even on float32 -> float16, full subnormal support,
/// and lossless float16 -> float32 widening.
///
/// Both directions are branch-free float arithmetic plus bit selects
/// (`fp16_encode_bits` / `fp16_decode_bits`), written once over either
/// scalars or `vector_size` lanes (common/simd.h), so the scalar
/// `Fp16` API and every vectorized converter run the same code.
///
/// - float32 -> FP16: |f| * 2^112 * 2^-110 saturates overflow to
///   infinity. Adding a power of two 13 binades above it (never below
///   the FP16 subnormal binade) makes the FPU round the significand to
///   FP16 precision, round-to-nearest-even, and the FP16 exponent and
///   mantissa fields are read out of the sum. NaN becomes the quiet
///   NaN 0x7e00 with the input's sign.
/// - FP16 -> float32: normals re-bias by a multiply by 2^-112,
///   subnormals are (0.5 + m * 2^-24) - 0.5. Exponent 31 is selected,
///   not multiplied, so a signalling NaN keeps its payload.
///
/// The float steps rely on round-to-nearest, no flush-to-zero and no
/// contraction of a*b+c (the build passes -ffp-contract=off).

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/simd.h"

namespace anda {

/// Float32 -> FP16 bits (round-to-nearest-even) of a float or of each
/// lane of a float vector; `h` receives the 16-bit pattern in the low
/// half of each 32-bit lane. F is float / simd::f32xN and U the
/// matching std::uint32_t / simd::u32xN.
template <class F, class U>
[[gnu::always_inline]] inline void
fp16_encode_bits(const F &f, U &h)
{
    const U w = __builtin_bit_cast(U, f);
    const U shl1_w = w + w;
    const U sign = w & 0x80000000u;
    // Comparisons yield 0/1 on scalars and 0/-1 on vector lanes; & 1
    // then negation turns either into an all-ones select mask. (Only a
    // C-style cast converts both a bool and a vector comparison.)
    U bias = shl1_w & 0xff000000u;
    const U tiny = -((U)(bias < 0x71000000u) & 1u);
    bias = (bias & ~tiny) | (0x71000000u & tiny);
    const F mag = __builtin_bit_cast(F, w & 0x7fffffffu);
    F base = (mag * 0x1.0p+112f) * 0x1.0p-110f;
    base = __builtin_bit_cast(F, (bias >> 1) + 0x07800000u) + base;
    const U b = __builtin_bit_cast(U, base);
    const U nonsign = ((b >> 13) & 0x7c00u) + (b & 0x0fffu);
    const U nan = -((U)(shl1_w > 0xff000000u) & 1u);
    h = (sign >> 16) | (nonsign & ~nan) | (0x7e00u & nan);
}

/// FP16 bits (low 16 bits of each lane) -> float32, exact; the inverse
/// shape of fp16_encode_bits.
template <class U, class F>
[[gnu::always_inline]] inline void
fp16_decode_bits(const U &h, F &f)
{
    const U w = h << 16;
    const U sign = w & 0x80000000u;
    const U two_w = w + w;
    const F normal =
        __builtin_bit_cast(F, (two_w >> 4) + (0xe0u << 23)) * 0x1.0p-112f;
    const F subnormal =
        __builtin_bit_cast(F, (two_w >> 17) | (126u << 23)) - 0.5f;
    const U is_sub = -((U)(two_w < (1u << 27)) & 1u);
    const U is_special = -((U)(two_w >= 0xf8000000u) & 1u);
    const U finite = (__builtin_bit_cast(U, subnormal) & is_sub) |
                     (__builtin_bit_cast(U, normal) & ~is_sub);
    const U special = (two_w >> 4) | 0x7f800000u;
    f = __builtin_bit_cast(
        F, sign | (finite & ~is_special) | (special & is_special));
}

/// A 16-bit IEEE 754 binary16 value stored as its raw bit pattern.
///
/// 1 sign bit, 5 exponent bits (bias 15), 10 mantissa bits.
/// This is a plain value type: cheap to copy, trivially hashable.
class Fp16 {
  public:
    /// Number of explicit mantissa (fraction) bits in the format.
    static constexpr int kMantissaBits = 10;
    /// Number of exponent bits.
    static constexpr int kExponentBits = 5;
    /// Exponent bias.
    static constexpr int kBias = 15;

    constexpr Fp16() = default;

    /// Converts a float32 with IEEE round-to-nearest-even.
    explicit Fp16(float value)
    {
        std::uint32_t h;
        fp16_encode_bits(value, h);
        bits_ = static_cast<std::uint16_t>(h);
    }

    /// Wraps a raw bit pattern without conversion.
    static constexpr Fp16 from_bits(std::uint16_t bits)
    {
        Fp16 h;
        h.bits_ = bits;
        return h;
    }

    /// Widens to float32 (exact; every FP16 value is representable).
    float to_float() const
    {
        float f;
        fp16_decode_bits(static_cast<std::uint32_t>(bits_), f);
        return f;
    }

    /// Raw 16-bit pattern.
    constexpr std::uint16_t bits() const { return bits_; }

    /// Sign bit (1 = negative).
    constexpr int sign() const { return (bits_ >> 15) & 0x1; }

    /// Biased exponent field (0 = zero/subnormal, 31 = inf/NaN).
    constexpr int biased_exponent() const { return (bits_ >> 10) & 0x1f; }

    /// Raw 10-bit mantissa field (without the hidden bit).
    constexpr int mantissa_field() const { return bits_ & 0x3ff; }

    /// 11-bit significand including the hidden bit for normal numbers.
    /// For subnormals the hidden bit is 0.
    constexpr int significand() const
    {
        const int hidden = biased_exponent() == 0 ? 0 : 1;
        return (hidden << kMantissaBits) | mantissa_field();
    }

    constexpr bool is_zero() const { return (bits_ & 0x7fff) == 0; }
    constexpr bool is_subnormal() const
    {
        return biased_exponent() == 0 && mantissa_field() != 0;
    }
    constexpr bool is_inf() const
    {
        return biased_exponent() == 0x1f && mantissa_field() == 0;
    }
    constexpr bool is_nan() const
    {
        return biased_exponent() == 0x1f && mantissa_field() != 0;
    }

    friend constexpr bool operator==(Fp16 a, Fp16 b)
    {
        return a.bits_ == b.bits_;
    }

  private:
    std::uint16_t bits_ = 0;
};

/// Rounds a float32 through FP16 and back; the canonical "activations are
/// stored as FP16" operation applied throughout the model substrate.
inline float
fp16_round(float value)
{
    return Fp16(value).to_float();
}

/// fp16_round of every element of `in` into `out` (equal lengths; the
/// spans may alias). Runs the widest vector instantiation the host
/// supports; bit-identical to the scalar form.
void fp16_round(std::span<const float> in, std::span<float> out);

namespace detail {

/// Signature of one ISA instantiation of the span fp16_round.
using Fp16RoundFn = void(const float *in, float *out, std::size_t n);

/// Every instantiation, widest first (tests run each one the host
/// supports).
std::span<const simd::Variant<Fp16RoundFn>> fp16_round_variants();

}  // namespace detail

/// Largest finite FP16 value (65504).
constexpr float kFp16Max = 65504.0f;

}  // namespace anda
