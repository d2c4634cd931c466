#include "format/bfp.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"

namespace anda {

namespace {

/// Effective biased exponent of an FP16 value: subnormals live at the
/// minimum normal exponent (1) with hidden bit 0.
inline int
effective_exponent(Fp16 h)
{
    const int e = h.biased_exponent();
    return e == 0 ? 1 : e;
}

}  // namespace

BfpGroup
encode_bfp_group(std::span<const float> values, const BfpParams &params)
{
    ANDA_CHECK(params.mantissa_bits >= 1 && params.mantissa_bits < 32,
               "BFP mantissa length out of range");
    BfpGroup group;
    group.elems.resize(values.size());

    // Pass 1: find the shared (maximum effective) exponent.
    int max_exp = 1;
    std::vector<Fp16> halves(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        halves[i] = Fp16(values[i]);
        if (!halves[i].is_zero()) {
            max_exp = std::max(max_exp, effective_exponent(halves[i]));
        }
    }
    group.shared_exponent = max_exp;

    // Pass 2: align each significand to the shared exponent and truncate
    // to the mantissa length. total_shift < 0 means headroom bits (the
    // extended-mantissa case); shifts are saturated so that large
    // exponent distances cleanly flush to zero.
    const int m = params.mantissa_bits;
    for (std::size_t i = 0; i < values.size(); ++i) {
        const Fp16 h = halves[i];
        BfpElement &e = group.elems[i];
        e.sign = static_cast<std::uint8_t>(h.sign());
        if (h.is_zero()) {
            e.mantissa = 0;
            e.shift = 0;
            continue;
        }
        const int dist = max_exp - effective_exponent(h);
        const int total_shift = dist + (Fp16::kMantissaBits + 1 - m);
        e.shift = static_cast<std::uint8_t>(std::min(dist, 31));
        const std::uint32_t sig =
            static_cast<std::uint32_t>(h.significand());
        if (total_shift >= 32) {
            e.mantissa = 0;
        } else if (total_shift >= 0) {
            e.mantissa = sig >> total_shift;
        } else {
            e.mantissa = sig << (-total_shift);
        }
        ANDA_DCHECK(m >= 32 ||
                        e.mantissa < (static_cast<std::uint32_t>(1) << m),
                    "BFP mantissa overflows its bit budget");
    }
    return group;
}

float
bfp_group_scale(int shared_exponent, int mantissa_bits)
{
    // value = mantissa * 2^(E* - bias - kMantissaBits + (11 - m))
    //       = mantissa * 2^(E* - 14 - m)
    return std::ldexp(1.0f, shared_exponent - 14 - mantissa_bits);
}

std::vector<float>
decode_bfp_group(const BfpGroup &group, const BfpParams &params)
{
    const float scale =
        bfp_group_scale(group.shared_exponent, params.mantissa_bits);
    std::vector<float> out(group.elems.size());
    for (std::size_t i = 0; i < group.elems.size(); ++i) {
        const BfpElement &e = group.elems[i];
        const float mag = static_cast<float>(e.mantissa) * scale;
        out[i] = e.sign ? -mag : mag;
    }
    return out;
}

namespace {

// Pass 1 on one vector: FP16 bits of the lanes (parked in `h`) and the
// running per-lane maximum of their biased exponents.
template <class F, class U>
[[gnu::always_inline]] inline void
bfp_encode_lanes(const F &f, U &h, U &emax)
{
    fp16_encode_bits(f, h);
    const U e = (h >> 10) & 0x1fu;
    const U gt = -((U)(e > emax) & 1u);
    emax = (e & gt) | (emax & ~gt);
}

// Pass 2 on one vector of FP16 bits: the lane's significand aligned to
// the group exponent and truncated to m bits, times the group scale,
// with the FP16 sign XORed back in. `align_bias` is 116 + m - emax, so
// that eff + align_bias is the biased float exponent of
// 2^-(emax - eff + 11 - m), the right shift of encode_bfp_group.
// Every step is exact: significand * 2^-shift is a power-of-two scaling
// of an 11-bit integer (a normal float), its truncation is the shifted
// integer mantissa (< 2^31), and mantissa * scale only rounds by
// overflowing to infinity, exactly as decode does.
template <class F, class U, class I>
[[gnu::always_inline]] inline void
bfp_decode_lanes(U &h, std::uint32_t align_bias, float scale)
{
    const U e = (h >> 10) & 0x1fu;
    const U normal = -((U)(e != 0u) & 1u);
    const U sig = (h & 0x3ffu) | (normal & 0x400u);
    const U eff = e | (~normal & 1u);  // Subnormals align at exponent 1.
    const F aligned =
        __builtin_convertvector(__builtin_bit_cast(I, sig), F) *
        __builtin_bit_cast(F, (eff + align_bias) << 23);
    const F mag = __builtin_convertvector(
                      __builtin_convertvector(aligned, I), F) *
                  scale;
    h = __builtin_bit_cast(U, mag) ^ ((h & 0x8000u) << 16);
}

// bfp_roundtrip over groups of `gs`: one pass writes each element's
// FP16 bits into `out` while reducing the exponent maximum, a second
// rewrites them as dequantized BFP values. Reading every input element
// before its output slot is written keeps in == out safe. A group's
// short last vector runs zero-padded (zeros never raise the maximum).
template <class F, class U, class I>
[[gnu::always_inline]] inline void
bfp_roundtrip_lanes(const float *in, float *out, std::size_t n,
                    std::size_t gs, int m)
{
    constexpr std::size_t kLanes = sizeof(F) / sizeof(float);
    for (std::size_t base = 0; base < n; base += gs) {
        const std::size_t len = gs < n - base ? gs : n - base;
        float *gout = out + base;
        U emax_lanes = {};
        std::size_t i = 0;
        for (; i + kLanes <= len; i += kLanes) {
            F f;
            U h;
            std::memcpy(&f, in + base + i, sizeof f);
            bfp_encode_lanes(f, h, emax_lanes);
            std::memcpy(gout + i, &h, sizeof h);
        }
        if (i < len) {
            F f = {};
            U h;
            std::memcpy(&f, in + base + i, (len - i) * sizeof(float));
            bfp_encode_lanes(f, h, emax_lanes);
            std::memcpy(gout + i, &h, (len - i) * sizeof(float));
        }
        std::uint32_t emax = 1;
        for (std::size_t l = 0; l < kLanes; ++l) {
            emax = emax_lanes[l] > emax ? emax_lanes[l] : emax;
        }
        const int e = static_cast<int>(emax);
        const auto align_bias = static_cast<std::uint32_t>(116 + m - e);
        const float scale = bfp_group_scale(e, m);
        for (i = 0; i + kLanes <= len; i += kLanes) {
            U h;
            std::memcpy(&h, gout + i, sizeof h);
            bfp_decode_lanes<F, U, I>(h, align_bias, scale);
            std::memcpy(gout + i, &h, sizeof h);
        }
        if (i < len) {
            U h = {};
            std::memcpy(&h, gout + i, (len - i) * sizeof(float));
            bfp_decode_lanes<F, U, I>(h, align_bias, scale);
            std::memcpy(gout + i, &h, (len - i) * sizeof(float));
        }
    }
}

#if ANDA_SIMD_X86
ANDA_TARGET_AVX512F void
bfp_roundtrip_avx512f(const float *in, float *out, std::size_t n, int gs,
                      int m)
{
    bfp_roundtrip_lanes<simd::f32x16, simd::u32x16, simd::i32x16>(
        in, out, n, static_cast<std::size_t>(gs), m);
}

ANDA_TARGET_AVX2 void
bfp_roundtrip_avx2(const float *in, float *out, std::size_t n, int gs,
                   int m)
{
    bfp_roundtrip_lanes<simd::f32x8, simd::u32x8, simd::i32x8>(
        in, out, n, static_cast<std::size_t>(gs), m);
}
#endif

void
bfp_roundtrip_baseline(const float *in, float *out, std::size_t n, int gs,
                       int m)
{
    bfp_roundtrip_lanes<simd::f32x4, simd::u32x4, simd::i32x4>(
        in, out, n, static_cast<std::size_t>(gs), m);
}

constexpr simd::Variant<detail::BfpRoundtripFn> kBfpRoundtripVariants[] = {
#if ANDA_SIMD_X86
    {simd::Isa::kAvx512f, bfp_roundtrip_avx512f},
    {simd::Isa::kAvx2, bfp_roundtrip_avx2},
#endif
    {simd::Isa::kBaseline, bfp_roundtrip_baseline},
};

}  // namespace

std::span<const simd::Variant<detail::BfpRoundtripFn>>
detail::bfp_roundtrip_variants()
{
    return kBfpRoundtripVariants;
}

void
bfp_roundtrip(std::span<const float> input, std::span<float> output,
              const BfpParams &params)
{
    ANDA_CHECK_EQ(input.size(), output.size(),
                  "BFP round-trip spans must match");
    // Checked here, not per group, so that an empty span cannot hide a
    // bad configuration.
    ANDA_CHECK_GE(params.group_size, 1, "BFP group size must be positive");
    ANDA_CHECK(params.mantissa_bits >= 1 && params.mantissa_bits < 32,
               "BFP mantissa length out of range");
    static detail::BfpRoundtripFn *const run =
        simd::widest_supported(detail::bfp_roundtrip_variants());
    run(input.data(), output.data(), input.size(), params.group_size,
        params.mantissa_bits);
}

std::vector<float>
bfp_roundtrip(std::span<const float> input, const BfpParams &params)
{
    std::vector<float> out(input.size());
    bfp_roundtrip(input, std::span<float>(out), params);
    return out;
}

double
bfp_bits_per_element(const BfpParams &params)
{
    // sign + mantissa + amortized 8-bit exponent word per group.
    return 1.0 + params.mantissa_bits +
           8.0 / static_cast<double>(params.group_size);
}

}  // namespace anda
