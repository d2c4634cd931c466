#include "common/fp16.h"

#include <cstring>

#include "common/check.h"

namespace anda {

namespace {

template <class F, class U>
[[gnu::always_inline]] inline void
fp16_round_vector(F &f)
{
    U h;
    fp16_encode_bits(f, h);
    fp16_decode_bits(h, f);
}

// fp16_round over whole vectors of lanes; a short tail runs through a
// zero-padded vector.
template <class F, class U>
[[gnu::always_inline]] inline void
fp16_round_lanes(const float *in, float *out, std::size_t n)
{
    constexpr std::size_t kLanes = sizeof(F) / sizeof(float);
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        F f;
        std::memcpy(&f, in + i, sizeof f);
        fp16_round_vector<F, U>(f);
        std::memcpy(out + i, &f, sizeof f);
    }
    if (i < n) {
        F f = {};
        std::memcpy(&f, in + i, (n - i) * sizeof(float));
        fp16_round_vector<F, U>(f);
        std::memcpy(out + i, &f, (n - i) * sizeof(float));
    }
}

#if ANDA_SIMD_X86
ANDA_TARGET_AVX512F void
fp16_round_avx512f(const float *in, float *out, std::size_t n)
{
    fp16_round_lanes<simd::f32x16, simd::u32x16>(in, out, n);
}

ANDA_TARGET_AVX2 void
fp16_round_avx2(const float *in, float *out, std::size_t n)
{
    fp16_round_lanes<simd::f32x8, simd::u32x8>(in, out, n);
}
#endif

void
fp16_round_baseline(const float *in, float *out, std::size_t n)
{
    fp16_round_lanes<simd::f32x4, simd::u32x4>(in, out, n);
}

constexpr simd::Variant<detail::Fp16RoundFn> kFp16RoundVariants[] = {
#if ANDA_SIMD_X86
    {simd::Isa::kAvx512f, fp16_round_avx512f},
    {simd::Isa::kAvx2, fp16_round_avx2},
#endif
    {simd::Isa::kBaseline, fp16_round_baseline},
};

}  // namespace

std::span<const simd::Variant<detail::Fp16RoundFn>>
detail::fp16_round_variants()
{
    return kFp16RoundVariants;
}

void
fp16_round(std::span<const float> in, std::span<float> out)
{
    ANDA_CHECK_EQ(in.size(), out.size(), "fp16_round spans must match");
    static detail::Fp16RoundFn *const run =
        simd::widest_supported(detail::fp16_round_variants());
    run(in.data(), out.data(), in.size());
}

}  // namespace anda
