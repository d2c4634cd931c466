#include "llm/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"

// The vector exp replicates glibc's expf, so it is built only where
// std::exp(float) is glibc's (since 2.27) on x86-64; elsewhere every
// variant calls std::exp.
#if defined(__x86_64__) && defined(__GLIBC__)
#if __GLIBC_PREREQ(2, 27)
#define ANDA_GLIBC_EXPF 1
#endif
#endif
#ifndef ANDA_GLIBC_EXPF
#define ANDA_GLIBC_EXPF 0
#endif

#if ANDA_GLIBC_EXPF
#include <immintrin.h>
#endif

namespace anda {

void
layer_norm(std::span<const float> x, std::span<const float> gain,
           std::span<float> out, float eps)
{
    ANDA_DCHECK(x.size() == gain.size() && x.size() == out.size(),
                "norm spans must share one length");
    double sum = 0.0;
    for (float v : x) {
        sum += v;
    }
    const double m = sum / static_cast<double>(x.size());
    double var = 0.0;
    for (float v : x) {
        var += (v - m) * (v - m);
    }
    var /= static_cast<double>(x.size());
    const float inv = 1.0f / std::sqrt(static_cast<float>(var) + eps);
    for (std::size_t i = 0; i < x.size(); ++i) {
        out[i] = (x[i] - static_cast<float>(m)) * inv * gain[i];
    }
}

void
rms_norm(std::span<const float> x, std::span<const float> gain,
         std::span<float> out, float eps)
{
    ANDA_DCHECK(x.size() == gain.size() && x.size() == out.size(),
                "norm spans must share one length");
    double sq = 0.0;
    for (float v : x) {
        sq += static_cast<double>(v) * v;
    }
    const float inv = 1.0f / std::sqrt(static_cast<float>(
                                           sq / static_cast<double>(
                                                    x.size())) +
                                       eps);
    for (std::size_t i = 0; i < x.size(); ++i) {
        out[i] = x[i] * inv * gain[i];
    }
}

void
softmax_inplace(std::span<float> x)
{
    if (x.empty()) {
        return;
    }
    float mx = x[0];
    for (float v : x) {
        mx = std::max(mx, v);
    }
    double sum = 0.0;
    for (float &v : x) {
        v = std::exp(v - mx);
        sum += v;
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (float &v : x) {
        v *= inv;
    }
}

float
silu(float x)
{
    return x / (1.0f + std::exp(-x));
}

void
rope_inplace(std::span<float> head, int pos)
{
    ANDA_DCHECK_EQ(head.size() % 2, 0u,
                   "RoPE head dimension must be even");
    const std::size_t half = head.size() / 2;
    for (std::size_t i = 0; i < half; ++i) {
        const double freq =
            std::pow(10000.0, -2.0 * static_cast<double>(i) /
                                  static_cast<double>(head.size()));
        const double angle = static_cast<double>(pos) * freq;
        const float c = static_cast<float>(std::cos(angle));
        const float s = static_cast<float>(std::sin(angle));
        const float a = head[i];
        const float b = head[i + half];
        head[i] = a * c - b * s;
        head[i + half] = a * s + b * c;
    }
}

void
rope_angles(std::span<const std::size_t> pos, std::size_t head_dim,
            std::span<float> cos_sin)
{
    ANDA_DCHECK_EQ(head_dim % 2, 0u, "RoPE head dimension must be even");
    ANDA_DCHECK_EQ(cos_sin.size(), pos.size() * head_dim,
                   "RoPE angle table shape mismatch");
    const std::size_t half = head_dim / 2;
    std::vector<double> freq(half);
    for (std::size_t i = 0; i < half; ++i) {
        freq[i] = std::pow(10000.0, -2.0 * static_cast<double>(i) /
                                        static_cast<double>(head_dim));
    }
    for (std::size_t t = 0; t < pos.size(); ++t) {
        float *cs = cos_sin.data() + t * head_dim;
        for (std::size_t i = 0; i < half; ++i) {
            const double angle = static_cast<double>(pos[t]) * freq[i];
            cs[i] = static_cast<float>(std::cos(angle));
            cs[half + i] = static_cast<float>(std::sin(angle));
        }
    }
}

void
rope_rotate(std::span<float> row, std::span<const float> cos_sin)
{
    const std::size_t hd = cos_sin.size();
    ANDA_DCHECK(hd % 2 == 0 && row.size() % hd == 0,
                "RoPE row is not a whole number of even heads");
    const std::size_t half = hd / 2;
    for (std::size_t h = 0; h < row.size(); h += hd) {
        float *head = row.data() + h;
        for (std::size_t i = 0; i < half; ++i) {
            const float c = cos_sin[i];
            const float s = cos_sin[half + i];
            const float a = head[i];
            const float b = head[i + half];
            head[i] = a * c - b * s;
            head[i + half] = a * s + b * c;
        }
    }
}

namespace {

// ---- The softmax exp ----
//
// The baseline variant calls std::exp per element (ExpLibm). The wider
// ones run glibc's expf (sysdeps/ieee754/flt-32/e_expf.c, in the
// __expf_fma build that x86-64 glibc picks on AVX2+FMA hosts) with one
// double lane per element (ExpLanes): with z = x * 32 / ln2, k = z
// rounded to an integer and r = z - k,
// exp(x) = 2^(k/32) * (1 + C2 r + C1 r^2 + C0 r^3), where 2^(k/32) is
// a table entry for k mod 32 with k's high bits added to its exponent
// field. The FMAs sit where GCC contracts glibc's source under -mfma,
// so each lane rounds exactly as that expf does.

// Calls std::exp one element at a time.
struct ExpLibm {};

#if ANDA_GLIBC_EXPF
// Float lanes F (with their comparison mask I), and the double lanes D
// and 64-bit integer lanes U of the same lane count.
template <class F, class I, class D, class U>
struct ExpLanes {
    using Float = F;
    using Mask = I;
    using Double = D;
    using Bits = U;
};
using ExpAvx2 =
    ExpLanes<simd::f32x4, simd::i32x4, simd::f64x4, simd::u64x4>;
using ExpAvx512f =
    ExpLanes<simd::f32x8, simd::i32x8, simd::f64x8, simd::u64x8>;

// glibc's __exp2f_data: 2^(i/32) as double bits minus i << 47, the
// scaled 1/ln2 and rounding shift, and the cubic's coefficients
// divided by 32^3, 32^2 and 32.
constexpr std::uint64_t kExp2Table[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};
constexpr double kInvLn2N = 0x1.71547652b82fep0 * 32;
constexpr double kShift = 0x1.8p52;
constexpr double kC0 = 0x1.c6af84b912394p-5 / (32.0 * 32.0 * 32.0);
constexpr double kC1 = 0x1.ebfce50fac4f3p-3 / (32.0 * 32.0);
constexpr double kC2 = 0x1.62e42ff0c52d6p-1 / 32.0;

// out = a * b + c with one rounding, per lane. Not always_inline: GCC
// refuses to inline a function with a target attribute into the
// untargeted templates that call it, but inlines it once those are
// inlined into a variant; the vectors travel by reference either way.
ANDA_TARGET_AVX2 inline void
fma_lanes(const simd::f64x4 &a, const simd::f64x4 &b, const simd::f64x4 &c,
          simd::f64x4 &out)
{
    out = (simd::f64x4)_mm256_fmadd_pd((__m256d)a, (__m256d)b, (__m256d)c);
}

ANDA_TARGET_AVX512F inline void
fma_lanes(const simd::f64x8 &a, const simd::f64x8 &b, const simd::f64x8 &c,
          simd::f64x8 &out)
{
    out = (simd::f64x8)_mm512_fmadd_pd((__m512d)a, (__m512d)b, (__m512d)c);
}

// t = kExp2Table[i] per lane: four loads, as a gather is no faster,
// and far slower on CPUs with the gather-data-sampling microcode fix.
[[gnu::always_inline]] inline void
exp2_table(const simd::u64x4 &i, simd::u64x4 &t)
{
    t = simd::u64x4{kExp2Table[i[0]], kExp2Table[i[1]], kExp2Table[i[2]],
                    kExp2Table[i[3]]};
}

ANDA_TARGET_AVX512F inline void
exp2_table(const simd::u64x8 &i, simd::u64x8 &t)
{
    // Two-source permutes of the table's quarters (index bits 0-3),
    // then bit 4 picks the half: cheaper than a gather.
    __m512i q[4];
    std::memcpy(q, kExp2Table, sizeof q);
    const __m512i idx = (__m512i)i;
    const __m512i lo = _mm512_permutex2var_epi64(q[0], idx, q[1]);
    const __m512i hi = _mm512_permutex2var_epi64(q[2], idx, q[3]);
    t = (simd::u64x8)_mm512_mask_blend_epi64(
        _mm512_test_epi64_mask(idx, _mm512_set1_epi64(16)), lo, hi);
}

// y = expf(x) per lane; y may be x.
template <class E>
[[gnu::always_inline]] inline void
expf_lanes(const typename E::Float &x, typename E::Float &y)
{
    using F = typename E::Float;
    using I = typename E::Mask;
    using D = typename E::Double;
    using U = typename E::Bits;
    const D xd = __builtin_convertvector(x, D);
    D kd;
    fma_lanes(xd, D{} + kInvLn2N, D{} + kShift, kd);
    U ki;
    std::memcpy(&ki, &kd, sizeof ki);
    kd -= kShift;
    D r;
    fma_lanes(xd, D{} + kInvLn2N, -kd, r);
    U t;
    exp2_table(ki & 31u, t);
    t += ki << 47;
    D s;
    std::memcpy(&s, &t, sizeof s);
    D z;
    D p;
    fma_lanes(r, D{} + kC0, D{} + kC1, z);
    fma_lanes(r, D{} + kC2, D{} + 1.0, p);
    fma_lanes(z, r * r, p, p);
    // glibc's special cases: +0 below log(2^-150) and at -inf, +inf
    // above log(2^128) and at +inf, and NaN in gives NaN (x + x).
    const I under = x < -0x1.9fe368p6f;
    const I over = x > 0x1.62e42ep6f;
    const I nan = x != x;
    const I inf = (I)(F{} + INFINITY);
    const I nan_out = (I)(x + x);
    const I e = (I)__builtin_convertvector(p * s, F);
    y = (F)((e & ~(under | over | nan)) | (inf & over) | (nan_out & nan));
}
#else
using ExpAvx2 = ExpLibm;
using ExpAvx512f = ExpLibm;
#endif

// v = p[0, m) and zeros after, m <= lanes of F; a whole vector is one
// load.
template <class F>
[[gnu::always_inline]] inline void
load_lanes(const float *p, std::size_t m, F &v)
{
    if (m == sizeof(F) / sizeof(float)) {
        std::memcpy(&v, p, sizeof v);
    } else {
        v = F{};
        for (std::size_t l = 0; l < m; ++l) {
            v[l] = p[l];
        }
    }
}

// p[0, m) = the first m lanes of v.
template <class F>
[[gnu::always_inline]] inline void
store_lanes(const F &v, std::size_t m, float *p)
{
    if (m == sizeof(F) / sizeof(float)) {
        std::memcpy(p, &v, sizeof v);
    } else {
        for (std::size_t l = 0; l < m; ++l) {
            p[l] = v[l];
        }
    }
}

// b = mask ? a : b per lane.
template <class V, class I>
[[gnu::always_inline]] inline void
select_lanes(const I &mask, const V &a, V &b)
{
    b = (V)(((I)a & mask) | ((I)b & ~mask));
}

// Maximum of x[0, n), n > 0, as softmax_inplace's std::max sequence
// finds it: a NaN x[0] is the result and any later NaN is skipped.
// Only the sign of a zero maximum can differ, which no x[j] - max
// shows.
template <class V>
[[gnu::always_inline]] inline float
row_max(const float *x, std::size_t n)
{
    constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
    float mx = x[0];
    std::size_t j = 0;
    if (n >= kLanes) {
        V m = V{} + mx;
        for (; j + kLanes <= n; j += kLanes) {
            V v;
            std::memcpy(&v, x + j, sizeof v);
            select_lanes(m < v, v, m);
        }
        for (std::size_t l = 0; l < kLanes; ++l) {
            mx = std::max(mx, m[l]);
        }
    }
    for (; j < n; ++j) {
        mx = std::max(mx, x[j]);
    }
    return mx;
}

// x[j] = expf(x[j] - mx) for j < n.
template <class E>
[[gnu::always_inline]] inline void
exp_shifted(float *x, std::size_t n, float mx)
{
    if constexpr (std::is_same_v<E, ExpLibm>) {
        for (std::size_t j = 0; j < n; ++j) {
            x[j] = std::exp(x[j] - mx);
        }
    } else {
        constexpr std::size_t kLanes =
            sizeof(typename E::Float) / sizeof(float);
        for (std::size_t j = 0; j < n; j += kLanes) {
            const std::size_t m = std::min(kLanes, n - j);
            typename E::Float v;
            load_lanes(x + j, m, v);
            v -= mx;
            expf_lanes<E>(v, v);
            store_lanes(v, m, x + j);
        }
    }
}

// Softmax of R score rows in place (row r holds vis[r] scores at
// s + r * stride; vis is non-decreasing), each bit-identical to
// softmax_inplace: maximum and normalisation in V lanes (both exact),
// exp in E's lanes, and each row's sum sequential in double,
// ascending. A row's sum is a chain of dependent additions, so the
// R rows' chains are interleaved to overlap.
template <class E, class V, int R>
[[gnu::always_inline]] inline void
softmax_rows(float *s, std::size_t stride, const std::size_t (&vis)[R])
{
    constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
    if (vis[0] == 0) {
        return;  // No keys: every row is empty.
    }
    for (int r = 0; r < R; ++r) {
        float *x = s + r * stride;
        exp_shifted<E>(x, vis[r], row_max<V>(x, vis[r]));
    }
    double sum[R] = {};
    for (std::size_t j = 0; j < vis[0]; ++j) {
        for (int r = 0; r < R; ++r) {
            sum[r] += s[r * stride + j];
        }
    }
    for (int r = 1; r < R; ++r) {
        for (std::size_t j = vis[0]; j < vis[r]; ++j) {
            sum[r] += s[r * stride + j];
        }
    }
    for (int r = 0; r < R; ++r) {
        float *x = s + r * stride;
        const float inv = static_cast<float>(1.0 / sum[r]);
        std::size_t j = 0;
        for (; j + kLanes <= vis[r]; j += kLanes) {
            V v;
            std::memcpy(&v, x + j, sizeof v);
            v *= inv;
            std::memcpy(x + j, &v, sizeof v);
        }
        for (; j < vis[r]; ++j) {
            x[j] *= inv;
        }
    }
}

template <class E, class V>
[[gnu::always_inline]] inline void
softmax_row(std::span<float> x)
{
    const std::size_t vis[1] = {x.size()};
    softmax_rows<E, V, 1>(x.data(), 0, vis);
}

// up[i] = silu(gate[i]) * up[i] with E's exp.
template <class E>
[[gnu::always_inline]] inline void
swiglu_lanes(std::span<const float> gate, std::span<float> up)
{
    if constexpr (std::is_same_v<E, ExpLibm>) {
        for (std::size_t i = 0; i < up.size(); ++i) {
            up[i] = silu(gate[i]) * up[i];
        }
    } else {
        using F = typename E::Float;
        constexpr std::size_t kLanes = sizeof(F) / sizeof(float);
        const std::size_t n = up.size();
        for (std::size_t i = 0; i < n; i += kLanes) {
            const std::size_t m = std::min(kLanes, n - i);
            F g;
            F u;
            load_lanes(gate.data() + i, m, g);
            load_lanes(up.data() + i, m, u);
            F e;
            expf_lanes<E>(-g, e);
            u = g / (1.0f + e) * u;
            store_lanes(u, m, up.data() + i);
        }
    }
}

// Keys per transposed block: one f32x16, two f32x8 or four f32x4.
constexpr std::size_t kKeyBlock = 16;

// Writes K of one head transposed block by block: block b holds
// channel c of keys [16b, 16b + 16) at kt[(b * head_dim + c) * 16], so
// a score tile streams each block contiguously. Keys past kv_len are
// zero. Full 4x4 sub-blocks go through a register transpose.
[[gnu::always_inline]] inline void
transpose_keys(std::span<const float *const> k, std::size_t col,
               std::size_t hd, float *kt)
{
    using simd::f32x4;
    const std::size_t kv_len = k.size();
    for (std::size_t j0 = 0; j0 < kv_len; j0 += kKeyBlock) {
        float *dst = kt + j0 * hd;
        const std::size_t nk = std::min(kKeyBlock, kv_len - j0);
        if (nk < kKeyBlock) {
            std::fill_n(dst, hd * kKeyBlock, 0.0f);
        }
        std::size_t j = 0;
        for (; j + 4 <= nk; j += 4) {
            const float *const *kj = k.data() + j0 + j;
            std::size_t c = 0;
            for (; c + 4 <= hd; c += 4) {
                f32x4 r[4];
                for (int t = 0; t < 4; ++t) {
                    std::memcpy(&r[t], kj[t] + col + c, sizeof(f32x4));
                }
                const f32x4 lo01 =
                    __builtin_shufflevector(r[0], r[1], 0, 4, 1, 5);
                const f32x4 hi01 =
                    __builtin_shufflevector(r[0], r[1], 2, 6, 3, 7);
                const f32x4 lo23 =
                    __builtin_shufflevector(r[2], r[3], 0, 4, 1, 5);
                const f32x4 hi23 =
                    __builtin_shufflevector(r[2], r[3], 2, 6, 3, 7);
                const f32x4 ch[4] = {
                    __builtin_shufflevector(lo01, lo23, 0, 1, 4, 5),
                    __builtin_shufflevector(lo01, lo23, 2, 3, 6, 7),
                    __builtin_shufflevector(hi01, hi23, 0, 1, 4, 5),
                    __builtin_shufflevector(hi01, hi23, 2, 3, 6, 7),
                };
                for (int t = 0; t < 4; ++t) {
                    std::memcpy(dst + (c + t) * kKeyBlock + j, &ch[t],
                                sizeof(f32x4));
                }
            }
            for (; c < hd; ++c) {
                for (int t = 0; t < 4; ++t) {
                    dst[c * kKeyBlock + j + t] = kj[t][col + c];
                }
            }
        }
        for (; j < nk; ++j) {
            for (std::size_t c = 0; c < hd; ++c) {
                dst[c * kKeyBlock + j] = k[j0 + j][col + c];
            }
        }
    }
}

// Scores of R query rows against KB key blocks from block b, held in
// registers: s[r][j] = (sum of q[r][c] * k[j][c] over c ascending,
// from 0.0f) * scale.
template <class V, int R, int KB>
[[gnu::always_inline]] inline void
score_tile(const float *const (&q)[R], std::size_t hd, const float *kt,
           std::size_t b, float scale, float *s, std::size_t stride)
{
    constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
    constexpr int kBlockVecs = static_cast<int>(kKeyBlock / kLanes);
    constexpr int kVecs = KB * kBlockVecs;
    V acc[R][kVecs] = {};
    for (std::size_t c = 0; c < hd; ++c) {
        V kc[kVecs];
        for (int kb = 0; kb < KB; ++kb) {
            const float *src = kt + ((b + kb) * hd + c) * kKeyBlock;
            for (int v = 0; v < kBlockVecs; ++v) {
                std::memcpy(&kc[kb * kBlockVecs + v], src + v * kLanes,
                            sizeof(V));
            }
        }
        for (int r = 0; r < R; ++r) {
            const float x = q[r][c];
            for (int v = 0; v < kVecs; ++v) {
                acc[r][v] += x * kc[v];
            }
        }
    }
    for (int r = 0; r < R; ++r) {
        for (int v = 0; v < kVecs; ++v) {
            const V sv = acc[r][v] * scale;
            std::memcpy(s + r * stride + b * kKeyBlock + v * kLanes, &sv,
                        sizeof(V));
        }
    }
}

// Context of R query rows over channels [c, c + CV * lanes), held in
// registers: out[r][c] = sum of p[r][j] * v[j][c] over j < vis[r]
// ascending, from 0.0f. vis is non-decreasing in r, so every row takes
// keys [0, vis[0]) together and the rest one row at a time.
template <class V, int R, int CV>
[[gnu::always_inline]] inline void
context_tile(const float *p, std::size_t stride,
             const std::size_t (&vis)[R], const float *const *v,
             std::size_t c, float *const (&o)[R])
{
    constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
    V acc[R][CV] = {};
    for (std::size_t j = 0; j < vis[0]; ++j) {
        V x[CV];
        for (int u = 0; u < CV; ++u) {
            std::memcpy(&x[u], v[j] + c + u * kLanes, sizeof(V));
        }
        for (int r = 0; r < R; ++r) {
            const float pj = p[r * stride + j];
            for (int u = 0; u < CV; ++u) {
                acc[r][u] += pj * x[u];
            }
        }
    }
    for (int r = 1; r < R; ++r) {
        for (std::size_t j = vis[0]; j < vis[r]; ++j) {
            const float pj = p[r * stride + j];
            for (int u = 0; u < CV; ++u) {
                V x;
                std::memcpy(&x, v[j] + c + u * kLanes, sizeof(V));
                acc[r][u] += pj * x;
            }
        }
    }
    for (int r = 0; r < R; ++r) {
        std::memcpy(o[r] + c, acc[r], sizeof acc[r]);
    }
}

// One tile of R query rows from row i: scores, the softmax of each
// row's visible keys, then the context. Channels past the last whole
// vector are summed one at a time in the same order.
template <class E, class V, int R, int KB, int CV>
[[gnu::always_inline]] inline void
attention_tile(std::span<const float *const> q,
               std::span<const float *const> v, std::size_t col,
               std::size_t hd, std::size_t q_offset, std::size_t i,
               const float *kt, float scale, float *s,
               std::size_t stride, std::span<float *const> out)
{
    constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
    const std::size_t kv_len = v.size();
    const float *qr[R];
    float *orow[R];
    std::size_t vis[R];
    for (int r = 0; r < R; ++r) {
        qr[r] = q[i + r] + col;
        orow[r] = out[i + r];
        vis[r] = std::min(kv_len, q_offset + i + r + 1);
    }
    const std::size_t blocks = (vis[R - 1] + kKeyBlock - 1) / kKeyBlock;
    std::size_t b = 0;
    for (; b + KB <= blocks; b += KB) {
        score_tile<V, R, KB>(qr, hd, kt, b, scale, s, stride);
    }
    for (; b < blocks; ++b) {
        score_tile<V, R, 1>(qr, hd, kt, b, scale, s, stride);
    }
    softmax_rows<E, V, R>(s, stride, vis);
    const float *const *vh = v.data();
    std::size_t c = 0;
    for (; c + CV * kLanes <= hd; c += CV * kLanes) {
        context_tile<V, R, CV>(s, stride, vis, vh, col + c, orow);
    }
    for (; c + kLanes <= hd; c += kLanes) {
        context_tile<V, R, 1>(s, stride, vis, vh, col + c, orow);
    }
    for (; c < hd; ++c) {
        for (int r = 0; r < R; ++r) {
            float acc = 0.0f;
            for (std::size_t j = 0; j < vis[r]; ++j) {
                acc += s[r * stride + j] * v[j][col + c];
            }
            orow[r][col + c] = acc;
        }
    }
}

// The kernel over tiles of R query rows (KB key blocks per score
// tile, CV vectors per context tile, exp E); leftover rows run one at
// a time with KB1 / CV1, which keep more accumulators in flight for
// decode.
template <class E, class V, int R, int KB, int CV, int KB1, int CV1>
[[gnu::always_inline]] inline void
attention_head(std::span<const float *const> q,
               std::span<const float *const> k,
               std::span<const float *const> v, std::size_t col,
               std::size_t hd, std::size_t q_offset,
               std::span<float *const> out)
{
    // Every element is written before it is read: the transpose fills
    // whole blocks, and a tile's scores cover its rows' visible keys.
    const std::size_t blocks = (k.size() + kKeyBlock - 1) / kKeyBlock;
    const std::size_t stride = blocks * kKeyBlock;
    const auto kt_buf =
        std::make_unique_for_overwrite<float[]>(hd * stride);
    const auto s_buf = std::make_unique_for_overwrite<float[]>(R * stride);
    float *kt = kt_buf.get();
    float *s = s_buf.get();
    transpose_keys(k, col, hd, kt);
    const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
    std::size_t i = 0;
    for (; i + R <= q.size(); i += R) {
        attention_tile<E, V, R, KB, CV>(q, v, col, hd, q_offset, i, kt,
                                        scale, s, stride, out);
    }
    for (; i < q.size(); ++i) {
        attention_tile<E, V, 1, KB1, CV1>(q, v, col, hd, q_offset, i,
                                          kt, scale, s, stride, out);
    }
}

// ---- Decode attention over every head ----

// lo / hi = the interleaved low / high halves of a and b (a0 b0 a1 b1
// ..., then the upper halves): one step of the transpose below.
template <class V, std::size_t... I>
[[gnu::always_inline]] inline void
zip_lanes(const V &a, const V &b, V &lo, V &hi, std::index_sequence<I...>)
{
    constexpr std::size_t kLanes = sizeof...(I);
    lo = __builtin_shufflevector(a, b, ((I % 2) * kLanes + I / 2)...);
    hi = __builtin_shufflevector(a, b,
                                 ((I % 2) * kLanes + kLanes / 2 + I / 2)...);
}

// Channels [c0, c0 + 16) of 16 key rows, transposed into
// kt[(c0 + c) * 16 + j] in register blocks of lanes x lanes: log2(lanes)
// rounds of zip_lanes over the pairs (t, t + lanes / 2) transpose a
// block (a 16x16 one in a single block at 16 lanes).
template <class V>
[[gnu::always_inline]] inline void
transpose_column(const float *const (&rows)[kKeyBlock], std::size_t c0,
                 float *kt)
{
    constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
    for (std::size_t jb = 0; jb < kKeyBlock; jb += kLanes) {
        for (std::size_t cb = 0; cb < kKeyBlock; cb += kLanes) {
            V r[kLanes];
            for (std::size_t t = 0; t < kLanes; ++t) {
                std::memcpy(&r[t], rows[jb + t] + c0 + cb, sizeof(V));
            }
            for (std::size_t round = 1; round < kLanes; round *= 2) {
                V z[kLanes];
                for (std::size_t t = 0; t < kLanes / 2; ++t) {
                    zip_lanes(r[t], r[t + kLanes / 2], z[2 * t],
                              z[2 * t + 1],
                              std::make_index_sequence<kLanes>{});
                }
                std::memcpy(r, z, sizeof r);
            }
            for (std::size_t c = 0; c < kLanes; ++c) {
                std::memcpy(kt + (c0 + cb + c) * kKeyBlock + jb, &r[c],
                            sizeof(V));
            }
        }
    }
}

// Scores of H heads from head h0 against KB transposed key blocks
// (block b holds channel c of its keys at kt[b * block + c * 16]), the
// heads' and blocks' chains interleaved: s[h][j] = (sum of q[h * hd +
// c] * k[j][h * hd + c] over c ascending, from 0.0f) * scale.
template <class V, int H, int KB>
[[gnu::always_inline]] inline void
score_heads(const float *q, std::size_t h0, std::size_t hd,
            const float *kt, std::size_t block, float scale, float *s,
            std::size_t stride)
{
    constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
    constexpr int kVecs = static_cast<int>(kKeyBlock / kLanes);
    V acc[H][KB * kVecs] = {};
    for (std::size_t c = 0; c < hd; ++c) {
        for (int h = 0; h < H; ++h) {
            const std::size_t ch = (h0 + h) * hd + c;
            const float x = q[ch];
            for (int b = 0; b < KB; ++b) {
                for (int u = 0; u < kVecs; ++u) {
                    V k;
                    std::memcpy(&k,
                                kt + b * block + ch * kKeyBlock + u * kLanes,
                                sizeof k);
                    acc[h][b * kVecs + u] += x * k;
                }
            }
        }
    }
    for (int h = 0; h < H; ++h) {
        for (int u = 0; u < KB * kVecs; ++u) {
            const V sv = acc[h][u] * scale;
            std::memcpy(s + (h0 + h) * stride + u * kLanes, &sv, sizeof sv);
        }
    }
}

// Every head's scores against KB key blocks: heads in groups of H, then
// one at a time.
template <class V, int H, int KB>
[[gnu::always_inline]] inline void
score_blocks(const float *q, std::size_t heads, std::size_t hd,
             const float *kt, std::size_t block, float scale, float *s,
             std::size_t stride)
{
    std::size_t h = 0;
    for (; h + H <= heads; h += H) {
        score_heads<V, H, KB>(q, h, hd, kt, block, scale, s, stride);
    }
    for (; h < heads; ++h) {
        score_heads<V, 1, KB>(q, h, hd, kt, block, scale, s, stride);
    }
}

// Context of one key block added to out over channels [c, c + CV *
// lanes), each vector inside one head (hd a multiple of the lanes): out
// accumulates p[head][j] * v[j][c] over the block's keys ascending.
template <class V, int CV>
[[gnu::always_inline]] inline void
context_block(const float *const (&rows)[kKeyBlock], std::size_t nk,
              const float *p, std::size_t stride, std::size_t hd,
              std::size_t c, float *out)
{
    constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
    const float *ph[CV];
    V acc[CV];
    for (int u = 0; u < CV; ++u) {
        ph[u] = p + (c + u * kLanes) / hd * stride;
        std::memcpy(&acc[u], out + c + u * kLanes, sizeof(V));
    }
    for (std::size_t j = 0; j < nk; ++j) {
        for (int u = 0; u < CV; ++u) {
            V x;
            std::memcpy(&x, rows[j] + c + u * kLanes, sizeof x);
            acc[u] += ph[u][j] * x;
        }
    }
    std::memcpy(out + c, acc, sizeof acc);
}

// Points rows[0, 16) at the float images of key block [j0, j0 + nk):
// FP32 rows in place, quantized ones unpacked into `tile` by one
// kv_unpack_rows call; rows past nk point at a zero row.
[[gnu::always_inline]] inline void
block_rows(const KvFormat &fmt, std::span<const std::byte *const> packed,
           std::size_t j0, std::size_t nk, std::size_t d, float *tile,
           const float *zero, const float *(&rows)[kKeyBlock])
{
    if (fmt.quantized()) {
        kv_unpack_rows(fmt, packed.subspan(j0, nk), d, {tile, nk * d});
        for (std::size_t j = 0; j < nk; ++j) {
            rows[j] = tile + j * d;
        }
    } else {
        for (std::size_t j = 0; j < nk; ++j) {
            rows[j] = reinterpret_cast<const float *>(packed[j0 + j]);
        }
    }
    for (std::size_t j = nk; j < kKeyBlock; ++j) {
        rows[j] = zero;
    }
}

// attend_decode over V lanes with exp E: pass 1 scores every head
// against KB 16-key blocks at a time, pass 2 runs the softmax of each
// head's row, pass 3 adds every head's context per block. Heads go in
// groups of H, then one at a time; the context in vectors of CV * lanes
// channels.
template <class E, class V, int H, int KB, int CV>
[[gnu::always_inline]] inline void
attend_decode_lanes(std::span<const float> q, const KvFormat &fmt,
                    std::span<const std::byte *const> k,
                    std::span<const std::byte *const> v, std::size_t hd,
                    std::span<float> out)
{
    constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
    const std::size_t d = q.size();
    const std::size_t heads = d / hd;
    const std::size_t kv_len = k.size();
    const std::size_t blocks = (kv_len + kKeyBlock - 1) / kKeyBlock;
    const std::size_t stride = blocks * kKeyBlock;
    const std::size_t block = kKeyBlock * d;
    // Scores, a [KB * 16][d] unpack tile, KB transposed [d][16] key
    // blocks and a zero row.
    const auto buf = std::make_unique_for_overwrite<float[]>(
        heads * stride + 2 * KB * block + d);
    float *s = buf.get();
    float *tile = s + heads * stride;
    float *kt = tile + KB * block;
    float *zero = kt + KB * block;
    std::fill_n(zero, d, 0.0f);
    const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
    const std::size_t d16 = d / kKeyBlock * kKeyBlock;
    const float *rows[kKeyBlock];
    for (std::size_t b0 = 0; b0 < blocks; b0 += KB) {
        const std::size_t nb = std::min<std::size_t>(KB, blocks - b0);
        for (std::size_t b = 0; b < nb; ++b) {
            const std::size_t j0 = (b0 + b) * kKeyBlock;
            block_rows(fmt, k, j0, std::min(kKeyBlock, kv_len - j0), d,
                       tile + b * block, zero, rows);
            float *ktb = kt + b * block;
            for (std::size_t c0 = 0; c0 < d16; c0 += kKeyBlock) {
                transpose_column<V>(rows, c0, ktb);
            }
            for (std::size_t c = d16; c < d; ++c) {
                for (std::size_t j = 0; j < kKeyBlock; ++j) {
                    ktb[c * kKeyBlock + j] = rows[j][c];
                }
            }
        }
        float *sb = s + b0 * kKeyBlock;
        if (nb == KB) {
            score_blocks<V, H, KB>(q.data(), heads, hd, kt, block, scale, sb,
                                   stride);
        } else {
            for (std::size_t b = 0; b < nb; ++b) {
                score_blocks<V, H, 1>(q.data(), heads, hd, kt + b * block,
                                      block, scale, sb + b * kKeyBlock,
                                      stride);
            }
        }
    }
    std::size_t vis[H];
    std::fill_n(vis, H, kv_len);
    std::size_t h = 0;
    for (; h + H <= heads; h += H) {
        softmax_rows<E, V, H>(s + h * stride, stride, vis);
    }
    for (; h < heads; ++h) {
        const std::size_t vis1[1] = {kv_len};
        softmax_rows<E, V, 1>(s + h * stride, stride, vis1);
    }
    std::fill(out.begin(), out.end(), 0.0f);
    const bool vector_heads = hd % kLanes == 0;
    for (std::size_t b = 0; b < blocks; ++b) {
        const std::size_t j0 = b * kKeyBlock;
        const std::size_t nk = std::min(kKeyBlock, kv_len - j0);
        block_rows(fmt, v, j0, nk, d, tile, zero, rows);
        if (vector_heads) {
            std::size_t c = 0;
            for (; c + CV * kLanes <= d; c += CV * kLanes) {
                context_block<V, CV>(rows, nk, s + j0, stride, hd, c,
                                     out.data());
            }
            for (; c < d; c += kLanes) {
                context_block<V, 1>(rows, nk, s + j0, stride, hd, c,
                                    out.data());
            }
        } else {
            for (std::size_t c = 0; c < d; ++c) {
                const float *p = s + c / hd * stride + j0;
                float acc = out[c];
                for (std::size_t j = 0; j < nk; ++j) {
                    acc += p[j] * rows[j][c];
                }
                out[c] = acc;
            }
        }
    }
}

#if ANDA_SIMD_X86
ANDA_TARGET_AVX512F void
attention_head_avx512f(std::span<const float *const> q,
                       std::span<const float *const> k,
                       std::span<const float *const> v, std::size_t col,
                       std::size_t hd, std::size_t q_offset,
                       std::span<float *const> out)
{
    attention_head<ExpAvx512f, simd::f32x16, 4, 2, 2, 4, 2>(
        q, k, v, col, hd, q_offset, out);
}

ANDA_TARGET_AVX2 void
attention_head_avx2(std::span<const float *const> q,
                    std::span<const float *const> k,
                    std::span<const float *const> v, std::size_t col,
                    std::size_t hd, std::size_t q_offset,
                    std::span<float *const> out)
{
    attention_head<ExpAvx2, simd::f32x8, 4, 1, 2, 4, 4>(q, k, v, col, hd,
                                                        q_offset, out);
}

ANDA_TARGET_AVX512F void
attend_decode_avx512f(std::span<const float> q, const KvFormat &fmt,
                      std::span<const std::byte *const> k,
                      std::span<const std::byte *const> v, std::size_t hd,
                      std::span<float> out)
{
    attend_decode_lanes<ExpAvx512f, simd::f32x16, 4, 2, 8>(q, fmt, k, v,
                                                           hd, out);
}

ANDA_TARGET_AVX2 void
attend_decode_avx2(std::span<const float> q, const KvFormat &fmt,
                   std::span<const std::byte *const> k,
                   std::span<const std::byte *const> v, std::size_t hd,
                   std::span<float> out)
{
    attend_decode_lanes<ExpAvx2, simd::f32x8, 4, 1, 8>(q, fmt, k, v, hd,
                                                       out);
}

ANDA_TARGET_AVX512F void
expf_avx512f(std::span<const float> x, std::span<float> y)
{
    std::copy(x.begin(), x.end(), y.begin());
    exp_shifted<ExpAvx512f>(y.data(), y.size(), 0.0f);
}

ANDA_TARGET_AVX2 void
expf_avx2(std::span<const float> x, std::span<float> y)
{
    std::copy(x.begin(), x.end(), y.begin());
    exp_shifted<ExpAvx2>(y.data(), y.size(), 0.0f);
}

ANDA_TARGET_AVX512F void
softmax_avx512f(std::span<float> x)
{
    softmax_row<ExpAvx512f, simd::f32x16>(x);
}

ANDA_TARGET_AVX2 void
softmax_avx2(std::span<float> x)
{
    softmax_row<ExpAvx2, simd::f32x8>(x);
}

ANDA_TARGET_AVX512F void
swiglu_avx512f(std::span<const float> gate, std::span<float> up)
{
    swiglu_lanes<ExpAvx512f>(gate, up);
}

ANDA_TARGET_AVX2 void
swiglu_avx2(std::span<const float> gate, std::span<float> up)
{
    swiglu_lanes<ExpAvx2>(gate, up);
}
#endif

void
attention_head_baseline(std::span<const float *const> q,
                        std::span<const float *const> k,
                        std::span<const float *const> v, std::size_t col,
                        std::size_t hd, std::size_t q_offset,
                        std::span<float *const> out)
{
    attention_head<ExpLibm, simd::f32x4, 2, 1, 4, 2, 8>(q, k, v, col, hd,
                                                        q_offset, out);
}

void
attend_decode_baseline(std::span<const float> q, const KvFormat &fmt,
                       std::span<const std::byte *const> k,
                       std::span<const std::byte *const> v, std::size_t hd,
                       std::span<float> out)
{
    attend_decode_lanes<ExpLibm, simd::f32x4, 2, 1, 4>(q, fmt, k, v, hd,
                                                       out);
}

void
expf_baseline(std::span<const float> x, std::span<float> y)
{
    std::copy(x.begin(), x.end(), y.begin());
    exp_shifted<ExpLibm>(y.data(), y.size(), 0.0f);
}

void
softmax_baseline(std::span<float> x)
{
    softmax_row<ExpLibm, simd::f32x4>(x);
}

void
swiglu_baseline(std::span<const float> gate, std::span<float> up)
{
    swiglu_lanes<ExpLibm>(gate, up);
}

constexpr simd::Variant<detail::CausalAttentionHeadFn>
    kAttentionHeadVariants[] = {
#if ANDA_SIMD_X86
        {simd::Isa::kAvx512f, attention_head_avx512f},
        {simd::Isa::kAvx2, attention_head_avx2},
#endif
        {simd::Isa::kBaseline, attention_head_baseline},
};

constexpr simd::Variant<detail::AttendDecodeFn> kAttendDecodeVariants[] = {
#if ANDA_SIMD_X86
    {simd::Isa::kAvx512f, attend_decode_avx512f},
    {simd::Isa::kAvx2, attend_decode_avx2},
#endif
    {simd::Isa::kBaseline, attend_decode_baseline},
};

constexpr simd::Variant<detail::ExpfFn> kExpfVariants[] = {
#if ANDA_SIMD_X86
    {simd::Isa::kAvx512f, expf_avx512f},
    {simd::Isa::kAvx2, expf_avx2},
#endif
    {simd::Isa::kBaseline, expf_baseline},
};

constexpr simd::Variant<detail::SoftmaxFn> kSoftmaxVariants[] = {
#if ANDA_SIMD_X86
    {simd::Isa::kAvx512f, softmax_avx512f},
    {simd::Isa::kAvx2, softmax_avx2},
#endif
    {simd::Isa::kBaseline, softmax_baseline},
};

constexpr simd::Variant<detail::SwigluFn> kSwigluVariants[] = {
#if ANDA_SIMD_X86
    {simd::Isa::kAvx512f, swiglu_avx512f},
    {simd::Isa::kAvx2, swiglu_avx2},
#endif
    {simd::Isa::kBaseline, swiglu_baseline},
};

}  // namespace

std::span<const simd::Variant<detail::CausalAttentionHeadFn>>
detail::causal_attention_head_variants()
{
    return kAttentionHeadVariants;
}

std::span<const simd::Variant<detail::AttendDecodeFn>>
detail::attend_decode_variants()
{
    return kAttendDecodeVariants;
}

std::span<const simd::Variant<detail::ExpfFn>>
detail::expf_variants()
{
    return kExpfVariants;
}

std::span<const simd::Variant<detail::SoftmaxFn>>
detail::softmax_variants()
{
    return kSoftmaxVariants;
}

std::span<const simd::Variant<detail::SwigluFn>>
detail::swiglu_variants()
{
    return kSwigluVariants;
}

void
swiglu_inplace(std::span<const float> gate, std::span<float> up)
{
    ANDA_DCHECK_EQ(gate.size(), up.size(),
                   "SwiGLU spans differ in length");
    static detail::SwigluFn *const run =
        simd::widest_supported(detail::swiglu_variants());
    run(gate, up);
}

void
causal_attention_head(std::span<const float *const> q,
                      std::span<const float *const> k,
                      std::span<const float *const> v, std::size_t col,
                      std::size_t head_dim, std::size_t q_offset,
                      std::span<float *const> out)
{
    ANDA_DCHECK_EQ(k.size(), v.size(), "attention K/V row counts differ");
    ANDA_DCHECK_EQ(q.size(), out.size(),
                   "attention output row count mismatch");
    static detail::CausalAttentionHeadFn *const run =
        simd::widest_supported(detail::causal_attention_head_variants());
    run(q, k, v, col, head_dim, q_offset, out);
}

void
attend_decode(std::span<const float> q, const KvFormat &fmt,
              std::span<const std::byte *const> k,
              std::span<const std::byte *const> v, std::size_t head_dim,
              std::span<float> out)
{
    ANDA_DCHECK_EQ(k.size(), v.size(), "attention K/V row counts differ");
    ANDA_DCHECK(!k.empty(), "a decode row attends to at least itself");
    ANDA_DCHECK(head_dim > 0 && q.size() % head_dim == 0,
                "query row is not a whole number of heads");
    ANDA_DCHECK_EQ(q.size(), out.size(), "attention output width mismatch");
    static detail::AttendDecodeFn *const run =
        simd::widest_supported(detail::attend_decode_variants());
    run(q, fmt, k, v, head_dim, out);
}

double
log_prob_of(std::span<const float> logits, int target)
{
    ANDA_DCHECK(target >= 0 &&
                    static_cast<std::size_t>(target) < logits.size(),
                "target token outside the vocabulary");
    float mx = logits[0];
    for (float v : logits) {
        mx = std::max(mx, v);
    }
    double sum = 0.0;
    for (float v : logits) {
        sum += std::exp(static_cast<double>(v) - mx);
    }
    return static_cast<double>(logits[static_cast<std::size_t>(target)]) -
           mx - std::log(sum);
}

int
sample_from_logits(std::span<const float> logits, double temperature,
                   double u)
{
    ANDA_CHECK(!logits.empty(), "cannot sample from empty logits");
    ANDA_CHECK_GT(temperature, 0.0,
                  "sampling temperature must be positive");
    float mx = logits[0];
    for (float v : logits) {
        mx = std::max(mx, v);
    }
    std::vector<double> probs(logits.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < logits.size(); ++i) {
        probs[i] = std::exp((static_cast<double>(logits[i]) - mx) /
                            temperature);
        sum += probs[i];
    }
    double acc = 0.0;
    const double threshold = u * sum;
    for (std::size_t i = 0; i < probs.size(); ++i) {
        acc += probs[i];
        if (acc >= threshold) {
            return static_cast<int>(i);
        }
    }
    return static_cast<int>(probs.size() - 1);
}

}  // namespace anda
