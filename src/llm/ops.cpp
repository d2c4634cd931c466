#include "llm/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "common/check.h"

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

namespace {

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
template <class V, int R, int KB, int CV>
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
    for (int r = 0; r < R; ++r) {
        softmax_inplace({s + r * stride, vis[r]});
    }
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
// tile, CV vectors per context tile); leftover rows run one at a time
// with KB1 / CV1, which keep more accumulators in flight for decode.
template <class V, int R, int KB, int CV, int KB1, int CV1>
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
        attention_tile<V, R, KB, CV>(q, v, col, hd, q_offset, i, kt,
                                     scale, s, stride, out);
    }
    for (; i < q.size(); ++i) {
        attention_tile<V, 1, KB1, CV1>(q, v, col, hd, q_offset, i, kt,
                                       scale, s, stride, out);
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
    attention_head<simd::f32x16, 4, 2, 2, 4, 2>(q, k, v, col, hd,
                                                q_offset, out);
}

ANDA_TARGET_AVX2 void
attention_head_avx2(std::span<const float *const> q,
                    std::span<const float *const> k,
                    std::span<const float *const> v, std::size_t col,
                    std::size_t hd, std::size_t q_offset,
                    std::span<float *const> out)
{
    attention_head<simd::f32x8, 4, 1, 2, 4, 4>(q, k, v, col, hd,
                                               q_offset, out);
}
#endif

void
attention_head_baseline(std::span<const float *const> q,
                        std::span<const float *const> k,
                        std::span<const float *const> v, std::size_t col,
                        std::size_t hd, std::size_t q_offset,
                        std::span<float *const> out)
{
    attention_head<simd::f32x4, 2, 1, 4, 2, 8>(q, k, v, col, hd,
                                               q_offset, out);
}

constexpr simd::Variant<detail::CausalAttentionHeadFn>
    kAttentionHeadVariants[] = {
#if ANDA_SIMD_X86
        {simd::Isa::kAvx512f, attention_head_avx512f},
        {simd::Isa::kAvx2, attention_head_avx2},
#endif
        {simd::Isa::kBaseline, attention_head_baseline},
};

}  // namespace

std::span<const simd::Variant<detail::CausalAttentionHeadFn>>
detail::causal_attention_head_variants()
{
    return kAttentionHeadVariants;
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
