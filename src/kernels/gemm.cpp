#include "kernels/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "common/fp16.h"
#include "common/parallel.h"

namespace anda {

namespace {

void
check_gemm_shapes(std::size_t a_cols, std::size_t w_cols, const char *kernel)
{
    ANDA_CHECK_EQ(a_cols, w_cols, kernel,
                  ": activation columns must equal weight columns");
}

}  // namespace

float
dot_f32(const float *a, const float *b, std::size_t n)
{
    float acc[16] = {};
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        for (int l = 0; l < 16; ++l) {
            acc[l] += a[i + l] * b[i + l];
        }
    }
    float s = 0.0f;
    for (int l = 0; l < 16; ++l) {
        s += acc[l];
    }
    for (; i < n; ++i) {
        s += a[i] * b[i];
    }
    return s;
}

WeightPanels::WeightPanels(Matrix w) : rows_(w.rows()), cols_(w.cols())
{
    // Rows [16p, 16p + 16) of the row-major matrix are one contiguous
    // [16][K] block at the panel's own offset, so each panel is a
    // transpose of its block in place through one block of scratch.
    data_ = w.release();
    data_.resize(panels() * cols_ * kWidth, 0.0f);
    std::vector<float> block(kWidth * cols_);
    for (std::size_t p = 0; p < panels(); ++p) {
        float *panel = data_.data() + p * cols_ * kWidth;
        std::copy_n(panel, block.size(), block.data());
        for (std::size_t r = 0; r < kWidth; ++r) {
            for (std::size_t c = 0; c < cols_; ++c) {
                panel[c * kWidth + r] = block[r * cols_ + c];
            }
        }
    }
}

WeightPanels::WeightPanels(const QuantizedWeight &w)
    : rows_(w.rows()), cols_(w.cols()),
      group_size_(static_cast<std::size_t>(w.group_size()))
{
    ANDA_CHECK(w.bits() <= 4, "W4 panels hold weights of at most 4 bits");
    nibbles_.assign(panels() * cols_, 0);
    scales_.assign(panels() * groups() * kWidth, 0.0f);
    for (std::size_t n = 0; n < rows_; ++n) {
        const std::size_t j = n % kWidth;
        std::uint64_t *words = nibbles_.data() + n / kWidth * cols_;
        const auto q = w.row(n);
        // Little-endian: the low half of a word is 32-bit lane 0.
        const std::size_t shift = 32 * (j % 2) + 4 * (j / 2);
        for (std::size_t c = 0; c < cols_; ++c) {
            words[c] |= (static_cast<std::uint64_t>(q[c]) & 0xfu) << shift;
        }
        float *scale = scales_.data() + n / kWidth * groups() * kWidth + j;
        for (std::size_t g = 0; g < groups(); ++g) {
            scale[g * kWidth] = w.group_scale(n, g);
        }
    }
}

namespace {

constexpr std::size_t kPanel = WeightPanels::kWidth;

// R token rows (row stride k) against one panel. acc[r][l][v] holds
// dot_f32's lane-l accumulator for the outputs of vector v, so lane l
// of output n still sums a[i] * w[n][i] over i = l (mod 16) in
// ascending i. A pass over k accumulates L of the 16 lanes, then adds
// them to the running sums in lane order, so every sum adds lanes
// 0..15 in order starting from 0.0f, then the k % 16 tail products.
template <class V, int R, int L>
[[gnu::always_inline]] inline void
panel_block(const float *a, std::size_t k, const float *panel,
            float (&out)[R][kPanel])
{
    static_assert(kPanel % L == 0, "lanes per pass must divide 16");
    constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
    constexpr int kVecs = static_cast<int>(kPanel / kLanes);
    const std::size_t k16 = k / kPanel * kPanel;
    V sum[R][kVecs] = {};
    for (int l0 = 0; l0 < static_cast<int>(kPanel); l0 += L) {
        V acc[R][L][kVecs] = {};
        for (std::size_t i = 0; i < k16; i += kPanel) {
            for (int l = 0; l < L; ++l) {
                const float *wk = panel + (i + l0 + l) * kPanel;
                V w[kVecs];
                for (int v = 0; v < kVecs; ++v) {
                    std::memcpy(&w[v], wk + v * kLanes, sizeof(V));
                }
                for (int r = 0; r < R; ++r) {
                    const float x = a[r * k + i + l0 + l];
                    for (int v = 0; v < kVecs; ++v) {
                        acc[r][l][v] += x * w[v];
                    }
                }
            }
        }
        for (int r = 0; r < R; ++r) {
            for (int l = 0; l < L; ++l) {
                for (int v = 0; v < kVecs; ++v) {
                    sum[r][v] += acc[r][l][v];
                }
            }
        }
    }
    for (std::size_t i = k16; i < k; ++i) {
        const float *wk = panel + i * kPanel;
        V w[kVecs];
        for (int v = 0; v < kVecs; ++v) {
            std::memcpy(&w[v], wk + v * kLanes, sizeof(V));
        }
        for (int r = 0; r < R; ++r) {
            const float x = a[r * k + i];
            for (int v = 0; v < kVecs; ++v) {
                sum[r][v] += x * w[v];
            }
        }
    }
    std::memcpy(out, sum, sizeof out);
}

// W4 panel p of w dequantized into out ([K][16] floats, the float
// form's panel layout). Each k-row's word is broadcast to every 64-bit
// lane, so 32-bit lane l holds the word's half l % 2, which holds
// channel j's nibble at bits 4 * (j / 2) (j = l mod the vector width is
// even or odd with l). Shifting the nibble to the top and back
// arithmetically sign-extends it; its float times the channel's group
// scale is exact.
template <class V, class VI, class VQ>
[[gnu::always_inline]] inline void
dequant_panel(const WeightPanels &w, std::size_t p, float *out)
{
    constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
    constexpr int kVecs = static_cast<int>(kPanel / kLanes);
    VI to_top[kVecs];
    for (int v = 0; v < kVecs; ++v) {
        for (std::size_t l = 0; l < kLanes; ++l) {
            const std::size_t j = v * kLanes + l;
            to_top[v][l] = static_cast<std::int32_t>(28 - 4 * (j / 2));
        }
    }
    const std::size_t k = w.cols();
    const std::size_t gs = w.group_size();
    const std::uint64_t *words = w.nibbles(p);
    const float *scales = w.scales(p);
    for (std::size_t g = 0; g * gs < k; ++g) {
        V scale[kVecs];
        std::memcpy(scale, scales + g * kPanel, sizeof scale);
        for (std::size_t i = g * gs; i < std::min(k, (g + 1) * gs); ++i) {
            const VI word = (VI)(VQ{} + words[i]);
            for (int v = 0; v < kVecs; ++v) {
                const VI q = (word << to_top[v]) >> 28;
                const V x = __builtin_convertvector(q, V) * scale[v];
                std::memcpy(out + i * kPanel + v * kLanes, &x, sizeof x);
            }
        }
    }
}

// The serial panel GeMM over panels [p0, p1): panels outer (one panel
// stays in L1 across the token rows), blocks of R token rows inner,
// single rows last. A W4 panel is dequantized once into a per-call
// scratch first.
template <class V, class VI, class VQ, int R, int L>
[[gnu::always_inline]] inline void
panel_gemm(const float *a, std::size_t rows, const WeightPanels &w,
           std::size_t p0, std::size_t p1, float *c)
{
    const std::size_t k = w.cols();
    const std::size_t n = w.rows();
    std::vector<float> scratch(w.w4() ? k * kPanel : 0);
    for (std::size_t p = p0; p < p1; ++p) {
        if (w.w4()) {
            dequant_panel<V, VI, VQ>(w, p, scratch.data());
        }
        const float *panel = w.w4() ? scratch.data() : w.panel(p);
        const std::size_t n0 = p * kPanel;
        const std::size_t width = std::min(kPanel, n - n0);
        std::size_t t = 0;
        for (; t + R <= rows; t += R) {
            float out[R][kPanel];
            panel_block<V, R, L>(a + t * k, k, panel, out);
            for (int r = 0; r < R; ++r) {
                std::memcpy(c + (t + r) * n + n0, out[r],
                            width * sizeof(float));
            }
        }
        for (; t < rows; ++t) {
            float out[1][kPanel];
            panel_block<V, 1, L>(a + t * k, k, panel, out);
            std::memcpy(c + t * n + n0, out[0], width * sizeof(float));
        }
    }
}

#if ANDA_SIMD_X86
ANDA_TARGET_AVX512F void
panel_gemm_avx512f(const float *a, std::size_t rows, const WeightPanels &w,
                   std::size_t p0, std::size_t p1, float *c)
{
    panel_gemm<simd::f32x16, simd::i32x16, simd::u64x8, 4, 4>(a, rows, w, p0,
                                                             p1, c);
}

ANDA_TARGET_AVX2 void
panel_gemm_avx2(const float *a, std::size_t rows, const WeightPanels &w,
                std::size_t p0, std::size_t p1, float *c)
{
    panel_gemm<simd::f32x8, simd::i32x8, simd::u64x4, 4, 1>(a, rows, w, p0,
                                                           p1, c);
}
#endif

void
panel_gemm_baseline(const float *a, std::size_t rows,
                    const WeightPanels &w, std::size_t p0, std::size_t p1,
                    float *c)
{
    panel_gemm<simd::f32x4, simd::i32x4, simd::u64x2, 2, 1>(a, rows, w, p0,
                                                           p1, c);
}

constexpr simd::Variant<detail::PanelGemmFn> kPanelGemmVariants[] = {
#if ANDA_SIMD_X86
    {simd::Isa::kAvx512f, panel_gemm_avx512f},
    {simd::Isa::kAvx2, panel_gemm_avx2},
#endif
    {simd::Isa::kBaseline, panel_gemm_baseline},
};

}  // namespace

std::span<const simd::Variant<detail::PanelGemmFn>>
detail::panel_gemm_variants()
{
    return kPanelGemmVariants;
}

namespace {

detail::PanelGemmFn *
run_panels()
{
    static detail::PanelGemmFn *const run =
        simd::widest_supported(detail::panel_gemm_variants());
    return run;
}

}  // namespace

void
matmul_wt(const float *a, std::size_t rows, const WeightPanels &w,
          float *c)
{
    run_panels()(a, rows, w, 0, w.panels(), c);
}

Matrix
matmul_wt(const Matrix &a, const WeightPanels &w, std::size_t threads)
{
    check_gemm_shapes(a.cols(), w.cols(), "matmul_wt");
    Matrix c(a.rows(), w.rows());
    parallel_for_chunked(
        0, w.panels(),
        [&](std::size_t lo, std::size_t hi) {
            run_panels()(a.data(), a.rows(), w, lo, hi, c.data());
        },
        threads);
    return c;
}

Matrix
matmul_wt(const Matrix &a, const Matrix &w, std::size_t threads)
{
    return matmul_wt(a, WeightPanels(w), threads);
}

Matrix
gemm_ref(const Matrix &a, const Matrix &w)
{
    check_gemm_shapes(a.cols(), w.cols(), "gemm_ref");
    Matrix c(a.rows(), w.rows());
    for (std::size_t t = 0; t < a.rows(); ++t) {
        for (std::size_t n = 0; n < w.rows(); ++n) {
            double acc = 0.0;
            for (std::size_t kk = 0; kk < a.cols(); ++kk) {
                acc += static_cast<double>(a(t, kk)) * w(n, kk);
            }
            c(t, n) = static_cast<float>(acc);
        }
    }
    return c;
}

void
apply_act_format(Matrix &a, const ActFormat &fmt, std::size_t threads)
{
    switch (fmt.kind) {
    case ActFormat::Kind::kFp32:
        return;
    case ActFormat::Kind::kFp16:
        parallel_for_chunked(
            0, a.rows(),
            [&](std::size_t lo, std::size_t hi) {
                for (std::size_t t = lo; t < hi; ++t) {
                    fp16_round(a.row(t), a.row(t));
                }
            },
            threads);
        return;
    case ActFormat::Kind::kBfp:
        parallel_for_chunked(
            0, a.rows(),
            [&](std::size_t lo, std::size_t hi) {
                for (std::size_t t = lo; t < hi; ++t) {
                    auto row = a.row(t);
                    bfp_roundtrip(row, row, fmt.bfp_params);
                }
            },
            threads);
        return;
    }
}

Matrix
gemm_fp16_dequant(const Matrix &a, const QuantizedWeight &w,
                  std::size_t threads)
{
    check_gemm_shapes(a.cols(), w.cols(), "gemm_fp16_dequant");
    Matrix a16 = a;
    apply_act_format(a16, ActFormat::fp16(), threads);
    // Dequantized INT4 weights are exact in FP32 (scale is FP16 and the
    // product q*scale has at most 15 significant bits), so a float
    // matmul of the dequantized weights models the tensor-core path.
    return matmul_wt(a16, WeightPanels(w), threads);
}

Matrix
gemm_bfp_fakequant(const Matrix &a, const QuantizedWeight &w,
                   const BfpParams &params, std::size_t threads)
{
    check_gemm_shapes(a.cols(), w.cols(), "gemm_bfp_fakequant");
    Matrix ab = a;
    apply_act_format(ab, ActFormat::bfp(params.group_size,
                                        params.mantissa_bits),
                     threads);
    return matmul_wt(ab, WeightPanels(w), threads);
}

std::int64_t
anda_group_dot(const AndaGroup &g, int mantissa_bits,
               std::span<const std::int8_t> w)
{
    ANDA_CHECK_EQ(w.size(), static_cast<std::size_t>(kAndaGroupSize),
                  "anda_group_dot: weight span must hold exactly one group");
    // Effective signed weights: the sign plane flips the weight feeding
    // the adder tree, so bit-plane partial sums are plain sums.
    std::int32_t signed_w[kAndaGroupSize];
    for (int i = 0; i < kAndaGroupSize; ++i) {
        const bool neg = (g.sign_plane >> i) & 1u;
        signed_w[i] = neg ? -static_cast<std::int32_t>(w[i])
                          : static_cast<std::int32_t>(w[i]);
    }
    // First-element-then-bit-plane reduction: one adder-tree pass per
    // plane, then shift-accumulate the per-plane partial sums. Plane 0
    // is the mantissa MSB.
    std::int64_t acc = 0;
    for (int p = 0; p < mantissa_bits; ++p) {
        const std::uint64_t plane = g.mant_planes[p];
        std::int64_t partial = 0;
        for (int i = 0; i < kAndaGroupSize; ++i) {
            if ((plane >> i) & 1u) {
                partial += signed_w[i];
            }
        }
        acc = (acc << 1) + partial;
    }
    return acc;
}

namespace {

// Reassembles one group's signed integer mantissas from the bit-plane
// layout: out[i] = sign_i * mantissa_i. One branch-free pass per plane,
// done once per (token, group) instead of once per (token, row, group).
void
anda_signed_mantissas(const AndaGroup &g, int mantissa_bits,
                      std::int32_t out[kAndaGroupSize])
{
    for (int i = 0; i < kAndaGroupSize; ++i) {
        out[i] = 0;
    }
    for (int p = 0; p < mantissa_bits; ++p) {
        const std::uint64_t plane = g.mant_planes[p];
        for (int i = 0; i < kAndaGroupSize; ++i) {
            out[i] = (out[i] << 1) |
                     static_cast<std::int32_t>((plane >> i) & 1u);
        }
    }
    for (int i = 0; i < kAndaGroupSize; ++i) {
        const std::int32_t neg =
            -static_cast<std::int32_t>((g.sign_plane >> i) & 1u);
        out[i] = (out[i] ^ neg) - neg;
    }
}

// Integer dot of one group's signed mantissas against its weights.
// No overflow: |sm| < 2^16, |w| <= 127, 64 terms < 2^31.
std::int64_t
anda_int_dot(const std::int32_t *sm, const std::int8_t *w)
{
    std::int32_t acc = 0;
    for (int i = 0; i < kAndaGroupSize; ++i) {
        acc += sm[i] * static_cast<std::int32_t>(w[i]);
    }
    return static_cast<std::int64_t>(acc);
}

}  // namespace

Matrix
gemm_anda(const Matrix &a, const QuantizedWeight &w,
          const AndaGemmOptions &opts)
{
    check_gemm_shapes(a.cols(), w.cols(), "gemm_anda");
    ANDA_CHECK_EQ(w.group_size() % kAndaGroupSize, 0,
                  "weight scale group size must be a multiple of the Anda "
                  "group size (64)");
    const std::size_t k = a.cols();
    const std::size_t n_rows = w.rows();
    const std::size_t n_groups = (k + kAndaGroupSize - 1) / kAndaGroupSize;
    const std::size_t k_pad = n_groups * kAndaGroupSize;
    const std::size_t anda_groups_per_scale =
        static_cast<std::size_t>(w.group_size()) / kAndaGroupSize;

    // Hoisted out of the token loop: a trailing partial group needs
    // zero-padded weights (zeros are exact in BFP, so padding matches
    // the bit-serial reference); full rows are used in place.
    const bool needs_pad = k != k_pad;
    std::vector<std::int8_t> wpad;
    if (needs_pad) {
        wpad.assign(n_rows * k_pad, std::int8_t{0});
        for (std::size_t n = 0; n < n_rows; ++n) {
            const auto wrow = w.row(n);
            std::copy_n(wrow.data(), k, wpad.data() + n * k_pad);
        }
    }

    Matrix c(a.rows(), n_rows);

    // Tile over token rows so each weight row streams through the cache
    // once per tile instead of once per token.
    constexpr std::size_t kTokenTile = 8;

    parallel_for_chunked(
        0, a.rows(),
        [&](std::size_t lo, std::size_t hi) {
            std::vector<std::int32_t> sm(kTokenTile * k_pad);
            std::vector<float> gscale(kTokenTile * n_groups);
            for (std::size_t t0 = lo; t0 < hi; t0 += kTokenTile) {
                const std::size_t tn = std::min(kTokenTile, hi - t0);
                // Decode each group's signed mantissas once per token.
                for (std::size_t ti = 0; ti < tn; ++ti) {
                    const AndaTensor act = AndaTensor::encode(
                        a.row(t0 + ti), opts.mantissa_bits);
                    for (std::size_t g = 0; g < n_groups; ++g) {
                        anda_signed_mantissas(
                            act.group(g), opts.mantissa_bits,
                            &sm[ti * k_pad + g * kAndaGroupSize]);
                        gscale[ti * n_groups + g] = bfp_group_scale(
                            act.group(g).shared_exponent,
                            opts.mantissa_bits);
                    }
                }
                for (std::size_t n = 0; n < n_rows; ++n) {
                    const std::int8_t *wrow =
                        needs_pad ? wpad.data() + n * k_pad
                                  : w.row(n).data();
                    for (std::size_t ti = 0; ti < tn; ++ti) {
                        const std::int32_t *smrow = &sm[ti * k_pad];
                        float acc = 0.0f;
                        for (std::size_t g = 0; g < n_groups; ++g) {
                            const std::int64_t idot = anda_int_dot(
                                smrow + g * kAndaGroupSize,
                                wrow + g * kAndaGroupSize);
                            float gval = static_cast<float>(idot) *
                                         gscale[ti * n_groups + g];
                            if (opts.fp16_group_rounding) {
                                gval = fp16_round(gval);
                            }
                            acc += gval *
                                   w.group_scale(
                                       n, g / anda_groups_per_scale);
                        }
                        c(t0 + ti, n) =
                            opts.fp16_output ? fp16_round(acc) : acc;
                    }
                }
            }
        },
        opts.threads);
    return c;
}

}  // namespace anda
