// Tests for the transformer substrate: ops, model construction,
// forward/decode consistency, corpora, and perplexity behaviour.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <cstdint>
#include <iostream>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "common/simd.h"
#include "llm/corpus.h"
#include "llm/ops.h"
#include "llm/transformer.h"

namespace anda {
namespace {

TEST(Ops, LayerNormNormalizes)
{
    std::vector<float> x = {1.0f, 2.0f, 3.0f, 4.0f};
    std::vector<float> gain(4, 1.0f);
    std::vector<float> out(4);
    layer_norm(x, gain, out);
    double mean = 0.0;
    double var = 0.0;
    for (float v : out) {
        mean += v;
    }
    mean /= 4.0;
    for (float v : out) {
        var += (v - mean) * (v - mean);
    }
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var / 4.0, 1.0, 1e-3);
}

TEST(Ops, RmsNormScale)
{
    std::vector<float> x = {3.0f, -4.0f};
    std::vector<float> gain = {1.0f, 2.0f};
    std::vector<float> out(2);
    rms_norm(x, gain, out);
    // RMS = sqrt((9+16)/2) = 3.5355
    EXPECT_NEAR(out[0], 3.0f / 3.5355f, 1e-3);
    EXPECT_NEAR(out[1], 2.0f * -4.0f / 3.5355f, 1e-3);
}

TEST(Ops, SoftmaxSumsToOneAndIsStable)
{
    std::vector<float> x = {1000.0f, 1001.0f, 999.0f};
    softmax_inplace(x);
    float sum = 0.0f;
    for (float v : x) {
        EXPECT_GE(v, 0.0f);
        sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
    EXPECT_GT(x[1], x[0]);
}

TEST(Ops, SiluMatchesFormula)
{
    for (float v : {-2.0f, 0.0f, 1.5f}) {
        EXPECT_NEAR(silu(v), v / (1.0f + std::exp(-v)), 1e-6);
    }
}

TEST(Ops, RopePreservesNorm)
{
    std::vector<float> h = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f};
    const double before = 1 + 4 + 9 + 16 + 25 + 36;
    rope_inplace(h, 7);
    double after = 0.0;
    for (float v : h) {
        after += static_cast<double>(v) * v;
    }
    EXPECT_NEAR(after, before, 1e-3);
    // Position 0 is the identity rotation.
    std::vector<float> h0 = {1.0f, 2.0f, 3.0f, 4.0f};
    rope_inplace(h0, 0);
    EXPECT_FLOAT_EQ(h0[0], 1.0f);
    EXPECT_FLOAT_EQ(h0[3], 4.0f);
}

// Every variant of a detail:: table the host supports, logged under
// `what`.
template <class Fn>
std::vector<simd::Variant<Fn>>
supported_variants(std::span<const simd::Variant<Fn>> table,
                   const char *what)
{
    std::vector<simd::Variant<Fn>> out;
    std::string ran;
    for (const auto &variant : table) {
        if (simd::isa_supported(variant.isa)) {
            out.push_back(variant);
            ran += std::string(ran.empty() ? "" : ", ") +
                   simd::isa_name(variant.isa);
        }
    }
    std::cout << "[ INFO     ] " << what << " variants run: " << ran
              << "\n";
    return out;
}

// Bit-identical, except that any NaN matches any NaN (x86 picks which
// operand's NaN an arithmetic op returns by operand order, which a
// compiler may swap).
bool
same_float(float a, float b)
{
    return std::memcmp(&a, &b, sizeof a) == 0 ||
           (std::isnan(a) && std::isnan(b));
}

TEST(Ops, VectorSoftmaxMatchesSoftmaxInplaceBitForBit)
{
    const auto variants =
        supported_variants(detail::softmax_variants(), "softmax");
    ASSERT_FALSE(variants.empty());
    constexpr float kInf = std::numeric_limits<float>::infinity();
    constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
    // expf gives +0 below this (log(2^-150)); x - max lands on both
    // sides of it and of the subnormal range's top, log(2^-126).
    const float under = -0x1.9fe368p6f;
    const float specials[] = {
        under,
        std::nextafter(under, 0.0f),
        std::nextafter(under, -kInf),
        -87.33654f,
        -88.5f,
        -100.0f,
        -kInf,
        0.0f,
        -0.0f,
        1e-40f,
    };
    SplitMix64 rng(77);
    std::vector<std::size_t> lengths;
    for (std::size_t n = 1; n <= 67; ++n) {
        lengths.push_back(n);
    }
    lengths.push_back(1024);
    for (const std::size_t n : lengths) {
        for (int trial = 0; trial < 4; ++trial) {
            std::vector<float> row(n);
            for (float &x : row) {
                const double u = rng.uniform();
                if (trial > 0 && u < 0.3) {
                    x = specials[rng.uniform_index(std::size(specials))];
                } else {
                    x = static_cast<float>(
                        rng.normal(0.0, 4.0 * trial + 1));
                }
            }
            if (trial == 3) {
                // A zero maximum, so the specials are the shifted
                // scores themselves.
                for (float &x : row) {
                    x = -std::fabs(x);
                }
                row[rng.uniform_index(n)] =
                    rng.uniform() < 0.5 ? 0.0f : -0.0f;
            }
            std::vector<float> want = row;
            softmax_inplace(want);
            for (const auto &variant : variants) {
                std::vector<float> got = row;
                variant.run(got);
                for (std::size_t j = 0; j < n; ++j) {
                    ASSERT_TRUE(same_float(got[j], want[j]))
                        << simd::isa_name(variant.isa) << " n=" << n
                        << " trial=" << trial << " j=" << j << " got "
                        << got[j] << " want " << want[j];
                }
            }
        }
    }
    // std::max's NaN rule: a NaN first score is the maximum, a later
    // one is skipped; either way every output is NaN.
    for (const std::size_t nan_at : {0u, 5u, 16u}) {
        std::vector<float> row(40);
        for (float &x : row) {
            x = static_cast<float>(rng.normal(0.0, 3.0));
        }
        row[nan_at] = kNan;
        std::vector<float> want = row;
        softmax_inplace(want);
        for (const auto &variant : variants) {
            std::vector<float> got = row;
            variant.run(got);
            for (std::size_t j = 0; j < row.size(); ++j) {
                EXPECT_TRUE(same_float(got[j], want[j]))
                    << simd::isa_name(variant.isa) << " nan_at=" << nan_at;
            }
        }
    }
}

// The double sums of a softmax row's exps in index order, in reverse,
// and pairwise (halves summed recursively).
double
sum_ascending(const std::vector<float> &e)
{
    double s = 0.0;
    for (const float v : e) {
        s += v;
    }
    return s;
}

double
sum_descending(const std::vector<float> &e)
{
    double s = 0.0;
    for (std::size_t j = e.size(); j-- > 0;) {
        s += e[j];
    }
    return s;
}

double
sum_pairwise(const float *e, std::size_t n)
{
    return n == 1 ? e[0]
                  : sum_pairwise(e, n / 2) + sum_pairwise(e + n / 2, n - n / 2);
}

// A softmax row whose (float)(1.0 / sum) depends on the order of the
// double sum: x[0] = 0 (exp 1, the maximum), x[1] with an exp of about
// (2k + 1) * 2^-25, then 1024 equal scores whose exps lie below half
// an ulp of the running sum. Summed in index order each of those is
// rounded away; summed first (reversed or pairwise) they add about
// 2^-43. x[1] is the float whose exp puts 1 / (1 - (2k + 1) * 2^-25),
// the sum at which 1 / sum rounds across a float midpoint, between the
// two, so the orders give different softmax outputs.
std::vector<float>
order_sensitive_row(int k)
{
    constexpr std::size_t kTinies = 1024;
    const float tiny = -36.9f;
    const float t = std::exp(tiny);
    EXPECT_LT(t, 0x1p-53f);
    const double midpoint = 1.0 - (2 * k + 1) * 0x1p-25;
    const double target = 1.0 / midpoint - 1.0 - kTinies * 0x1p-54;
    std::vector<float> x(2 + kTinies, tiny);
    x[0] = 0.0f;
    const float start = static_cast<float>(std::log(target));
    for (int step = 0; step < 256; ++step) {
        // start, start + 1 ulp, start - 1 ulp, start + 2 ulp, ...
        float xm = start;
        for (int i = 0; i < (step + 1) / 2; ++i) {
            xm = std::nextafter(xm, step % 2 ? 0.0f : -100.0f);
        }
        x[1] = xm;
        std::vector<float> e(x.size());
        for (std::size_t j = 0; j < x.size(); ++j) {
            e[j] = std::exp(x[j]);
        }
        const float asc = static_cast<float>(1.0 / sum_ascending(e));
        const float desc = static_cast<float>(1.0 / sum_descending(e));
        const float pair =
            static_cast<float>(1.0 / sum_pairwise(e.data(), e.size()));
        if (asc != desc && asc != pair) {
            return x;
        }
    }
    ADD_FAILURE() << "no order-sensitive row for k=" << k;
    return x;
}

TEST(Ops, SoftmaxSumsInDoubleInIndexOrder)
{
    const auto variants =
        supported_variants(detail::softmax_variants(), "softmax");
    ASSERT_FALSE(variants.empty());
    constexpr std::size_t kHeads = 4;
    std::vector<std::vector<float>> rows;
    for (int k = 0; k < static_cast<int>(kHeads); ++k) {
        rows.push_back(order_sensitive_row(k));
        std::vector<float> want = rows.back();
        softmax_inplace(want);
        std::vector<float> e(want.size());
        for (std::size_t j = 0; j < e.size(); ++j) {
            e[j] = std::exp(rows.back()[j]);
        }
        // The oracle's first output is 1 / sum in index order.
        ASSERT_EQ(want[0], static_cast<float>(1.0 / sum_ascending(e)));
        for (const auto &variant : variants) {
            std::vector<float> got = rows.back();
            variant.run(got);
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  4 * want.size()),
                      0)
                << simd::isa_name(variant.isa) << " k=" << k;
        }
    }

    // attend_decode runs the rows as the scores of four interleaved
    // heads: head h's query is 1 on its first channel and 0 elsewhere,
    // key j carries 4 * rows[h][j] there (times the scale 1/4 of a
    // 16-wide head gives the score exactly), and only key 0's value
    // row is nonzero (all ones), so every output of head h is the
    // softmax's first probability, 1 / sum.
    constexpr std::size_t kHeadDim = 16;
    constexpr std::size_t kWidth = kHeads * kHeadDim;
    const std::size_t kv_len = rows[0].size();
    SplitMix64 rng(31);
    Matrix k(kv_len, kWidth);
    Matrix v(kv_len, kWidth);
    std::vector<float> q(kWidth, 0.0f);
    for (std::size_t h = 0; h < kHeads; ++h) {
        q[h * kHeadDim] = 1.0f;
    }
    for (std::size_t j = 0; j < kv_len; ++j) {
        for (std::size_t c = 0; c < kWidth; ++c) {
            k(j, c) = c % kHeadDim == 0
                          ? 4.0f * rows[c / kHeadDim][j]
                          : static_cast<float>(rng.normal(0.0, 1.0));
            v(j, c) = j == 0 ? 1.0f : 0.0f;
        }
    }
    std::vector<const std::byte *> kp(kv_len);
    std::vector<const std::byte *> vp(kv_len);
    for (std::size_t j = 0; j < kv_len; ++j) {
        kp[j] = reinterpret_cast<const std::byte *>(k.row(j).data());
        vp[j] = reinterpret_cast<const std::byte *>(v.row(j).data());
    }
    std::vector<float> want(kWidth);
    for (std::size_t h = 0; h < kHeads; ++h) {
        std::vector<float> p = rows[h];
        softmax_inplace(p);
        std::fill_n(want.begin() + h * kHeadDim, kHeadDim, p[0]);
    }
    for (const auto &variant : detail::attend_decode_variants()) {
        if (!simd::isa_supported(variant.isa)) {
            continue;
        }
        std::vector<float> got(kWidth);
        variant.run(q, KvFormat::fp32(), kp, vp, kHeadDim, got);
        EXPECT_EQ(std::memcmp(got.data(), want.data(), 4 * kWidth), 0)
            << simd::isa_name(variant.isa);
    }
}

TEST(Ops, VectorExpfMatchesLibmExpf)
{
#if !(defined(__GLIBC__) && defined(__x86_64__))
    GTEST_SKIP() << "the vector exp replicates glibc's x86-64 expf; this "
                    "build calls std::exp in every variant";
#endif
    if (!simd::isa_supported(simd::Isa::kAvx2)) {
        GTEST_SKIP() << "host lacks AVX2+FMA: only the std::exp baseline "
                        "runs";
    }
    const auto variants =
        supported_variants(detail::expf_variants(), "expf");
    // Every 97th float of [-104, -0] and [+0, 89] (by bit pattern),
    // then the special-case thresholds and their neighbours.
    std::vector<float> x;
    auto sweep = [&x](std::uint32_t lo, std::uint32_t hi) {
        for (std::uint64_t b = lo; b <= hi; b += 97) {
            const auto bits = static_cast<std::uint32_t>(b);
            float f;
            std::memcpy(&f, &bits, sizeof f);
            x.push_back(f);
        }
    };
    std::uint32_t neg_hi;
    std::uint32_t pos_hi;
    const float neg_end = -104.0f;
    const float pos_end = 89.0f;
    std::memcpy(&neg_hi, &neg_end, sizeof neg_hi);
    std::memcpy(&pos_hi, &pos_end, sizeof pos_hi);
    sweep(0x80000000u, neg_hi);
    sweep(0u, pos_hi);
    constexpr float kInf = std::numeric_limits<float>::infinity();
    for (float t : {-0x1.9fe368p6f, 0x1.62e42ep6f, -0x1.9d1d9ep6f, 88.0f,
                    -88.0f, -87.33654f, 0.0f, -0.0f, 1e-45f, -1e-45f,
                    kInf, -kInf}) {
        float lo = t;
        float hi = t;
        for (int i = 0; i < 4; ++i) {
            x.push_back(lo);
            x.push_back(hi);
            lo = std::nextafter(lo, -kInf);
            hi = std::nextafter(hi, kInf);
        }
    }
    // The only two floats whose exp rounds differently when the same
    // steps run without FMAs.
    x.push_back(0x1.04845ep+5f);
    x.push_back(-0x1.f8cbb2p+5f);
    x.push_back(std::numeric_limits<float>::quiet_NaN());
    std::vector<float> want(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        want[i] = std::exp(x[i]);
    }
    for (const auto &variant : variants) {
        std::vector<float> got(x.size());
        variant.run(x, got);
        std::size_t bad = 0;
        for (std::size_t i = 0; i < x.size(); ++i) {
            if (!same_float(got[i], want[i]) && ++bad <= 5) {
                ADD_FAILURE() << simd::isa_name(variant.isa) << " expf("
                              << x[i] << ") = " << got[i] << ", libm "
                              << want[i];
            }
        }
        EXPECT_EQ(bad, 0u) << simd::isa_name(variant.isa) << " over "
                           << x.size() << " inputs";
    }
}

TEST(Ops, VectorSwigluMatchesScalarSiluBitForBit)
{
    const auto variants =
        supported_variants(detail::swiglu_variants(), "swiglu");
    ASSERT_FALSE(variants.empty());
    constexpr float kInf = std::numeric_limits<float>::infinity();
    // -89 and below overflow exp(-x) to +inf, so silu is -0.
    const float specials[] = {-89.0f, -100.0f, -1e30f, 88.7f, 0.0f,
                              -0.0f,  1e-40f,  kInf,   -kInf, 104.0f};
    SplitMix64 rng(78);
    for (const std::size_t n : {1u, 3u, 7u, 8u, 9u, 16u, 17u, 33u, 768u}) {
        std::vector<float> gate(n);
        std::vector<float> up(n);
        for (std::size_t i = 0; i < n; ++i) {
            const bool special = rng.uniform() < 0.25;
            gate[i] = special
                          ? specials[rng.uniform_index(std::size(specials))]
                          : static_cast<float>(rng.normal(0.0, 6.0));
            up[i] = static_cast<float>(rng.normal(0.0, 2.0));
        }
        std::vector<float> want(n);
        for (std::size_t i = 0; i < n; ++i) {
            want[i] = silu(gate[i]) * up[i];
        }
        for (const auto &variant : variants) {
            std::vector<float> got = up;
            variant.run(gate, got);
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_TRUE(same_float(got[i], want[i]))
                    << simd::isa_name(variant.isa) << " gate=" << gate[i]
                    << " got " << got[i] << " want " << want[i];
            }
        }
    }
    std::vector<float> gate = {-95.0f, 2.0f};
    std::vector<float> up = {3.0f, 1.0f};
    swiglu_inplace(gate, up);
    EXPECT_TRUE(std::signbit(up[0]) && up[0] == 0.0f);
    EXPECT_EQ(up[1], silu(2.0f));
}

TEST(Ops, RopeRowsMatchPerHeadRopeInplaceBitForBit)
{
    SplitMix64 rng(79);
    const std::vector<std::size_t> pos = {0, 1, 7, 200, 1023, 4095};
    for (const std::size_t hd : {2u, 8u, 32u, 64u}) {
        for (const std::size_t heads : {1u, 3u, 4u}) {
            Matrix angles(pos.size(), hd);
            rope_angles(pos, hd, angles.flat());
            for (std::size_t t = 0; t < pos.size(); ++t) {
                std::vector<float> row(heads * hd);
                for (float &x : row) {
                    x = static_cast<float>(rng.normal(0.0, 2.0));
                }
                std::vector<float> want = row;
                for (std::size_t h = 0; h < heads; ++h) {
                    rope_inplace(std::span(want).subspan(h * hd, hd),
                                 static_cast<int>(pos[t]));
                }
                rope_rotate(row, angles.row(t));
                EXPECT_EQ(std::memcmp(row.data(), want.data(),
                                      row.size() * sizeof(float)),
                          0)
                    << "hd=" << hd << " heads=" << heads
                    << " pos=" << pos[t];
            }
        }
    }
}

TEST(Ops, LogProbMatchesManualSoftmax)
{
    std::vector<float> logits = {0.5f, 1.5f, -0.5f};
    const double lp = log_prob_of(logits, 1);
    const double denom = std::exp(0.5) + std::exp(1.5) + std::exp(-0.5);
    EXPECT_NEAR(lp, 1.5 - std::log(denom), 1e-6);
}

TEST(Ops, SamplingIsGreedyAtLowTemperature)
{
    std::vector<float> logits = {0.1f, 5.0f, 0.2f};
    for (double u : {0.01, 0.5, 0.99}) {
        EXPECT_EQ(sample_from_logits(logits, 0.05, u), 1);
    }
}

// The scalar per-head attention over copied [rows x head_dim] blocks
// that the row-view kernel replaced, kept verbatim as its bit-exact
// reference.
void
reference_attention_head(const Matrix &q, const Matrix &k,
                         const Matrix &v, std::size_t kv_len,
                         std::size_t q_offset, Matrix &out)
{
    ANDA_DCHECK(q.cols() == k.cols() && k.cols() == v.cols(),
                "attention head dims must agree");
    ANDA_DCHECK_LE(kv_len, k.rows());
    ANDA_DCHECK(out.rows() == q.rows() && out.cols() == v.cols(),
                "attention output shape mismatch");
    const float scale =
        1.0f / std::sqrt(static_cast<float>(q.cols()));
    std::vector<float> scores(kv_len);
    for (std::size_t i = 0; i < q.rows(); ++i) {
        const std::size_t visible =
            std::min(kv_len, q_offset + i + 1);
        for (std::size_t j = 0; j < visible; ++j) {
            float s = 0.0f;
            for (std::size_t c = 0; c < q.cols(); ++c) {
                s += q(i, c) * k(j, c);
            }
            scores[j] = s * scale;
        }
        std::span<float> row(scores.data(), visible);
        softmax_inplace(row);
        for (std::size_t c = 0; c < v.cols(); ++c) {
            float acc = 0.0f;
            for (std::size_t j = 0; j < visible; ++j) {
                acc += scores[j] * v(j, c);
            }
            out(i, c) = acc;
        }
    }
}

// Gaussian entries with signed zeros and subnormals mixed in.
void
fill_attention_input(Matrix &m, SplitMix64 &rng)
{
    for (float &x : m.flat()) {
        const double u = rng.uniform();
        if (u < 0.03) {
            x = -0.0f;
        } else if (u < 0.06) {
            x = 0.0f;
        } else if (u < 0.09) {
            x = static_cast<float>(rng.normal(0.0, 1.0)) * 1e-39f;
        } else {
            x = static_cast<float>(rng.normal(0.0, 1.5));
        }
    }
}

// Runs every attention variant the host supports on one shape (a
// random head of kHeads, q_offset over `offsets`) and memcmp's each
// against reference_attention_head.
void
check_attention_shape(SplitMix64 &rng, std::size_t hd, std::size_t n_q,
                      std::size_t kv_len,
                      const std::vector<std::size_t> &offsets)
{
    constexpr std::size_t kHeads = 3;
    const std::size_t width = kHeads * hd;
    Matrix q(n_q, width);
    Matrix k(kv_len, width);
    Matrix v(kv_len, width);
    fill_attention_input(q, rng);
    fill_attention_input(k, rng);
    fill_attention_input(v, rng);
    std::vector<const float *> qrows;
    std::vector<const float *> krows;
    std::vector<const float *> vrows;
    for (std::size_t t = 0; t < n_q; ++t) {
        qrows.push_back(q.row(t).data());
    }
    for (std::size_t t = 0; t < kv_len; ++t) {
        krows.push_back(k.row(t).data());
        vrows.push_back(v.row(t).data());
    }
    const std::size_t col = rng.uniform_index(kHeads) * hd;
    Matrix qh(n_q, hd);
    Matrix kh(kv_len, hd);
    Matrix vh(kv_len, hd);
    for (std::size_t t = 0; t < n_q; ++t) {
        std::copy_n(q.row(t).data() + col, hd, qh.row(t).data());
    }
    for (std::size_t t = 0; t < kv_len; ++t) {
        std::copy_n(k.row(t).data() + col, hd, kh.row(t).data());
        std::copy_n(v.row(t).data() + col, hd, vh.row(t).data());
    }
    for (const std::size_t q_offset : offsets) {
        Matrix want(n_q, hd);
        reference_attention_head(qh, kh, vh, kv_len, q_offset, want);
        for (const auto &variant :
             detail::causal_attention_head_variants()) {
            if (!simd::isa_supported(variant.isa)) {
                continue;
            }
            Matrix got(n_q, width);
            got.fill(7.0f);
            std::vector<float *> orows;
            for (std::size_t t = 0; t < n_q; ++t) {
                orows.push_back(got.row(t).data());
            }
            variant.run(qrows, krows, vrows, col, hd, q_offset, orows);
            for (std::size_t t = 0; t < n_q; ++t) {
                EXPECT_EQ(std::memcmp(got.row(t).data() + col,
                                      want.row(t).data(),
                                      hd * sizeof(float)),
                          0)
                    << simd::isa_name(variant.isa) << " hd=" << hd
                    << " n_q=" << n_q << " kv_len=" << kv_len
                    << " q_offset=" << q_offset << " row=" << t;
                // Columns of the other heads are left untouched.
                for (std::size_t c = 0; c < width; ++c) {
                    if (c < col || c >= col + hd) {
                        EXPECT_EQ(got(t, c), 7.0f);
                    }
                }
            }
        }
    }
}

TEST(Ops, CausalAttentionHeadMatchesScalarReferenceBitForBit)
{
    std::string ran;
    for (const auto &variant : detail::causal_attention_head_variants()) {
        if (simd::isa_supported(variant.isa)) {
            ran += std::string(ran.empty() ? "" : ", ") +
                   simd::isa_name(variant.isa);
        }
    }
    std::cout << "[ INFO     ] attention variants run: " << ran << "\n";
    ASSERT_FALSE(ran.empty());
    SplitMix64 rng(2024);
    // Tile edges: query counts off a multiple of 4, kv_len off a
    // multiple of 16, a head narrower than one vector (8) or off a
    // multiple of 4 (10), and q_offset 0 with several query rows.
    for (const std::size_t hd : {8u, 10u, 32u}) {
        for (const auto &[n_q, kv_len] :
             {std::pair<std::size_t, std::size_t>{1, 1},
              {3, 3},
              {5, 17},
              {6, 33},
              {7, 64},
              {9, 100},
              {4, 16}}) {
            check_attention_shape(rng, hd, n_q, kv_len,
                                  {0, kv_len - n_q, kv_len});
        }
    }
    for (const std::size_t hd : {8u, 32u, 64u}) {
        for (int trial = 0; trial < 12; ++trial) {
            const std::size_t n_q = 1 + rng.uniform_index(33);
            const std::size_t kv_len =
                n_q + rng.uniform_index(1100 - n_q + 1);
            // Offsets around the point where the last query row sees
            // exactly every key, plus both extremes.
            const std::size_t edge = kv_len - n_q;
            std::vector<std::size_t> offsets = {0, edge, edge + 1,
                                                kv_len};
            if (edge > 0) {
                offsets.push_back(edge - 1);
            }
            check_attention_shape(rng, hd, n_q, kv_len, offsets);
        }
    }
    // The dispatched entry point on one prefill-chunk shape.
    Matrix q(8, 32);
    Matrix k(40, 32);
    Matrix v(40, 32);
    fill_attention_input(q, rng);
    fill_attention_input(k, rng);
    fill_attention_input(v, rng);
    Matrix want(8, 32);
    reference_attention_head(q, k, v, 40, 32, want);
    std::vector<const float *> qrows;
    std::vector<float *> orows;
    std::vector<const float *> krows;
    std::vector<const float *> vrows;
    Matrix got(8, 32);
    for (std::size_t t = 0; t < 8; ++t) {
        qrows.push_back(q.row(t).data());
        orows.push_back(got.row(t).data());
    }
    for (std::size_t t = 0; t < 40; ++t) {
        krows.push_back(k.row(t).data());
        vrows.push_back(v.row(t).data());
    }
    causal_attention_head(qrows, krows, vrows, 0, 32, 32, orows);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), 8 * 32 * sizeof(float)),
              0);
}

TEST(ModelZoo, HasNineModelsInPaperOrder)
{
    const auto &zoo = model_zoo();
    ASSERT_EQ(zoo.size(), 9u);
    EXPECT_EQ(zoo.front().name, "opt-1.3b");
    EXPECT_EQ(zoo.back().name, "opt-30b");
    EXPECT_EQ(find_model("llama2-13b").family, Family::kLlama2);
    EXPECT_THROW(find_model("gpt-4"), std::invalid_argument);
}

TEST(ModelZoo, ModuleMacShares)
{
    // For OPT (ffn = 4d): qkv:o:u:d = 3:1:4:4 of d^2.
    const auto &m = find_model("opt-6.7b");
    const auto macs = module_macs_per_token(m.real, m.family);
    EXPECT_DOUBLE_EQ(macs.o * 3, macs.qkv);
    EXPECT_DOUBLE_EQ(macs.u, macs.d);
    EXPECT_DOUBLE_EQ(macs.u, 4 * macs.o);
    // LLaMA: u = 2x d share (gate + up).
    const auto &l = find_model("llama-7b");
    const auto lm = module_macs_per_token(l.real, l.family);
    EXPECT_DOUBLE_EQ(lm.u, 2 * lm.d);
}

class TransformerTest : public ::testing::Test {
  protected:
    static const Transformer &model()
    {
        static const Transformer m(find_model("opt-1.3b"));
        return m;
    }
};

TEST_F(TransformerTest, LogitShapeAndDeterminism)
{
    RunOptions opts;
    const std::vector<int> toks = {0, 3, 77, 120};
    const Matrix a = model().forward_logits(toks, opts);
    const Matrix b = model().forward_logits(toks, opts);
    EXPECT_EQ(a.rows(), 4u);
    EXPECT_EQ(a.cols(), 256u);
    EXPECT_EQ(max_abs_diff(a, b), 0.0);
}

TEST_F(TransformerTest, RejectsBadInputs)
{
    RunOptions opts;
    EXPECT_THROW(model().forward_logits(std::vector<int>{}, opts),
                 std::invalid_argument);
    EXPECT_THROW(model().forward_logits(std::vector<int>{0, 999}, opts),
                 std::invalid_argument);
    EXPECT_THROW(model().sequence_nll(std::vector<int>{5}, opts),
                 std::invalid_argument);
    EXPECT_THROW(model().sample_sequence(0, 1.0, 1),
                 std::invalid_argument);
}

TEST_F(TransformerTest, DecodeMatchesFullForward)
{
    // The KV-cached sampler and the batch forward must agree: a
    // sampled sequence re-scored by the batch path must predict each
    // sampled token with the probability the sampler used. We verify
    // consistency indirectly: greedy decode == argmax of batch logits.
    const auto seq = model().sample_sequence(12, 0.01, 42);
    RunOptions fp;
    fp.quantized_weights = false;
    const Matrix logits = model().forward_logits(seq, fp);
    for (std::size_t t = 0; t + 1 < seq.size(); ++t) {
        int argmax = 0;
        for (std::size_t v = 1; v < logits.cols(); ++v) {
            if (logits(t, v) > logits(t, argmax)) {
                argmax = static_cast<int>(v);
            }
        }
        EXPECT_EQ(seq[t + 1], argmax) << "t=" << t;
    }
}

TEST_F(TransformerTest, QuantizedWeightsDegradePerplexity)
{
    const DatasetSpec &spec = standard_datasets()[0];
    const Corpus val = generate_corpus(model(), spec, Split::kValidation);
    RunOptions fp;
    fp.quantized_weights = false;
    RunOptions w4;
    w4.quantized_weights = true;
    const double ppl_fp = perplexity(model(), val, fp);
    const double ppl_w4 = perplexity(model(), val, w4);
    EXPECT_GT(ppl_fp, 1.5);  // Teacher is not degenerate.
    EXPECT_LT(ppl_fp, 200.0);
    EXPECT_GT(ppl_w4, ppl_fp);  // Quantization hurts.
    EXPECT_LT(accuracy_loss(ppl_w4, ppl_fp), 0.25);
}

TEST_F(TransformerTest, BfpMantissaSweepDegradesMonotonically)
{
    const DatasetSpec &spec = standard_datasets()[0];
    const Corpus val = generate_corpus(model(), spec, Split::kValidation);
    RunOptions w4;
    const double base = perplexity(model(), val, w4);
    double prev_loss = -0.01;
    for (int m : {11, 8, 6, 5, 4, 3}) {
        RunOptions r = w4;
        r.prec = PrecisionConfig::uniform_bfp(64, m);
        const double loss =
            accuracy_loss(perplexity(model(), val, r), base);
        EXPECT_GT(loss, prev_loss - 0.01)
            << "m=" << m;  // Allow small noise.
        prev_loss = loss;
    }
    EXPECT_GT(prev_loss, 0.05);  // M=3 must hurt badly.
}

/// FNV-1a over the bytes of a float buffer.
std::uint64_t
byte_checksum(std::uint64_t h, std::span<const float> v)
{
    const auto *p = reinterpret_cast<const unsigned char *>(v.data());
    for (std::size_t i = 0; i < v.size_bytes(); ++i) {
        h = (h ^ p[i]) * 0x100000001b3ull;
    }
    return h;
}

/// The executor's outputs, recorded as exact values: any refactor of
/// the forward pass (tap fusion, weight layout, attention plumbing)
/// must leave every one of them bit-identical.
struct PinnedOutputs {
    const char *model;
    double nll_w4_anda;     ///< sequence_nll, W4, anda({8,7,7,6}).
    double nll_full_fp16;   ///< sequence_nll, full weights, FP16.
    double nll_kv_anda7;    ///< cached_sequence_nll, W4, KV anda(7).
    std::uint64_t decode;   ///< Logit bytes of prefill + 3 decode steps.
};

PinnedOutputs
executor_outputs(const char *name)
{
    const Transformer model(find_model(name));
    const std::vector<int> toks = {0,  17, 203, 5,   88, 141, 9,   250,
                                   33, 64, 2,   199, 77, 120, 46,  11};
    RunOptions w4;
    w4.prec = PrecisionConfig::anda({8, 7, 7, 6});
    RunOptions full;
    full.quantized_weights = false;
    KvCache cache = model.make_cache();
    BatchKvCache batch;
    batch.add(cache);
    std::uint64_t decode = 0xcbf29ce484222325ull;  // FNV-1a offset basis.
    decode = byte_checksum(decode, model.prefill(cache, toks, w4));
    for (const int tok : {3, 140, 61}) {
        const Matrix logits =
            model.decode_step(batch, std::span<const int>(&tok, 1), w4);
        decode = byte_checksum(decode, logits.flat());
    }
    return {name, model.sequence_nll(toks, w4),
            model.sequence_nll(toks, full),
            model.cached_sequence_nll(toks, w4, KvFormat::anda(7)), decode};
}

TEST(Transformer, OutputsArePinned)
{
    const PinnedOutputs want[] = {
        {"opt-6.7b", 0x1.cd02c453adcfcp+6, 0x1.d0c03df2708dep+6,
         0x1.cd5eac036504ep+6, 0x5c4af60f78463c6full},
        {"llama2-7b", 0x1.d60d59c4f83b2p+6, 0x1.ca71be00ba912p+6,
         0x1.d681a109595d5p+6, 0x59e87ea5b87517b4ull},
    };
    for (const PinnedOutputs &w : want) {
        const PinnedOutputs got = executor_outputs(w.model);
        EXPECT_EQ(got.nll_w4_anda, w.nll_w4_anda) << w.model;
        EXPECT_EQ(got.nll_full_fp16, w.nll_full_fp16) << w.model;
        EXPECT_EQ(got.nll_kv_anda7, w.nll_kv_anda7) << w.model;
        EXPECT_EQ(got.decode, w.decode) << w.model;
    }
}

TEST(Corpus, SplitsAndDatasetsDiffer)
{
    const Transformer model(find_model("opt-2.7b"));
    const auto &specs = standard_datasets();
    ASSERT_EQ(specs.size(), 3u);
    const Corpus cal =
        generate_corpus(model, specs[0], Split::kCalibration);
    const Corpus val =
        generate_corpus(model, specs[0], Split::kValidation);
    EXPECT_EQ(cal.sequences.size(),
              static_cast<std::size_t>(specs[0].n_sequences));
    EXPECT_NE(cal.sequences[0], val.sequences[0]);
    EXPECT_EQ(cal.predicted_tokens(),
              static_cast<std::size_t>(specs[0].n_sequences) *
                  (specs[0].seq_len - 1));
    EXPECT_THROW(find_dataset("imagenet"), std::invalid_argument);
}

TEST(Families, LlamaUsesGatedFfnPath)
{
    // Smoke test that a LLaMA-family model runs end to end and is
    // sensitive to the Ad tap (the gated product feeds W_down).
    const Transformer model(find_model("llama-7b"));
    RunOptions w4;
    const std::vector<int> toks = {0, 10, 20, 30};
    const Matrix base = model.forward_logits(toks, w4);
    RunOptions crushed = w4;
    crushed.prec.d = ActFormat::bfp(64, 1);
    const Matrix out = model.forward_logits(toks, crushed);
    EXPECT_GT(max_abs_diff(base, out), 1e-3);
}

}  // namespace
}  // namespace anda
