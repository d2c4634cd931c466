// Tests for the transformer substrate: ops, model construction,
// forward/decode consistency, corpora, and perplexity behaviour.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
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

TEST(Ops, CausalAttentionHeadMatchesScalarReferenceBitForBit)
{
    SplitMix64 rng(2024);
    constexpr std::size_t kHeads = 3;
    for (const std::size_t hd : {8u, 32u, 64u}) {
        const std::size_t width = kHeads * hd;
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
            const std::size_t h = rng.uniform_index(kHeads);
            const std::size_t col = h * hd;
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
                reference_attention_head(qh, kh, vh, kv_len, q_offset,
                                         want);
                Matrix got(n_q, width);
                got.fill(7.0f);
                std::vector<float *> orows;
                for (std::size_t t = 0; t < n_q; ++t) {
                    orows.push_back(got.row(t).data());
                }
                causal_attention_head(qrows, krows, vrows, col, hd,
                                      q_offset, orows);
                for (std::size_t t = 0; t < n_q; ++t) {
                    EXPECT_EQ(std::memcmp(got.row(t).data() + col,
                                          want.row(t).data(),
                                          hd * sizeof(float)),
                              0)
                        << "hd=" << hd << " kv_len=" << kv_len
                        << " q_offset=" << q_offset << " row=" << t;
                    // Columns of the other heads are left untouched.
                    for (std::size_t c = 0; c < width; ++c) {
                        if (c < col || c >= col + hd) {
                            ASSERT_EQ(got(t, c), 7.0f);
                        }
                    }
                }
            }
        }
    }
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
