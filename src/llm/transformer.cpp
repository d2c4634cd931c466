#include "llm/transformer.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/fp16.h"
#include "common/rng.h"
#include "llm/ops.h"

namespace anda {

PrecisionConfig
PrecisionConfig::uniform_bfp(int group_size, int mantissa_bits)
{
    PrecisionConfig p;
    p.qkv = ActFormat::bfp(group_size, mantissa_bits);
    p.o = ActFormat::bfp(group_size, mantissa_bits);
    p.u = ActFormat::bfp(group_size, mantissa_bits);
    p.d = ActFormat::bfp(group_size, mantissa_bits);
    return p;
}

PrecisionConfig
PrecisionConfig::anda(const std::array<int, 4> &mantissa)
{
    PrecisionConfig p;
    p.qkv = ActFormat::bfp(64, mantissa[0]);
    p.o = ActFormat::bfp(64, mantissa[1]);
    p.u = ActFormat::bfp(64, mantissa[2]);
    p.d = ActFormat::bfp(64, mantissa[3]);
    return p;
}

namespace {

/// Fills a [rows x cols] matrix with N(0, std) entries.
void
fill_gaussian(Matrix &m, SplitMix64 &rng, double std)
{
    for (std::size_t r = 0; r < m.rows(); ++r) {
        for (std::size_t c = 0; c < m.cols(); ++c) {
            m(r, c) = static_cast<float>(rng.normal(0.0, std));
        }
    }
}

/// Scales `count` distinct rows of m by `gain` (outlier implants on
/// output channels).
void
implant_row_outliers(Matrix &m, SplitMix64 &rng, int count, double gain)
{
    for (int i = 0; i < count; ++i) {
        const std::size_t r = rng.uniform_index(m.rows());
        for (float &v : m.row(r)) {
            v *= static_cast<float>(gain);
        }
    }
}

/// Rounds every element of a matrix through FP16.
void
round_matrix_fp16(Matrix &m)
{
    for (float &v : m.flat()) {
        v = fp16_round(v);
    }
}

WeightQuantParams
w4_params()
{
    WeightQuantParams p;
    p.group_size = 128;
    p.bits = 4;
    p.clip_search = true;
    return p;
}

Matrix
quantize_dequantize(const Matrix &w)
{
    return QuantizedWeight::quantize(w, w4_params()).dequantize();
}

}  // namespace

Transformer::Transformer(const ModelConfig &cfg) : cfg_(cfg)
{
    const ModelDims &d = cfg_.sim;
    const OutlierProfile &prof = cfg_.profile;
    ANDA_CHECK_EQ(d.d_model % d.n_heads, 0,
                  "d_model must divide by n_heads");

    SplitMix64 rng(derive_seed(cfg_.seed, 0));

    // Per-channel gain profile of the residual stream: mild log-normal
    // variation plus a few strong outlier channels. Applied to the norm
    // gains so the post-norm activations (Aqkv, Au) carry the
    // documented outlier structure.
    std::vector<float> channel_gain(static_cast<std::size_t>(d.d_model));
    for (auto &g : channel_gain) {
        g = static_cast<float>(rng.lognormal(0.0, prof.channel_sigma));
    }
    for (int i = 0; i < prof.outlier_channels; ++i) {
        const std::size_t c = rng.uniform_index(channel_gain.size());
        channel_gain[c] *= static_cast<float>(prof.resid_outlier_gain);
    }

    // Token embedding with mild channel variation; position table for
    // the OPT family.
    embedding_ = Matrix(static_cast<std::size_t>(d.vocab),
                        static_cast<std::size_t>(d.d_model));
    fill_gaussian(embedding_, rng, 1.0);
    for (std::size_t v = 0; v < embedding_.rows(); ++v) {
        for (std::size_t c = 0; c < embedding_.cols(); ++c) {
            embedding_(v, c) *=
                0.8f + 0.2f * std::min(2.0f, channel_gain[c]);
        }
    }
    round_matrix_fp16(embedding_);
    // The logit head is untied from the embedding: with random
    // (untrained) weights a tied head creates a degenerate
    // copy-current-token attractor through the residual stream, which
    // no trained LM exhibits.
    lm_head_ = Matrix(static_cast<std::size_t>(d.vocab),
                      static_cast<std::size_t>(d.d_model));
    fill_gaussian(lm_head_, rng, 1.0);
    round_matrix_fp16(lm_head_);
    if (!cfg_.is_llama()) {
        pos_embedding_ = Matrix(static_cast<std::size_t>(d.max_seq),
                                static_cast<std::size_t>(d.d_model));
        fill_gaussian(pos_embedding_, rng, 0.1);
        round_matrix_fp16(pos_embedding_);
    }

    final_norm_gain_.resize(static_cast<std::size_t>(d.d_model));
    for (auto &g : final_norm_gain_) {
        g = static_cast<float>(rng.lognormal(0.0, 0.15));
    }

    const double inv_sqrt_d = 1.0 / std::sqrt(double(d.d_model));
    const double inv_sqrt_f = 1.0 / std::sqrt(double(d.d_ffn));
    const double resid_scale =
        1.0 / std::sqrt(2.0 * double(d.n_layers));

    // Trained networks adapt downstream weight magnitudes to their
    // input scales. The implanted gains inflate the post-norm
    // activation RMS, so projection weights are normalized by that RMS:
    // outliers then shape the *relative* within-group dynamic range
    // (what shared-exponent truncation reacts to) without saturating
    // attention or the residual stream.
    double gain_sq = 0.0;
    for (float g : channel_gain) {
        gain_sq += static_cast<double>(g) * g;
    }
    const double rms_gain =
        std::sqrt(gain_sq / static_cast<double>(channel_gain.size()));
    // RMS inflation of the Ao input caused by Wv row outliers and of
    // the Ad input caused by up-projection row outliers.
    const double rms_ctx = std::sqrt(
        1.0 + prof.outlier_channels *
                  (prof.o_outlier_gain * prof.o_outlier_gain - 1.0) /
                  double(d.d_model));
    const double rms_ffn = std::sqrt(
        1.0 + prof.outlier_channels *
                  (prof.d_outlier_gain * prof.d_outlier_gain - 1.0) /
                  double(d.d_ffn));

    layers_.resize(static_cast<std::size_t>(d.n_layers));
    for (auto &lw : layers_) {
        lw.norm1_gain = channel_gain;
        lw.norm2_gain = channel_gain;

        lw.wq = Matrix(d.d_model, d.d_model);
        lw.wk = Matrix(d.d_model, d.d_model);
        lw.wv = Matrix(d.d_model, d.d_model);
        lw.wo = Matrix(d.d_model, d.d_model);
        fill_gaussian(lw.wq, rng,
                      inv_sqrt_d * prof.attn_sharpness / rms_gain);
        fill_gaussian(lw.wk, rng, inv_sqrt_d / rms_gain);
        fill_gaussian(lw.wv, rng, inv_sqrt_d / rms_gain);
        fill_gaussian(lw.wo, rng, inv_sqrt_d * resid_scale / rms_ctx);
        // Outlier output channels of Wv shape the Ao tap's statistics.
        implant_row_outliers(lw.wv, rng, prof.outlier_channels,
                             prof.o_outlier_gain);

        lw.w_up = Matrix(d.d_ffn, d.d_model);
        lw.w_down = Matrix(d.d_model, d.d_ffn);
        fill_gaussian(lw.w_up, rng, inv_sqrt_d / rms_gain);
        fill_gaussian(lw.w_down, rng,
                      inv_sqrt_f * resid_scale / rms_ffn);
        // Outlier FFN channels shape the Ad tap's statistics.
        implant_row_outliers(lw.w_up, rng, prof.outlier_channels,
                             prof.d_outlier_gain);
        if (cfg_.is_llama()) {
            lw.w_gate = Matrix(d.d_ffn, d.d_model);
            fill_gaussian(lw.w_gate, rng, inv_sqrt_d / rms_gain);
        }

        // Deployment-quantized (W4A16g128) copies.
        lw.wq_dq = quantize_dequantize(lw.wq);
        lw.wk_dq = quantize_dequantize(lw.wk);
        lw.wv_dq = quantize_dequantize(lw.wv);
        lw.wo_dq = quantize_dequantize(lw.wo);
        lw.w_up_dq = quantize_dequantize(lw.w_up);
        lw.w_down_dq = quantize_dequantize(lw.w_down);
        if (cfg_.is_llama()) {
            lw.w_gate_dq = quantize_dequantize(lw.w_gate);
        }
    }
}

void
Transformer::embed_into(std::span<const int> tokens,
                        std::size_t pos_offset, Matrix &x,
                        std::size_t row0) const
{
    const ModelDims &d = cfg_.sim;
    for (std::size_t t = 0; t < tokens.size(); ++t) {
        const int tok = tokens[t];
        ANDA_CHECK(tok >= 0 && tok < d.vocab, "token id out of range");
        const auto erow = embedding_.row(static_cast<std::size_t>(tok));
        auto xrow = x.row(row0 + t);
        std::copy(erow.begin(), erow.end(), xrow.begin());
        if (!cfg_.is_llama()) {
            const std::size_t pos = pos_offset + t;
            ANDA_DCHECK_LT(pos, pos_embedding_.rows());
            const auto prow = pos_embedding_.row(pos);
            for (std::size_t c = 0; c < xrow.size(); ++c) {
                xrow[c] += prow[c];
            }
        }
        for (float &v : xrow) {
            v = fp16_round(v);
        }
    }
}

void
Transformer::run_block(std::size_t layer, Matrix &x,
                       const RunOptions &opts, BatchKvCache *kv,
                       std::span<const std::size_t> seq_lens) const
{
    const ModelDims &dims = cfg_.sim;
    const LayerWeights &lw = layers_[layer];
    const std::size_t t_len = x.rows();
    const std::size_t d = static_cast<std::size_t>(dims.d_model);
    const std::size_t heads = static_cast<std::size_t>(dims.n_heads);
    const std::size_t hd = d / heads;
    const bool llama = cfg_.is_llama();
    ANDA_DCHECK(!seq_lens.empty());
    ANDA_DCHECK(kv == nullptr || kv->size() == seq_lens.size());
#if ANDA_DCHECKS_ENABLED
    {
        std::size_t total = 0;
        for (std::size_t len : seq_lens) {
            total += len;
        }
        ANDA_DCHECK_EQ(total, t_len,
                       "packed rows do not match sequence lengths");
    }
#endif

    // ---- Attention ----
    Matrix a(t_len, d);
    for (std::size_t t = 0; t < t_len; ++t) {
        if (llama) {
            rms_norm(x.row(t), lw.norm1_gain, a.row(t));
        } else {
            layer_norm(x.row(t), lw.norm1_gain, a.row(t));
        }
    }
    apply_act_format(a, opts.prec.qkv, opts.threads);  // Aqkv tap.

    Matrix q = matmul_wt(a, pick(lw.wq, lw.wq_dq, opts), opts.threads);
    Matrix k = matmul_wt(a, pick(lw.wk, lw.wk_dq, opts), opts.threads);
    Matrix v = matmul_wt(a, pick(lw.wv, lw.wv_dq, opts), opts.threads);
    if (llama) {
        std::size_t off = 0;
        for (std::size_t s = 0; s < seq_lens.size(); ++s) {
            const std::size_t len = seq_lens[s];
            // Positions restart at every packed sequence boundary and,
            // when decoding, continue from the sequence's cached
            // prefix length.
            const std::size_t base =
                kv != nullptr ? kv->seq(s).length() : 0;
            for (std::size_t t = 0; t < len; ++t) {
                const std::size_t pos = base + t;
                for (std::size_t h = 0; h < heads; ++h) {
                    rope_inplace(q.row(off + t).subspan(h * hd, hd),
                                 static_cast<int>(pos));
                    rope_inplace(k.row(off + t).subspan(h * hd, hd),
                                 static_cast<int>(pos));
                }
            }
            off += len;
        }
    }

    if (kv != nullptr) {
        // Incremental decode: append each sequence's new rows to its
        // cache (rows are cache-absolute, continuing the prefix).
        // Row-by-row through KvSeq, so the physical layout (slab or
        // paged) and storage format are the cache's business — a
        // quantized cache packs here, at the row's single store, so
        // every later read (including this step's attend below) sees
        // the quantized values regardless of prefill chunking.
        std::size_t off = 0;
        for (std::size_t s = 0; s < seq_lens.size(); ++s) {
            KvSeq &c = kv->seq(s);
            const std::size_t base = c.length();
            for (std::size_t t = 0; t < seq_lens[s]; ++t) {
                c.store_k(layer, base + t, k.row(off + t));
                c.store_v(layer, base + t, v.row(off + t));
            }
            off += seq_lens[s];
        }
    }

    Matrix ctx(t_len, d);
    {
        // Per-row pointers of the current sequence, resolved once per
        // sequence (not once per head); the attention kernel reads
        // each head's columns in place. With a cache the K/V rows
        // come through the KvSeq page/slab indirection; without one,
        // from the local projection block.
        std::vector<const float *> qrows;
        std::vector<float *> orows;
        std::vector<const float *> krows;
        std::vector<const float *> vrows;
        // Dequantize-on-attend scratch: a quantized cache has no
        // in-place float rows, so its prefix is unpacked here once
        // per (sequence, layer) and the pointers address the scratch.
        Matrix kgat;
        Matrix vgat;
        std::size_t r0 = 0;
        for (std::size_t s = 0; s < seq_lens.size(); ++s) {
            const std::size_t len = seq_lens[s];
            // With a cache, k/v rows are cache-absolute and span the
            // sequence's whole prefix (which the fresh rows were just
            // appended to); without one, each sequence's rows sit at
            // its own block offset.
            const std::size_t base =
                kv != nullptr ? kv->seq(s).length() : 0;
            const std::size_t kv_len = base + len;
            krows.resize(kv_len);
            vrows.resize(kv_len);
            if (kv != nullptr) {
                const KvSeq &c = kv->seq(s);
                if (c.format().quantized()) {
                    if (kgat.rows() < kv_len) {
                        kgat = Matrix(kv_len, d);
                        vgat = Matrix(kv_len, d);
                    }
                    for (std::size_t t = 0; t < kv_len; ++t) {
                        c.load_k(layer, t, kgat.row(t));
                        c.load_v(layer, t, vgat.row(t));
                        krows[t] = kgat.row(t).data();
                        vrows[t] = vgat.row(t).data();
                    }
                } else {
                    for (std::size_t t = 0; t < kv_len; ++t) {
                        krows[t] = c.k_row(layer, t).data();
                        vrows[t] = c.v_row(layer, t).data();
                    }
                }
            } else {
                for (std::size_t t = 0; t < kv_len; ++t) {
                    krows[t] = k.row(r0 + t).data();
                    vrows[t] = v.row(r0 + t).data();
                }
            }
            qrows.resize(len);
            orows.resize(len);
            for (std::size_t t = 0; t < len; ++t) {
                qrows[t] = q.row(r0 + t).data();
                orows[t] = ctx.row(r0 + t).data();
            }
            for (std::size_t h = 0; h < heads; ++h) {
                causal_attention_head(qrows, krows, vrows, h * hd, hd,
                                      base, orows);
            }
            r0 += len;
        }
    }
    apply_act_format(ctx, opts.prec.o, opts.threads);  // Ao tap.
    const Matrix att_out =
        matmul_wt(ctx, pick(lw.wo, lw.wo_dq, opts), opts.threads);
    for (std::size_t t = 0; t < t_len; ++t) {
        auto xrow = x.row(t);
        const auto orow = att_out.row(t);
        for (std::size_t c = 0; c < d; ++c) {
            xrow[c] = fp16_round(xrow[c] + orow[c]);
        }
    }

    // ---- Feed-forward ----
    Matrix b(t_len, d);
    for (std::size_t t = 0; t < t_len; ++t) {
        if (llama) {
            rms_norm(x.row(t), lw.norm2_gain, b.row(t));
        } else {
            layer_norm(x.row(t), lw.norm2_gain, b.row(t));
        }
    }
    apply_act_format(b, opts.prec.u, opts.threads);  // Au tap.

    Matrix hmat;
    if (llama) {
        Matrix g =
            matmul_wt(b, pick(lw.w_gate, lw.w_gate_dq, opts),
                      opts.threads);
        hmat = matmul_wt(b, pick(lw.w_up, lw.w_up_dq, opts),
                         opts.threads);
        for (std::size_t i = 0; i < hmat.size(); ++i) {
            hmat.flat()[i] = silu(g.flat()[i]) * hmat.flat()[i];
        }
    } else {
        hmat = matmul_wt(b, pick(lw.w_up, lw.w_up_dq, opts),
                         opts.threads);
        for (float &vv : hmat.flat()) {
            vv = relu(vv);
        }
    }
    apply_act_format(hmat, opts.prec.d, opts.threads);  // Ad tap.
    const Matrix ffn_out =
        matmul_wt(hmat, pick(lw.w_down, lw.w_down_dq, opts),
                  opts.threads);
    for (std::size_t t = 0; t < t_len; ++t) {
        auto xrow = x.row(t);
        const auto frow = ffn_out.row(t);
        for (std::size_t c = 0; c < d; ++c) {
            xrow[c] = fp16_round(xrow[c] + frow[c]);
        }
    }
}

void
Transformer::final_logits_row(std::span<const float> x,
                              std::span<float> out) const
{
    const ModelDims &dims = cfg_.sim;
    std::vector<float> normed(x.size());
    if (cfg_.is_llama()) {
        rms_norm(x, final_norm_gain_, normed);
    } else {
        layer_norm(x, final_norm_gain_, normed);
    }
    for (float &v : normed) {
        v = fp16_round(v);
    }
    const float scale =
        static_cast<float>(cfg_.profile.logit_scale) /
        std::sqrt(static_cast<float>(dims.d_model));
    for (std::size_t v = 0; v < out.size(); ++v) {
        out[v] = scale * dot_f32(normed.data(),
                                 lm_head_.data() + v * x.size(),
                                 x.size());
    }
}

Matrix
Transformer::forward_hidden(std::span<const int> tokens_flat,
                            std::span<const std::size_t> seq_lens,
                            const RunOptions &opts,
                            BatchKvCache *kv) const
{
    ANDA_CHECK(!seq_lens.empty() && !tokens_flat.empty(),
               "empty token sequence");
    ANDA_CHECK(kv == nullptr || kv->size() == seq_lens.size(),
               "cache batch does not match sequence count");
    std::size_t total = 0;
    for (std::size_t s = 0; s < seq_lens.size(); ++s) {
        const std::size_t len = seq_lens[s];
        ANDA_CHECK_GT(len, 0u, "empty sequence in batch");
        if (kv != nullptr) {
            const KvSeq &c = kv->seq(s);
            ANDA_CHECK(
                c.n_layers() == layers_.size() &&
                    c.d_model() ==
                        static_cast<std::size_t>(cfg_.sim.d_model) &&
                    c.max_seq() ==
                        static_cast<std::size_t>(cfg_.sim.max_seq),
                "cache shape does not match the model");
        }
        const std::size_t base =
            kv != nullptr ? kv->seq(s).length() : 0;
        ANDA_CHECK_LE(base + len,
                      static_cast<std::size_t>(cfg_.sim.max_seq),
                      "sequence exceeds max_seq");
        total += len;
    }
    ANDA_CHECK_EQ(total, tokens_flat.size(),
                  "packed token buffer does not match sequence lengths");
    if (kv != nullptr) {
        // One growth per step (geometric for slabs, exact pages for
        // paged caches), after all validation (a throwing call must
        // not mutate any cache) and before any layer writes.
        for (std::size_t s = 0; s < seq_lens.size(); ++s) {
            kv->seq(s).reserve(kv->seq(s).length() + seq_lens[s]);
        }
    }
    Matrix x(tokens_flat.size(),
             static_cast<std::size_t>(cfg_.sim.d_model));
    std::size_t off = 0;
    for (std::size_t s = 0; s < seq_lens.size(); ++s) {
        const std::size_t len = seq_lens[s];
        const std::size_t base =
            kv != nullptr ? kv->seq(s).length() : 0;
        embed_into(tokens_flat.subspan(off, len), base, x, off);
        off += len;
    }
    for (std::size_t l = 0; l < layers_.size(); ++l) {
        run_block(l, x, opts, kv, seq_lens);
    }
    if (kv != nullptr) {
        // Commit only after every layer consumed the pre-step lengths.
        for (std::size_t s = 0; s < seq_lens.size(); ++s) {
            kv->seq(s).advance(seq_lens[s]);
        }
    }
    return x;
}

KvCache
Transformer::make_cache(const KvFormat &fmt) const
{
    return KvCache(layers_.size(),
                   static_cast<std::size_t>(cfg_.sim.d_model),
                   static_cast<std::size_t>(cfg_.sim.max_seq), fmt);
}

std::vector<float>
Transformer::prefill(KvSeq &cache, std::span<const int> tokens,
                     const RunOptions &opts, bool want_logits) const
{
    BatchKvCache batch;
    batch.add(cache);
    const std::size_t len = tokens.size();
    const Matrix x = forward_hidden(tokens, {&len, 1}, opts, &batch);
    std::vector<float> logits;
    if (want_logits) {
        logits.resize(static_cast<std::size_t>(cfg_.sim.vocab));
        final_logits_row(x.row(len - 1), logits);
    }
    return logits;
}

Matrix
Transformer::decode_step(BatchKvCache &caches,
                         std::span<const int> tokens,
                         const RunOptions &opts) const
{
    ANDA_CHECK(!caches.empty() && caches.size() == tokens.size(),
               "decode step needs one token per cached sequence");
    const std::vector<std::size_t> lens(tokens.size(), 1);
    const Matrix x = forward_hidden(tokens, lens, opts, &caches);
    Matrix logits(tokens.size(),
                  static_cast<std::size_t>(cfg_.sim.vocab));
    for (std::size_t b = 0; b < tokens.size(); ++b) {
        final_logits_row(x.row(b), logits.row(b));
    }
    return logits;
}

Matrix
Transformer::forward_logits(std::span<const int> tokens,
                            const RunOptions &opts) const
{
    const std::size_t len = tokens.size();
    const Matrix x = forward_hidden(tokens, {&len, 1}, opts);
    Matrix logits(tokens.size(),
                  static_cast<std::size_t>(cfg_.sim.vocab));
    for (std::size_t t = 0; t < tokens.size(); ++t) {
        final_logits_row(x.row(t), logits.row(t));
    }
    return logits;
}

namespace {

/// Packs B ragged sequences into one flat token buffer plus their
/// lengths; throws on an empty batch (per-sequence length checks live
/// in forward_hidden).
struct PackedBatch {
    std::vector<int> tokens;
    std::vector<std::size_t> lens;
};

PackedBatch
pack_sequences(std::span<const std::vector<int>> seqs)
{
    ANDA_CHECK(!seqs.empty(), "empty sequence batch");
    PackedBatch packed;
    packed.lens.reserve(seqs.size());
    std::size_t total = 0;
    for (const auto &s : seqs) {
        total += s.size();
    }
    packed.tokens.reserve(total);
    for (const auto &s : seqs) {
        packed.lens.push_back(s.size());
        packed.tokens.insert(packed.tokens.end(), s.begin(), s.end());
    }
    return packed;
}

}  // namespace

Matrix
Transformer::forward_logits_batched(
    std::span<const std::vector<int>> seqs, const RunOptions &opts) const
{
    const PackedBatch packed = pack_sequences(seqs);
    const Matrix x = forward_hidden(packed.tokens, packed.lens, opts);
    Matrix logits(x.rows(), static_cast<std::size_t>(cfg_.sim.vocab));
    for (std::size_t r = 0; r < x.rows(); ++r) {
        final_logits_row(x.row(r), logits.row(r));
    }
    return logits;
}

std::vector<double>
Transformer::nll_stacked(std::span<const int> tokens_flat,
                         std::span<const std::size_t> seq_lens,
                         const RunOptions &opts) const
{
    for (const std::size_t len : seq_lens) {
        ANDA_CHECK_GE(len, 2u, "need at least two tokens for NLL");
    }
    const Matrix x = forward_hidden(tokens_flat, seq_lens, opts);
    // Stream the logit head one row at a time: peak memory stays at one
    // vocab-sized buffer instead of the full [sum(T_i) x vocab] matrix.
    std::vector<float> logits(static_cast<std::size_t>(cfg_.sim.vocab));
    std::vector<double> nll(seq_lens.size(), 0.0);
    std::size_t off = 0;
    for (std::size_t s = 0; s < seq_lens.size(); ++s) {
        for (std::size_t t = 0; t + 1 < seq_lens[s]; ++t) {
            const std::size_t row = off + t;
            final_logits_row(x.row(row), logits);
            nll[s] -= log_prob_of(logits, tokens_flat[row + 1]);
        }
        off += seq_lens[s];
    }
    return nll;
}

double
Transformer::sequence_nll(std::span<const int> tokens,
                          const RunOptions &opts) const
{
    const std::size_t len = tokens.size();
    return nll_stacked(tokens, {&len, 1}, opts)[0];
}

double
Transformer::cached_sequence_nll(std::span<const int> tokens,
                                 const RunOptions &opts,
                                 const KvFormat &fmt) const
{
    ANDA_CHECK_GE(tokens.size(), 2u, "need at least two tokens for NLL");
    kv_validate(fmt);
    // One incremental pass through a cache in `fmt`: attention reads
    // the K/V rows as stored, so a quantized format's accuracy cost
    // lands exactly where decode would pay it. Chunking is
    // irrelevant (rows are packed at their single store), so one
    // full-sequence prefill measures the same values token-by-token
    // decode would.
    KvCache cache = make_cache(fmt);
    BatchKvCache batch;
    batch.add(cache);
    const std::size_t len = tokens.size();
    const Matrix x = forward_hidden(tokens, {&len, 1}, opts, &batch);
    std::vector<float> logits(static_cast<std::size_t>(cfg_.sim.vocab));
    double nll = 0.0;
    for (std::size_t t = 0; t + 1 < len; ++t) {
        final_logits_row(x.row(t), logits);
        nll -= log_prob_of(logits, tokens[t + 1]);
    }
    return nll;
}

std::vector<double>
Transformer::batch_nll(std::span<const std::vector<int>> seqs,
                       const RunOptions &opts) const
{
    const PackedBatch packed = pack_sequences(seqs);
    return nll_stacked(packed.tokens, packed.lens, opts);
}

std::vector<int>
Transformer::sample_sequence(int length, double temperature,
                             std::uint64_t seed) const
{
    ANDA_CHECK(length >= 1 && length <= cfg_.sim.max_seq,
               "bad sample length");
    // The teacher runs the deployment-FP16 configuration with
    // full-precision weights (the Table II "FP16" row).
    RunOptions opts;
    opts.quantized_weights = false;
    opts.prec = PrecisionConfig::all_fp16();
    opts.threads = 1;

    SplitMix64 rng(seed);
    std::vector<int> tokens = {0};
    if (length == 1) {
        return tokens;
    }
    KvCache cache = make_cache();
    BatchKvCache batch;
    batch.add(cache);
    const std::vector<float> first =
        prefill(cache, std::span<const int>(tokens.data(), 1), opts);
    tokens.push_back(
        sample_from_logits(first, temperature, rng.uniform()));
    while (static_cast<int>(tokens.size()) < length) {
        const int tok = tokens.back();
        const Matrix logits =
            decode_step(batch, std::span<const int>(&tok, 1), opts);
        tokens.push_back(sample_from_logits(logits.row(0), temperature,
                                            rng.uniform()));
    }
    return tokens;
}

std::size_t
fp_int_weight_count(const ModelDims &dims, Family family)
{
    const auto m = module_macs_per_token(dims, family);
    return static_cast<std::size_t>(m.total());
}

}  // namespace anda
