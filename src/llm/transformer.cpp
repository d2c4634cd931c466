#include "llm/transformer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

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

/// Fills values (row-major, in order) with N(0, std) entries.
void
fill_gaussian(std::span<float> values, SplitMix64 &rng, double std)
{
    for (float &v : values) {
        v = static_cast<float>(rng.normal(0.0, std));
    }
}

/// Scales `count` rows drawn from [row0, row0 + rows) of m by `gain`
/// (outlier implants on output channels).
void
implant_row_outliers(Matrix &m, std::size_t row0, std::size_t rows,
                     SplitMix64 &rng, int count, double gain)
{
    for (int i = 0; i < count; ++i) {
        const std::size_t r = row0 + rng.uniform_index(rows);
        for (float &v : m.row(r)) {
            v *= static_cast<float>(gain);
        }
    }
}

/// x = fp16(x + y): a sublayer's residual add.
void
add_residual(Matrix &x, const Matrix &y)
{
    ANDA_DCHECK_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        x.data()[i] = fp16_round(x.data()[i] + y.data()[i]);
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
    fill_gaussian(embedding_.flat(), rng, 1.0);
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
    {
        Matrix head(static_cast<std::size_t>(d.vocab),
                    static_cast<std::size_t>(d.d_model));
        fill_gaussian(head.flat(), rng, 1.0);
        round_matrix_fp16(head);
        lm_head_ = WeightPanels(std::move(head));
    }
    if (!cfg_.is_llama()) {
        pos_embedding_ = Matrix(static_cast<std::size_t>(d.max_seq),
                                static_cast<std::size_t>(d.d_model));
        fill_gaussian(pos_embedding_.flat(), rng, 0.1);
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

    // Stores a drawn weight as its full-precision panels and its packed
    // W4A16g128 panels, right after the weight's last RNG draw; the full
    // panels take over the draw's storage, so storing a weight allocates
    // only its INT4 panels and the quantizer's scratch.
    const auto store = [](Matrix w, Projection &p) {
        p.w4 = WeightPanels(QuantizedWeight::quantize(w, w4_params()));
        p.full = WeightPanels(std::move(w));
    };
    const auto draw = [&](std::size_t rows, std::size_t cols,
                          double sigma) {
        Matrix w(rows, cols);
        fill_gaussian(w.flat(), rng, sigma);
        return w;
    };
    const std::size_t dm = static_cast<std::size_t>(d.d_model);
    const std::size_t df = static_cast<std::size_t>(d.d_ffn);
    layers_.resize(static_cast<std::size_t>(d.n_layers));
    for (auto &lw : layers_) {
        lw.norm1_gain = channel_gain;
        lw.norm2_gain = channel_gain;

        // Draw order: wq, wk, wv, wo, the wv outliers, w_up, w_down, the
        // w_up outliers, then w_gate, each fused part into its row block.
        Matrix qkv(3 * dm, dm);
        fill_gaussian(qkv.flat().first(dm * dm), rng,
                      inv_sqrt_d * prof.attn_sharpness / rms_gain);
        fill_gaussian(qkv.flat().subspan(dm * dm), rng,
                      inv_sqrt_d / rms_gain);
        store(draw(dm, dm, inv_sqrt_d * resid_scale / rms_ctx), lw.o);
        // Outlier output channels of Wv shape the Ao tap's statistics.
        implant_row_outliers(qkv, 2 * dm, dm, rng, prof.outlier_channels,
                             prof.o_outlier_gain);
        store(std::move(qkv), lw.qkv);

        Matrix up(cfg_.is_llama() ? 2 * df : df, dm);
        fill_gaussian(up.flat().first(df * dm), rng, inv_sqrt_d / rms_gain);
        store(draw(dm, df, inv_sqrt_f * resid_scale / rms_ffn), lw.down);
        // Outlier FFN channels shape the Ad tap's statistics.
        implant_row_outliers(up, 0, df, rng, prof.outlier_channels,
                             prof.d_outlier_gain);
        if (cfg_.is_llama()) {
            fill_gaussian(up.flat().subspan(df * dm), rng,
                          inv_sqrt_d / rms_gain);
        }
        store(std::move(up), lw.up);
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
                       std::span<const std::size_t> seq_lens,
                       const Matrix &rope) const
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
    Matrix ctx;
    {
        // Row t of qkv is q | k | v; RoPE, the cache stores and
        // attention read the three column slices in place.
        Matrix qkv = tap(norm_rows(x, 0, t_len, lw.norm1_gain),
                         opts.prec.qkv, lw.qkv, opts);
        const auto q = [&qkv](std::size_t t) { return qkv.row(t).data(); };
        const auto k = [&](std::size_t t) { return q(t) + d; };
        const auto v = [&](std::size_t t) { return q(t) + 2 * d; };
        if (llama) {
            for (std::size_t t = 0; t < t_len; ++t) {
                rope_rotate({q(t), d}, rope.row(t));
                rope_rotate({k(t), d}, rope.row(t));
            }
        }

        if (kv != nullptr) {
            // Append each sequence's new rows to its cache, continuing
            // the prefix. A quantized cache packs here, at the row's
            // single store, so every later read (this step's attention
            // included) sees the quantized values however prefill is
            // chunked.
            std::size_t off = 0;
            for (std::size_t s = 0; s < seq_lens.size(); ++s) {
                KvSeq &c = kv->seq(s);
                const std::size_t base = c.length();
                for (std::size_t t = 0; t < seq_lens[s]; ++t) {
                    c.store_k(layer, base + t, {k(off + t), d});
                    c.store_v(layer, base + t, {v(off + t), d});
                }
                off += seq_lens[s];
            }
        }

        ctx = Matrix(t_len, d);
        // Per-row pointers of the current sequence, resolved once per
        // sequence (not once per head). With a cache the K/V rows come
        // through the KvSeq page/slab indirection as packed rows; a
        // decode row (one query row against a cache) attends to them
        // straight from the cache, every head in one attend_decode
        // call. Other rows run causal_attention_head per head on float
        // rows: FP32 cache rows in place, quantized ones unpacked once
        // per (sequence, layer) into kgat/vgat, and without a cache the
        // local projection block.
        std::vector<const float *> qrows;
        std::vector<float *> orows;
        std::vector<const float *> krows;
        std::vector<const float *> vrows;
        std::vector<const std::byte *> kpacked;
        std::vector<const std::byte *> vpacked;
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
                const KvFormat &fmt = c.format();
                kpacked.resize(kv_len);
                vpacked.resize(kv_len);
                for (std::size_t t = 0; t < kv_len; ++t) {
                    kpacked[t] = c.packed_k_row(layer, t).data();
                    vpacked[t] = c.packed_v_row(layer, t).data();
                }
                if (len == 1) {
                    attend_decode({q(r0), d}, fmt, kpacked, vpacked, hd,
                                  ctx.row(r0));
                    r0 += len;
                    continue;
                }
                if (fmt.quantized()) {
                    if (kgat.rows() < kv_len) {
                        kgat = Matrix(kv_len, d);
                        vgat = Matrix(kv_len, d);
                    }
                    kv_unpack_rows(fmt, kpacked, d,
                                   {kgat.data(), kv_len * d});
                    kv_unpack_rows(fmt, vpacked, d,
                                   {vgat.data(), kv_len * d});
                }
                for (std::size_t t = 0; t < kv_len; ++t) {
                    krows[t] = fmt.quantized()
                                   ? kgat.row(t).data()
                                   : reinterpret_cast<const float *>(
                                         kpacked[t]);
                    vrows[t] = fmt.quantized()
                                   ? vgat.row(t).data()
                                   : reinterpret_cast<const float *>(
                                         vpacked[t]);
                }
            } else {
                for (std::size_t t = 0; t < kv_len; ++t) {
                    krows[t] = k(r0 + t);
                    vrows[t] = v(r0 + t);
                }
            }
            qrows.resize(len);
            orows.resize(len);
            for (std::size_t t = 0; t < len; ++t) {
                qrows[t] = q(r0 + t);
                orows[t] = ctx.row(r0 + t).data();
            }
            for (std::size_t h = 0; h < heads; ++h) {
                causal_attention_head(qrows, krows, vrows, h * hd, hd,
                                      base, orows);
            }
            r0 += len;
        }
    }
    add_residual(x, tap(std::move(ctx), opts.prec.o, lw.o, opts));

    // ---- Feed-forward ----
    Matrix h = tap(norm_rows(x, 0, t_len, lw.norm2_gain), opts.prec.u,
                   lw.up, opts);
    if (llama) {
        // Row t of h is up | gate. SwiGLU packs row t's result into
        // floats [t ffn, (t + 1) ffn), which end at or before row t
        // starts, so no row is overwritten before it is read.
        const std::size_t ffn = h.cols() / 2;
        for (std::size_t t = 0; t < t_len; ++t) {
            float *row = h.row(t).data();
            swiglu_inplace({row + ffn, ffn}, {row, ffn});
            std::memmove(h.data() + t * ffn, row, ffn * sizeof(float));
        }
        h.reshape_prefix(t_len, ffn);
    } else {
        for (float &vv : h.flat()) {
            vv = relu(vv);
        }
    }
    add_residual(x, tap(std::move(h), opts.prec.d, lw.down, opts));
}

Matrix
Transformer::tap(Matrix a, const ActFormat &fmt, const Projection &proj,
                 const RunOptions &opts)
{
    apply_act_format(a, fmt, opts.threads);
    return matmul_wt(a, opts.quantized_weights ? proj.w4 : proj.full,
                     opts.threads);
}

Matrix
Transformer::norm_rows(const Matrix &x, std::size_t row0,
                       std::size_t rows, std::span<const float> gain) const
{
    Matrix out(rows, x.cols());
    for (std::size_t r = 0; r < rows; ++r) {
        if (cfg_.is_llama()) {
            rms_norm(x.row(row0 + r), gain, out.row(r));
        } else {
            layer_norm(x.row(row0 + r), gain, out.row(r));
        }
    }
    return out;
}

void
Transformer::final_logits(const Matrix &x, std::size_t row0,
                          std::size_t rows, float *out) const
{
    const ModelDims &dims = cfg_.sim;
    Matrix normed = norm_rows(x, row0, rows, final_norm_gain_);
    fp16_round(normed.flat(), normed.flat());
    const float scale =
        static_cast<float>(cfg_.profile.logit_scale) /
        std::sqrt(static_cast<float>(dims.d_model));
    matmul_wt(normed.data(), rows, lm_head_, out);
    for (float &v : std::span<float>(out, rows * lm_head_.rows())) {
        v = scale * v;
    }
}

double
Transformer::nll_rows(const Matrix &x, std::size_t row0,
                      std::span<const int> tokens) const
{
    // A block of rows at a time: the head GeMM reuses each weight panel
    // across the block, and peak memory stays at kBlock vocab-sized rows
    // instead of the full [T x vocab] matrix.
    constexpr std::size_t kBlock = 16;
    const std::size_t vocab = lm_head_.rows();
    std::vector<float> logits(kBlock * vocab);
    double nll = 0.0;
    for (std::size_t t0 = 0; t0 + 1 < tokens.size(); t0 += kBlock) {
        const std::size_t rows = std::min(kBlock, tokens.size() - 1 - t0);
        final_logits(x, row0 + t0, rows, logits.data());
        for (std::size_t r = 0; r < rows; ++r) {
            nll -= log_prob_of(
                std::span<const float>(logits.data() + r * vocab, vocab),
                tokens[t0 + r + 1]);
        }
    }
    return nll;
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
    // Positions restart at every packed sequence boundary and, when
    // decoding, continue from the sequence's cached prefix length.
    std::vector<std::size_t> pos;
    pos.reserve(total);
    std::size_t off = 0;
    for (std::size_t s = 0; s < seq_lens.size(); ++s) {
        const std::size_t len = seq_lens[s];
        const std::size_t base =
            kv != nullptr ? kv->seq(s).length() : 0;
        embed_into(tokens_flat.subspan(off, len), base, x, off);
        for (std::size_t t = 0; t < len; ++t) {
            pos.push_back(base + t);
        }
        off += len;
    }
    // LLaMA's RoPE angles, once per row for every layer and head.
    Matrix rope;
    if (cfg_.is_llama()) {
        rope = Matrix(total, static_cast<std::size_t>(cfg_.sim.d_model /
                                                      cfg_.sim.n_heads));
        rope_angles(pos, rope.cols(), rope.flat());
    }
    for (std::size_t l = 0; l < layers_.size(); ++l) {
        run_block(l, x, opts, kv, seq_lens, rope);
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
        final_logits(x, len - 1, 1, logits.data());
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
    final_logits(x, 0, tokens.size(), logits.data());
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
    final_logits(x, 0, tokens.size(), logits.data());
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
    final_logits(x, 0, x.rows(), logits.data());
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
    std::vector<double> nll(seq_lens.size(), 0.0);
    std::size_t off = 0;
    for (std::size_t s = 0; s < seq_lens.size(); ++s) {
        nll[s] = nll_rows(x, off, tokens_flat.subspan(off, seq_lens[s]));
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
    return nll_rows(x, 0, tokens);
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
