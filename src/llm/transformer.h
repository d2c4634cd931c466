#pragma once

/// @file
/// The weight-only quantized transformer substrate (paper Fig. 3).
///
/// A full decoder-only transformer with synthetic, deterministic
/// weights: OPT-style (ReLU FFN, LayerNorm, learned positions) or
/// LLaMA-style (gated SiLU, RMSNorm, RoPE). Each block runs exactly the
/// four FP-INT GeMMs the hw model prices (src/hw/workload.cpp), with
/// Q|K|V and, on LLaMA, up|gate fused into one weight each. Their
/// activation taps (Aqkv, Ao, Au, Ad) accept any activation format, so
/// the accuracy experiments drop in FP16 / BFP / Anda representations
/// exactly where the paper does. Weights of those four GeMMs are
/// quantized to W4A16g128; everything else (attention, norms, logit
/// head) stays FP16.

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "kernels/gemm.h"
#include "llm/config.h"
#include "llm/kv_cache.h"
#include "quant/weight_quant.h"

namespace anda {

/// Activation formats of the four FP-INT GeMM taps.
struct PrecisionConfig {
    ActFormat qkv = ActFormat::fp16();
    ActFormat o = ActFormat::fp16();
    ActFormat u = ActFormat::fp16();
    ActFormat d = ActFormat::fp16();

    /// The W4A16 baseline: all taps FP16.
    static PrecisionConfig all_fp16() { return {}; }

    /// Uniform BFP on all four taps.
    static PrecisionConfig uniform_bfp(int group_size, int mantissa_bits);

    /// Anda precision 4-tuple [Mqkv, Mo, Mu, Md] at group size 64.
    static PrecisionConfig anda(const std::array<int, 4> &mantissa);
};

/// Options of one evaluation run.
struct RunOptions {
    /// Use the quantized W4 weights (false = full-precision weights,
    /// the FP16 row of Table II).
    bool quantized_weights = true;
    PrecisionConfig prec;
    /// Threads for inner GeMMs (keep 1 when the caller parallelizes
    /// across sequences).
    std::size_t threads = 1;
};

/// A constructed model instance with both full-precision and quantized
/// weights, ready for evaluation and sampling.
class Transformer {
  public:
    /// Builds weights deterministically from cfg.seed using the sim
    /// dimensions and the outlier profile.
    explicit Transformer(const ModelConfig &cfg);

    const ModelConfig &config() const { return cfg_; }
    const ModelDims &dims() const { return cfg_.sim; }

    /// Full-sequence forward pass; returns logits [T x vocab].
    Matrix forward_logits(std::span<const int> tokens,
                          const RunOptions &opts) const;

    /// Ragged batched forward pass over B sequences of (possibly)
    /// different lengths T_0..T_{B-1}, packed into one [sum(T_i) x d]
    /// activation matrix so every GeMM tap runs once per layer over all
    /// packed token rows. Attention is masked per sequence
    /// (block-diagonal) and RoPE/positions restart at every sequence
    /// boundary, so the result is bit-identical to B separate
    /// forward_logits calls. Returns logits [sum(T_i) x vocab],
    /// sequence s occupying rows [T_0+..+T_{s-1}, T_0+..+T_s).
    Matrix
    forward_logits_batched(std::span<const std::vector<int>> seqs,
                           const RunOptions &opts) const;

    /// Sum of next-token negative log-likelihoods over the sequence
    /// (predicting tokens[1..T-1]); the number of predicted tokens is
    /// tokens.size() - 1. Streams the logit head a block of rows at a
    /// time (the [T x vocab] logits matrix is never materialized).
    double sequence_nll(std::span<const int> tokens,
                        const RunOptions &opts) const;

    /// Per-sequence NLL sums of B sequences (mixed lengths allowed)
    /// evaluated in one packed forward pass. Bit-identical to calling
    /// sequence_nll on each sequence (enforced by tests/test_batched.cpp
    /// and tests/test_ragged.cpp); like sequence_nll it streams blocks
    /// of logit rows instead of materializing the [sum(T_i) x vocab]
    /// matrix.
    std::vector<double>
    batch_nll(std::span<const std::vector<int>> seqs,
              const RunOptions &opts) const;

    /// An empty KV cache sized for this model (grows on demand; see
    /// llm/kv_cache.h), storing rows in `fmt` — FP32 by default.
    KvCache make_cache(const KvFormat &fmt = KvFormat::fp32()) const;

    /// sequence_nll evaluated through a KV cache stored in `fmt`: one
    /// incremental pass whose attention reads K/V rows in the cached
    /// format, so the returned NLL prices exactly what a serving
    /// decode in that format computes (the perplexity axis of the
    /// KV-quantization tradeoff). Bit-identical to sequence_nll when
    /// `fmt` is FP32.
    double cached_sequence_nll(std::span<const int> tokens,
                               const RunOptions &opts,
                               const KvFormat &fmt) const;

    /// Runs `tokens` through the model continuing the sequence cached
    /// in `cache` (positions start at cache.length(); an empty cache
    /// prefills from position 0), appending their K/V rows. The cache
    /// may be any KvSeq layout — slab or paged; decode is
    /// bit-identical either way. Returns the logits row of the last
    /// token [vocab] — what the first generated token is sampled from
    /// — bit-identical to the corresponding row of a full-prefix
    /// forward_logits call. Pass want_logits = false on intermediate
    /// chunks of a chunked prefill to skip the O(vocab·d) logit head
    /// (returns empty).
    std::vector<float> prefill(KvSeq &cache,
                               std::span<const int> tokens,
                               const RunOptions &opts,
                               bool want_logits = true) const;

    /// One ragged incremental decode step: token i extends the
    /// sequence cached in caches.seq(i) (heterogeneous lengths
    /// allowed; attention is block-diagonal over each cache's prefix
    /// and RoPE/positions continue from each sequence's offset). All B
    /// rows run through the same fused GeMM taps as prefill. Returns
    /// logits [B x vocab], bit-identical to row T_i of recomputing
    /// each full prefix through forward_logits_batched (enforced by
    /// tests/test_decode.cpp). Caches must be distinct objects.
    Matrix decode_step(BatchKvCache &caches,
                       std::span<const int> tokens,
                       const RunOptions &opts) const;

    /// Ancestrally samples a sequence from the full-precision model
    /// (the "teacher"); deterministic in (seed). First token is 0
    /// (BOS). Runs on the public prefill + decode_step path.
    std::vector<int> sample_sequence(int length, double temperature,
                                     std::uint64_t seed) const;

  private:
    /// One FP-INT GeMM's weight [out x in], packed for the panel GeMM
    /// in full precision and as W4A16g128 INT4 nibbles (WeightPanels'
    /// W4 form, bit-identical to the dequantized float weights).
    struct Projection {
        WeightPanels full;
        WeightPanels w4;
    };

    /// The four GeMMs of a block, as the hw model prices them. A fused
    /// weight stacks its parts' rows, so every output column and W4
    /// scale group is the one a separate weight would give.
    struct LayerWeights {
        std::vector<float> norm1_gain;
        std::vector<float> norm2_gain;
        Projection qkv;   // Wq | Wk | Wv, [3d x d].
        Projection o;     // [d x d].
        Projection up;    // Wup, or Wup | Wgate [2 ffn x d] on LLaMA.
        Projection down;  // [d x ffn].
    };

    /// Runs one transformer block over x [sum(T_i) x d] in place,
    /// where seq_lens lists the packed per-sequence lengths; all
    /// row-wise operations span the packed rows, attention is
    /// per-sequence (block-diagonal). Without a cache, positions
    /// restart at each boundary. With kv != nullptr (one cache per
    /// packed sequence), sequence i appends its rows to
    /// kv->seq(i) at positions continuing from seq(i).length() and
    /// attends over its full cached prefix; the caller commits the
    /// lengths (KvSeq::advance) after all layers ran. All cache
    /// access is row-by-row through the KvSeq interface, so slab and
    /// paged layouts take the identical compute path. For LLaMA, row t
    /// of `rope` holds row t's RoPE angles (rope_angles).
    void run_block(std::size_t layer, Matrix &x, const RunOptions &opts,
                   BatchKvCache *kv, std::span<const std::size_t> seq_lens,
                   const Matrix &rope) const;

    /// One FP-INT GeMM: converts the activations `a` to `fmt` (the
    /// tap), then multiplies them by the weight form opts selects.
    /// Takes `a` by value so a moved-in input is freed on return.
    static Matrix tap(Matrix a, const ActFormat &fmt,
                      const Projection &proj, const RunOptions &opts);

    /// The family's norm (RMSNorm on LLaMA, LayerNorm on OPT) of rows
    /// [row0, row0 + rows) of x.
    Matrix norm_rows(const Matrix &x, std::size_t row0, std::size_t rows,
                     std::span<const float> gain) const;

    void embed_into(std::span<const int> tokens, std::size_t pos_offset,
                    Matrix &x, std::size_t row0) const;
    /// Runs embedding + all blocks over the packed ragged token buffer
    /// (tokens_flat.size() == sum(seq_lens)); returns the final hidden
    /// states [sum(T_i) x d] before the logit head. With kv !=
    /// nullptr the pass is incremental: sequence i continues the
    /// prefix cached in kv->seq(i), whose length is committed on
    /// return.
    Matrix forward_hidden(std::span<const int> tokens_flat,
                          std::span<const std::size_t> seq_lens,
                          const RunOptions &opts,
                          BatchKvCache *kv = nullptr) const;
    /// Streamed per-sequence NLLs over the packed token buffer.
    std::vector<double>
    nll_stacked(std::span<const int> tokens_flat,
                std::span<const std::size_t> seq_lens,
                const RunOptions &opts) const;
    /// Logit head over rows [row0, row0 + rows) of the final hidden
    /// states x into out ([rows x vocab], row-major): final norm, FP16
    /// rounding and one panel GeMM over all the rows, then the logit
    /// scale. Each row is bit-identical to computing it alone.
    void final_logits(const Matrix &x, std::size_t row0, std::size_t rows,
                      float *out) const;
    /// NLL of predicting tokens[1..] from hidden rows [row0, row0 +
    /// tokens.size() - 1) of x, streaming the logit head in blocks of
    /// rows.
    double nll_rows(const Matrix &x, std::size_t row0,
                    std::span<const int> tokens) const;

    ModelConfig cfg_;
    Matrix embedding_;      // [vocab x d]
    WeightPanels lm_head_;  // [vocab x d], untied from the embedding
    Matrix pos_embedding_;  // [max_seq x d] (OPT only)
    std::vector<float> final_norm_gain_;
    std::vector<LayerWeights> layers_;
};

/// Total parameter count of the four FP-INT module types (sim dims).
std::size_t fp_int_weight_count(const ModelDims &dims, Family family);

}  // namespace anda
