#pragma once

/// @file
/// Elementwise / normalization / attention primitives of the
/// transformer substrate. Non-GeMM operations run in float32 and are
/// rounded through FP16 at module boundaries, matching the paper's
/// deployment assumption (only the four FP-INT GeMMs change format).

#include <cstddef>
#include <span>

namespace anda {

/// LayerNorm over the last dimension with per-channel gain (bias-free).
void layer_norm(std::span<const float> x, std::span<const float> gain,
                std::span<float> out, float eps = 1e-5f);

/// RMSNorm over the last dimension with per-channel gain.
void rms_norm(std::span<const float> x, std::span<const float> gain,
              std::span<float> out, float eps = 1e-5f);

/// In-place numerically-stable softmax.
void softmax_inplace(std::span<float> x);

/// ReLU.
inline float relu(float x) { return x > 0.0f ? x : 0.0f; }

/// SiLU (x * sigmoid(x)).
float silu(float x);

/// Applies rotary position embedding to one head vector (dim must be
/// even); `pos` is the absolute token position.
void rope_inplace(std::span<float> head, int pos);

/// Causal single-head attention over head-strided row views: each
/// argument holds one pointer per row, and the head occupies columns
/// [col, col + head_dim) of every row, so the rows can sit in place in
/// a projection block, a KV cache page or an unpack buffer. Query row
/// i attends to keys [0, min(k.size(), q_offset + i + 1)) and its
/// context is accumulated in place in out[i][col, col + head_dim),
/// which must not overlap any q, k or v row. Every output is summed in
/// the same order as the plain scalar loops (scores over channels
/// ascending, context over keys ascending, both from 0.0f), so the
/// result does not depend on how the loops are vectorized.
void causal_attention_head(std::span<const float *const> q,
                           std::span<const float *const> k,
                           std::span<const float *const> v,
                           std::size_t col, std::size_t head_dim,
                           std::size_t q_offset,
                           std::span<float *const> out);

/// Log-softmax of one row returned as the log-probability of `target`.
double log_prob_of(std::span<const float> logits, int target);

/// Samples from softmax(logits / temperature) with the given uniform
/// random draw u in [0, 1).
int sample_from_logits(std::span<const float> logits, double temperature,
                       double u);

}  // namespace anda
