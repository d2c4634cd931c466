#pragma once

/// @file
/// Elementwise / normalization / attention primitives of the
/// transformer substrate. Non-GeMM operations run in float32 and are
/// rounded through FP16 at module boundaries, matching the paper's
/// deployment assumption (only the four FP-INT GeMMs change format).

#include <cstddef>
#include <span>

#include "common/simd.h"
#include "format/kv_format.h"

namespace anda {

/// LayerNorm over the last dimension with per-channel gain (bias-free).
void layer_norm(std::span<const float> x, std::span<const float> gain,
                std::span<float> out, float eps = 1e-5f);

/// RMSNorm over the last dimension with per-channel gain.
void rms_norm(std::span<const float> x, std::span<const float> gain,
              std::span<float> out, float eps = 1e-5f);

/// In-place numerically-stable softmax: std::exp of each element minus
/// the row maximum, summed in double in ascending order. The scalar
/// oracle of the vector softmax inside causal_attention_head.
void softmax_inplace(std::span<float> x);

/// ReLU.
inline float relu(float x) { return x > 0.0f ? x : 0.0f; }

/// SiLU (x * sigmoid(x)).
float silu(float x);

/// SwiGLU gate: up[i] = silu(gate[i]) * up[i], bit-identical to that
/// scalar expression for every input (exp overflow included). Runs the
/// widest vector instantiation the host supports, whose exp is the
/// softmax's (common/simd.h).
void swiglu_inplace(std::span<const float> gate, std::span<float> up);

/// Applies rotary position embedding to one head vector (dim must be
/// even); `pos` is the absolute token position. The scalar oracle of
/// rope_angles + rope_rotate.
void rope_inplace(std::span<float> head, int pos);

/// RoPE angles of one head_dim-wide head (even) at each position:
/// row t of cos_sin ([pos.size() x head_dim]) holds cos(pos[t] * f_i)
/// in [0, head_dim / 2) and sin(pos[t] * f_i) in [head_dim / 2,
/// head_dim), f_i = 10000^(-2i / head_dim), with rope_inplace's
/// expressions. Each f_i is computed once per call.
void rope_angles(std::span<const std::size_t> pos, std::size_t head_dim,
                 std::span<float> cos_sin);

/// Rotates every head of `row` (heads of cos_sin.size() columns each)
/// by one position's row of rope_angles; bit-identical to
/// rope_inplace on each head.
void rope_rotate(std::span<float> row, std::span<const float> cos_sin);

/// Causal single-head attention over head-strided row views: each
/// argument holds one pointer per row, and the head occupies columns
/// [col, col + head_dim) of every row, so the rows can sit in place in
/// a projection block, a KV cache page or an unpack buffer. Query row
/// i attends to keys [0, min(k.size(), q_offset + i + 1)) and its
/// context is written to out[i][col, col + head_dim), which must not
/// overlap any q, k or v row. Every output is summed in
/// the same order as the plain scalar loops (scores over channels
/// ascending, context over keys ascending, both from 0.0f), so the
/// result does not depend on how the loops are vectorized, and each
/// row's softmax is bit-identical to softmax_inplace. Runs the widest
/// vector instantiation the host supports (common/simd.h): query rows
/// in tiles of up to four, scores against 16-key blocks of the
/// transposed K and context over the V rows, both accumulated in
/// registers, and the softmax at vector width with the tile's row sums
/// interleaved.
void causal_attention_head(std::span<const float *const> q,
                           std::span<const float *const> k,
                           std::span<const float *const> v,
                           std::size_t col, std::size_t head_dim,
                           std::size_t q_offset,
                           std::span<float *const> out);

/// Attention of one decode row over every head: q (heads x head_dim
/// floats) attends to all k.size() cached keys, whose K and V rows are
/// given as packed rows in `fmt` (kv_row_bytes(fmt, q.size()) bytes
/// each; an FP32 row is its float image, read in place), and the
/// context lands in out (q.size() floats). Bit-identical to unpacking
/// every row and running causal_attention_head per head with q_offset
/// k.size() - 1: scores over channels ascending, each softmax row as
/// softmax_inplace, context over keys ascending, both from 0.0f. Keys
/// go a 16-key block at a time, and no decoded K/V outlives the call:
/// a quantized block is unpacked into an L1 tile by one kv_unpack_rows
/// call. Pass 1 transposes each block's 16-channel columns in
/// registers and scores every head with their chains interleaved; pass
/// 2 runs the softmax of each head's row; pass 3 unpacks each V block
/// and accumulates every head's context in registers. Runs the widest
/// vector instantiation the host supports.
void attend_decode(std::span<const float> q, const KvFormat &fmt,
                   std::span<const std::byte *const> k,
                   std::span<const std::byte *const> v,
                   std::size_t head_dim, std::span<float> out);

namespace detail {

/// Signature of one ISA instantiation of attend_decode.
using AttendDecodeFn = void(std::span<const float> q, const KvFormat &fmt,
                            std::span<const std::byte *const> k,
                            std::span<const std::byte *const> v,
                            std::size_t head_dim, std::span<float> out);

/// Every instantiation, widest first.
std::span<const simd::Variant<AttendDecodeFn>> attend_decode_variants();

/// Signature of one ISA instantiation of causal_attention_head.
using CausalAttentionHeadFn = void(std::span<const float *const> q,
                                   std::span<const float *const> k,
                                   std::span<const float *const> v,
                                   std::size_t col, std::size_t head_dim,
                                   std::size_t q_offset,
                                   std::span<float *const> out);

/// Every instantiation, widest first (tests run each one the host
/// supports).
std::span<const simd::Variant<CausalAttentionHeadFn>>
causal_attention_head_variants();

/// y[i] = expf(x[i]) through the attention softmax's exp pass with a
/// zero shift (x - 0 is x); the baseline calls std::exp. Every
/// instantiation, widest first.
using ExpfFn = void(std::span<const float> x, std::span<float> y);
std::span<const simd::Variant<ExpfFn>> expf_variants();

/// The row softmax inlined into each causal_attention_head
/// instantiation, on one row. Every instantiation, widest first.
using SoftmaxFn = void(std::span<float> x);
std::span<const simd::Variant<SoftmaxFn>> softmax_variants();

/// Every instantiation of swiglu_inplace, widest first.
using SwigluFn = void(std::span<const float> gate, std::span<float> up);
std::span<const simd::Variant<SwigluFn>> swiglu_variants();

}  // namespace detail

/// Log-softmax of one row returned as the log-probability of `target`.
double log_prob_of(std::span<const float> logits, int target);

/// Samples from softmax(logits / temperature) with the given uniform
/// random draw u in [0, 1).
int sample_from_logits(std::span<const float> logits, double temperature,
                       double u);

}  // namespace anda
