#pragma once

/// @file
/// GeMM kernels for every computation scheme compared in the paper
/// (Fig. 8): the FP-FP GPU path, the FP-INT dequantization path, the
/// BFP fake-quantization path used for accuracy evaluation (numerically
/// equivalent to the integer datapath up to FP32 accumulation), and the
/// hardware-faithful Anda bit-plane integer path.
///
/// Convention: activations A are [tokens x K] row-major; weights W are
/// [N x K] (one output channel per row); outputs are [tokens x N].
///
/// Shape preconditions (a.cols() == w.cols()) are enforced with
/// std::invalid_argument in every build type, not assert, so Release
/// builds fail loudly instead of reading out of bounds.
///
/// The float path (matmul_wt) multiplies against WeightPanels: weights
/// packed once into panels of 16 output channels, each [K][16], either
/// as floats or, for W4 weights, as INT4 nibbles with per-group scales
/// that the kernel dequantizes one panel at a time. Its kernel is one
/// template over GCC/Clang vector types, instantiated for AVX-512F,
/// AVX2 and the baseline ISA and picked once per process by CPUID
/// (common/simd.h). Every instantiation is bit-identical to dot_f32,
/// which stays the oracle (tests/test_gemm.cpp memcmps each one the
/// host supports); the build's -ffp-contract=off keeps FMA contraction
/// from breaking that in the wider targets.
///
/// Threading: every kernel takes a thread count where 0 means all
/// cores and 1 means serial. Callers that already parallelize at a
/// coarser grain (e.g. across sequences) pass 1 so inner kernels do not
/// oversubscribe — see src/common/parallel.h for the ownership
/// convention.

#include <cstdint>
#include <span>
#include <vector>

#include "common/matrix.h"
#include "common/simd.h"
#include "format/anda_tensor.h"
#include "format/bfp.h"
#include "quant/weight_quant.h"

namespace anda {

/// Activation number format applied at a GeMM input tap.
struct ActFormat {
    enum class Kind {
        kFp32,  ///< No conversion (reference only).
        kFp16,  ///< Round through FP16 (the W4A16 baseline).
        kBfp,   ///< Group-shared exponent + truncated mantissa.
    };
    Kind kind = Kind::kFp16;
    /// BFP parameters (used when kind == kBfp). group_size counts values
    /// along the reduction dimension of each token row.
    BfpParams bfp_params;

    static ActFormat fp32() { return {Kind::kFp32, {}}; }
    static ActFormat fp16() { return {Kind::kFp16, {}}; }
    static ActFormat bfp(int group_size, int mantissa_bits)
    {
        return {Kind::kBfp, {group_size, mantissa_bits}};
    }
};

/// Dot product with deterministic lane-wise accumulation: lane l sums
/// a[k]*b[k] over k = l (mod 16) in ascending k (for the full blocks of
/// 16), the 16 lanes are summed in order starting from 0.0f, then the
/// n % 16 tail is added in order. This is the oracle of the panel GeMM
/// below, which reproduces its result bit for bit.
float dot_f32(const float *a, const float *b, std::size_t n);

/// Weights [N x K] laid out once for the panel GeMM: output channels are
/// grouped into panels of kWidth, each panel stored [K][kWidth] so the
/// kWidth weights of one reduction index are contiguous, and N is
/// zero-padded to a multiple of kWidth. The layout lets one vector
/// multiply-add serve kWidth output channels at the same k.
///
/// Two forms share the layout. The float form holds the [K][kWidth]
/// floats of every panel. The W4 form, built from a QuantizedWeight of
/// at most 4 bits, keeps the weights packed: per panel, one 64-bit word
/// per k-row holding the two's-complement INT4 value of channel 16p + j
/// at bit 32 * (j % 2) + 4 * (j / 2) (even channels in the low half, so
/// a word broadcast to 64-bit lanes puts every channel's nibble in its
/// own 32-bit lane), and one kWidth-float scale vector per K-group (the
/// scales of the panel's 16 channels for that group). Padded channels
/// hold 0 with scale 0. matmul_wt dequantizes a W4 panel into a
/// [K][kWidth] float scratch once, with vector code in every ISA
/// instantiation, and runs the float kernel on the scratch unchanged.
///
/// Exactness: each scratch float is float(q) * scale, the same IEEE
/// product QuantizedWeight::dequantize() computes, and the product is
/// exact (the scale is FP16 and |q| <= 8, so it needs at most 15
/// significant bits and stays far above FP32's subnormal range). A W4
/// panel therefore gives outputs bit-identical to the float form of
/// w.dequantize(), and so to dot_f32 over the dequantized rows, in
/// 1/7.5 of the float form's bytes at group size 128.
class WeightPanels {
  public:
    static constexpr std::size_t kWidth = 16;

    WeightPanels() = default;

    /// Packs a row-major [N x K] weight matrix into the float form.
    /// Packing reuses the matrix's storage, so a caller that moves its
    /// matrix in allocates nothing but one panel of scratch.
    explicit WeightPanels(Matrix w);

    /// Packs a quantized weight into the W4 form. Throws
    /// std::invalid_argument if w.bits() > 4.
    explicit WeightPanels(const QuantizedWeight &w);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t panels() const { return (rows_ + kWidth - 1) / kWidth; }

    /// True for the W4 form.
    bool w4() const { return group_size_ != 0; }

    /// Float form, panel p: cols() blocks of kWidth floats.
    const float *panel(std::size_t p) const
    {
        return data_.data() + p * cols_ * kWidth;
    }

    /// W4 form: K-columns per scale group, and the groups of a panel.
    std::size_t group_size() const { return group_size_; }
    std::size_t groups() const
    {
        return (cols_ + group_size_ - 1) / group_size_;
    }

    /// W4 form, panel p: cols() words of kWidth nibbles.
    const std::uint64_t *nibbles(std::size_t p) const
    {
        return nibbles_.data() + p * cols_;
    }

    /// W4 form, panel p: groups() vectors of kWidth scales.
    const float *scales(std::size_t p) const
    {
        return scales_.data() + p * groups() * kWidth;
    }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::size_t group_size_ = 0;  // 0 in the float form.
    std::vector<float> data_;
    std::vector<std::uint64_t> nibbles_;
    std::vector<float> scales_;
};

/// C = A * W^T for `rows` contiguous token rows of a ([rows x K]) into
/// c ([rows x N], row-major), serially, on the widest instantiation the
/// host supports. Output (t, n) is bit-identical to dot_f32(a_t, w_n,
/// K): the kernel keeps dot_f32's 16 lane accumulators per output in
/// vector lanes and adds them in its order. A pass holds 4 token rows x
/// 4 of the 16 lanes of one panel in registers (fewer on narrower ISAs).
/// A W4 panel is first dequantized into a per-call [K][16] scratch
/// (32 KB at K = 512), which stays in L1 across the token rows.
void matmul_wt(const float *a, std::size_t rows, const WeightPanels &w,
               float *c);

/// C = A * W^T against packed weights, parallelized over ranges of
/// weight panels: each chunk writes its panels' output columns of every
/// row, and a W4 panel is dequantized once per call whatever the thread
/// count. threads = 0 uses all cores; 1 runs serially (callers that
/// already parallelize at a coarser grain pass 1).
Matrix matmul_wt(const Matrix &a, const WeightPanels &w,
                 std::size_t threads = 0);

/// C = A * W^T with a row-major [N x K] weight: packs W, then runs the
/// panel kernel (callers that reuse a weight keep its WeightPanels).
Matrix matmul_wt(const Matrix &a, const Matrix &w,
                 std::size_t threads = 0);

/// Reference GeMM in double precision (ground truth for kernel tests).
Matrix gemm_ref(const Matrix &a, const Matrix &w);

/// Applies an activation format in place to each token row of a matrix
/// (BFP groups run along the row/reduction dimension). threads = 0 uses
/// all cores; callers already parallel at sequence level pass 1.
void apply_act_format(Matrix &a, const ActFormat &fmt,
                      std::size_t threads = 0);

/// FP-FP GPU scheme (Fig. 8a): INT4 weights dequantized to FP16, FP16
/// activations, FP32 accumulation. Runs matmul_wt on W4 panels of w.
Matrix gemm_fp16_dequant(const Matrix &a, const QuantizedWeight &w,
                         std::size_t threads = 0);

/// Fake-quantized BFP GeMM used by accuracy experiments: activations are
/// converted through the BFP format, then multiplied against dequantized
/// weights in float32 (matmul_wt on W4 panels of w). Numerically
/// equivalent to the grouped integer datapath with exact scaling.
Matrix gemm_bfp_fakequant(const Matrix &a, const QuantizedWeight &w,
                          const BfpParams &params,
                          std::size_t threads = 0);

/// Options of the bit-exact Anda GeMM.
struct AndaGemmOptions {
    /// Mantissa length of the activation tensor (1..16).
    int mantissa_bits = 8;
    /// If true, round each group's dot product through FP16 before the
    /// cross-group FP32 accumulation, exactly as the APU datapath does
    /// (paper Sec. IV-B). Off by default to mirror the fake-quant path.
    bool fp16_group_rounding = false;
    /// If true, round the final accumulator to FP16 on output.
    bool fp16_output = true;
    /// Worker threads for the token-row loop: 0 = all cores, 1 = serial.
    /// Sequence-level callers pass 1, matching matmul_wt's convention.
    std::size_t threads = 0;
};

/// Hardware-faithful Anda GeMM: each token row of A is encoded as an
/// AndaTensor along K; group dot products are scaled by the shared
/// exponent and the weight group scale and FP32-accumulated across
/// groups. Requires the weight scale group size to be a multiple of 64.
///
/// The software implementation reassembles each group's signed integer
/// mantissas from the bit-planes once per (token, group) and computes
/// the group dot as a plain integer dot product, tiled over token and
/// output rows for cache reuse. This is bit-identical to the APU's
/// first-element-then-bit-plane reduction (`anda_group_dot`, which
/// remains the hardware-reference oracle): both are exact integer
/// computations of sum_i sign_i * mantissa_i * w_i, and the float
/// scaling/accumulation sequence is unchanged.
Matrix gemm_anda(const Matrix &a, const QuantizedWeight &w,
                 const AndaGemmOptions &opts);

/// Integer dot product of one Anda group against 64 INT weights via the
/// bit-serial reduction (exposed for unit tests and the APU model).
/// Returns sum_i sign_i * mantissa_i * w_i. This is the
/// hardware-faithful reference; gemm_anda's fast path must stay
/// bit-identical to it (enforced by tests/test_gemm.cpp).
std::int64_t anda_group_dot(const AndaGroup &g, int mantissa_bits,
                            std::span<const std::int8_t> w);

namespace detail {

/// Signature of one ISA instantiation of the serial panel GeMM over
/// panels [p0, p1) of w: it writes output columns [16 p0, min(16 p1,
/// N)) of every row of c and no others.
using PanelGemmFn = void(const float *a, std::size_t rows,
                         const WeightPanels &w, std::size_t p0,
                         std::size_t p1, float *c);

/// Every instantiation, widest first (tests run each one the host
/// supports against dot_f32).
std::span<const simd::Variant<PanelGemmFn>> panel_gemm_variants();

}  // namespace detail

}  // namespace anda
