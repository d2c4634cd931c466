#pragma once

/// @file
/// Cached-KV storage formats: FP32, grouped BFP, and the Anda
/// bit-plane layout, packed row by row.
///
/// The FP-INT GeMM taps quantize activations, but cached K/V rows are
/// what decode re-reads every step — the memory-bound side of serving
/// (Harmonia / M-ANT push BFP group quantization into exactly this
/// path). KvFormat selects how one d_model-wide K or V row is stored:
///
///  * kFp32 — raw float bytes; pack/unpack are copies, so a cache in
///    FP32 holds the exact floats and attention reads them in place.
///  * kBfp  — per group of `group_size` values: one shared-exponent
///    byte followed by (1 + mantissa_bits)-bit sign|mantissa fields
///    bit-packed LSB-first (encode semantics of format/bfp.h).
///  * kAnda — fixed groups of 64 in the paper's Fig. 10 bit-plane
///    transposition: one shared-exponent byte, one 64-bit sign plane,
///    then mantissa_bits 64-bit planes most-significant first. A
///    trailing partial group is zero-padded (exact in BFP), keeping
///    every plane word-regular for the bit-serial APU.
///
/// Both quantized kinds support truncation (the hardware default, as
/// in encode_bfp_group) and round-to-nearest with saturation at the
/// mantissa ceiling. kv_pack_row / kv_unpack_row / kv_unpack_rows are
/// the fast paths, run on the widest vector ISA the host supports
/// (common/simd.h): the quantizer's FP16 conversions and shifts, and the
/// kAnda unpack's plane transpose, work on group members in lanes. On
/// hosts with AVX-512 VBMI and GFNI the kAnda unpack is a bit-matrix
/// transpose instead: one byte permute gathers each member byte's
/// planes, one GF(2) affine transform turns them into mantissa bytes.
/// kv_pack_row_serial / kv_unpack_row_serial quantize one element at a
/// time and emit and reassemble one bit per step the way the bit-plane
/// hardware does, and tests assert every fast-path instantiation is
/// byte-identical to them (the oracle pattern of kernels/gemm.h's
/// anda_group_dot).

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/simd.h"
#include "format/anda_tensor.h"

namespace anda {

/// Storage kind of cached K/V rows.
enum class KvKind {
    kFp32,  ///< Raw float32 rows (the default everywhere).
    kBfp,   ///< Grouped BFP, bit-packed sign|mantissa fields.
    kAnda,  ///< Bit-plane transposed Anda groups of 64.
};

/// One cached-KV storage format. Value type; compare with ==.
struct KvFormat {
    KvKind kind = KvKind::kFp32;
    /// Values per shared exponent (kBfp only; kAnda is fixed at
    /// kAndaGroupSize, kFp32 ignores it).
    int group_size = kAndaGroupSize;
    /// Stored mantissa bits per element, hidden bit included
    /// (quantized kinds only; valid range [1, kAndaMaxMantissa]).
    int mantissa_bits = 8;
    /// Round-to-nearest (saturating at the mantissa ceiling) instead
    /// of the hardware's truncation when quantizing.
    bool round_nearest = false;

    static KvFormat fp32() { return {}; }
    static KvFormat bfp(int group_size, int mantissa_bits,
                        bool round_nearest = false)
    {
        return {KvKind::kBfp, group_size, mantissa_bits, round_nearest};
    }
    static KvFormat anda(int mantissa_bits, bool round_nearest = false)
    {
        return {KvKind::kAnda, kAndaGroupSize, mantissa_bits,
                round_nearest};
    }

    bool quantized() const { return kind != KvKind::kFp32; }

    /// Storage bits per element (amortized shared-exponent byte
    /// included; 32 for kFp32) — the width the hw layer prices
    /// attention K/V DRAM reads at.
    double bits_per_element() const;

    /// Short label, e.g. "fp32", "bfp-g32-m8", "anda-m7-rn".
    std::string name() const;

    friend bool operator==(const KvFormat &, const KvFormat &) = default;
};

/// Throws anda::CheckError when the format's parameters are out of
/// range (mantissa outside [1, 16], non-positive group size, kAnda
/// with group_size != 64).
void kv_validate(const KvFormat &fmt);

/// Packed bytes of one `n`-element K or V row in `fmt`. Deterministic
/// in (fmt, n); partial trailing groups are sized exactly (kBfp) or
/// zero-padded to a full group (kAnda).
std::size_t kv_row_bytes(const KvFormat &fmt, std::size_t n);

/// Packs one row (vectorized fast path). `out.size()` must equal
/// kv_row_bytes(fmt, row.size()). Quantized kinds round values
/// through FP16 first, as everywhere in the deployment substrate;
/// kFp32 stores the raw float bytes untouched.
void kv_pack_row(const KvFormat &fmt, std::span<const float> row,
                 std::span<std::byte> out);

/// Unpacks one packed row back to float32 (the values attention
/// computes on). `out.size()` must equal the original row length.
void kv_unpack_row(const KvFormat &fmt, std::span<const std::byte> in,
                   std::span<float> out);

/// Unpacks rows.size() packed rows of `n` elements (rows[r] points at
/// kv_row_bytes(fmt, n) bytes, anywhere: consecutive rows may sit on
/// different pages) into out ([rows.size() x n], row-major). Each row
/// is bit-identical to kv_unpack_row of it.
void kv_unpack_rows(const KvFormat &fmt,
                    std::span<const std::byte *const> rows, std::size_t n,
                    std::span<float> out);

/// Bit-serial reference implementations: identical quantization, but
/// planes/fields are emitted and reassembled one bit per step, the
/// way the bit-plane hardware streams them. Tests assert the fast
/// paths above match these byte-for-byte (pack) and bit-for-bit
/// (unpack); they are not called on any hot path.
void kv_pack_row_serial(const KvFormat &fmt, std::span<const float> row,
                        std::span<std::byte> out);
void kv_unpack_row_serial(const KvFormat &fmt,
                          std::span<const std::byte> in,
                          std::span<float> out);

namespace detail {

/// Signatures of one ISA instantiation of kv_pack_row / kv_unpack_rows
/// for the quantized kinds (kBfp, kAnda; span sizes already checked).
/// kFp32 rows are raw copies and do not reach them.
using KvPackRowFn = void(const KvFormat &fmt, std::span<const float> row,
                         std::span<std::byte> out);
using KvUnpackRowsFn = void(const KvFormat &fmt,
                            std::span<const std::byte *const> rows,
                            std::size_t n, std::span<float> out);

/// Every instantiation, widest first (tests run each one the host
/// supports against the bit-serial oracles). kv_unpack_row is
/// kv_unpack_rows of one row.
std::span<const simd::Variant<KvPackRowFn>> kv_pack_row_variants();
std::span<const simd::Variant<KvUnpackRowsFn>> kv_unpack_rows_variants();

}  // namespace detail

/// Pack + unpack convenience: the values a cache in `fmt` would hand
/// back for `row` (the drop-in used by accuracy sweeps and tests).
std::vector<float> kv_roundtrip(const KvFormat &fmt,
                                std::span<const float> row);

}  // namespace anda
