#pragma once

/// @file
/// Block floating point (BFP) conversion with the paper's Fig. 4 semantics.
///
/// A BFP group shares the maximum FP16 exponent of its members; each
/// member's 11-bit significand (hidden bit included) is right-shifted by
/// its exponent distance to the shared exponent and truncated to the
/// configured mantissa length. Mantissa lengths above 11 add headroom
/// bits below the FP16 LSB so that small exponent distances stay lossless
/// (this is how FIGNA/iFPU-style "extended mantissa" formats are modeled).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/fp16.h"
#include "common/simd.h"

namespace anda {

/// Parameters of a BFP conversion.
struct BfpParams {
    /// Number of values sharing one exponent. 1 reduces BFP to
    /// per-element truncated FP16.
    int group_size = 64;
    /// Stored mantissa bits per element, hidden-bit position included.
    /// Valid range [1, 32); values > 11 are lossless for elements whose
    /// exponent distance to the group maximum is <= mantissa_bits - 11.
    int mantissa_bits = 8;
};

/// One encoded BFP element: sign, integer mantissa, and the group's
/// shift applied to it (kept for inspection/testing).
struct BfpElement {
    std::uint8_t sign = 0;      ///< 1 = negative.
    std::uint32_t mantissa = 0; ///< Truncated integer mantissa.
    std::uint8_t shift = 0;     ///< Right-shift applied (saturated at 31).
};

/// An encoded group: shared exponent plus elements.
struct BfpGroup {
    /// Shared biased FP16 exponent (the max effective exponent in the
    /// group; subnormals contribute their effective exponent 1).
    int shared_exponent = 0;
    std::vector<BfpElement> elems;
};

/// Encodes one group of values (already rounded through FP16 internally).
BfpGroup encode_bfp_group(std::span<const float> values,
                          const BfpParams &params);

/// Decodes a group back to float32. The value of element i is
/// sign_i * mantissa_i * 2^(shared_exponent - 14 - mantissa_bits).
std::vector<float> decode_bfp_group(const BfpGroup &group,
                                    const BfpParams &params);

/// Converts a flat buffer through BFP and back (groups are consecutive
/// runs of group_size elements; a trailing partial group is allowed).
/// This is the "drop-in activation replacement" used by the accuracy
/// experiments: it returns the dequantized values the INT datapath
/// would effectively compute with.
///
/// Throws std::invalid_argument on mismatched spans, group_size < 1 or
/// mantissa_bits outside [1, 32), also for empty spans. `output` may
/// alias `input`. Each group is one allocation-free pass of FP16
/// encoding and an integer exponent maximum, then a second that aligns,
/// truncates and re-signs every element, on the widest vector ISA the
/// host supports (common/simd.h). Bit-identical to decode_bfp_group of
/// encode_bfp_group, which stay the oracle.
void bfp_roundtrip(std::span<const float> input, std::span<float> output,
                   const BfpParams &params);

/// Convenience overload that allocates the output.
std::vector<float> bfp_roundtrip(std::span<const float> input,
                                 const BfpParams &params);

/// Returns the scale 2^(shared_exponent - 14 - mantissa_bits) that maps
/// integer mantissas of a group to real values.
float bfp_group_scale(int shared_exponent, int mantissa_bits);

namespace detail {

/// Signature of one ISA instantiation of bfp_roundtrip (parameters
/// already validated).
using BfpRoundtripFn = void(const float *in, float *out, std::size_t n,
                            int group_size, int mantissa_bits);

/// Every instantiation, widest first (tests run each one the host
/// supports).
std::span<const simd::Variant<BfpRoundtripFn>> bfp_roundtrip_variants();

}  // namespace detail

/// Storage bits per element for a BFP configuration (sign + mantissa +
/// the group's amortized exponent byte), matching the paper's element
/// cost accounting for grouped formats.
double bfp_bits_per_element(const BfpParams &params);

}  // namespace anda
