#include "format/kv_format.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

#include "common/check.h"

namespace anda {

namespace {

/// Effective biased exponent of an FP16 value: subnormals live at the
/// minimum normal exponent (1) with hidden bit 0 (format/bfp.cpp
/// keeps the same convention, so truncating KV quantization is
/// bit-identical to encode_bfp_group).
inline int
effective_exponent(Fp16 h)
{
    const int e = h.biased_exponent();
    return e == 0 ? 1 : e;
}

/// Quantizes one group: shared max effective exponent, significands
/// aligned by their exponent distance and cut to `m` bits — truncated
/// (the hardware path) or rounded to nearest with saturation at the
/// mantissa ceiling. Returns the shared biased exponent.
std::uint8_t
quantize_group(std::span<const float> vals, int m, bool round_nearest,
               std::uint32_t *mant, std::uint8_t *sign)
{
    int max_exp = 1;
    for (const float v : vals) {
        const Fp16 h(v);
        if (!h.is_zero()) {
            max_exp = std::max(max_exp, effective_exponent(h));
        }
    }
    for (std::size_t i = 0; i < vals.size(); ++i) {
        const Fp16 h(vals[i]);
        sign[i] = static_cast<std::uint8_t>(h.sign());
        if (h.is_zero()) {
            mant[i] = 0;
            continue;
        }
        const int dist = max_exp - effective_exponent(h);
        const int ts = dist + (Fp16::kMantissaBits + 1 - m);
        const std::uint64_t sig =
            static_cast<std::uint64_t>(h.significand());
        std::uint64_t q;
        if (ts <= 0) {
            // Headroom bits (m > 11 - dist): lossless left shift.
            q = sig << (-ts);
        } else if (round_nearest) {
            q = (sig + (std::uint64_t{1} << (ts - 1))) >> ts;
        } else {
            q = sig >> ts;
        }
        const std::uint64_t ceiling =
            (std::uint64_t{1} << m) - 1;
        mant[i] = static_cast<std::uint32_t>(std::min(q, ceiling));
        ANDA_DCHECK(round_nearest || q <= ceiling,
                    "truncated KV mantissa overflows its bit budget");
    }
    return static_cast<std::uint8_t>(max_exp);
}

inline void
store_u64_le(std::uint64_t w, std::byte *out)
{
    for (int b = 0; b < 8; ++b) {
        out[b] = static_cast<std::byte>((w >> (8 * b)) & 0xff);
    }
}

inline std::uint64_t
load_u64_le(const std::byte *in)
{
    std::uint64_t w = 0;
    for (int b = 0; b < 8; ++b) {
        w |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(
                 in[b]))
             << (8 * b);
    }
    return w;
}

/// Packed bytes of one kBfp group of `len` elements: exponent byte +
/// bit-packed (1 + m)-bit fields, padded to a byte boundary.
inline std::size_t
bfp_group_bytes(std::size_t len, int m)
{
    return 1 +
           (len * static_cast<std::size_t>(1 + m) + 7) / 8;
}

/// Packed bytes of one kAnda group: exponent byte + sign plane + m
/// mantissa planes (constant in the group's fill, per Fig. 10).
inline std::size_t
anda_group_bytes(int m)
{
    return 1 + 8 * static_cast<std::size_t>(1 + m);
}

/// Scratch for one group's quantization (kAndaGroupSize is the
/// largest fixed group; kBfp groups above 64 fall back to the heap).
struct GroupScratch {
    std::uint32_t mant_fixed[kAndaGroupSize];
    std::uint8_t sign_fixed[kAndaGroupSize];
    std::vector<std::uint32_t> mant_heap;
    std::vector<std::uint8_t> sign_heap;
    std::uint32_t *mant = nullptr;
    std::uint8_t *sign = nullptr;

    explicit GroupScratch(std::size_t group_size)
    {
        if (group_size <= kAndaGroupSize) {
            mant = mant_fixed;
            sign = sign_fixed;
        } else {
            mant_heap.resize(group_size);
            sign_heap.resize(group_size);
            mant = mant_heap.data();
            sign = sign_heap.data();
        }
    }
};

void
pack_bfp(const KvFormat &fmt, std::span<const float> row,
         std::span<std::byte> out, bool serial)
{
    const int m = fmt.mantissa_bits;
    const int w = 1 + m;
    const std::size_t gs = static_cast<std::size_t>(fmt.group_size);
    GroupScratch scratch(gs);
    std::size_t off = 0;
    for (std::size_t base = 0; base < row.size(); base += gs) {
        const std::size_t len = std::min(gs, row.size() - base);
        const std::uint8_t exp = quantize_group(
            row.subspan(base, len), m, fmt.round_nearest, scratch.mant,
            scratch.sign);
        out[off] = static_cast<std::byte>(exp);
        std::byte *bits = out.data() + off + 1;
        if (serial) {
            // Bit-serial emission: one field bit per step, LSB first
            // (bit 0 = sign, bits 1..m = mantissa).
            std::size_t bitpos = 0;
            for (std::size_t i = 0; i < len; ++i) {
                const std::uint32_t field =
                    (scratch.mant[i] << 1) | scratch.sign[i];
                for (int b = 0; b < w; ++b, ++bitpos) {
                    const std::uint8_t bit = (field >> b) & 1;
                    bits[bitpos / 8] |= static_cast<std::byte>(
                        bit << (bitpos % 8));
                }
            }
        } else {
            // Word-level fast path: a 64-bit accumulator flushes
            // whole bytes (w <= 17, so it never overflows between
            // flushes).
            std::uint64_t acc = 0;
            int nbits = 0;
            std::size_t byte = 0;
            for (std::size_t i = 0; i < len; ++i) {
                const std::uint64_t field =
                    (static_cast<std::uint64_t>(scratch.mant[i]) << 1) |
                    scratch.sign[i];
                acc |= field << nbits;
                nbits += w;
                while (nbits >= 8) {
                    bits[byte++] =
                        static_cast<std::byte>(acc & 0xff);
                    acc >>= 8;
                    nbits -= 8;
                }
            }
            if (nbits > 0) {
                bits[byte++] = static_cast<std::byte>(acc & 0xff);
            }
        }
        off += bfp_group_bytes(len, m);
    }
    ANDA_DCHECK_EQ(off, out.size(), "BFP KV row size mismatch");
}

void
unpack_bfp(const KvFormat &fmt, std::span<const std::byte> in,
           std::span<float> out, bool serial)
{
    const int m = fmt.mantissa_bits;
    const int w = 1 + m;
    const std::size_t gs = static_cast<std::size_t>(fmt.group_size);
    std::size_t off = 0;
    for (std::size_t base = 0; base < out.size(); base += gs) {
        const std::size_t len = std::min(gs, out.size() - base);
        const int exp = std::to_integer<int>(in[off]);
        const float scale = bfp_group_scale(exp, m);
        const std::byte *bits = in.data() + off + 1;
        if (serial) {
            std::size_t bitpos = 0;
            for (std::size_t i = 0; i < len; ++i) {
                std::uint32_t field = 0;
                for (int b = 0; b < w; ++b, ++bitpos) {
                    const std::uint32_t bit =
                        (std::to_integer<std::uint32_t>(
                             bits[bitpos / 8]) >>
                         (bitpos % 8)) &
                        1;
                    field |= bit << b;
                }
                const float mag =
                    static_cast<float>(field >> 1) * scale;
                out[base + i] = (field & 1) ? -mag : mag;
            }
        } else {
            std::uint64_t acc = 0;
            int nbits = 0;
            std::size_t byte = 0;
            const std::uint64_t mask =
                (std::uint64_t{1} << w) - 1;
            for (std::size_t i = 0; i < len; ++i) {
                while (nbits < w) {
                    acc |= static_cast<std::uint64_t>(
                               std::to_integer<std::uint8_t>(
                                   bits[byte++]))
                           << nbits;
                    nbits += 8;
                }
                const std::uint64_t field = acc & mask;
                acc >>= w;
                nbits -= w;
                const float mag =
                    static_cast<float>(field >> 1) * scale;
                out[base + i] = (field & 1) ? -mag : mag;
            }
        }
        off += bfp_group_bytes(len, m);
    }
}

void
pack_anda(const KvFormat &fmt, std::span<const float> row,
          std::span<std::byte> out, bool serial)
{
    const int m = fmt.mantissa_bits;
    constexpr std::size_t gs = kAndaGroupSize;
    GroupScratch scratch(gs);
    std::size_t off = 0;
    for (std::size_t base = 0; base < row.size(); base += gs) {
        const std::size_t len = std::min(gs, row.size() - base);
        const std::uint8_t exp = quantize_group(
            row.subspan(base, len), m, fmt.round_nearest, scratch.mant,
            scratch.sign);
        out[off] = static_cast<std::byte>(exp);
        std::uint64_t planes[1 + kAndaMaxMantissa] = {};
        if (serial) {
            // Plane-by-plane, one member bit per step — the order the
            // bit-serial APU consumes them (plane p holds mantissa
            // bit m-1-p, matching format/anda_tensor.h).
            for (std::size_t i = 0; i < len; ++i) {
                planes[0] |= static_cast<std::uint64_t>(
                                 scratch.sign[i] & 1)
                             << i;
            }
            for (int p = 0; p < m; ++p) {
                for (std::size_t i = 0; i < len; ++i) {
                    planes[1 + p] |=
                        static_cast<std::uint64_t>(
                            (scratch.mant[i] >> (m - 1 - p)) & 1)
                        << i;
                }
            }
        } else {
            // Word-level fast path: scatter each member's set bits
            // into its planes, one step per set bit (pack runs once
            // per row; the dense transpose is on the unpack side,
            // which attention runs every step).
            for (std::size_t i = 0; i < len; ++i) {
                if (scratch.sign[i]) {
                    planes[0] |= std::uint64_t{1} << i;
                }
                std::uint32_t rem = scratch.mant[i];
                while (rem != 0) {
                    const int b = std::countr_zero(rem);
                    rem &= rem - 1;
                    planes[1 + (m - 1 - b)] |= std::uint64_t{1} << i;
                }
            }
        }
        for (int p = 0; p < 1 + m; ++p) {
            store_u64_le(planes[p], out.data() + off + 1 + 8 * p);
        }
        off += anda_group_bytes(m);
    }
    ANDA_DCHECK_EQ(off, out.size(), "Anda KV row size mismatch");
}

/// kSpread[x] puts bit k of byte x into bit 0 of byte lane k: one
/// plane byte (8 group members) becomes eight 8-bit lanes.
constexpr std::array<std::uint64_t, 256> kSpread = [] {
    std::array<std::uint64_t, 256> t{};
    for (std::size_t x = 0; x < t.size(); ++x) {
        for (int k = 0; k < 8; ++k) {
            t[x] |= static_cast<std::uint64_t>((x >> k) & 1)
                    << (8 * k);
        }
    }
    return t;
}();

/// Bit 0 of every byte lane.
constexpr std::uint64_t kLaneLsb = 0x0101010101010101ULL;

inline std::uint64_t
spread(std::byte plane_byte)
{
    return kSpread[std::to_integer<std::uint8_t>(plane_byte)];
}

/// Writes the eight byte lanes of `w` to out[0..8), lane 0 first.
inline void
store_lanes(std::uint64_t w, std::uint8_t *out)
{
    for (int k = 0; k < 8; ++k) {
        out[k] = static_cast<std::uint8_t>(w >> (8 * k));
    }
}

void
unpack_anda(const KvFormat &fmt, std::span<const std::byte> in,
            std::span<float> out, bool serial)
{
    const int m = fmt.mantissa_bits;
    constexpr std::size_t gs = kAndaGroupSize;
    constexpr std::size_t words = gs / 8;
    std::size_t off = 0;
    for (std::size_t base = 0; base < out.size(); base += gs) {
        const std::size_t len = std::min(gs, out.size() - base);
        const int exp = std::to_integer<int>(in[off]);
        const float scale = bfp_group_scale(exp, m);
        const std::byte *body = in.data() + off + 1;
        if (serial) {
            const std::uint64_t sign_plane = load_u64_le(body);
            for (std::size_t i = 0; i < len; ++i) {
                std::uint32_t mant = 0;
                for (int p = 0; p < m; ++p) {
                    const std::uint64_t plane =
                        load_u64_le(body + 8 * (1 + p));
                    mant = (mant << 1) |
                           static_cast<std::uint32_t>((plane >> i) & 1);
                }
                const float mag = static_cast<float>(mant) * scale;
                out[base + i] = ((sign_plane >> i) & 1) ? -mag : mag;
            }
        } else {
            // Word-level plane transpose (SWAR): each plane byte is
            // spread into eight 8-bit lanes and shifted into its lane
            // accumulator, MSB plane first. The bit shifted out of a
            // low lane carries into the same lane of the high word,
            // so every m in [1, 16] takes this one path.
            std::uint64_t lo_w[words] = {};
            std::uint64_t hi_w[words] = {};
            for (int p = 0; p < m; ++p) {
                const std::byte *plane = body + 8 * (1 + p);
                for (std::size_t b = 0; b < words; ++b) {
                    hi_w[b] =
                        (hi_w[b] << 1) | ((lo_w[b] >> 7) & kLaneLsb);
                    lo_w[b] = ((lo_w[b] << 1) & ~kLaneLsb) |
                              spread(plane[b]);
                }
            }
            // Member i's sign bit and its mantissa's low and high bytes.
            std::uint8_t sign[gs];
            std::uint8_t lo[gs];
            std::uint8_t hi[gs];
            for (std::size_t b = 0; b < words; ++b) {
                store_lanes(spread(body[b]), sign + 8 * b);
                store_lanes(lo_w[b], lo + 8 * b);
                store_lanes(hi_w[b], hi + 8 * b);
            }
            // The sign is an XOR of the float sign bit: bit-identical
            // to negating the magnitude, +0 -> -0 included.
            float *dst = out.data() + base;
            for (std::size_t i = 0; i < len; ++i) {
                const auto mant =
                    static_cast<std::uint32_t>(lo[i]) |
                    (static_cast<std::uint32_t>(hi[i]) << 8);
                const float mag = static_cast<float>(mant) * scale;
                dst[i] = std::bit_cast<float>(
                    std::bit_cast<std::uint32_t>(mag) ^
                    (static_cast<std::uint32_t>(sign[i]) << 31));
            }
        }
        off += anda_group_bytes(m);
    }
}

void
pack_row(const KvFormat &fmt, std::span<const float> row,
         std::span<std::byte> out, bool serial)
{
    ANDA_DCHECK_EQ(out.size(), kv_row_bytes(fmt, row.size()),
                   "packed KV row span size mismatch");
    std::fill(out.begin(), out.end(), std::byte{0});
    switch (fmt.kind) {
    case KvKind::kFp32:
        // Raw float bytes — no FP16 rounding, so an FP32 cache stores
        // exactly what the legacy float storage did.
        std::memcpy(out.data(), row.data(), 4 * row.size());
        break;
    case KvKind::kBfp:
        pack_bfp(fmt, row, out, serial);
        break;
    case KvKind::kAnda:
        pack_anda(fmt, row, out, serial);
        break;
    }
}

void
unpack_row(const KvFormat &fmt, std::span<const std::byte> in,
           std::span<float> out, bool serial)
{
    ANDA_DCHECK_EQ(in.size(), kv_row_bytes(fmt, out.size()),
                   "packed KV row span size mismatch");
    switch (fmt.kind) {
    case KvKind::kFp32:
        std::memcpy(out.data(), in.data(), 4 * out.size());
        break;
    case KvKind::kBfp:
        unpack_bfp(fmt, in, out, serial);
        break;
    case KvKind::kAnda:
        unpack_anda(fmt, in, out, serial);
        break;
    }
}

}  // namespace

double
KvFormat::bits_per_element() const
{
    switch (kind) {
    case KvKind::kFp32:
        return 32.0;
    case KvKind::kBfp:
        return bfp_bits_per_element({group_size, mantissa_bits});
    case KvKind::kAnda:
        return AndaTensor::bits_per_element(mantissa_bits);
    }
    return 32.0;
}

std::string
KvFormat::name() const
{
    std::string n;
    switch (kind) {
    case KvKind::kFp32:
        return "fp32";
    case KvKind::kBfp:
        n = "bfp-g" + std::to_string(group_size) + "-m" +
            std::to_string(mantissa_bits);
        break;
    case KvKind::kAnda:
        n = "anda-m" + std::to_string(mantissa_bits);
        break;
    }
    if (round_nearest) {
        n += "-rn";
    }
    return n;
}

void
kv_validate(const KvFormat &fmt)
{
    if (fmt.kind == KvKind::kFp32) {
        return;
    }
    ANDA_CHECK(fmt.mantissa_bits >= 1 &&
                   fmt.mantissa_bits <= kAndaMaxMantissa,
               "KV mantissa length out of range");
    ANDA_CHECK_GE(fmt.group_size, 1, "KV group size out of range");
    if (fmt.kind == KvKind::kAnda) {
        ANDA_CHECK_EQ(fmt.group_size, kAndaGroupSize,
                      "Anda KV groups are fixed at 64");
    }
}

std::size_t
kv_row_bytes(const KvFormat &fmt, std::size_t n)
{
    switch (fmt.kind) {
    case KvKind::kFp32:
        return 4 * n;
    case KvKind::kBfp: {
        const std::size_t gs =
            static_cast<std::size_t>(fmt.group_size);
        const std::size_t full = n / gs;
        const std::size_t rem = n % gs;
        std::size_t bytes = full * bfp_group_bytes(gs, fmt.mantissa_bits);
        if (rem != 0) {
            bytes += bfp_group_bytes(rem, fmt.mantissa_bits);
        }
        return bytes;
    }
    case KvKind::kAnda:
        return ((n + kAndaGroupSize - 1) / kAndaGroupSize) *
               anda_group_bytes(fmt.mantissa_bits);
    }
    return 4 * n;
}

void
kv_pack_row(const KvFormat &fmt, std::span<const float> row,
            std::span<std::byte> out)
{
    pack_row(fmt, row, out, /*serial=*/false);
}

void
kv_unpack_row(const KvFormat &fmt, std::span<const std::byte> in,
              std::span<float> out)
{
    unpack_row(fmt, in, out, /*serial=*/false);
}

void
kv_pack_row_serial(const KvFormat &fmt, std::span<const float> row,
                   std::span<std::byte> out)
{
    pack_row(fmt, row, out, /*serial=*/true);
}

void
kv_unpack_row_serial(const KvFormat &fmt, std::span<const std::byte> in,
                     std::span<float> out)
{
    unpack_row(fmt, in, out, /*serial=*/true);
}

std::vector<float>
kv_roundtrip(const KvFormat &fmt, std::span<const float> row)
{
    std::vector<std::byte> packed(kv_row_bytes(fmt, row.size()));
    kv_pack_row(fmt, row, packed);
    std::vector<float> out(row.size());
    kv_unpack_row(fmt, packed, out);
    return out;
}

}  // namespace anda
