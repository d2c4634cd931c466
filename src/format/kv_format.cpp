#include "format/kv_format.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

#include "common/check.h"

#if ANDA_SIMD_X86
#include <immintrin.h>
#endif

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
/// mantissa ceiling. Returns the shared biased exponent. The scalar
/// oracle of quantize_group_lanes.
std::uint8_t
quantize_group(std::span<const float> vals, int m, bool round_nearest,
               std::uint32_t *mant, std::uint32_t *sign)
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
        sign[i] = static_cast<std::uint32_t>(h.sign());
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

// Pass 1 of quantize_group_lanes on one vector: the lanes' FP16 bits
// (parked in `h`) and the running per-lane maximum of their biased
// exponents. A zero's exponent field is 0, below the floor of 1 the
// reduction starts from, so zeros never raise the maximum.
template <class F, class U>
[[gnu::always_inline]] inline void
encode_lanes(const F &f, U &h, U &emax)
{
    fp16_encode_bits(f, h);
    const U e = (h >> 10) & 0x1fu;
    const U gt = -((U)(e > emax) & 1u);
    emax = (e & gt) | (emax & ~gt);
}

// Pass 2 on one vector of FP16 bits: quantize_group's mantissa and
// sign of every lane. The shift ts = emax - eff + 11 - m lies in
// [-5, 40]; a left shift by -ts and a right shift by ts clamped to 31
// (sig < 2^11, so every clamped shift gives 0, as the 64-bit scalar
// does) both run in every lane, one of them by 0. Round-to-nearest
// adds half of the right shift's step first; a zero's significand is
// 0 and quantizes to 0 in either mode.
template <class U, class I>
[[gnu::always_inline]] inline void
quantize_lanes(const U &h, std::uint32_t emax, int m,
               std::uint32_t round_mask, U &mant, U &sign)
{
    const U e = (h >> 10) & 0x1fu;
    const U normal = -((U)(e != 0u) & 1u);
    const U sig = (h & 0x3ffu) | (normal & 0x400u);
    const U eff = e | (~normal & 1u);  // Subnormals align at exponent 1.
    const I ts = (I)(emax - eff) + (Fp16::kMantissaBits + 1 - m);
    const I neg = (I)(ts < 0);
    const I right = ts & ~neg;
    const I big = (I)(right > 31);
    const U lshift = (U)(-ts & neg);
    const U rshift = (U)((right & ~big) | (31 & big));
    const U half = ((U{} + 1u) << rshift >> 1) & round_mask;
    const U q = ((sig << lshift) + half) >> rshift;
    const std::uint32_t ceiling = (std::uint32_t{1} << m) - 1;
    const U over = (U)(q > ceiling);
    mant = (q & ~over) | (ceiling & over);
    sign = (h >> 15) & 1u;
}

// quantize_group over vectors of lanes: one pass parks each member's
// FP16 bits in `mant` while reducing the exponent maximum, a second
// rewrites them as mantissas. A short last vector runs zero-padded.
template <class F, class U, class I>
[[gnu::always_inline]] inline std::uint8_t
quantize_group_lanes(std::span<const float> vals, int m,
                     bool round_nearest, std::uint32_t *mant,
                     std::uint32_t *sign)
{
    constexpr std::size_t kLanes = sizeof(F) / sizeof(float);
    const std::size_t len = vals.size();
    const std::size_t full = len / kLanes * kLanes;
    const std::size_t tail = (len - full) * sizeof(float);
    U emax_lanes = {};
    for (std::size_t i = 0; i < len; i += kLanes) {
        F f = {};
        U h;
        std::memcpy(&f, vals.data() + i, i < full ? sizeof f : tail);
        encode_lanes(f, h, emax_lanes);
        std::memcpy(mant + i, &h, i < full ? sizeof h : tail);
    }
    std::uint32_t emax = 1;
    for (std::size_t l = 0; l < kLanes; ++l) {
        emax = std::max<std::uint32_t>(emax, emax_lanes[l]);
    }
    const std::uint32_t round_mask = round_nearest ? ~0u : 0u;
    for (std::size_t i = 0; i < len; i += kLanes) {
        U h = {};
        std::memcpy(&h, mant + i, i < full ? sizeof h : tail);
        U q;
        U s;
        quantize_lanes<U, I>(h, emax, m, round_mask, q, s);
        std::memcpy(mant + i, &q, i < full ? sizeof q : tail);
        std::memcpy(sign + i, &s, i < full ? sizeof s : tail);
    }
    return static_cast<std::uint8_t>(emax);
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
    std::uint32_t sign_fixed[kAndaGroupSize];
    std::vector<std::uint32_t> mant_heap;
    std::vector<std::uint32_t> sign_heap;
    std::uint32_t *mant = nullptr;
    std::uint32_t *sign = nullptr;

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

/// Writes one kBfp group's (1 + m)-bit sign|mantissa fields, LSB
/// first, into zeroed `bits`: one field bit per step (the bit-serial
/// oracle) or through a 64-bit accumulator that flushes whole bytes
/// (w <= 17, so it never overflows between flushes).
void
emit_bfp_group(const GroupScratch &g, std::size_t len, int m, bool serial,
               std::byte *bits)
{
    const int w = 1 + m;
    if (serial) {
        std::size_t bitpos = 0;
        for (std::size_t i = 0; i < len; ++i) {
            const std::uint32_t field = (g.mant[i] << 1) | g.sign[i];
            for (int b = 0; b < w; ++b, ++bitpos) {
                const std::uint8_t bit = (field >> b) & 1;
                bits[bitpos / 8] |=
                    static_cast<std::byte>(bit << (bitpos % 8));
            }
        }
        return;
    }
    std::uint64_t acc = 0;
    int nbits = 0;
    std::size_t byte = 0;
    for (std::size_t i = 0; i < len; ++i) {
        const std::uint64_t field =
            (static_cast<std::uint64_t>(g.mant[i]) << 1) | g.sign[i];
        acc |= field << nbits;
        nbits += w;
        while (nbits >= 8) {
            bits[byte++] = static_cast<std::byte>(acc & 0xff);
            acc >>= 8;
            nbits -= 8;
        }
    }
    if (nbits > 0) {
        bits[byte++] = static_cast<std::byte>(acc & 0xff);
    }
}

/// Writes one kAnda group's sign plane and m mantissa planes, plane
/// by plane and one member bit per step — the order the bit-serial APU
/// consumes them (plane p holds mantissa bit m-1-p, matching
/// format/anda_tensor.h). Inlined, so each ISA instantiation of the
/// fast path compiles its own copy of the member loops.
[[gnu::always_inline]] inline void
emit_anda_group(const GroupScratch &g, std::size_t len, int m,
                std::byte *body)
{
    std::uint64_t planes[1 + kAndaMaxMantissa] = {};
    for (std::size_t i = 0; i < len; ++i) {
        planes[0] |= static_cast<std::uint64_t>(g.sign[i] & 1) << i;
    }
    for (int p = 0; p < m; ++p) {
        for (std::size_t i = 0; i < len; ++i) {
            planes[1 + p] |=
                static_cast<std::uint64_t>((g.mant[i] >> (m - 1 - p)) & 1)
                << i;
        }
    }
    for (int p = 0; p < 1 + m; ++p) {
        store_u64_le(planes[p], body + 8 * p);
    }
}

/// Packs a row of a quantized kind group by group, quantizing each
/// group with `Quantize` (quantize_group or a lane instantiation).
template <auto Quantize, bool kSerial>
[[gnu::always_inline]] inline void
pack_quantized(const KvFormat &fmt, std::span<const float> row,
               std::span<std::byte> out)
{
    // The emitters fill zeroed bytes field by field.
    std::fill(out.begin(), out.end(), std::byte{0});
    const int m = fmt.mantissa_bits;
    const bool anda = fmt.kind == KvKind::kAnda;
    const std::size_t gs = anda ? kAndaGroupSize
                                : static_cast<std::size_t>(fmt.group_size);
    GroupScratch scratch(gs);
    std::size_t off = 0;
    for (std::size_t base = 0; base < row.size(); base += gs) {
        const std::size_t len = std::min(gs, row.size() - base);
        out[off] = static_cast<std::byte>(
            Quantize(row.subspan(base, len), m, fmt.round_nearest,
                     scratch.mant, scratch.sign));
        if (anda) {
            emit_anda_group(scratch, len, m, out.data() + off + 1);
            off += anda_group_bytes(m);
        } else {
            emit_bfp_group(scratch, len, m, kSerial,
                           out.data() + off + 1);
            off += bfp_group_bytes(len, m);
        }
    }
    ANDA_DCHECK_EQ(off, out.size(), "quantized KV row size mismatch");
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

/// The bit-serial kAnda unpack: each member's mantissa is reassembled
/// one plane bit per step.
void
unpack_anda_serial(const KvFormat &fmt, std::span<const std::byte> in,
                   std::span<float> out)
{
    const int m = fmt.mantissa_bits;
    constexpr std::size_t gs = kAndaGroupSize;
    std::size_t off = 0;
    for (std::size_t base = 0; base < out.size(); base += gs) {
        const std::size_t len = std::min(gs, out.size() - base);
        const int exp = std::to_integer<int>(in[off]);
        const float scale = bfp_group_scale(exp, m);
        const std::byte *body = in.data() + off + 1;
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
        off += anda_group_bytes(m);
    }
}

// kAnda unpack with group members in lanes, all 64 held in registers.
// Every vector of members sits inside one 32-bit half of each plane;
// the half is broadcast and shifted right by each lane's member index
// (one variable shift per plane), MSB plane first. The mantissa
// (< 2^16) converts exactly through int32. The group scale
// 2^(exp - 14 - m) is built from its exponent bits (exp in [1, 31] and
// m in [1, 16] keep it a normal float, equal to bfp_group_scale). The
// sign is an XOR of the float sign bit: bit-identical to negating the
// magnitude, +0 -> -0 included.
template <class F, class U, class I>
[[gnu::always_inline]] inline void
unpack_anda_lanes(const KvFormat &fmt, std::span<const std::byte> in,
                  std::span<float> out)
{
    constexpr std::size_t kLanes = sizeof(F) / sizeof(float);
    constexpr std::size_t gs = kAndaGroupSize;
    constexpr std::size_t kVecs = gs / kLanes;
    const int m = fmt.mantissa_bits;
    U shift[kVecs];
    for (std::size_t v = 0; v < kVecs; ++v) {
        for (std::size_t l = 0; l < kLanes; ++l) {
            shift[v][l] =
                static_cast<std::uint32_t>((v * kLanes + l) % 32);
        }
    }
    std::size_t off = 0;
    for (std::size_t base = 0; base < out.size(); base += gs) {
        const std::size_t len = std::min(gs, out.size() - base);
        const int exp = std::to_integer<int>(in[off]);
        const F scale = __builtin_bit_cast(
            F, U{} + (static_cast<std::uint32_t>(exp + 113 - m) << 23));
        const std::byte *body = in.data() + off + 1;
        U mant[kVecs] = {};
        for (int p = 1; p <= m; ++p) {
            const std::uint64_t plane = load_u64_le(body + 8 * p);
            const U lo = U{} + static_cast<std::uint32_t>(plane);
            const U hi = U{} + static_cast<std::uint32_t>(plane >> 32);
            for (std::size_t v = 0; v < kVecs; ++v) {
                const U half = v * kLanes < 32 ? lo : hi;
                mant[v] = (mant[v] << 1) | ((half >> shift[v]) & 1u);
            }
        }
        const std::uint64_t sign_plane = load_u64_le(body);
        float *dst = out.data() + base;
        for (std::size_t i = 0, v = 0; i < len; i += kLanes, ++v) {
            const U half = U{} + static_cast<std::uint32_t>(
                                     sign_plane >> (i / 32 * 32));
            const F mag = __builtin_convertvector(
                              __builtin_bit_cast(I, mant[v]), F) *
                          scale;
            const U bits =
                __builtin_bit_cast(U, mag) ^ ((half >> shift[v]) << 31);
            std::memcpy(dst + i, &bits,
                        len - i >= kLanes ? sizeof bits
                                          : (len - i) * sizeof(float));
        }
        off += anda_group_bytes(m);
    }
}

// kv_unpack_rows of the quantized kinds over vectors of F / U / I lanes
// (the kBfp fields stay a scalar word-level path).
template <class F, class U, class I>
[[gnu::always_inline]] inline void
unpack_rows_lanes(const KvFormat &fmt, std::span<const std::byte *const> rows,
                  std::size_t n, std::span<float> out)
{
    const std::size_t bytes = kv_row_bytes(fmt, n);
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const std::span<const std::byte> in(rows[r], bytes);
        const std::span<float> row = out.subspan(r * n, n);
        if (fmt.kind == KvKind::kAnda) {
            unpack_anda_lanes<F, U, I>(fmt, in, row);
        } else {
            unpack_bfp(fmt, in, row, /*serial=*/false);
        }
    }
}

#if ANDA_SIMD_X86
using u8x64 = std::uint8_t __attribute__((vector_size(64)));

// Byte 8b + j holds 8j + b: byte b of plane j among planes stored 8
// bytes apart.
constexpr std::array<std::uint8_t, 64> kPlaneBytes = [] {
    std::array<std::uint8_t, 64> idx = {};
    for (int i = 0; i < 64; ++i) {
        idx[i] = static_cast<std::uint8_t>(8 * (i % 8) + i / 8);
    }
    return idx;
}();

// Per vector v of 16 members, bytes 0 and 1 of dword l pick member
// 16v + l of the low and the high mantissa bytes (a two-table permute).
constexpr std::array<std::array<std::uint8_t, 64>, 4> kMemberWords = [] {
    std::array<std::array<std::uint8_t, 64>, 4> idx = {};
    for (int v = 0; v < 4; ++v) {
        for (int l = 0; l < 16; ++l) {
            idx[v][4 * l] = static_cast<std::uint8_t>(16 * v + l);
            idx[v][4 * l + 1] = static_cast<std::uint8_t>(64 + 16 * v + l);
        }
    }
    return idx;
}();

// The first `bytes` of 64 (a masked load reads, and faults on, nothing
// else).
inline __mmask64
first_bytes(std::size_t bytes)
{
    return bytes >= 64 ? ~__mmask64{0} : (__mmask64{1} << bytes) - 1;
}

// kAnda unpack as a bit-matrix transpose. Mantissa bit i of member
// 8b + k sits at bit k of byte b of plane m - 1 - i. vpermb gathers
// byte b of eight planes into qword b (plane j + m - 8 at byte j for the
// low mantissa byte, j + m - 16 for the high one, zero below plane 0),
// and gf2p8affineqb with x = 0x8040201008040201 (byte k = 1 << k) sets
// bit i of output byte k to bit k of input byte 7 - i: byte 8b + k of
// the result is member 8b + k's mantissa byte. The high byte is only
// built for m > 8. A second permute zero-extends 16 members' two bytes
// into 32-bit lanes. Scale as in unpack_anda_lanes; the sign is an XOR
// under the sign plane's mask.
ANDA_TARGET_AVX512_GFNI void
unpack_rows_avx512_gfni(const KvFormat &fmt,
                        std::span<const std::byte *const> rows,
                        std::size_t n, std::span<float> out)
{
    if (fmt.kind != KvKind::kAnda) {
        unpack_rows_lanes<simd::f32x16, simd::u32x16, simd::i32x16>(
            fmt, rows, n, out);
        return;
    }
    const int m = fmt.mantissa_bits;
    const std::size_t plane_bytes = 8 * static_cast<std::size_t>(m);
    const __mmask64 load_lo = first_bytes(plane_bytes);
    const __mmask64 load_hi =
        first_bytes(plane_bytes - std::min<std::size_t>(plane_bytes, 64));
    // Planes 0-7 are the permutes' first table and 8-15 the second; a
    // negative plane's index wraps and is masked to zero.
    u8x64 plane_bytes_idx;
    std::memcpy(&plane_bytes_idx, kPlaneBytes.data(), sizeof plane_bytes_idx);
    const __m512i idx_lo = (__m512i)(
        plane_bytes_idx + static_cast<std::uint8_t>(8 * m - 64));
    const __m512i idx_hi = (__m512i)(
        plane_bytes_idx + static_cast<std::uint8_t>(8 * m - 128));
    __m512i member_words[4];
    std::memcpy(member_words, kMemberWords.data(), sizeof member_words);
    constexpr std::uint64_t kEachQword = 0x0101010101010101;
    const __mmask64 keep_lo =
        kEachQword * (0xffu << std::max(8 - m, 0) & 0xffu);
    const __mmask64 keep_hi =
        kEachQword * (0xffu << std::clamp(16 - m, 0, 8) & 0xffu);
    // Bytes 0 and 1 of every dword, or byte 0 alone for m <= 8.
    const __mmask64 words =
        m > 8 ? 0x3333333333333333 : 0x1111111111111111;
    const __m512i transpose = _mm512_set1_epi64(0x8040201008040201);
    const __m512i sign_bit = _mm512_set1_epi32(INT32_MIN);
    const std::size_t group_bytes = anda_group_bytes(m);
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const std::byte *group = rows[r];
        float *dst = out.data() + r * n;
        for (std::size_t base = 0; base < n;
             base += kAndaGroupSize, group += group_bytes) {
            const std::size_t len =
                std::min<std::size_t>(kAndaGroupSize, n - base);
            const int exp = std::to_integer<int>(group[0]);
            const simd::f32x16 scale = __builtin_bit_cast(
                simd::f32x16,
                simd::u32x16{} +
                    (static_cast<std::uint32_t>(exp + 113 - m) << 23));
            const std::uint64_t sign = load_u64_le(group + 1);
            const std::byte *planes = group + 9;
            const __m512i p0 = _mm512_maskz_loadu_epi8(load_lo, planes);
            const __m512i p1 =
                m > 8 ? _mm512_maskz_loadu_epi8(load_hi, planes + 64)
                      : _mm512_setzero_si512();
            const __m512i mant_lo = _mm512_gf2p8affine_epi64_epi8(
                transpose,
                _mm512_maskz_permutex2var_epi8(keep_lo, p0, idx_lo, p1), 0);
            const __m512i mant_hi =
                m > 8 ? _mm512_gf2p8affine_epi64_epi8(
                            transpose,
                            _mm512_maskz_permutex2var_epi8(keep_hi, p0,
                                                           idx_hi, p1),
                            0)
                      : mant_lo;
            for (std::size_t v = 0; v * 16 < len; ++v) {
                const simd::i32x16 mant =
                    (simd::i32x16)_mm512_maskz_permutex2var_epi8(
                        words, mant_lo, member_words[v], mant_hi);
                const simd::f32x16 mag =
                    __builtin_convertvector(mant, simd::f32x16) * scale;
                const __m512i bits = _mm512_mask_xor_epi32(
                    (__m512i)mag, static_cast<__mmask16>(sign >> (16 * v)),
                    (__m512i)mag, sign_bit);
                const std::size_t left = len - 16 * v;
                _mm512_mask_storeu_epi32(
                    dst + base + 16 * v,
                    left >= 16 ? __mmask16{0xffff}
                               : static_cast<__mmask16>((1u << left) - 1),
                    bits);
            }
        }
    }
}
#endif

#if ANDA_SIMD_X86
ANDA_TARGET_AVX512F void
kv_pack_row_avx512f(const KvFormat &fmt, std::span<const float> row,
                    std::span<std::byte> out)
{
    pack_quantized<
        quantize_group_lanes<simd::f32x16, simd::u32x16, simd::i32x16>,
        false>(fmt, row, out);
}

ANDA_TARGET_AVX2 void
kv_pack_row_avx2(const KvFormat &fmt, std::span<const float> row,
                 std::span<std::byte> out)
{
    pack_quantized<
        quantize_group_lanes<simd::f32x8, simd::u32x8, simd::i32x8>,
        false>(fmt, row, out);
}

ANDA_TARGET_AVX512F void
kv_unpack_rows_avx512f(const KvFormat &fmt,
                       std::span<const std::byte *const> rows,
                       std::size_t n, std::span<float> out)
{
    unpack_rows_lanes<simd::f32x16, simd::u32x16, simd::i32x16>(fmt, rows,
                                                                n, out);
}

ANDA_TARGET_AVX2 void
kv_unpack_rows_avx2(const KvFormat &fmt,
                    std::span<const std::byte *const> rows, std::size_t n,
                    std::span<float> out)
{
    unpack_rows_lanes<simd::f32x8, simd::u32x8, simd::i32x8>(fmt, rows, n,
                                                             out);
}
#endif

void
kv_pack_row_baseline(const KvFormat &fmt, std::span<const float> row,
                     std::span<std::byte> out)
{
    pack_quantized<
        quantize_group_lanes<simd::f32x4, simd::u32x4, simd::i32x4>,
        false>(fmt, row, out);
}

void
kv_unpack_rows_baseline(const KvFormat &fmt,
                        std::span<const std::byte *const> rows,
                        std::size_t n, std::span<float> out)
{
    unpack_rows_lanes<simd::f32x4, simd::u32x4, simd::i32x4>(fmt, rows, n,
                                                             out);
}

constexpr simd::Variant<detail::KvPackRowFn> kKvPackRowVariants[] = {
#if ANDA_SIMD_X86
    {simd::Isa::kAvx512f, kv_pack_row_avx512f},
    {simd::Isa::kAvx2, kv_pack_row_avx2},
#endif
    {simd::Isa::kBaseline, kv_pack_row_baseline},
};

constexpr simd::Variant<detail::KvUnpackRowsFn> kKvUnpackRowsVariants[] = {
#if ANDA_SIMD_X86
    {simd::Isa::kAvx512Gfni, unpack_rows_avx512_gfni},
    {simd::Isa::kAvx512f, kv_unpack_rows_avx512f},
    {simd::Isa::kAvx2, kv_unpack_rows_avx2},
#endif
    {simd::Isa::kBaseline, kv_unpack_rows_baseline},
};

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

std::span<const simd::Variant<detail::KvPackRowFn>>
detail::kv_pack_row_variants()
{
    return kKvPackRowVariants;
}

std::span<const simd::Variant<detail::KvUnpackRowsFn>>
detail::kv_unpack_rows_variants()
{
    return kKvUnpackRowsVariants;
}

void
kv_pack_row(const KvFormat &fmt, std::span<const float> row,
            std::span<std::byte> out)
{
    ANDA_DCHECK_EQ(out.size(), kv_row_bytes(fmt, row.size()),
                   "packed KV row span size mismatch");
    if (fmt.kind == KvKind::kFp32) {
        // Raw float bytes — no FP16 rounding, so an FP32 cache stores
        // exactly the floats it was given.
        std::memcpy(out.data(), row.data(), 4 * row.size());
        return;
    }
    static detail::KvPackRowFn *const run =
        simd::widest_supported(detail::kv_pack_row_variants());
    run(fmt, row, out);
}

void
kv_unpack_row(const KvFormat &fmt, std::span<const std::byte> in,
              std::span<float> out)
{
    ANDA_DCHECK_EQ(in.size(), kv_row_bytes(fmt, out.size()),
                   "packed KV row span size mismatch");
    const std::byte *const row = in.data();
    kv_unpack_rows(fmt, {&row, 1}, out.size(), out);
}

void
kv_unpack_rows(const KvFormat &fmt, std::span<const std::byte *const> rows,
               std::size_t n, std::span<float> out)
{
    ANDA_DCHECK_EQ(out.size(), rows.size() * n,
                   "unpacked KV rows span size mismatch");
    if (fmt.kind == KvKind::kFp32) {
        for (std::size_t r = 0; r < rows.size(); ++r) {
            std::memcpy(out.data() + r * n, rows[r], 4 * n);
        }
        return;
    }
    static detail::KvUnpackRowsFn *const run =
        simd::widest_supported(detail::kv_unpack_rows_variants());
    run(fmt, rows, n, out);
}

void
kv_pack_row_serial(const KvFormat &fmt, std::span<const float> row,
                   std::span<std::byte> out)
{
    ANDA_DCHECK_EQ(out.size(), kv_row_bytes(fmt, row.size()),
                   "packed KV row span size mismatch");
    if (fmt.kind == KvKind::kFp32) {
        std::memcpy(out.data(), row.data(), 4 * row.size());
        return;
    }
    pack_quantized<quantize_group, true>(fmt, row, out);
}

void
kv_unpack_row_serial(const KvFormat &fmt, std::span<const std::byte> in,
                     std::span<float> out)
{
    ANDA_DCHECK_EQ(in.size(), kv_row_bytes(fmt, out.size()),
                   "packed KV row span size mismatch");
    switch (fmt.kind) {
    case KvKind::kFp32:
        std::memcpy(out.data(), in.data(), 4 * out.size());
        break;
    case KvKind::kBfp:
        unpack_bfp(fmt, in, out, /*serial=*/true);
        break;
    case KvKind::kAnda:
        unpack_anda_serial(fmt, in, out);
        break;
    }
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
