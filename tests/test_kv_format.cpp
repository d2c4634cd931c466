// Property tests of the cached-KV storage formats
// (format/kv_format.h): randomized pack/unpack round-trips across
// group sizes, trailing partial groups, subnormals, and both rounding
// modes; byte-exactness of the word-level fast paths against the
// bit-serial oracle; bit-identity of the truncating kBfp path with the
// activation-side bfp_roundtrip; and the cache-level invariants —
// quantized KvCache / PagedKvCache store-load round-trips, packed
// swap, chunk-invariant decode, FP32 cached_sequence_nll
// bit-identity with sequence_nll, zero never-stored slots, and a
// mapped pool resident only where rows were stored.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

#include "common/rng.h"
#include "common/simd.h"
#include "format/bfp.h"
#include "format/kv_format.h"
#include "llm/kv_pages.h"
#include "llm/ops.h"
#include "llm/transformer.h"

namespace anda {
namespace {

/// Random row mixing the regimes quantization cares about: zeros,
/// subnormal-scale values, ordinary magnitudes, and large outliers
/// (the shared exponent is set by the largest member).
std::vector<float>
random_row(SplitMix64 &rng, std::size_t n)
{
    std::vector<float> row(n);
    for (float &v : row) {
        switch (rng.uniform_index(5)) {
        case 0:
            v = 0.0f;
            break;
        case 1:
            v = rng.uniform(-6e-8f, 6e-8f);  // FP16 subnormal range.
            break;
        case 2:
            v = rng.uniform(-1.0f, 1.0f);
            break;
        case 3:
            v = rng.uniform(-300.0f, 300.0f);
            break;
        default:
            v = rng.uniform(-4.0f, 4.0f);
            break;
        }
    }
    return row;
}

/// Quantized formats under test: BFP group sizes straddling the Anda
/// group (including ones that leave trailing partial groups below),
/// mantissa widths across [1, 16], and both rounding modes.
std::vector<KvFormat>
quantized_formats()
{
    std::vector<KvFormat> fmts;
    for (const bool rn : {false, true}) {
        // 8 and 9 straddle the split between the fast unpack's low
        // and high byte lanes.
        for (const int m : {1, 4, 7, 8, 9, 11, 16}) {
            fmts.push_back(KvFormat::anda(m, rn));
        }
        for (const int gs : {3, 16, 32, 64, 100}) {
            fmts.push_back(KvFormat::bfp(gs, 7, rn));
        }
        fmts.push_back(KvFormat::bfp(32, 1, rn));
        fmts.push_back(KvFormat::bfp(32, 16, rn));
    }
    return fmts;
}

TEST(KvFormat, NamesBitsAndValidation)
{
    EXPECT_EQ(KvFormat::fp32().name(), "fp32");
    EXPECT_EQ(KvFormat::bfp(32, 8).name(), "bfp-g32-m8");
    EXPECT_EQ(KvFormat::anda(7, true).name(), "anda-m7-rn");
    EXPECT_FALSE(KvFormat::fp32().quantized());
    EXPECT_TRUE(KvFormat::anda(7).quantized());

    EXPECT_DOUBLE_EQ(KvFormat::fp32().bits_per_element(), 32.0);
    // Anda: sign + m mantissa planes + the group's exponent byte
    // amortized over 64 members.
    EXPECT_DOUBLE_EQ(KvFormat::anda(7).bits_per_element(),
                     8.0 + 8.0 / 64.0);
    EXPECT_DOUBLE_EQ(KvFormat::bfp(32, 7).bits_per_element(),
                     bfp_bits_per_element({32, 7}));

    kv_validate(KvFormat::fp32());
    kv_validate(KvFormat::anda(16));
    EXPECT_THROW(kv_validate(KvFormat::anda(0)), CheckError);
    EXPECT_THROW(kv_validate(KvFormat::anda(17)), CheckError);
    EXPECT_THROW(kv_validate(KvFormat::bfp(0, 8)), CheckError);
    KvFormat bad = KvFormat::anda(7);
    bad.group_size = 32;
    EXPECT_THROW(kv_validate(bad), CheckError);
}

TEST(KvFormat, RowBytesAreExact)
{
    // FP32: raw floats.
    EXPECT_EQ(kv_row_bytes(KvFormat::fp32(), 13), 52u);
    // Anda m=7: ceil(n/64) groups of 1 + 8*(1+7) bytes.
    EXPECT_EQ(kv_row_bytes(KvFormat::anda(7), 64), 65u);
    EXPECT_EQ(kv_row_bytes(KvFormat::anda(7), 65), 130u);
    // BFP g=32 m=7: full group = 1 + ceil(32*8/8) = 33 bytes; a
    // 5-element trailing group is sized exactly (1 + ceil(5*8/8)).
    EXPECT_EQ(kv_row_bytes(KvFormat::bfp(32, 7), 32), 33u);
    EXPECT_EQ(kv_row_bytes(KvFormat::bfp(32, 7), 37), 39u);
    // Quantized rows really are smaller — the capacity lever.
    for (const KvFormat &fmt : quantized_formats()) {
        EXPECT_LT(kv_row_bytes(fmt, 256),
                  kv_row_bytes(KvFormat::fp32(), 256))
            << fmt.name();
    }
}

TEST(KvFormat, Fp32PackIsRawBytes)
{
    SplitMix64 rng(11);
    for (const std::size_t n : {1u, 7u, 64u, 129u}) {
        const std::vector<float> row = random_row(rng, n);
        std::vector<std::byte> packed(
            kv_row_bytes(KvFormat::fp32(), n));
        kv_pack_row(KvFormat::fp32(), row, packed);
        EXPECT_EQ(std::memcmp(packed.data(), row.data(), 4 * n), 0);
        std::vector<float> back(n);
        kv_unpack_row(KvFormat::fp32(), packed, back);
        // Bitwise, not just numerically, equal (negative zeros and
        // subnormals survive).
        EXPECT_EQ(std::memcmp(back.data(), row.data(), 4 * n), 0);
    }
}

/// Row of the quantizer's edge cases: signed zeros, FP16 subnormals
/// (the smallest included), the FP16 maximum, and significands of all
/// ones, which round-to-nearest carries past the mantissa ceiling
/// (saturation) whenever they set the group exponent.
std::vector<float>
edge_row(SplitMix64 &rng, std::size_t n)
{
    std::vector<float> row(n);
    for (float &v : row) {
        const float sgn = rng.uniform_index(2) ? -1.0f : 1.0f;
        switch (rng.uniform_index(6)) {
        case 0:
            v = sgn * 0.0f;
            break;
        case 1:
            v = sgn * 0x1.0p-24f;
            break;
        case 2:
            v = sgn * static_cast<float>(1 + rng.uniform_index(1023)) *
                0x1.0p-24f;
            break;
        case 3:
            v = sgn * 65504.0f;
            break;
        case 4:
            v = sgn * 0x1.ffcp0f *
                std::ldexp(1.0f, static_cast<int>(rng.uniform_index(8)));
            break;
        default:
            v = rng.uniform(-3.0f, 3.0f);
            break;
        }
    }
    return row;
}

TEST(KvFormat, FastPathMatchesBitSerialOracle)
{
    SplitMix64 rng(22);
    const std::vector<KvFormat> fmts = quantized_formats();
    // Lengths exercising full groups, partial trailing groups, and
    // single-element rows for every group size above.
    const std::size_t lengths[] = {1, 2, 31, 32, 33, 63, 64, 65, 100,
                                   101, 128, 200};
    std::string ran;
    for (const auto &variant : detail::kv_unpack_rows_variants()) {
        if (simd::isa_supported(variant.isa)) {
            ran += std::string(ran.empty() ? "" : ", ") +
                   simd::isa_name(variant.isa);
        }
    }
    std::cout << "[ INFO     ] KV unpack variants run: " << ran << "\n";
    ASSERT_FALSE(ran.empty());
    for (const KvFormat &fmt : fmts) {
        for (const std::size_t n : lengths) {
            for (const bool edges : {false, true}) {
                const std::vector<float> row =
                    edges ? edge_row(rng, n) : random_row(rng, n);
                const std::size_t bytes = kv_row_bytes(fmt, n);
                std::vector<std::byte> serial(bytes);
                kv_pack_row_serial(fmt, row, serial);
                std::vector<float> want(n);
                kv_unpack_row_serial(fmt, serial, want);
                for (const float v : want) {
                    ASSERT_TRUE(std::isfinite(v));
                }
                for (const auto &pack : detail::kv_pack_row_variants()) {
                    if (!simd::isa_supported(pack.isa)) {
                        continue;
                    }
                    std::vector<std::byte> fast(bytes, std::byte{0xa5});
                    pack.run(fmt, row, fast);
                    ASSERT_EQ(std::memcmp(fast.data(), serial.data(),
                                          bytes),
                              0)
                        << simd::isa_name(pack.isa) << " " << fmt.name()
                        << " n=" << n << " edges=" << edges;
                }
                for (const auto &unpack :
                     detail::kv_unpack_rows_variants()) {
                    if (!simd::isa_supported(unpack.isa)) {
                        continue;
                    }
                    std::vector<float> got(n, 7.0f);
                    const std::byte *const packed = serial.data();
                    unpack.run(fmt, {&packed, 1}, n, got);
                    ASSERT_EQ(std::memcmp(got.data(), want.data(), 4 * n),
                              0)
                        << simd::isa_name(unpack.isa) << " "
                        << fmt.name() << " n=" << n
                        << " edges=" << edges;
                }
            }
        }
    }
    // The dispatched entry points.
    const KvFormat fmt = KvFormat::anda(7);
    const std::vector<float> row = edge_row(rng, 128);
    std::vector<std::byte> fast(kv_row_bytes(fmt, 128));
    std::vector<std::byte> serial(fast.size());
    kv_pack_row(fmt, row, fast);
    kv_pack_row_serial(fmt, row, serial);
    EXPECT_EQ(std::memcmp(fast.data(), serial.data(), fast.size()), 0);
    std::vector<float> got(128);
    std::vector<float> want(128);
    kv_unpack_row(fmt, fast, got);
    kv_unpack_row_serial(fmt, fast, want);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), 4 * 128), 0);
}

TEST(KvFormat, UnpackRowsMatchesBitSerialOracle)
{
    // Every mantissa width in both rounding modes (the bit-transpose
    // path builds a high byte above m = 8), kBfp, and rows that sit in
    // separate buffers, as rows of one key block do across pages.
    SplitMix64 rng(23);
    std::vector<KvFormat> fmts;
    for (const bool rn : {false, true}) {
        for (int m = 1; m <= kAndaMaxMantissa; ++m) {
            fmts.push_back(KvFormat::anda(m, rn));
        }
        fmts.push_back(KvFormat::bfp(64, 7, rn));
        fmts.push_back(KvFormat::bfp(24, 12, rn));
    }
    fmts.push_back(KvFormat::fp32());
    std::string ran;
    for (const auto &variant : detail::kv_unpack_rows_variants()) {
        if (simd::isa_supported(variant.isa)) {
            ran += std::string(ran.empty() ? "" : ", ") +
                   simd::isa_name(variant.isa);
        }
    }
    std::cout << "[ INFO     ] KV unpack-rows variants run: " << ran << "\n";
    constexpr std::size_t kRows = 5;
    for (const KvFormat &fmt : fmts) {
        for (const std::size_t n : {1u, 16u, 63u, 64u, 65u, 128u, 200u}) {
            const std::size_t bytes = kv_row_bytes(fmt, n);
            std::vector<std::vector<std::byte>> packed;
            std::vector<const std::byte *> rows;
            std::vector<float> want(kRows * n);
            for (std::size_t r = 0; r < kRows; ++r) {
                const std::vector<float> row =
                    r % 2 ? edge_row(rng, n) : random_row(rng, n);
                packed.emplace_back(bytes);
                kv_pack_row_serial(fmt, row, packed.back());
                kv_unpack_row_serial(
                    fmt, packed.back(),
                    std::span(want).subspan(r * n, n));
            }
            for (const auto &buf : packed) {
                rows.push_back(buf.data());
            }
            std::vector<float> got(kRows * n, 7.0f);
            kv_unpack_rows(fmt, rows, n, got);
            EXPECT_EQ(std::memcmp(got.data(), want.data(), 4 * got.size()),
                      0)
                << "dispatched " << fmt.name() << " n=" << n;
            if (!fmt.quantized()) {
                continue;
            }
            for (const auto &variant : detail::kv_unpack_rows_variants()) {
                if (!simd::isa_supported(variant.isa)) {
                    continue;
                }
                std::fill(got.begin(), got.end(), 7.0f);
                variant.run(fmt, rows, n, got);
                ASSERT_EQ(
                    std::memcmp(got.data(), want.data(), 4 * got.size()), 0)
                    << simd::isa_name(variant.isa) << " " << fmt.name()
                    << " n=" << n;
            }
        }
    }
}

TEST(KvFormat, RoundtripIsIdempotent)
{
    // Re-quantizing already-quantized values must be exact: the cache
    // hands back the same floats no matter how often a row is packed.
    SplitMix64 rng(33);
    for (const KvFormat &fmt : quantized_formats()) {
        const std::vector<float> row = random_row(rng, 150);
        const std::vector<float> once = kv_roundtrip(fmt, row);
        const std::vector<float> twice = kv_roundtrip(fmt, once);
        ASSERT_EQ(std::memcmp(once.data(), twice.data(),
                              4 * once.size()),
                  0)
            << fmt.name();
    }
}

TEST(KvFormat, TruncatingBfpMatchesActivationBfp)
{
    // The truncating kBfp path shares encode semantics with the
    // activation-side BFP of format/bfp.h — dequantized values must be
    // bit-identical, partial trailing group included.
    SplitMix64 rng(44);
    for (const int gs : {3, 32, 64}) {
        for (const int m : {1, 4, 7, 11}) {
            const std::vector<float> row = random_row(rng, 77);
            const std::vector<float> kv =
                kv_roundtrip(KvFormat::bfp(gs, m), row);
            const std::vector<float> act =
                bfp_roundtrip(row, BfpParams{gs, m});
            ASSERT_EQ(std::memcmp(kv.data(), act.data(), 4 * kv.size()),
                      0)
                << "g" << gs << "-m" << m;
        }
    }
}

TEST(KvFormat, RoundNearestNeverWorseThanTruncation)
{
    // Against the FP16-rounded inputs (the values both modes actually
    // quantize), round-to-nearest's per-element error is bounded by
    // truncation's: the mantissa either matches or moves one step
    // closer, and saturation falls back to the truncated value.
    SplitMix64 rng(55);
    for (const int m : {1, 4, 7}) {
        const std::vector<float> row = random_row(rng, 192);
        const std::vector<float> trunc =
            kv_roundtrip(KvFormat::anda(m, false), row);
        const std::vector<float> near =
            kv_roundtrip(KvFormat::anda(m, true), row);
        for (std::size_t i = 0; i < row.size(); ++i) {
            const float h = Fp16(row[i]).to_float();
            ASSERT_LE(std::abs(near[i] - h),
                      std::abs(trunc[i] - h) + 1e-30f)
                << "m=" << m << " i=" << i;
        }
    }
}

TEST(KvFormat, WiderMantissaIsMoreAccurate)
{
    SplitMix64 rng(66);
    const std::vector<float> row = random_row(rng, 256);
    double prev = 1e300;
    for (const int m : {2, 5, 8, 11}) {
        const std::vector<float> back =
            kv_roundtrip(KvFormat::anda(m), row);
        double err = 0.0;
        for (std::size_t i = 0; i < row.size(); ++i) {
            const float h = Fp16(row[i]).to_float();
            err += std::abs(back[i] - h);
        }
        EXPECT_LE(err, prev) << "m=" << m;
        prev = err;
    }
    // m=11 with zero exponent distance is lossless FP16.
    std::vector<float> flat(64);
    for (std::size_t i = 0; i < flat.size(); ++i) {
        flat[i] = (i % 2 ? -1.0f : 1.0f) *
                  (1.0f + static_cast<float>(i) / 64.0f);
    }
    const std::vector<float> exact =
        kv_roundtrip(KvFormat::anda(11), flat);
    for (std::size_t i = 0; i < flat.size(); ++i) {
        EXPECT_EQ(exact[i], Fp16(flat[i]).to_float());
    }
}

/// Gaussian attention inputs with signed zeros and FP32 subnormals
/// mixed in.
std::vector<float>
attention_row(SplitMix64 &rng, std::size_t n)
{
    std::vector<float> row(n);
    for (float &x : row) {
        const double u = rng.uniform();
        if (u < 0.03) {
            x = -0.0f;
        } else if (u < 0.06) {
            x = 0.0f;
        } else if (u < 0.08) {
            x = static_cast<float>(rng.normal(0.0, 1.0)) * 1e-39f;
        } else {
            x = static_cast<float>(rng.normal(0.0, 1.5));
        }
    }
    return row;
}

/// attend_decode of every variant the host supports against the path
/// it replaced: every K/V row unpacked by the bit-serial oracle, then
/// causal_attention_head per head with the query at the last key.
void
check_attend_decode(const KvSeq &cache, std::span<const float> q,
                    std::size_t head_dim, const std::string &what)
{
    const std::size_t d = q.size();
    const std::size_t kv_len = cache.length();
    const KvFormat &fmt = cache.format();
    Matrix k(kv_len, d);
    Matrix v(kv_len, d);
    std::vector<const std::byte *> kp(kv_len);
    std::vector<const std::byte *> vp(kv_len);
    std::vector<const float *> kr(kv_len);
    std::vector<const float *> vr(kv_len);
    for (std::size_t t = 0; t < kv_len; ++t) {
        kp[t] = cache.packed_k_row(0, t).data();
        vp[t] = cache.packed_v_row(0, t).data();
        kv_unpack_row_serial(fmt, cache.packed_k_row(0, t), k.row(t));
        kv_unpack_row_serial(fmt, cache.packed_v_row(0, t), v.row(t));
        kr[t] = k.row(t).data();
        vr[t] = v.row(t).data();
    }
    std::vector<float> want(d);
    const float *const qrow[1] = {q.data()};
    float *const orow[1] = {want.data()};
    for (std::size_t h = 0; h < d / head_dim; ++h) {
        causal_attention_head(qrow, kr, vr, h * head_dim, head_dim,
                              kv_len - 1, orow);
    }
    for (const auto &variant : detail::attend_decode_variants()) {
        if (!simd::isa_supported(variant.isa)) {
            continue;
        }
        std::vector<float> got(d, 7.0f);
        variant.run(q, fmt, kp, vp, head_dim, got);
        ASSERT_EQ(std::memcmp(got.data(), want.data(), 4 * d), 0)
            << simd::isa_name(variant.isa) << " " << what;
    }
    std::vector<float> got(d, 7.0f);
    attend_decode(q, fmt, kp, vp, head_dim, got);
    ASSERT_EQ(std::memcmp(got.data(), want.data(), 4 * d), 0)
        << "dispatched " << what;
}

TEST(AttendDecode, MatchesGatherAndPerHeadAttentionBitForBit)
{
    std::string ran;
    for (const auto &variant : detail::attend_decode_variants()) {
        if (simd::isa_supported(variant.isa)) {
            ran += std::string(ran.empty() ? "" : ", ") +
                   simd::isa_name(variant.isa);
        }
    }
    std::cout << "[ INFO     ] attend_decode variants run: " << ran << "\n";
    ASSERT_FALSE(ran.empty());
    std::vector<KvFormat> fmts = {KvFormat::fp32(), KvFormat::bfp(64, 7),
                                  KvFormat::bfp(32, 5, true)};
    for (const bool rn : {false, true}) {
        for (int m = 1; m <= kAndaMaxMantissa; ++m) {
            fmts.push_back(KvFormat::anda(m, rn));
        }
    }
    const std::pair<std::size_t, std::size_t> shapes[] = {
        {1, 8}, {4, 32}, {8, 48}, {4, 8}, {8, 32},
        {1, 48}, {8, 8}, {1, 32}, {4, 48}};
    // Page size 0 is the slab layout; 24 makes key blocks straddle
    // pages.
    const std::size_t layouts[] = {0, 16, 32, 24};
    SplitMix64 rng(26);
    std::size_t shape = 0;
    for (std::size_t fi = 0; fi < fmts.size(); ++fi) {
        const KvFormat &fmt = fmts[fi];
        for (std::size_t li = 0; li < std::size(layouts); ++li) {
            const std::size_t page = layouts[li];
            for (const std::size_t kv_len : {1u, 15u, 16u, 17u, 1000u}) {
                // The long context runs once per format, on layouts in
                // turn.
                if (kv_len == 1000 && (fi + li) % std::size(layouts) != 0) {
                    continue;
                }
                // (heads, head_dim) pairs in turn, so across the formats
                // every length meets every pair.
                const auto [heads, hd] = shapes[shape++ % std::size(shapes)];
                const std::size_t d = heads * hd;
                std::unique_ptr<KvPagePool> pool;
                std::unique_ptr<KvSeq> cache;
                std::unique_ptr<PagedKvCache> other;
                if (page == 0) {
                    cache = std::make_unique<KvCache>(1, d, kv_len, fmt);
                } else {
                    const std::size_t pages = 2 * (kv_len / page + 1);
                    pool = std::make_unique<KvPagePool>(
                        1, d, 2 * kv_len, page, pages, true, fmt);
                    auto paged = std::make_unique<PagedKvCache>(*pool);
                    // A second sequence takes every other page, so a
                    // sequence's pages are not adjacent.
                    other = std::make_unique<PagedKvCache>(*pool);
                    for (std::size_t r = page; r <= kv_len; r += page) {
                        paged->reserve(r);
                        other->reserve(r);
                    }
                    cache = std::move(paged);
                }
                cache->reserve(kv_len);
                for (std::size_t t = 0; t < kv_len; ++t) {
                    cache->store_k(0, t, attention_row(rng, d));
                    cache->store_v(0, t, attention_row(rng, d));
                }
                cache->advance(kv_len);
                check_attend_decode(
                    *cache, attention_row(rng, d), hd,
                    fmt.name() + " page=" + std::to_string(page) +
                        " kv_len=" + std::to_string(kv_len) +
                        " heads=" + std::to_string(heads) +
                        " head_dim=" + std::to_string(hd));
            }
        }
    }
}

TEST(KvCacheQuantized, StoreLoadRoundTripsAndGuards)
{
    SplitMix64 rng(77);
    // d_model = 80: one full Anda group plus a 16-element partial.
    const std::size_t d = 80;
    const KvFormat fmt = KvFormat::anda(7);
    KvCache cache(2, d, 64, fmt);
    EXPECT_EQ(cache.format(), fmt);
    EXPECT_EQ(cache.row_bytes(), kv_row_bytes(fmt, d));

    std::vector<std::vector<float>> rows;
    for (std::size_t r = 0; r < 24; ++r) {
        rows.push_back(random_row(rng, d));
        cache.reserve(r + 1);
        cache.advance(1);
        for (std::size_t l = 0; l < 2; ++l) {
            cache.store_k(l, r, rows[r]);
            cache.store_v(l, r, rows[r]);
        }
    }
    std::vector<float> out(d);
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const std::vector<float> expect = kv_roundtrip(fmt, rows[r]);
        for (std::size_t l = 0; l < 2; ++l) {
            cache.load_k(l, r, out);
            ASSERT_EQ(std::memcmp(out.data(), expect.data(), 4 * d), 0);
            cache.load_v(l, r, out);
            ASSERT_EQ(std::memcmp(out.data(), expect.data(), 4 * d), 0);
        }
    }
    // Growth (reserve via advance) preserved the packed prefix above;
    // float row views of a quantized cache are a contract violation.
    EXPECT_THROW(cache.k_row(0, 0), CheckError);
    EXPECT_THROW(cache.v_row(0, 0), CheckError);
}

TEST(KvCache, GrowthIntoMappedBlocksKeepsRows)
{
    // d_model = 256 FP32 rows: a block of 128 rows is 128 KiB, from
    // which size a KvRows block is a memory mapping of its own, so the
    // growth to 512 rows moves the rows from std::allocator storage
    // into a mapping and then between mappings. After every growth
    // the slots never stored read as zero bytes, whether the heap
    // block zeroed them or the fresh mapping came zeroed.
    SplitMix64 rng(78);
    const std::size_t d = 256;
    KvCache cache(2, d, 512, KvFormat::fp32());
    std::vector<std::vector<float>> krows;
    std::vector<std::vector<float>> vrows;
    std::size_t growths = 0;
    const auto zero = [](std::span<const std::byte> row) {
        return std::all_of(row.begin(), row.end(),
                           [](std::byte b) { return b == std::byte{}; });
    };
    for (std::size_t r = 0; r < 300; ++r) {
        krows.push_back(random_row(rng, d));
        vrows.push_back(random_row(rng, d));
        const std::size_t before = cache.capacity();
        cache.reserve(r + 1);
        if (cache.capacity() != before) {
            ++growths;
            for (std::size_t s = r; s < cache.capacity(); ++s) {
                for (std::size_t l = 0; l < 2; ++l) {
                    ASSERT_TRUE(zero(cache.packed_k_row(l, s)) &&
                                zero(cache.packed_v_row(l, s)))
                        << "slot " << s << " at capacity "
                        << cache.capacity();
                }
            }
        }
        cache.advance(1);
        for (std::size_t l = 0; l < 2; ++l) {
            cache.store_k(l, r, krows[r]);
            cache.store_v(l, r, vrows[r]);
        }
    }
    EXPECT_EQ(cache.capacity(), 512U);
    EXPECT_EQ(growths, 6U);  // 16, 32, 64 (heap), 128, 256, 512 (mapped)
    for (std::size_t r = 0; r < krows.size(); ++r) {
        for (std::size_t l = 0; l < 2; ++l) {
            ASSERT_EQ(
                std::memcmp(cache.k_row(l, r).data(), krows[r].data(), 4 * d),
                0);
            ASSERT_EQ(
                std::memcmp(cache.v_row(l, r).data(), vrows[r].data(), 4 * d),
                0);
        }
    }
}

TEST(KvCache, MappedPoolIsResidentOnlyWhereRowsAreStored)
{
    // Under THP "always" the kernel may back a merged run of mappings
    // with 2 MiB pages on first touch; residency is then coarser than
    // the rows stored, by the kernel's choice.
    std::ifstream thp("/sys/kernel/mm/transparent_hugepage/enabled");
    std::string thp_mode;
    std::getline(thp, thp_mode);
    if (thp_mode.find("[always]") != std::string::npos) {
        GTEST_SKIP() << "transparent huge pages are always on";
    }
    // d_model = 128 FP32 rows of 512 bytes and pages of 16 rows: a
    // pool page is 8 KiB of each block, and 64 pages make 512 KiB
    // blocks, which are mappings. 32 rows fill pool pages 0 and 1.
    const std::size_t d = 128;
    const std::size_t page_rows = 16;
    const std::size_t rows = 2 * page_rows;
    KvPagePool pool(2, d, 1024, page_rows, 64);
    PagedKvCache seq(pool);
    SplitMix64 rng(79);
    seq.reserve(rows);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t l = 0; l < 2; ++l) {
            seq.store_k(l, r, random_row(rng, d));
            seq.store_v(l, r, random_row(rng, d));
        }
    }
    seq.advance(rows);

    const auto os_page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    KvRows &kv = pool.rows();
    const std::size_t block_bytes = kv.slots() * kv.row_bytes();
    const std::size_t stored_pages =
        (rows * kv.row_bytes() + os_page - 1) / os_page;
    const std::size_t os_pages = (block_bytes + os_page - 1) / os_page;
    std::vector<unsigned char> resident(os_pages);
    for (std::size_t l = 0; l < 2; ++l) {
        for (const std::size_t t : {KvRows::kK, KvRows::kV}) {
            std::byte *block = kv.row(t, l, 0).data();
            const auto addr = reinterpret_cast<std::uintptr_t>(block);
            ASSERT_EQ(addr % os_page, 0U);
            ASSERT_EQ(mincore(block, block_bytes, resident.data()), 0);
            std::size_t n = 0;
            for (const unsigned char c : resident) {
                n += c & 1U;
            }
            EXPECT_TRUE(resident[0] & 1) << "a stored page reads absent";
            // The pages holding the rows, plus one at each edge.
            EXPECT_LE(n, stored_pages + 2)
                << n << " of " << resident.size() << " pages resident";
        }
    }
}

/// True when two stored rows hold the identical bytes.
bool
same_bytes(std::span<const std::byte> a, std::span<const std::byte> b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size()) == 0;
}

TEST(PagedKvCacheQuantized, MatchesSlabAndSwapsPacked)
{
    // FP32, a BFP format and Anda m=7, the quantized format served
    // under a byte budget: every format lives in the same packed store.
    for (const KvFormat &fmt : {KvFormat::fp32(), KvFormat::bfp(32, 5),
                                KvFormat::anda(7)}) {
        SCOPED_TRACE(fmt.name());
        SplitMix64 rng(88);
        const std::size_t d = 96;
        KvCache slab(2, d, 64, fmt);
        KvPagePool pool(2, d, 64, 4, 16, true, fmt);
        EXPECT_EQ(pool.format(), fmt);
        EXPECT_EQ(pool.page_bytes(), 2 * 2 * 4 * kv_row_bytes(fmt, d));
        PagedKvCache paged(pool);

        const std::size_t rows = 23;
        for (std::size_t r = 0; r < rows; ++r) {
            const std::vector<float> row = random_row(rng, d);
            slab.reserve(r + 1);
            paged.reserve(r + 1);
            slab.advance(1);
            paged.advance(1);
            for (std::size_t l = 0; l < 2; ++l) {
                slab.store_k(l, r, row);
                slab.store_v(l, r, row);
                paged.store_k(l, r, row);
                paged.store_v(l, r, row);
            }
        }
        const auto expect_equal = [&]() {
            std::vector<float> a(d);
            std::vector<float> b(d);
            for (std::size_t l = 0; l < 2; ++l) {
                for (std::size_t r = 0; r < rows; ++r) {
                    slab.load_k(l, r, a);
                    paged.load_k(l, r, b);
                    ASSERT_EQ(std::memcmp(a.data(), b.data(), 4 * d), 0);
                    slab.load_v(l, r, a);
                    paged.load_v(l, r, b);
                    ASSERT_EQ(std::memcmp(a.data(), b.data(), 4 * d), 0);
                    // Both layouts store the identical bytes.
                    ASSERT_EQ(slab.packed_k_row(l, r).size(),
                              kv_row_bytes(fmt, d));
                    ASSERT_TRUE(same_bytes(slab.packed_k_row(l, r),
                                           paged.packed_k_row(l, r)));
                    ASSERT_TRUE(same_bytes(slab.packed_v_row(l, r),
                                           paged.packed_v_row(l, r)));
                }
            }
        };
        expect_equal();
        if (fmt.quantized()) {
            EXPECT_THROW(paged.k_row(0, 0), CheckError);
        } else {
            // An FP32 row's stored bytes are its in-place float view.
            for (std::size_t r = 0; r < rows; ++r) {
                ASSERT_TRUE(same_bytes(paged.packed_k_row(1, r),
                                       std::as_bytes(paged.k_row(1, r))));
                ASSERT_TRUE(same_bytes(slab.packed_v_row(1, r),
                                       std::as_bytes(slab.v_row(1, r))));
            }
        }

        // Swap-out serializes the packed bytes (2 * layers * rows *
        // row_bytes) and the round-trip restores them bit-for-bit.
        const std::vector<std::byte> swapped = paged.swap_out();
        EXPECT_EQ(swapped.size(), 2 * 2 * rows * kv_row_bytes(fmt, d));
        EXPECT_EQ(paged.length(), 0u);
        EXPECT_EQ(pool.allocator().used_pages(), 0u);
        paged.swap_in(swapped, rows);
        expect_equal();

        // Copy-on-extend of a shared packed prefix moves bytes, never
        // re-quantizes: the adopted rows stay identical after the adopter
        // extends past the shared page.
        PagedKvCache child(pool);
        child.adopt_prefix(paged, 10);
        child.reserve(15);
        child.advance(5);
        const std::vector<float> extra = random_row(rng, d);
        for (std::size_t l = 0; l < 2; ++l) {
            for (std::size_t r = 10; r < 15; ++r) {
                child.store_k(l, r, extra);
                child.store_v(l, r, extra);
            }
        }
        std::vector<float> a(d);
        std::vector<float> b(d);
        for (std::size_t l = 0; l < 2; ++l) {
            for (std::size_t r = 0; r < 10; ++r) {
                paged.load_k(l, r, a);
                child.load_k(l, r, b);
                ASSERT_EQ(std::memcmp(a.data(), b.data(), 4 * d), 0);
            }
        }
    }
}

ModelConfig
tiny_config(const std::string &name, Family family)
{
    ModelConfig cfg =
        family == Family::kOpt ? opt_125m() : find_model("llama-7b");
    cfg.name = name;
    cfg.seed = 1213;
    cfg.sim.d_model = 64;
    cfg.sim.n_layers = 2;
    cfg.sim.n_heads = 2;
    cfg.sim.d_ffn = 128;
    cfg.sim.vocab = 96;
    cfg.sim.max_seq = 48;
    return cfg;
}

class KvFormatModelTest : public ::testing::Test {
  protected:
    static const Transformer &model()
    {
        static const Transformer m(
            tiny_config("kvfmt-llama", Family::kLlama));
        return m;
    }

    static std::vector<int> sequence(SplitMix64 &rng, std::size_t len)
    {
        std::vector<int> s(len);
        for (auto &t : s) {
            t = static_cast<int>(rng.uniform_index(
                static_cast<std::uint64_t>(model().dims().vocab)));
        }
        return s;
    }
};

TEST_F(KvFormatModelTest, Fp32CachedNllIsBitIdentical)
{
    SplitMix64 rng(99);
    const RunOptions opts;
    for (const std::size_t len : {8u, 21u}) {
        const std::vector<int> seq = sequence(rng, len);
        const double direct = model().sequence_nll(seq, opts);
        const double cached =
            model().cached_sequence_nll(seq, opts, KvFormat::fp32());
        EXPECT_EQ(direct, cached);  // Bitwise, not approximate.
    }
}

TEST_F(KvFormatModelTest, QuantizedNllFiniteAndImprovesWithBits)
{
    SplitMix64 rng(1010);
    const RunOptions opts;
    const std::vector<int> seq = sequence(rng, 24);
    const double exact = model().sequence_nll(seq, opts);
    const double coarse = model().cached_sequence_nll(
        seq, opts, KvFormat::anda(2));
    const double fine = model().cached_sequence_nll(
        seq, opts, KvFormat::anda(11));
    EXPECT_TRUE(std::isfinite(coarse));
    EXPECT_TRUE(std::isfinite(fine));
    // The fine format must track the exact NLL far closer than the
    // 2-bit one (the monotone axis the accuracy sweep reports).
    EXPECT_LT(std::abs(fine - exact), std::abs(coarse - exact));
}

TEST_F(KvFormatModelTest, QuantizedPrefillIsChunkInvariant)
{
    // Quantize-at-write makes decode independent of prefill chunking:
    // every read sees packed rows, so any chunking — including
    // token-by-token — produces bit-identical logits and caches.
    SplitMix64 rng(1111);
    const RunOptions opts;
    const KvFormat fmt = KvFormat::anda(6);
    const std::vector<int> seq = sequence(rng, 17);

    KvCache whole = model().make_cache(fmt);
    const std::vector<float> logits_whole =
        model().prefill(whole, seq, opts);

    KvCache stepped = model().make_cache(fmt);
    std::vector<float> logits_step;
    for (std::size_t t = 0; t < seq.size(); ++t) {
        logits_step = model().prefill(
            stepped, std::span<const int>(&seq[t], 1), opts,
            t + 1 == seq.size());
    }
    ASSERT_EQ(logits_whole.size(), logits_step.size());
    EXPECT_EQ(std::memcmp(logits_whole.data(), logits_step.data(),
                          4 * logits_whole.size()),
              0);

    // And a paged cache in the same format decodes bit-identically to
    // the slab cache.
    KvPagePool pool(static_cast<std::size_t>(model().dims().n_layers),
                    static_cast<std::size_t>(model().dims().d_model),
                    static_cast<std::size_t>(model().dims().max_seq), 4,
                    16, true, fmt);
    PagedKvCache paged(pool);
    const std::vector<float> logits_paged =
        model().prefill(paged, seq, opts);
    EXPECT_EQ(std::memcmp(logits_whole.data(), logits_paged.data(),
                          4 * logits_whole.size()),
              0);

    BatchKvCache ba;
    ba.add(whole);
    BatchKvCache bb;
    bb.add(paged);
    const int next = 5;
    const Matrix da =
        model().decode_step(ba, std::span<const int>(&next, 1), opts);
    const Matrix db =
        model().decode_step(bb, std::span<const int>(&next, 1), opts);
    EXPECT_EQ(std::memcmp(da.row(0).data(), db.row(0).data(),
                          4 * da.cols()),
              0);
}

}  // namespace
}  // namespace anda
