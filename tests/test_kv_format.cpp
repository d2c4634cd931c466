// Property tests of the cached-KV storage formats
// (format/kv_format.h): randomized pack/unpack round-trips across
// group sizes, trailing partial groups, subnormals, and both rounding
// modes; byte-exactness of the word-level fast paths against the
// bit-serial oracle; bit-identity of the truncating kBfp path with the
// activation-side bfp_roundtrip; and the cache-level invariants —
// quantized KvCache / PagedKvCache store-load round-trips, packed
// swap, chunk-invariant decode, and FP32 cached_sequence_nll
// bit-identity with sequence_nll.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "format/bfp.h"
#include "format/kv_format.h"
#include "llm/kv_pages.h"
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

TEST(KvFormat, FastPathMatchesBitSerialOracle)
{
    SplitMix64 rng(22);
    const std::vector<KvFormat> fmts = quantized_formats();
    // Lengths exercising full groups, partial trailing groups, and
    // single-element rows for every group size above.
    const std::size_t lengths[] = {1, 2, 31, 32, 33, 63, 64, 65, 100,
                                   101, 128, 200};
    for (const KvFormat &fmt : fmts) {
        for (const std::size_t n : lengths) {
            const std::vector<float> row = random_row(rng, n);
            const std::size_t bytes = kv_row_bytes(fmt, n);
            std::vector<std::byte> fast(bytes);
            std::vector<std::byte> serial(bytes);
            kv_pack_row(fmt, row, fast);
            kv_pack_row_serial(fmt, row, serial);
            ASSERT_EQ(std::memcmp(fast.data(), serial.data(), bytes),
                      0)
                << fmt.name() << " n=" << n;

            std::vector<float> out_fast(n);
            std::vector<float> out_serial(n);
            kv_unpack_row(fmt, fast, out_fast);
            kv_unpack_row_serial(fmt, fast, out_serial);
            ASSERT_EQ(std::memcmp(out_fast.data(), out_serial.data(),
                                  4 * n),
                      0)
                << fmt.name() << " n=" << n;
            for (const float v : out_fast) {
                ASSERT_TRUE(std::isfinite(v));
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
    EXPECT_EQ(cache.allocated_bytes() % cache.row_bytes(), 0u);
}

TEST(PagedKvCacheQuantized, MatchesSlabAndSwapsPacked)
{
    SplitMix64 rng(88);
    const std::size_t d = 96;
    const KvFormat fmt = KvFormat::bfp(32, 5);
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
            }
        }
    };
    expect_equal();
    EXPECT_THROW(paged.k_row(0, 0), CheckError);

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
