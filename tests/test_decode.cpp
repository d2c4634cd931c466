// Decode-vs-prefill bit-exactness of the public KV-cache subsystem:
// a ragged incremental decode step (one new token per sequence,
// heterogeneous cache lengths, block-diagonal attention over cached
// K/V, positions continuing per sequence) must reproduce the full-
// prefix batched forward bit for bit, for every activation format and
// both families. Also covers KvCache growth/length accounting, prefill
// chunking invariance, the sample_sequence dedup onto the public API,
// and the validation paths.

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "llm/kv_pages.h"
#include "llm/ops.h"
#include "llm/transformer.h"

namespace anda {
namespace {

ModelConfig
tiny_config(const std::string &name, Family family)
{
    ModelConfig cfg =
        family == Family::kOpt ? opt_125m() : find_model("llama-7b");
    cfg.name = name;
    cfg.seed = 909;
    cfg.sim.d_model = 64;
    cfg.sim.n_layers = 2;
    cfg.sim.n_heads = 2;
    cfg.sim.d_ffn = 128;
    cfg.sim.vocab = 96;
    cfg.sim.max_seq = 48;
    return cfg;
}

class DecodeTest : public ::testing::Test {
  protected:
    static const Transformer &opt()
    {
        static const Transformer m(
            tiny_config("decode-opt", Family::kOpt));
        return m;
    }
    static const Transformer &llama()
    {
        static const Transformer m(
            tiny_config("decode-llama", Family::kLlama));
        return m;
    }

    static std::vector<int> sequence(const Transformer &m,
                                     SplitMix64 &rng, std::size_t len)
    {
        std::vector<int> s(len);
        for (auto &t : s) {
            t = static_cast<int>(rng.uniform_index(
                static_cast<std::uint64_t>(m.dims().vocab)));
        }
        return s;
    }

    static std::vector<std::vector<int>>
    ragged_batch(const Transformer &m, SplitMix64 &rng,
                 std::size_t count, std::size_t min_len,
                 std::size_t max_len)
    {
        std::vector<std::vector<int>> seqs(count);
        for (auto &s : seqs) {
            const std::size_t len =
                min_len + rng.uniform_index(max_len - min_len + 1);
            s = sequence(m, rng, len);
        }
        return seqs;
    }

    static std::vector<RunOptions> tap_formats()
    {
        RunOptions fp16;  // The W4A16 baseline.
        RunOptions fp_weights;
        fp_weights.quantized_weights = false;
        RunOptions bfp;
        bfp.prec = PrecisionConfig::uniform_bfp(64, 5);
        RunOptions anda_tuple;
        anda_tuple.prec = PrecisionConfig::anda({8, 7, 6, 5});
        return {fp16, fp_weights, bfp, anda_tuple};
    }

    /// Prefills one cache per sequence with everything but the last
    /// token, decode-steps the last tokens as one ragged batch, and
    /// asserts the decode logits equal the last-row logits of the
    /// full-prefix batched recomputation bit for bit.
    static void expect_decode_matches_full(
        const Transformer &m, std::span<const std::vector<int>> seqs,
        const RunOptions &opts, const std::string &what)
    {
        std::vector<KvCache> caches;
        caches.reserve(seqs.size());
        BatchKvCache batch;
        std::vector<int> last;
        for (const auto &s : seqs) {
            ASSERT_GE(s.size(), 2u) << what;
            caches.push_back(m.make_cache());
            m.prefill(caches.back(),
                      std::span<const int>(s.data(), s.size() - 1),
                      opts);
            last.push_back(s.back());
        }
        for (auto &c : caches) {
            batch.add(c);
        }
        const Matrix dec = m.decode_step(batch, last, opts);
        const Matrix full = m.forward_logits_batched(seqs, opts);
        std::size_t off = 0;
        for (std::size_t s = 0; s < seqs.size(); ++s) {
            const std::size_t row = off + seqs[s].size() - 1;
            for (std::size_t v = 0; v < dec.cols(); ++v) {
                ASSERT_EQ(dec(s, v), full(row, v))
                    << what << " seq=" << s << " v=" << v
                    << " len=" << seqs[s].size();
            }
            EXPECT_EQ(caches[s].length(), seqs[s].size()) << what;
            off += seqs[s].size();
        }
    }
};

TEST_F(DecodeTest, RaggedDecodeMatchesFullPrefixAcrossFormats)
{
    SplitMix64 rng(20260730);
    for (const Transformer *m : {&opt(), &llama()}) {
        const auto formats = tap_formats();
        for (std::size_t f = 0; f < formats.size(); ++f) {
            const auto seqs = ragged_batch(*m, rng, 2 + f, 2, 20);
            expect_decode_matches_full(*m, seqs, formats[f],
                                       m->config().name + " format " +
                                           std::to_string(f));
        }
    }
}

TEST_F(DecodeTest, RandomizedRaggedMixes)
{
    SplitMix64 rng(4477);
    for (const Transformer *m : {&opt(), &llama()}) {
        for (int trial = 0; trial < 4; ++trial) {
            const std::size_t count = 2 + rng.uniform_index(5);
            const auto seqs = ragged_batch(*m, rng, count, 2, 24);
            expect_decode_matches_full(*m, seqs, RunOptions{},
                                       m->config().name + " trial " +
                                           std::to_string(trial));
        }
    }
}

TEST_F(DecodeTest, LengthOnePrefixAndSingleSequenceBatch)
{
    SplitMix64 rng(11);
    for (const Transformer *m : {&opt(), &llama()}) {
        // Length-1 prefix inside a ragged mix: the first decode step
        // runs at position 1 while its neighbors sit deep in their
        // prefixes.
        std::vector<std::vector<int>> seqs = {
            sequence(*m, rng, 2), sequence(*m, rng, 14),
            sequence(*m, rng, 7)};
        expect_decode_matches_full(*m, seqs, RunOptions{},
                                   m->config().name + " len-1 prefix");
        // A single-sequence batch degenerates to the sampling loop.
        const std::vector<std::vector<int>> single = {
            sequence(*m, rng, 9)};
        expect_decode_matches_full(*m, single, RunOptions{},
                                   m->config().name + " single");
    }
}

TEST_F(DecodeTest, MultiStepDecodeTracksFullRecompute)
{
    // Several consecutive ragged decode steps: after every step each
    // sequence's logits must equal the full-prefix recomputation of
    // its grown token history (caches advance heterogeneously).
    SplitMix64 rng(31415);
    RunOptions opts;
    opts.prec = PrecisionConfig::anda({8, 7, 6, 5});
    for (const Transformer *m : {&opt(), &llama()}) {
        auto seqs = ragged_batch(*m, rng, 4, 1, 10);
        std::vector<KvCache> caches;
        caches.reserve(seqs.size());
        BatchKvCache batch;
        for (const auto &s : seqs) {
            caches.push_back(m->make_cache());
            m->prefill(caches.back(), s, opts);
        }
        for (auto &c : caches) {
            batch.add(c);
        }
        for (int step = 0; step < 4; ++step) {
            std::vector<int> next;
            for (auto &s : seqs) {
                next.push_back(static_cast<int>(rng.uniform_index(
                    static_cast<std::uint64_t>(m->dims().vocab))));
                s.push_back(next.back());
            }
            const Matrix dec = m->decode_step(batch, next, opts);
            const Matrix full = m->forward_logits_batched(seqs, opts);
            std::size_t off = 0;
            for (std::size_t s = 0; s < seqs.size(); ++s) {
                const std::size_t row = off + seqs[s].size() - 1;
                for (std::size_t v = 0; v < dec.cols(); ++v) {
                    ASSERT_EQ(dec(s, v), full(row, v))
                        << m->config().name << " step=" << step
                        << " seq=" << s << " v=" << v;
                }
                off += seqs[s].size();
            }
        }
    }
}

TEST_F(DecodeTest, PrefillChunkingIsInvariant)
{
    // Prefilling a prompt in two chunks must leave the cache in the
    // same state as one shot: same returned logits, same subsequent
    // decode logits. Both families — OPT exercises the learned
    // position table's offset across the chunk boundary, LLaMA the
    // RoPE continuation (the path serving execution chunks through).
    SplitMix64 rng(808);
    RunOptions opts;
    for (const Transformer *m : {&opt(), &llama()}) {
        const auto prompt = sequence(*m, rng, 13);

        KvCache one = m->make_cache();
        const auto logits_one = m->prefill(one, prompt, opts);

        KvCache two = m->make_cache();
        // Intermediate chunks can skip the logit head entirely.
        const auto skipped = m->prefill(
            two, std::span<const int>(prompt.data(), 5), opts, false);
        EXPECT_TRUE(skipped.empty());
        const auto logits_two = m->prefill(
            two,
            std::span<const int>(prompt.data() + 5, prompt.size() - 5),
            opts);
        ASSERT_EQ(logits_one.size(), logits_two.size());
        for (std::size_t v = 0; v < logits_one.size(); ++v) {
            ASSERT_EQ(logits_one[v], logits_two[v])
                << m->config().name << " v=" << v;
        }
        EXPECT_EQ(one.length(), two.length());

        const int tok = 3;
        BatchKvCache a;
        a.add(one);
        BatchKvCache b;
        b.add(two);
        const Matrix da =
            m->decode_step(a, std::span<const int>(&tok, 1), opts);
        const Matrix db =
            m->decode_step(b, std::span<const int>(&tok, 1), opts);
        EXPECT_EQ(max_abs_diff(da, db), 0.0) << m->config().name;
    }
}

TEST_F(DecodeTest, KvCacheGrowsGeometricallyNotEagerly)
{
    const Transformer &m = llama();
    KvCache cache = m.make_cache();
    EXPECT_EQ(cache.length(), 0u);
    EXPECT_EQ(cache.capacity(), 0u);

    // A short prompt must not reserve max_seq rows up front.
    SplitMix64 rng(5);
    RunOptions opts;
    m.prefill(cache, sequence(m, rng, 3), opts);
    EXPECT_EQ(cache.length(), 3u);
    EXPECT_GE(cache.capacity(), 3u);
    EXPECT_LT(cache.capacity(),
              static_cast<std::size_t>(m.dims().max_seq));

    // Growth at least doubles, so a decode loop reallocates O(log n)
    // times.
    std::size_t grows = 0;
    std::size_t cap = cache.capacity();
    BatchKvCache batch;
    batch.add(cache);
    const int tok = 1;
    while (cache.length() <
           static_cast<std::size_t>(m.dims().max_seq)) {
        m.decode_step(batch, std::span<const int>(&tok, 1), opts);
        if (cache.capacity() != cap) {
            // Doubles until the max_seq clamp.
            EXPECT_TRUE(cache.capacity() >= 2 * cap ||
                        cache.capacity() ==
                            static_cast<std::size_t>(m.dims().max_seq))
                << cache.capacity();
            cap = cache.capacity();
            ++grows;
        }
    }
    EXPECT_LE(grows, 4u);
    EXPECT_LE(cache.capacity(),
              static_cast<std::size_t>(m.dims().max_seq));

    // The hard bound: one more token must throw, not grow.
    EXPECT_THROW(
        m.decode_step(batch, std::span<const int>(&tok, 1), opts),
        std::invalid_argument);
}

TEST_F(DecodeTest, SampleSequenceMatchesReferenceRecomputeLoop)
{
    // The deduped sampler (public prefill + decode_step) must stay
    // bit-identical to ancestral sampling that recomputes the full
    // prefix every step through forward_logits.
    RunOptions fp;
    fp.quantized_weights = false;
    for (const Transformer *m : {&opt(), &llama()}) {
        for (const double temperature : {1.0, 0.01}) {
            const std::uint64_t seed = 4242;
            const int length = 14;
            SplitMix64 rng(seed);
            std::vector<int> want = {0};
            while (static_cast<int>(want.size()) < length) {
                const Matrix logits = m->forward_logits(want, fp);
                want.push_back(sample_from_logits(
                    logits.row(want.size() - 1), temperature,
                    rng.uniform()));
            }
            EXPECT_EQ(m->sample_sequence(length, temperature, seed),
                      want)
                << m->config().name << " T=" << temperature;
        }
    }
}

TEST_F(DecodeTest, ValidatesDegenerateInputs)
{
    const Transformer &m = llama();
    RunOptions opts;
    KvCache cache = m.make_cache();
    BatchKvCache batch;
    const std::vector<int> toks = {1, 2};
    // Empty batch and token/cache count mismatch.
    EXPECT_THROW(m.decode_step(batch, toks, opts),
                 std::invalid_argument);
    batch.add(cache);
    EXPECT_THROW(m.decode_step(batch, toks, opts),
                 std::invalid_argument);
    // Empty prefill.
    EXPECT_THROW(m.prefill(cache, std::vector<int>{}, opts),
                 std::invalid_argument);
    // A prefill past max_seq throws before touching the cache.
    const std::vector<int> too_long(
        static_cast<std::size_t>(m.dims().max_seq) + 1, 0);
    EXPECT_THROW(m.prefill(cache, too_long, opts),
                 std::invalid_argument);
    EXPECT_EQ(cache.length(), 0u);
    // A cache built for a different model must be rejected before any
    // layer writes (wrong layer count / width / max_seq).
    KvCache foreign(1, 32, 16);
    BatchKvCache wrong;
    wrong.add(foreign);
    const int one_tok = 1;
    EXPECT_THROW(
        m.decode_step(wrong, std::span<const int>(&one_tok, 1), opts),
        std::invalid_argument);
    EXPECT_THROW(m.prefill(foreign, toks, opts),
                 std::invalid_argument);
    EXPECT_EQ(foreign.length(), 0u);
    EXPECT_EQ(foreign.capacity(), 0u);
    // Degenerate cache dimensions.
    EXPECT_THROW(KvCache(0, 8, 8), std::invalid_argument);
    EXPECT_THROW(KvCache(1, 0, 8), std::invalid_argument);
    EXPECT_THROW(KvCache(1, 8, 0), std::invalid_argument);
    // The same cache twice in one batch would corrupt it silently;
    // the view refuses duplicates loudly instead.
    EXPECT_THROW(batch.add(cache), std::invalid_argument);
    // A ragged step that fails validation on a *later* sequence must
    // not have touched the earlier ones (no capacity growth, no
    // length change).
    KvCache ok = m.make_cache();
    KvCache full = m.make_cache();
    m.prefill(ok, std::vector<int>{1, 2}, opts);
    m.prefill(full,
              std::vector<int>(
                  static_cast<std::size_t>(m.dims().max_seq), 0),
              opts);
    const std::size_t ok_cap = ok.capacity();
    BatchKvCache mixed;
    mixed.add(ok);
    mixed.add(full);
    const std::vector<int> step = {1, 1};
    EXPECT_THROW(m.decode_step(mixed, step, opts),
                 std::invalid_argument);
    EXPECT_EQ(ok.capacity(), ok_cap);
    EXPECT_EQ(ok.length(), 2u);
    EXPECT_EQ(full.length(),
              static_cast<std::size_t>(m.dims().max_seq));
}

// ---------------------------------------------------------------------
// Paged caches on the decode path: the PagedKvCache rows live behind a
// page table over a shared pool, but the transformer reads and writes
// them through the same KvSeq interface as slabs — so every decode
// logit must stay bit-identical, including under prefix sharing,
// copy-on-extend, and preemption round-trips.

/// A pool sized for `m` with plenty of pages; page_size 5 is chosen
/// deliberately co-prime to typical lengths so sequences straddle
/// partial tail pages.
KvPagePool
pool_for(const Transformer &m, std::size_t page_size = 5)
{
    const auto &d = m.dims();
    return KvPagePool(static_cast<std::size_t>(d.n_layers),
                      static_cast<std::size_t>(d.d_model),
                      static_cast<std::size_t>(d.max_seq), page_size,
                      128);
}

TEST_F(DecodeTest, PagedDecodeMatchesFullPrefixAcrossFormats)
{
    SplitMix64 rng(606);
    for (const Transformer *m : {&opt(), &llama()}) {
        const auto formats = tap_formats();
        for (std::size_t f = 0; f < formats.size(); ++f) {
            const auto seqs = ragged_batch(*m, rng, 3, 2, 20);
            KvPagePool pool = pool_for(*m);
            std::vector<std::unique_ptr<PagedKvCache>> caches;
            BatchKvCache batch;
            std::vector<int> last;
            for (const auto &s : seqs) {
                caches.push_back(
                    std::make_unique<PagedKvCache>(pool));
                m->prefill(*caches.back(),
                           std::span<const int>(s.data(),
                                                s.size() - 1),
                           formats[f]);
                batch.add(*caches.back());
                last.push_back(s.back());
            }
            const Matrix dec = m->decode_step(batch, last, formats[f]);
            const Matrix full =
                m->forward_logits_batched(seqs, formats[f]);
            std::size_t off = 0;
            for (std::size_t s = 0; s < seqs.size(); ++s) {
                const std::size_t row = off + seqs[s].size() - 1;
                for (std::size_t v = 0; v < dec.cols(); ++v) {
                    ASSERT_EQ(dec(s, v), full(row, v))
                        << m->config().name << " format " << f
                        << " seq=" << s << " v=" << v;
                }
                // Paged caches hold exactly the pages they need.
                EXPECT_EQ(caches[s]->length(), seqs[s].size());
                EXPECT_EQ(caches[s]->pages_held(),
                          PagedKvCache::pages_for(seqs[s].size(), 5));
                off += seqs[s].size();
            }
        }
    }
}

TEST_F(DecodeTest, MixedSlabAndPagedBatchDecodesBitExactly)
{
    // One ragged decode step over a batch mixing slab and paged
    // caches: the KvSeq interface makes the layouts interchangeable
    // row for row.
    SplitMix64 rng(7707);
    for (const Transformer *m : {&opt(), &llama()}) {
        const auto seqs = ragged_batch(*m, rng, 4, 2, 18);
        KvPagePool pool = pool_for(*m);
        std::vector<KvCache> slabs;
        std::vector<std::unique_ptr<PagedKvCache>> paged;
        slabs.reserve(seqs.size());
        BatchKvCache batch;
        std::vector<int> last;
        RunOptions opts;
        opts.prec = PrecisionConfig::anda({8, 7, 6, 5});
        for (std::size_t i = 0; i < seqs.size(); ++i) {
            const auto &s = seqs[i];
            const std::span<const int> prefix(s.data(), s.size() - 1);
            if (i % 2 == 0) {
                slabs.push_back(m->make_cache());
                m->prefill(slabs.back(), prefix, opts);
            } else {
                paged.push_back(std::make_unique<PagedKvCache>(pool));
                m->prefill(*paged.back(), prefix, opts);
            }
            last.push_back(s.back());
        }
        std::size_t si = 0;
        std::size_t pi = 0;
        for (std::size_t i = 0; i < seqs.size(); ++i) {
            if (i % 2 == 0) {
                batch.add(slabs[si++]);
            } else {
                batch.add(*paged[pi++]);
            }
        }
        const Matrix dec = m->decode_step(batch, last, opts);
        const Matrix full = m->forward_logits_batched(seqs, opts);
        std::size_t off = 0;
        for (std::size_t s = 0; s < seqs.size(); ++s) {
            const std::size_t row = off + seqs[s].size() - 1;
            for (std::size_t v = 0; v < dec.cols(); ++v) {
                ASSERT_EQ(dec(s, v), full(row, v))
                    << m->config().name << " seq=" << s << " v=" << v;
            }
            off += seqs[s].size();
        }
    }
}

TEST_F(DecodeTest, SharedPrefixAdoptionIsBitExact)
{
    // A common system prompt prefilled once and adopted by every
    // sequence (refcounted pages, copy-on-extend past the shared
    // partial tail page) must decode bit-identically to fully
    // independent caches that each prefilled the whole prompt — for
    // every activation format and both families.
    SplitMix64 rng(2468);
    for (const Transformer *m : {&opt(), &llama()}) {
        const auto formats = tap_formats();
        for (std::size_t f = 0; f < formats.size(); ++f) {
            // Prefix length 11 straddles pages of 5: the tail page is
            // shared partially, so every adopter copy-on-extends.
            const auto prefix = sequence(*m, rng, 11);
            std::vector<std::vector<int>> seqs;
            for (const std::size_t suffix_len : {1u, 4u, 9u}) {
                auto s = prefix;
                const auto tail = sequence(*m, rng, suffix_len + 1);
                s.insert(s.end(), tail.begin(), tail.end());
                seqs.push_back(std::move(s));
            }

            KvPagePool pool = pool_for(*m);
            PagedKvCache anchor(pool);
            m->prefill(anchor, prefix, formats[f], false);

            std::vector<std::unique_ptr<PagedKvCache>> caches;
            BatchKvCache batch;
            std::vector<int> last;
            for (const auto &s : seqs) {
                caches.push_back(
                    std::make_unique<PagedKvCache>(pool));
                const std::size_t used_before =
                    pool.allocator().used_pages();
                caches.back()->adopt_prefix(anchor, prefix.size());
                // Adoption allocates nothing.
                EXPECT_EQ(pool.allocator().used_pages(), used_before);
                m->prefill(*caches.back(),
                           std::span<const int>(
                               s.data() + prefix.size(),
                               s.size() - prefix.size() - 1),
                           formats[f]);
                batch.add(*caches.back());
                last.push_back(s.back());
            }
            const Matrix dec = m->decode_step(batch, last, formats[f]);
            const Matrix full =
                m->forward_logits_batched(seqs, formats[f]);
            std::size_t off = 0;
            for (std::size_t s = 0; s < seqs.size(); ++s) {
                const std::size_t row = off + seqs[s].size() - 1;
                for (std::size_t v = 0; v < dec.cols(); ++v) {
                    ASSERT_EQ(dec(s, v), full(row, v))
                        << m->config().name << " format " << f
                        << " seq=" << s << " v=" << v;
                }
                off += seqs[s].size();
            }
            // The anchor's own rows are untouched by the adopters'
            // copy-on-extends: a fresh adopter still matches a fresh
            // full prefill of the bare prefix.
            EXPECT_EQ(anchor.length(), prefix.size());
        }
    }
}

TEST_F(DecodeTest, PostPreemptionDecodeIsBitExact)
{
    // Preemption round-trips mid-generation: after a few decode
    // steps, either swap the cache out and back in (kSwap) or drop it
    // and re-prefill the full history (kRecompute). Both must leave
    // subsequent decode logits bit-identical to the uninterrupted
    // full-prefix recomputation.
    SplitMix64 rng(1357);
    RunOptions opts;
    opts.prec = PrecisionConfig::anda({8, 7, 6, 5});
    for (const Transformer *m : {&opt(), &llama()}) {
        auto history = sequence(*m, rng, 9);
        KvPagePool pool = pool_for(*m);
        PagedKvCache cache(pool);
        m->prefill(cache,
                   std::span<const int>(history.data(),
                                        history.size() - 1),
                   opts);
        BatchKvCache batch;
        batch.add(cache);
        // A few uninterrupted decode steps growing the history.
        for (int step = 0; step < 3; ++step) {
            const int tok = history.back();
            m->decode_step(batch, std::span<const int>(&tok, 1), opts);
            history.push_back(static_cast<int>(rng.uniform_index(
                static_cast<std::uint64_t>(m->dims().vocab))));
        }

        // kSwap: serialize, release, restore.
        const std::size_t rows = cache.length();
        const std::vector<std::byte> swapped = cache.swap_out();
        EXPECT_EQ(pool.allocator().used_pages(), 0u);
        cache.swap_in(swapped, rows);

        const int tok1 = history.back();
        const Matrix after_swap =
            m->decode_step(batch, std::span<const int>(&tok1, 1), opts);
        const Matrix oracle = m->forward_logits_batched(
            std::vector<std::vector<int>>{history}, opts);
        for (std::size_t v = 0; v < after_swap.cols(); ++v) {
            ASSERT_EQ(after_swap(0, v),
                      oracle(oracle.rows() - 1, v))
                << m->config().name << " swap v=" << v;
        }

        // kRecompute: drop everything, re-prefill the full history
        // except the pending token, decode it again — same logits.
        cache.release_all();
        m->prefill(cache,
                   std::span<const int>(history.data(),
                                        history.size() - 1),
                   opts, false);
        const Matrix after_rebuild =
            m->decode_step(batch, std::span<const int>(&tok1, 1), opts);
        for (std::size_t v = 0; v < after_rebuild.cols(); ++v) {
            ASSERT_EQ(after_rebuild(0, v),
                      oracle(oracle.rows() - 1, v))
                << m->config().name << " rebuild v=" << v;
        }
    }
}

TEST_F(DecodeTest, PagedValidationMatchesSlabValidation)
{
    const Transformer &m = llama();
    RunOptions opts;
    KvPagePool pool = pool_for(m);
    PagedKvCache cache(pool);
    // A prefill past max_seq throws before touching the cache.
    const std::vector<int> too_long(
        static_cast<std::size_t>(m.dims().max_seq) + 1, 0);
    EXPECT_THROW(m.prefill(cache, too_long, opts),
                 std::invalid_argument);
    EXPECT_EQ(cache.length(), 0u);
    EXPECT_EQ(cache.pages_held(), 0u);
    // A paged cache whose pool was sized for another model is
    // rejected up front, like a foreign slab.
    KvPagePool foreign_pool(1, 32, 16, 4, 8);
    PagedKvCache foreign(foreign_pool);
    const std::vector<int> toks = {1, 2};
    EXPECT_THROW(m.prefill(foreign, toks, opts),
                 std::invalid_argument);
    EXPECT_EQ(foreign.pages_held(), 0u);
}

}  // namespace
}  // namespace anda
