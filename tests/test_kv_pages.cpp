// Property and stress tests of the paged KV subsystem
// (llm/kv_pages.h): the refcounted page allocator and its LIFO page
// order, exact free-page accounting, copy-on-extend of shared pages,
// swap round-trips, and a seeded randomized workload that drives
// thousands of alloc / extend / adopt / swap / release operations
// against a shadow model of every sequence's expected contents.
// Every invariant here is exact — no tolerances — and the suite must
// run clean under ASan/UBSan (the ANDA_SANITIZE CI lane).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "llm/kv_pages.h"

namespace anda {
namespace {

TEST(KvPageAllocator, AccountingAndRefcounts)
{
    KvPageAllocator alloc(4);
    EXPECT_EQ(alloc.total_pages(), 4u);
    EXPECT_EQ(alloc.free_pages(), 4u);
    EXPECT_EQ(alloc.used_pages(), 0u);

    const PageId a = alloc.alloc();
    const PageId b = alloc.alloc();
    EXPECT_NE(a, b);
    EXPECT_EQ(alloc.free_pages(), 2u);
    EXPECT_EQ(alloc.used_pages(), 2u);
    EXPECT_EQ(alloc.refcount(a), 1u);

    alloc.retain(a);
    EXPECT_EQ(alloc.refcount(a), 2u);
    // One release keeps the page alive; the second frees it.
    alloc.release(a);
    EXPECT_EQ(alloc.used_pages(), 2u);
    alloc.release(a);
    EXPECT_EQ(alloc.free_pages(), 3u);

    // Conservation holds at every point.
    EXPECT_EQ(alloc.free_pages() + alloc.used_pages(),
              alloc.total_pages());
    alloc.release(b);
    EXPECT_EQ(alloc.free_pages(), alloc.total_pages());
}

TEST(KvPageAllocator, GuardsAgainstMisuse)
{
    KvPageAllocator alloc(2);
    const PageId a = alloc.alloc();
    alloc.release(a);
    // Double free, retain of a dead page, out-of-range queries.
    EXPECT_THROW(alloc.release(a), std::logic_error);
    EXPECT_THROW(alloc.retain(a), std::logic_error);
    EXPECT_THROW(alloc.release(99), std::logic_error);
    EXPECT_THROW(alloc.refcount(99), std::logic_error);
    // Exhaustion throws (and leaves the pool usable).
    const PageId x = alloc.alloc();
    const PageId y = alloc.alloc();
    EXPECT_THROW(alloc.alloc(), std::runtime_error);
    alloc.release(x);
    alloc.release(y);
    EXPECT_EQ(alloc.free_pages(), 2u);
}

TEST(KvPagePool, ValidatesDimensions)
{
    EXPECT_THROW(KvPagePool(0, 8, 64, 4, 8), std::invalid_argument);
    EXPECT_THROW(KvPagePool(2, 0, 64, 4, 8), std::invalid_argument);
    EXPECT_THROW(KvPagePool(2, 8, 0, 4, 8), std::invalid_argument);
    EXPECT_THROW(KvPagePool(2, 8, 64, 0, 8), std::invalid_argument);
    KvPagePool pool(2, 8, 64, 4, 8);
    EXPECT_TRUE(pool.with_storage());
    KvPagePool ledger(2, 8, 64, 4, 8, false);
    EXPECT_FALSE(ledger.with_storage());
}

TEST(PagedKvCache, ReservesExactPagesAndValidates)
{
    KvPagePool pool(1, 4, 64, 4, 16);
    PagedKvCache seq(pool);
    EXPECT_EQ(PagedKvCache::pages_for(0, 4), 0u);
    EXPECT_EQ(PagedKvCache::pages_for(1, 4), 1u);
    EXPECT_EQ(PagedKvCache::pages_for(4, 4), 1u);
    EXPECT_EQ(PagedKvCache::pages_for(5, 4), 2u);

    seq.reserve(5);
    EXPECT_EQ(seq.pages_held(), 2u);
    EXPECT_EQ(seq.capacity(), 8u);
    EXPECT_EQ(pool.allocator().used_pages(), 2u);
    // Re-reserving within capacity allocates nothing.
    seq.reserve(8);
    EXPECT_EQ(seq.pages_held(), 2u);
    seq.advance(5);
    EXPECT_EQ(seq.length(), 5u);
    EXPECT_THROW(seq.advance(4), std::logic_error);
    EXPECT_THROW(seq.reserve(65), std::invalid_argument);
    seq.release_all();
    EXPECT_EQ(seq.length(), 0u);
    EXPECT_EQ(pool.allocator().free_pages(), 16u);
}

TEST(PagedKvCache, ReserveHasStrongGuaranteeOnExhaustion)
{
    KvPagePool pool(1, 4, 64, 4, 3);
    PagedKvCache seq(pool);
    seq.reserve(8);  // 2 of 3 pages.
    seq.advance(8);
    // Needs 2 more pages but only 1 is free: throw, change nothing.
    EXPECT_THROW(seq.reserve(16), std::runtime_error);
    EXPECT_EQ(seq.pages_held(), 2u);
    EXPECT_EQ(seq.length(), 8u);
    EXPECT_EQ(pool.allocator().free_pages(), 1u);
    // The remaining page is still allocatable.
    seq.reserve(12);
    EXPECT_EQ(seq.pages_held(), 3u);
}

/// Deterministic fill value, unique per (stream, layer, row, column).
float
fill_value(std::uint64_t stream, std::size_t layer, std::size_t row,
           std::size_t col, bool v_side)
{
    SplitMix64 rng(derive_seed(stream, (layer << 20) ^ (row << 4) ^
                                           (col << 1) ^
                                           (v_side ? 1u : 0u)));
    return rng.uniform(-1.0f, 1.0f);
}

/// Writes rows [from, to) of `seq` with fill_value(stream, ...).
void
write_rows(PagedKvCache &seq, std::uint64_t stream, std::size_t from,
           std::size_t to)
{
    seq.reserve(to);
    for (std::size_t l = 0; l < seq.n_layers(); ++l) {
        for (std::size_t r = from; r < to; ++r) {
            auto k = seq.k_row(l, r);
            auto v = seq.v_row(l, r);
            for (std::size_t c = 0; c < k.size(); ++c) {
                k[c] = fill_value(stream, l, r, c, false);
                v[c] = fill_value(stream, l, r, c, true);
            }
        }
    }
    seq.advance(to - from);
}

TEST(PagedKvCache, AdoptPrefixSharesWithoutAllocating)
{
    KvPagePool pool(2, 4, 64, 4, 16);
    PagedKvCache donor(pool);
    write_rows(donor, 7, 0, 10);  // 3 pages (4+4+2).
    const std::size_t used = pool.allocator().used_pages();

    PagedKvCache adopter(pool);
    adopter.adopt_prefix(donor, 6);  // Pages 0-1, page 1 shared full.
    EXPECT_EQ(adopter.length(), 6u);
    EXPECT_EQ(adopter.pages_held(), 2u);
    // Sharing allocates nothing.
    EXPECT_EQ(pool.allocator().used_pages(), used);
    // Adopted rows read back the donor's values.
    for (std::size_t l = 0; l < 2; ++l) {
        for (std::size_t r = 0; r < 6; ++r) {
            const auto a = adopter.k_row(l, r);
            const auto d = donor.k_row(l, r);
            for (std::size_t c = 0; c < a.size(); ++c) {
                ASSERT_EQ(a[c], d[c]);
            }
        }
    }
    // Misuse guards.
    EXPECT_THROW(adopter.adopt_prefix(donor, 4), std::logic_error);
    PagedKvCache fresh(pool);
    EXPECT_THROW(fresh.adopt_prefix(donor, 11), std::invalid_argument);
    KvPagePool other(2, 4, 64, 4, 16);
    EXPECT_THROW(fresh.adopt_prefix(PagedKvCache(other), 1),
                 std::invalid_argument);
}

TEST(PagedKvCache, CopyOnExtendIsolatesSharedTailPage)
{
    KvPagePool pool(1, 4, 64, 4, 16);
    PagedKvCache donor(pool);
    write_rows(donor, 11, 0, 6);  // Partial tail page: rows 4-5.

    PagedKvCache adopter(pool);
    adopter.adopt_prefix(donor, 6);
    // Extending into the shared partial page needs the CoW page plus
    // one fresh page for rows 8..9.
    EXPECT_EQ(adopter.new_pages_needed(10), 2u);
    const std::size_t free_before = pool.allocator().free_pages();
    write_rows(adopter, 13, 6, 10);
    EXPECT_EQ(free_before - pool.allocator().free_pages(), 2u);

    // The adopter kept its committed prefix bit-for-bit...
    for (std::size_t r = 0; r < 6; ++r) {
        const auto row = adopter.k_row(0, r);
        for (std::size_t c = 0; c < row.size(); ++c) {
            ASSERT_EQ(row[c], fill_value(11, 0, r, c, false));
        }
    }
    // ...and the donor can keep growing its own copy of rows 6..7
    // without disturbing the adopter.
    write_rows(donor, 17, 6, 8);
    for (std::size_t r = 6; r < 8; ++r) {
        const auto a = adopter.k_row(0, r);
        const auto d = donor.k_row(0, r);
        for (std::size_t c = 0; c < a.size(); ++c) {
            ASSERT_EQ(a[c], fill_value(13, 0, r, c, false));
            ASSERT_EQ(d[c], fill_value(17, 0, r, c, false));
        }
    }
}

TEST(PagedKvCache, MaxExtensionInvertsNewPagesNeeded)
{
    KvPagePool pool(1, 4, 64, 4, 32);
    PagedKvCache donor(pool);
    write_rows(donor, 3, 0, 6);
    PagedKvCache shared(pool);
    shared.adopt_prefix(donor, 6);
    PagedKvCache plain(pool);
    write_rows(plain, 5, 0, 5);

    for (PagedKvCache *seq : {&shared, &plain}) {
        for (std::size_t avail = 0; avail <= 6; ++avail) {
            const std::size_t rows = seq->max_extension(avail);
            EXPECT_GE(rows, seq->length());
            EXPECT_LE(seq->new_pages_needed(rows), avail);
            if (rows < seq->max_seq()) {
                EXPECT_GT(seq->new_pages_needed(rows + 1), avail);
            }
        }
    }
    // A shared partial tail with no pages available cannot extend.
    EXPECT_EQ(shared.max_extension(0), shared.length());
}

TEST(PagedKvCache, SwapRoundTripRestoresRowsBitExactly)
{
    KvPagePool pool(2, 4, 64, 4, 8);
    PagedKvCache seq(pool);
    write_rows(seq, 23, 0, 7);
    const std::vector<std::byte> data = seq.swap_out();
    EXPECT_EQ(data.size(), 2u * 2u * 7u * 4u * sizeof(float));
    EXPECT_EQ(seq.length(), 0u);
    EXPECT_EQ(seq.pages_held(), 0u);
    EXPECT_EQ(pool.allocator().used_pages(), 0u);

    PagedKvCache back(pool);
    back.swap_in(data, 7);
    EXPECT_EQ(back.length(), 7u);
    for (std::size_t l = 0; l < 2; ++l) {
        for (std::size_t r = 0; r < 7; ++r) {
            const auto k = back.k_row(l, r);
            const auto v = back.v_row(l, r);
            for (std::size_t c = 0; c < 4; ++c) {
                ASSERT_EQ(k[c], fill_value(23, l, r, c, false));
                ASSERT_EQ(v[c], fill_value(23, l, r, c, true));
            }
        }
    }
    // Misuse guards.
    EXPECT_THROW(back.swap_in(data, 7), std::logic_error);
    PagedKvCache bad(pool);
    EXPECT_THROW(bad.swap_in(data, 6), std::invalid_argument);
}

TEST(PagedKvCache, AccountingOnlyPoolMirrorsStoragePool)
{
    // The pricing-only scheduler drives a ledger pool (no floats)
    // through the same call sequence as the execution pool; occupancy
    // must stay in lockstep.
    KvPagePool store(2, 4, 64, 4, 12);
    KvPagePool ledger(1, 1, 64, 4, 12, false);
    PagedKvCache a(store), b(ledger);
    const auto check = [&] {
        EXPECT_EQ(store.allocator().free_pages(),
                  ledger.allocator().free_pages());
        EXPECT_EQ(a.length(), b.length());
        EXPECT_EQ(a.pages_held(), b.pages_held());
    };
    for (const std::size_t rows : {3u, 9u, 17u}) {
        a.reserve(rows);
        b.reserve(rows);
        a.advance(rows - a.length());
        b.advance(rows - b.length());
        check();
    }
    const std::vector<std::byte> sa = a.swap_out();
    const std::vector<std::byte> sb = b.swap_out();
    EXPECT_TRUE(sb.empty());  // No storage: nothing serialized.
    check();
    a.swap_in(sa, 17);
    b.swap_in(sb, 17);
    check();
    // The ledger stores no rows: any row access throws instead of
    // touching storage that does not exist.
    const std::vector<float> row(1, 0.5f);
    std::vector<float> out(1);
    EXPECT_THROW(b.store_k(0, 0, row), CheckError);
    EXPECT_THROW(b.load_v(0, 16, out), CheckError);
    EXPECT_THROW(b.k_row(0, 0), CheckError);
    EXPECT_THROW(b.packed_v_row(0, 0), CheckError);
}

TEST(KvPageAllocator, HandsOutOnlyPagesBelowThePeakOfUse)
{
    // A pool's rows are resident only in the pages stored to, so its
    // resident set is its peak use only if a page is never handed out
    // while a page used before sits free (LIFO from page 0). Seeded
    // random workloads on a pool four times their peak: after every
    // operation, no page at or above the peak of used pages is live.
    constexpr std::size_t kPageSize = 4;
    constexpr std::size_t kPages = 256;
    constexpr std::size_t kMaxSeq = 32;
    constexpr std::size_t kMaxSeqs = 8;
    for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
        SCOPED_TRACE(seed);
        KvPagePool pool(1, 4, kMaxSeq, kPageSize, kPages);
        const KvPageAllocator &alloc = pool.allocator();
        SplitMix64 rng(derive_seed(seed, 0x11f0));
        std::vector<std::unique_ptr<PagedKvCache>> live;
        std::vector<std::pair<std::vector<std::byte>, std::size_t>> out;
        std::uint64_t stream = 1;
        std::size_t peak = 0;
        const auto any = [&]() -> PagedKvCache & {
            return *live[rng.uniform_index(live.size())];
        };
        for (int op = 0; op < 2000; ++op) {
            const std::uint64_t pick = rng.uniform_index(100);
            if (pick < 25 && live.size() < kMaxSeqs) {
                // A new sequence, half the time adopting a prefix; its
                // first extension copies a shared tail page on extend.
                auto seq = std::make_unique<PagedKvCache>(pool);
                if (!live.empty() && rng.uniform_index(2) == 0) {
                    const PagedKvCache &donor = any();
                    if (donor.length() > 0) {
                        seq->adopt_prefix(
                            donor, 1 + rng.uniform_index(donor.length()));
                    }
                }
                live.push_back(std::move(seq));
            } else if (pick < 60 && !live.empty()) {
                PagedKvCache &seq = any();
                const std::size_t to = std::min(
                    kMaxSeq, seq.length() + 1 + rng.uniform_index(8));
                if (seq.new_pages_needed(to) <= alloc.free_pages()) {
                    write_rows(seq, stream++, seq.length(), to);
                }
            } else if (pick < 72 && !live.empty()) {
                PagedKvCache &seq = any();
                const std::size_t rows = seq.length();
                out.emplace_back(seq.swap_out(), rows);
            } else if (pick < 84 && !out.empty() &&
                       live.size() < kMaxSeqs) {
                const std::size_t rows = out.back().second;
                if (PagedKvCache::pages_for(rows, kPageSize) <=
                    alloc.free_pages()) {
                    live.push_back(std::make_unique<PagedKvCache>(pool));
                    live.back()->swap_in(out.back().first, rows);
                }
                out.pop_back();
            } else if (pick < 92 && !live.empty()) {
                any().release_all();
            } else if (!live.empty()) {
                const auto i = static_cast<std::ptrdiff_t>(
                    rng.uniform_index(live.size()));
                live.erase(live.begin() + i);
            }
            // No operation frees a page it allocated, so every page
            // handed out is live at the end of its operation.
            peak = std::max(peak, alloc.used_pages());
            for (std::size_t p = peak; p < kPages; ++p) {
                ASSERT_EQ(alloc.refcount(static_cast<PageId>(p)), 0U)
                    << "page " << p << " live at a peak use of " << peak
                    << " pages, operation " << op;
            }
        }
        EXPECT_GT(peak, kMaxSeq / kPageSize);
        EXPECT_LE(peak, kPages / 4);
    }
}

/// Shadow of one live sequence in the randomized stress test: the
/// stream tags of every committed row, so contents can be re-derived
/// and compared after any amount of sharing / CoW / swapping.
struct ShadowSeq {
    std::unique_ptr<PagedKvCache> seq;
    /// Per committed row: the (stream, row) pair its values were
    /// written with (adopted rows carry the donor's tags).
    std::vector<std::pair<std::uint64_t, std::size_t>> rows;
};

class KvPageStressTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(KvPageStressTest, RandomizedOpsPreserveAllInvariants)
{
    constexpr std::size_t kLayers = 2;
    constexpr std::size_t kDim = 4;
    constexpr std::size_t kPageSize = 4;
    constexpr std::size_t kPages = 48;
    constexpr std::size_t kMaxSeq = 96;
    constexpr std::size_t kMaxSeqs = 10;
    constexpr int kOps = 2500;

    KvPagePool pool(kLayers, kDim, kMaxSeq, kPageSize, kPages);
    KvPageAllocator &alloc = pool.allocator();
    std::vector<ShadowSeq> live;
    SplitMix64 rng(derive_seed(GetParam(), 0xbeef));
    std::uint64_t next_stream = 1;

    const auto verify_all = [&] {
        // Conservation: every page is free or used, never both.
        ASSERT_EQ(alloc.free_pages() + alloc.used_pages(), kPages);
        std::size_t held = 0;
        std::size_t max_held = 0;
        for (const ShadowSeq &s : live) {
            // Exact paging: a sequence holds exactly the pages its
            // committed rows need (no geometric slack).
            ASSERT_EQ(s.seq->pages_held(),
                      PagedKvCache::pages_for(s.seq->length(),
                                              kPageSize));
            ASSERT_EQ(s.seq->length(), s.rows.size());
            held += s.seq->pages_held();
            max_held = std::max(max_held, s.seq->pages_held());
        }
        // Sharing: distinct used pages never exceed the sum of held
        // pages and cover at least the largest single holder.
        ASSERT_LE(alloc.used_pages(), held);
        ASSERT_GE(alloc.used_pages(), max_held);
        // Contents: every committed row of every sequence matches its
        // shadow tag bit-for-bit — CoW never corrupts a neighbor.
        for (const ShadowSeq &s : live) {
            for (std::size_t r = 0; r < s.rows.size(); ++r) {
                const auto [stream, row] = s.rows[r];
                for (std::size_t l = 0; l < kLayers; ++l) {
                    const auto k = s.seq->k_row(l, r);
                    const auto v = s.seq->v_row(l, r);
                    for (std::size_t c = 0; c < kDim; ++c) {
                        ASSERT_EQ(k[c],
                                  fill_value(stream, l, row, c, false))
                            << "seq row " << r << " layer " << l;
                        ASSERT_EQ(v[c],
                                  fill_value(stream, l, row, c, true));
                    }
                }
            }
        }
    };

    const auto write_tagged = [&](ShadowSeq &s, std::uint64_t stream,
                                  std::size_t rows) {
        const std::size_t from = s.seq->length();
        const std::size_t to = from + rows;
        s.seq->reserve(to);
        for (std::size_t l = 0; l < kLayers; ++l) {
            for (std::size_t r = from; r < to; ++r) {
                auto k = s.seq->k_row(l, r);
                auto v = s.seq->v_row(l, r);
                for (std::size_t c = 0; c < kDim; ++c) {
                    k[c] = fill_value(stream, l, r, c, false);
                    v[c] = fill_value(stream, l, r, c, true);
                }
            }
        }
        s.seq->advance(rows);
        for (std::size_t r = from; r < to; ++r) {
            s.rows.emplace_back(stream, r);
        }
    };

    for (int op = 0; op < kOps; ++op) {
        const std::uint64_t pick = rng.uniform_index(100);
        if (pick < 22 && live.size() < kMaxSeqs) {
            // Create a fresh sequence with a few rows.
            ShadowSeq s;
            s.seq = std::make_unique<PagedKvCache>(pool);
            const std::size_t rows = 1 + rng.uniform_index(10);
            if (s.seq->new_pages_needed(rows) <= alloc.free_pages()) {
                write_tagged(s, next_stream++, rows);
                live.push_back(std::move(s));
            }
        } else if (pick < 50 && !live.empty()) {
            // Extend a random sequence (predict the page delta, then
            // check the allocator agrees exactly).
            ShadowSeq &s = live[rng.uniform_index(live.size())];
            const std::size_t rows = 1 + rng.uniform_index(9);
            const std::size_t target = s.seq->length() + rows;
            if (target > kMaxSeq) {
                continue;
            }
            const std::size_t predicted =
                s.seq->new_pages_needed(target);
            if (predicted > alloc.free_pages()) {
                // Exhaustion: reserve must throw and change nothing.
                const std::size_t len = s.seq->length();
                const std::size_t pages = s.seq->pages_held();
                EXPECT_THROW(s.seq->reserve(target),
                             std::runtime_error);
                ASSERT_EQ(s.seq->length(), len);
                ASSERT_EQ(s.seq->pages_held(), pages);
                continue;
            }
            const std::size_t free_before = alloc.free_pages();
            write_tagged(s, next_stream++, rows);
            ASSERT_EQ(free_before - alloc.free_pages(), predicted);
        } else if (pick < 62 && !live.empty() &&
                   live.size() < kMaxSeqs) {
            // Fork: adopt a random prefix of a random donor.
            const ShadowSeq &donor =
                live[rng.uniform_index(live.size())];
            if (donor.seq->length() == 0) {
                continue;
            }
            const std::size_t tokens =
                1 + rng.uniform_index(donor.seq->length());
            ShadowSeq s;
            s.seq = std::make_unique<PagedKvCache>(pool);
            const std::size_t free_before = alloc.free_pages();
            s.seq->adopt_prefix(*donor.seq, tokens);
            ASSERT_EQ(alloc.free_pages(), free_before);
            s.rows.assign(donor.rows.begin(),
                          donor.rows.begin() +
                              static_cast<std::ptrdiff_t>(tokens));
            live.push_back(std::move(s));
        } else if (pick < 72 && !live.empty()) {
            // Swap a random sequence out and straight back in.
            ShadowSeq &s = live[rng.uniform_index(live.size())];
            const std::size_t rows = s.seq->length();
            const std::vector<std::byte> data = s.seq->swap_out();
            ASSERT_EQ(s.seq->pages_held(), 0u);
            if (PagedKvCache::pages_for(rows, kPageSize) <=
                alloc.free_pages()) {
                s.seq->swap_in(data, rows);
                ASSERT_EQ(s.seq->length(), rows);
            } else {
                s.rows.clear();  // Stays evicted.
            }
        } else if (pick < 80 && !live.empty()) {
            // Destroy a random sequence (destructor releases pages).
            const std::size_t i = rng.uniform_index(live.size());
            live.erase(live.begin() +
                       static_cast<std::ptrdiff_t>(i));
        } else if (!live.empty()) {
            // Recycle in place.
            ShadowSeq &s = live[rng.uniform_index(live.size())];
            s.seq->release_all();
            s.rows.clear();
        }
        if (op % 50 == 0) {
            verify_all();
        }
    }
    verify_all();
    // Teardown frees everything: no leaked or double-freed pages.
    live.clear();
    EXPECT_EQ(alloc.free_pages(), kPages);
    EXPECT_EQ(alloc.used_pages(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvPageStressTest,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull));

}  // namespace
}  // namespace anda
