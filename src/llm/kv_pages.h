#pragma once

/// @file
/// Paged KV cache: fixed-size pages from a shared refcounted pool.
///
/// The slab KvCache reserves one contiguous block per sequence and
/// holds it until completion, so a serving scheduler must admit
/// against the worst case (prompt + full output) and fragments what
/// it does allocate. Paging — the vLLM design the PackInfer /
/// Harmonia lines of work build on — breaks each sequence's K/V rows
/// into fixed `page_size`-row pages drawn from one physical pool:
///
///  * KvPageAllocator owns the refcounted free list; free/used page
///    counts are exact, first-class scheduler state.
///  * KvPagePool couples an allocator with a KvRows of
///    `n_pages * page_size` slots (none when accounting-only).
///  * PagedKvCache is one sequence: a page table mapping logical row
///    r to slot table_[r / page_size] * page_size + r % page_size.
///    It implements KvSeq, so the transformer decodes through it
///    bit-identically to a slab cache.
///
/// Prefix sharing: adopt_prefix() maps a donor's pages into this
/// sequence's table (refcount bump, zero allocation, zero copies).
/// A shared tail page is copy-on-extend: the first reserve() that
/// appends into it allocates a private copy of the committed rows.
/// Preemption: swap_out() serializes the committed rows in their
/// stored (packed) form and releases every page; swap_in() reloads
/// them into freshly allocated pages byte-for-byte.
///
/// Pool rows are kv_row_bytes() each in the pool's KvFormat (raw
/// float bytes for FP32), so a page's physical footprint shrinks with
/// the format. Paging changes where rows live, never their values —
/// and because rows are packed once at store time, neither does the
/// format change values between layouts (see llm/kv_cache.h).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "llm/kv_cache.h"

namespace anda {

using PageId = std::uint32_t;

/// Refcounted fixed-population page allocator. alloc() hands out a
/// free page with refcount 1; retain()/release() adjust sharing;
/// a page returns to the free list when its count drops to zero.
/// free_pages() + used_pages() == total_pages() always.
///
/// The free list is a stack: pages go out from page 0 up, and a
/// released page is the next one out. So a never-used page is handed
/// out only while every page used before is in use, and every page
/// ever handed out is below the peak of used_pages(). The pool's rows
/// are resident only in pages that were stored to (llm/kv_cache.h),
/// so its resident set is its peak use, not its budget.
class KvPageAllocator {
  public:
    explicit KvPageAllocator(std::size_t n_pages);

    std::size_t total_pages() const { return refcount_.size(); }
    std::size_t free_pages() const { return free_.size(); }
    std::size_t used_pages() const
    {
        return refcount_.size() - free_.size();
    }

    /// Pops a free page (refcount 1). Throws anda::ResourceError (a
    /// std::runtime_error) when the pool is exhausted — schedulers must check free_pages()
    /// before committing to an allocation.
    PageId alloc();

    /// Adds a reference to a live page.
    void retain(PageId page);

    /// Drops a reference; the page is freed at zero. Releasing a dead
    /// page throws anda::CheckError (double-free guard).
    void release(PageId page);

    std::uint32_t refcount(PageId page) const;

    /// O(pages) structural audit, run under ANDA_DCHECK after every
    /// mutation (and directly by tests): used + free == population,
    /// every free-listed page has refcount zero, no page is
    /// free-listed twice, and live pages are exactly the non-free
    /// ones. Throws anda::CheckError on violation.
    void check_invariants() const;

  private:
    std::vector<std::uint32_t> refcount_;
    std::vector<PageId> free_;
};

/// A page allocator plus the KvRows its pages index into: page p
/// owns slots [p * page_size, (p + 1) * page_size). With
/// `with_storage == false` the pool is accounting-only: page tables,
/// refcounts, and occupancy behave identically but the store holds no
/// slots, so any row access throws — the serving scheduler uses this
/// in pricing-only mode so paging decisions (admission, preemption)
/// are bit-identical between priced and executed runs.
class KvPagePool {
  public:
    KvPagePool(std::size_t n_layers, std::size_t d_model,
               std::size_t max_seq, std::size_t page_size,
               std::size_t n_pages, bool with_storage = true,
               KvFormat fmt = KvFormat::fp32());

    std::size_t n_layers() const { return rows_.n_layers(); }
    std::size_t d_model() const { return rows_.d_model(); }
    std::size_t max_seq() const { return max_seq_; }
    std::size_t page_size() const { return page_size_; }
    bool with_storage() const { return rows_.slots() != 0; }
    const KvFormat &format() const { return rows_.format(); }
    /// Packed bytes of one K or V row in the pool's format.
    std::size_t row_bytes() const { return rows_.row_bytes(); }
    /// Physical bytes of one page (K and V, all layers) — what a byte
    /// budget charges per allocated page.
    std::size_t page_bytes() const
    {
        return 2 * n_layers() * page_size_ * row_bytes();
    }

    KvPageAllocator &allocator() { return alloc_; }
    const KvPageAllocator &allocator() const { return alloc_; }

    KvRows &rows() { return rows_; }

  private:
    std::size_t max_seq_ = 0;
    std::size_t page_size_ = 0;
    KvPageAllocator alloc_;
    KvRows rows_;
};

/// One sequence over a shared KvPagePool. Unlike the slab cache,
/// reserve() allocates exactly the pages needed (no geometric slack):
/// a sequence of length L holds ceil(L / page_size) pages, so waste
/// is bounded by one partial tail page per sequence — the
/// fragmentation the per-step report tracks.
class PagedKvCache final : public KvSeq {
  public:
    explicit PagedKvCache(KvPagePool &pool);
    ~PagedKvCache() override;

    PagedKvCache(const PagedKvCache &) = delete;
    PagedKvCache &operator=(const PagedKvCache &) = delete;

    std::size_t n_layers() const override { return pool_->n_layers(); }
    std::size_t d_model() const override { return pool_->d_model(); }
    std::size_t max_seq() const override { return pool_->max_seq(); }
    const KvFormat &format() const override { return pool_->format(); }
    std::size_t length() const override { return length_; }

    /// Pages this sequence references (shared pages count once here
    /// and once per other holder in the allocator's refcounts).
    std::size_t pages_held() const { return table_.size(); }
    /// Rows the held pages can store.
    std::size_t capacity() const;

    /// Allocates pages so `rows` rows fit, performing the
    /// copy-on-extend of a shared tail page when growing past a
    /// shared boundary. Throws anda::CheckError (a
    /// std::invalid_argument) past max_seq and anda::ResourceError (a
    /// std::runtime_error) when the pool is exhausted (strong
    /// guarantee: the sequence is unchanged on throw).
    void reserve(std::size_t rows) override;
    void advance(std::size_t n) override;

    /// Maps the donor's first ceil(tokens/page_size) pages into this
    /// (empty) sequence: refcounts bump, no pages are allocated, no
    /// floats are copied, and length() becomes `tokens`. The donor
    /// must have committed at least `tokens` rows and stay alive only
    /// as long as the refcounts demand (i.e. not at all — pages keep
    /// themselves alive). A partial tail page is shared too; the
    /// first reserve() extending into it copies on extend.
    void adopt_prefix(const PagedKvCache &donor, std::size_t tokens);

    /// Pages a reserve(rows) would allocate right now, counting the
    /// copy-on-extend of a shared tail page. The scheduler's
    /// admission/preemption loops budget with this before touching
    /// the allocator.
    std::size_t new_pages_needed(std::size_t rows) const;

    /// Largest row count this sequence can grow to using at most
    /// `avail_pages` fresh pages (capped at max_seq). Inverse of
    /// new_pages_needed for chunk planning under a page budget.
    std::size_t max_extension(std::size_t avail_pages) const;

    /// Preempt: serializes the committed rows in their stored packed
    /// form (layer-major, K then V per row, kv_row_bytes() each; raw
    /// float bytes for FP32; empty when the pool is accounting-only),
    /// then releases every page and zeroes the length. The returned
    /// buffer feeds swap_in() on readmission.
    std::vector<std::byte> swap_out();

    /// Readmit: restores `rows` committed rows from a swap_out()
    /// buffer into freshly allocated pages (a byte copy — quantized
    /// rows are never re-quantized by preemption). The sequence must
    /// be empty; any sharing the sequence had before preemption is
    /// gone (the restored pages are private).
    void swap_in(std::span<const std::byte> data, std::size_t rows);

    /// Releases every page and zeroes the length (slot recycling).
    void release_all();

    static std::size_t pages_for(std::size_t rows,
                                 std::size_t page_size)
    {
        return (rows + page_size - 1) / page_size;
    }

  protected:
    Slot locate(std::size_t pos) const override;

  private:
    /// Per-sequence structural audit (ANDA_DCHECK'd after mutations):
    /// committed rows fit the mapped pages, the table holds exactly
    /// pages_for(max(length, reserved rows)) entries, and every mapped
    /// page is live in the allocator.
    void dcheck_consistent() const;

    KvPagePool *pool_ = nullptr;
    std::size_t length_ = 0;
    std::vector<PageId> table_;
};

}  // namespace anda
