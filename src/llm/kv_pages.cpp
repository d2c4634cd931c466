#include "llm/kv_pages.h"

#include <algorithm>

#include "common/check.h"

namespace anda {

KvPageAllocator::KvPageAllocator(std::size_t n_pages)
    : refcount_(n_pages, 0)
{
    free_.reserve(n_pages);
    // Popped from the back, so page 0 is handed out first, and
    // release() pushes to the back: LIFO keeps the pages ever used a
    // prefix 0..peak-1 (see the class comment).
    for (std::size_t p = n_pages; p > 0; --p) {
        free_.push_back(static_cast<PageId>(p - 1));
    }
}

PageId
KvPageAllocator::alloc()
{
    ANDA_CHECK_RT(!free_.empty(), "KvPageAllocator: out of pages");
    const PageId page = free_.back();
    free_.pop_back();
    ANDA_DCHECK_EQ(refcount_[page], 0u,
                   "free-listed page has live references");
    refcount_[page] = 1;
#if ANDA_DCHECKS_ENABLED
    check_invariants();
#endif
    return page;
}

void
KvPageAllocator::retain(PageId page)
{
    ANDA_CHECK(page < refcount_.size() && refcount_[page] != 0,
               "KvPageAllocator: retain of dead page");
    ++refcount_[page];
}

void
KvPageAllocator::release(PageId page)
{
    ANDA_CHECK(page < refcount_.size() && refcount_[page] != 0,
               "KvPageAllocator: release of dead page (double free?)");
    if (--refcount_[page] == 0) {
        free_.push_back(page);
    }
#if ANDA_DCHECKS_ENABLED
    check_invariants();
#endif
}

void
KvPageAllocator::check_invariants() const
{
    // Page-conservation: the free list and the live refcounts
    // partition the fixed population exactly.
    ANDA_CHECK_LE(free_.size(), refcount_.size(),
                  "free list larger than the page population");
    ANDA_CHECK_EQ(used_pages() + free_pages(), total_pages(),
                  "page conservation violated");
    std::vector<bool> on_free_list(refcount_.size(), false);
    for (const PageId page : free_) {
        ANDA_CHECK_LT(page, refcount_.size(),
                      "free list holds an unknown page");
        ANDA_CHECK(!on_free_list[page], "page free-listed twice");
        on_free_list[page] = true;
        ANDA_CHECK_EQ(refcount_[page], 0u,
                      "free-listed page has live references");
    }
    std::size_t live = 0;
    for (std::size_t p = 0; p < refcount_.size(); ++p) {
        if (refcount_[p] != 0) {
            ++live;
            ANDA_CHECK(!on_free_list[p],
                       "live page is also free-listed");
        }
    }
    ANDA_CHECK_EQ(live, used_pages(),
                  "live refcounts do not match used_pages()");
}

std::uint32_t
KvPageAllocator::refcount(PageId page) const
{
    ANDA_CHECK_LT(page, refcount_.size(),
                  "KvPageAllocator: refcount of unknown page");
    return refcount_[page];
}

KvPagePool::KvPagePool(std::size_t n_layers, std::size_t d_model,
                       std::size_t max_seq, std::size_t page_size,
                       std::size_t n_pages, bool with_storage,
                       KvFormat fmt)
    : max_seq_(max_seq),
      page_size_(page_size),
      alloc_(n_pages),
      rows_(n_layers, d_model, fmt,
            with_storage ? n_pages * page_size : 0)
{
    ANDA_CHECK(n_layers > 0 && d_model > 0 && max_seq > 0 &&
                   page_size > 0,
               "degenerate KvPagePool dimensions");
}

PagedKvCache::PagedKvCache(KvPagePool &pool) : pool_(&pool) {}

PagedKvCache::~PagedKvCache()
{
    release_all();
}

std::size_t
PagedKvCache::capacity() const
{
    return table_.size() * pool_->page_size();
}

KvSeq::Slot
PagedKvCache::locate(std::size_t pos) const
{
    const std::size_t ps = pool_->page_size();
    ANDA_DCHECK_LT(pos / ps, table_.size(), "row past the mapped pages");
    return {&pool_->rows(), table_[pos / ps] * ps + pos % ps};
}

std::size_t
PagedKvCache::new_pages_needed(std::size_t rows) const
{
    const std::size_t ps = pool_->page_size();
    std::size_t needed = 0;
    // Extending past a committed partial tail page that other
    // sequences also reference forces a private copy of that page.
    if (rows > length_ && length_ % ps != 0 &&
        pool_->allocator().refcount(table_.back()) > 1) {
        needed += 1;
    }
    const std::size_t target = pages_for(rows, ps);
    if (target > table_.size()) {
        needed += target - table_.size();
    }
    return needed;
}

std::size_t
PagedKvCache::max_extension(std::size_t avail_pages) const
{
    const std::size_t ps = pool_->page_size();
    std::size_t avail = avail_pages;
    if (length_ % ps != 0 && !table_.empty() &&
        pool_->allocator().refcount(table_.back()) > 1) {
        // Any extension pays the copy-on-extend page first.
        if (avail == 0) {
            return length_;
        }
        avail -= 1;
    }
    const std::size_t rows = capacity() + avail * ps;
    return std::min(rows, pool_->max_seq());
}

void
PagedKvCache::reserve(std::size_t rows)
{
    ANDA_CHECK_LE(rows, pool_->max_seq(),
                  "PagedKvCache: sequence exceeds max_seq");
    const std::size_t needed = new_pages_needed(rows);
    if (needed == 0) {
        return;
    }
    KvPageAllocator &alloc = pool_->allocator();
    // Checked up front so a partial allocation never leaks into the
    // table (strong guarantee for scheduler retry logic).
    ANDA_CHECK_RT(needed <= alloc.free_pages(),
                  "PagedKvCache: page pool exhausted");
    const std::size_t ps = pool_->page_size();
    if (rows > length_ && length_ % ps != 0 &&
        alloc.refcount(table_.back()) > 1) {
        // Copy-on-extend: the committed slots of the shared tail page
        // move to a private page; the donor's page (and any rows it
        // holds beyond our prefix) is untouched.
        const PageId shared = table_.back();
        const PageId priv = alloc.alloc();
        if (pool_->with_storage()) {
            // Packed rows move byte-for-byte — CoW never re-quantizes.
            KvRows &kv = pool_->rows();
            for (std::size_t l = 0; l < n_layers(); ++l) {
                for (const std::size_t t : {KvRows::kK, KvRows::kV}) {
                    for (std::size_t s = 0; s < length_ % ps; ++s) {
                        const auto src = kv.row(t, l, shared * ps + s);
                        std::copy(src.begin(), src.end(),
                                  kv.row(t, l, priv * ps + s).begin());
                    }
                }
            }
        }
        alloc.release(shared);
        table_.back() = priv;
        // CoW isolation: the private copy must be exclusively ours.
        ANDA_DCHECK_EQ(alloc.refcount(priv), 1u,
                       "copy-on-extend page is still shared");
    }
    while (capacity() < rows) {
        table_.push_back(alloc.alloc());
    }
#if ANDA_DCHECKS_ENABLED
    dcheck_consistent();
#endif
}

void
PagedKvCache::advance(std::size_t n)
{
    ANDA_CHECK_LE(length_ + n, capacity(),
                  "PagedKvCache: advance past allocated capacity");
    length_ += n;
#if ANDA_DCHECKS_ENABLED
    dcheck_consistent();
#endif
}

void
PagedKvCache::adopt_prefix(const PagedKvCache &donor,
                           std::size_t tokens)
{
    ANDA_CHECK(length_ == 0 && table_.empty(),
               "PagedKvCache: adopt_prefix into a non-empty sequence");
    ANDA_CHECK(donor.pool_ == pool_,
               "PagedKvCache: adopt_prefix across pools");
    ANDA_CHECK_LE(tokens, donor.length_,
                  "PagedKvCache: adopt_prefix past the donor's length");
    const std::size_t n = pages_for(tokens, pool_->page_size());
    KvPageAllocator &alloc = pool_->allocator();
    table_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        alloc.retain(donor.table_[i]);
        table_.push_back(donor.table_[i]);
    }
    length_ = tokens;
#if ANDA_DCHECKS_ENABLED
    dcheck_consistent();
#endif
}

std::vector<std::byte>
PagedKvCache::swap_out()
{
    std::vector<std::byte> data;
    if (pool_->with_storage()) {
        // reserve + insert writes each byte once; resize would zero
        // the whole buffer first.
        data.reserve(2 * n_layers() * length_ * pool_->row_bytes());
        for (std::size_t l = 0; l < n_layers(); ++l) {
            for (std::size_t r = 0; r < length_; ++r) {
                for (const std::size_t t : {KvRows::kK, KvRows::kV}) {
                    const auto src = bytes(t, l, r);
                    data.insert(data.end(), src.begin(), src.end());
                }
            }
        }
    }
    release_all();
    return data;
}

void
PagedKvCache::swap_in(std::span<const std::byte> data, std::size_t rows)
{
    ANDA_CHECK(length_ == 0 && table_.empty(),
               "PagedKvCache: swap_in into a non-empty sequence");
    ANDA_CHECK(pool_->with_storage()
                   ? data.size() ==
                         2 * n_layers() * rows * pool_->row_bytes()
                   : data.empty(),
               "PagedKvCache: swap_in buffer size mismatch");
    reserve(rows);
    if (pool_->with_storage()) {
        const std::byte *src = data.data();
        for (std::size_t l = 0; l < n_layers(); ++l) {
            for (std::size_t r = 0; r < rows; ++r) {
                for (const std::size_t t : {KvRows::kK, KvRows::kV}) {
                    const auto dst = bytes(t, l, r);
                    std::copy(src, src + dst.size(), dst.begin());
                    src += dst.size();
                }
            }
        }
    }
    length_ = rows;
}

void
PagedKvCache::release_all()
{
    KvPageAllocator &alloc = pool_->allocator();
    for (const PageId page : table_) {
        alloc.release(page);
    }
    table_.clear();
    length_ = 0;
}

void
PagedKvCache::dcheck_consistent() const
{
    const std::size_t ps = pool_->page_size();
    ANDA_CHECK_LE(length_, capacity(),
                  "committed rows exceed mapped pages");
    ANDA_CHECK_LE(length_, pool_->max_seq());
    // reserve() allocates exactly the pages asked for, so the table
    // never holds more than one page past the committed rows' worth
    // plus whatever an outstanding reserve mapped; at minimum the
    // committed rows must all be mapped.
    ANDA_CHECK_GE(table_.size(), pages_for(length_, ps),
                  "page table too small for committed rows");
    const KvPageAllocator &alloc = pool_->allocator();
    for (const PageId page : table_) {
        ANDA_CHECK_GE(alloc.refcount(page), 1u,
                      "page table maps a dead page");
    }
}

}  // namespace anda
