#include "llm/kv_cache.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>

#include <sys/mman.h>

#include "common/check.h"

namespace anda {

namespace {

/// Blocks from this size up are mapped; a mapping is whole pages, too
/// coarse for the short slab caches.
constexpr std::size_t kMapBytes = std::size_t{128} << 10;

/// First non-trivial allocation: small enough that a short prompt
/// stays cheap, large enough that tiny prompts don't immediately
/// regrow.
constexpr std::size_t kMinCapacity = 16;

}  // namespace

void *
detail::kv_block_allocate(std::size_t bytes)
{
    if (bytes >= kMapBytes) {
        void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED) {
            throw std::bad_alloc();
        }
        return p;
    }
    return std::allocator<std::byte>{}.allocate(bytes);
}

void
detail::kv_block_deallocate(void *p, std::size_t bytes)
{
    if (bytes >= kMapBytes) {
        ::munmap(p, bytes);
        return;
    }
    std::allocator<std::byte>{}.deallocate(static_cast<std::byte *>(p),
                                           bytes);
}

KvRows::KvRows(std::size_t n_layers, std::size_t d_model, KvFormat fmt,
               std::size_t slots)
    : d_model_(d_model),
      fmt_(fmt),
      row_bytes_(kv_row_bytes(fmt, d_model)),
      blocks_(2 * n_layers)
{
    kv_validate(fmt_);
    grow(slots);
}

void
KvRows::grow(std::size_t slots)
{
    if (slots == slots_) {
        return;
    }
    const std::size_t kept = std::min(slots, slots_) * row_bytes_;
    const std::size_t bytes = (slots * row_bytes_ + sizeof(float) - 1) /
                              sizeof(float) * sizeof(float);
    for (auto &block : blocks_) {
        std::unique_ptr<float[], detail::KvBlockFree> grown(
            static_cast<float *>(detail::kv_block_allocate(bytes)),
            {bytes});
        auto *dst = reinterpret_cast<std::byte *>(grown.get());
        std::copy_n(reinterpret_cast<const std::byte *>(block.get()),
                    kept, dst);
        if (bytes < kMapBytes) {
            // A fresh mapping is zero already: filling it would make
            // all of it resident.
            std::fill(dst + kept, dst + bytes, std::byte{0});
        }
        block = std::move(grown);
    }
    slots_ = slots;
}

KvCache::KvCache(std::size_t n_layers, std::size_t d_model,
                 std::size_t max_seq, KvFormat fmt)
    : rows_(n_layers, d_model, fmt), max_seq_(max_seq)
{
    ANDA_CHECK(n_layers > 0 && d_model > 0 && max_seq > 0,
               "degenerate KvCache dimensions");
}

void
KvCache::reserve(std::size_t rows)
{
    ANDA_CHECK_LE(rows, max_seq_, "KvCache: sequence exceeds max_seq");
    if (rows <= capacity()) {
        return;
    }
    const std::size_t grown =
        std::max({rows, 2 * capacity(), kMinCapacity});
    rows_.grow(std::min(grown, max_seq_));
}

void
KvCache::advance(std::size_t n)
{
    ANDA_CHECK_LE(length_ + n, capacity(),
                  "KvCache: advance past allocated capacity");
    length_ += n;
}

void
BatchKvCache::add(KvSeq &cache)
{
    for (const KvSeq *c : caches_) {
        ANDA_CHECK(c != &cache, "BatchKvCache: duplicate cache in batch");
    }
    caches_.push_back(&cache);
}

}  // namespace anda
