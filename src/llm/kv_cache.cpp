#include "llm/kv_cache.h"

#include <algorithm>

#include "common/check.h"

namespace anda {

namespace {

/// First non-trivial allocation: small enough that a short prompt
/// stays cheap, large enough that tiny prompts don't immediately
/// regrow.
constexpr std::size_t kMinCapacity = 16;

}  // namespace

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
    const std::size_t words =
        (slots * row_bytes_ + sizeof(float) - 1) / sizeof(float);
    for (std::vector<float> &block : blocks_) {
        // reserve() first: resize() alone may over-allocate.
        block.reserve(words);
        block.resize(words);
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

std::size_t
BatchKvCache::total_length() const
{
    std::size_t total = 0;
    for (const KvSeq *c : caches_) {
        total += c->length();
    }
    return total;
}

}  // namespace anda
