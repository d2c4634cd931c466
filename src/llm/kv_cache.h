#pragma once

/// @file
/// Per-sequence key/value caches for incremental decode.
///
/// KvRows is the one row store behind every cache: the K and V rows of
/// all layers in one KvFormat, addressed by storage slot. KvSeq is the
/// interface the transformer decodes against: one cached sequence
/// exposing committed length, growth, and row-level K/V access per
/// layer. Two layouts implement it, and they differ only in how a
/// logical row maps to a slot — the slab KvCache below (its own store,
/// slot = row, grown geometrically) and the paged PagedKvCache
/// (llm/kv_pages.h; a page table into a shared refcounted pool, with
/// prefix sharing and preemption support). Row access is written once,
/// in KvSeq, so decode is bit-identical across layouts. A BatchKvCache
/// is a non-owning view packing B independent sequences so one ragged
/// decode step (one new token per sequence, heterogeneous cache
/// lengths) can run through the same fused GeMM taps as prefill — see
/// Transformer::decode_step.

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/check.h"
#include "format/kv_format.h"

namespace anda {

namespace detail {

/// Storage of one KvRows block of `bytes` bytes, and its release. A
/// block of 128 KiB or more gets an anonymous memory mapping of its
/// own, outside the malloc heap; a smaller one comes from
/// std::allocator. A serving run makes its page pool's multi-megabyte
/// blocks at its start and frees them at its end. In the heap, whether
/// they fit back into the space the previous run freed would depend on
/// where small allocations had landed since, and the resident peak of
/// identical runs would differ by most of a block. A fresh mapping
/// reads as zero, and the OS commits each of its 4 KiB pages at the
/// first write, so a mapped block is resident only where rows were
/// stored.
void *kv_block_allocate(std::size_t bytes);
void kv_block_deallocate(void *p, std::size_t bytes);

/// std::unique_ptr deleter of a kv_block_allocate block.
struct KvBlockFree {
    std::size_t bytes = 0;
    void operator()(float *p) const { kv_block_deallocate(p, bytes); }
};

}  // namespace detail

/// The K and V rows of every layer in one KvFormat: per (tensor,
/// layer) a block of slots() rows of row_bytes() =
/// kv_row_bytes(format, d_model) bytes each, unpadded. Blocks are
/// float words, so an FP32 row is its own float image (attended in
/// place, no copy) and every packed row aliases its block legally as
/// bytes. A slot never stored reads as zero bytes. In a mapped block
/// it is not resident either: a pool of any budget is resident only
/// in the pages its stored rows fill (see KvPageAllocator for why
/// that is its peak of used pages).
class KvRows {
  public:
    static constexpr std::size_t kK = 0;
    static constexpr std::size_t kV = 1;

    KvRows(std::size_t n_layers, std::size_t d_model, KvFormat fmt,
           std::size_t slots = 0);

    std::size_t n_layers() const { return blocks_.size() / 2; }
    std::size_t d_model() const { return d_model_; }
    const KvFormat &format() const { return fmt_; }
    std::size_t row_bytes() const { return row_bytes_; }
    std::size_t slots() const { return slots_; }

    /// Grows every block to `slots` rows, keeping the rows already
    /// stored (rows are fixed-width). The new slots read as zero: a
    /// heap block zeroes them, a mapped one is zero until written and
    /// commits no memory for them.
    void grow(std::size_t slots);

    /// Packed bytes of one row of `tensor` (kK or kV). Throws
    /// anda::CheckError for a slot outside the store — including any
    /// slot of an accounting-only paged pool, which stores none.
    std::span<std::byte> row(std::size_t tensor, std::size_t layer,
                             std::size_t slot)
    {
        ANDA_CHECK_LT(slot, slots_, "KvRows: slot outside the store");
        std::byte *block = reinterpret_cast<std::byte *>(
            blocks_[2 * layer + tensor].get());
        return {block + slot * row_bytes_, row_bytes_};
    }

  private:
    std::size_t d_model_ = 0;
    KvFormat fmt_;
    std::size_t row_bytes_ = 0;
    std::size_t slots_ = 0;
    /// Block of (tensor, layer) at [2 * layer + tensor].
    std::vector<std::unique_ptr<float[], detail::KvBlockFree>> blocks_;
};

/// One cached sequence: committed K/V rows across all layers, with
/// row-level access so the attention gather and the append path do not
/// depend on the physical layout (contiguous slab or paged).
///
/// Rows are stored in the cache's KvFormat: store_k/store_v pack a
/// float row at write time (quantize-on-append), load_k/load_v unpack
/// it back to float32 (dequantize-on-attend). Because quantization
/// happens at the single store of each row, every read — including
/// same-step reads of freshly appended rows — observes the same
/// values, so decode remains invariant to prefill chunking and to the
/// slab/paged layout choice for every format, not just FP32.
///
/// Every row accessor resolves its row with one virtual locate() — the
/// only layout-specific part of row access.
class KvSeq {
  public:
    virtual ~KvSeq() = default;

    virtual std::size_t n_layers() const = 0;
    virtual std::size_t d_model() const = 0;
    virtual std::size_t max_seq() const = 0;

    /// Storage format of the cached rows.
    virtual const KvFormat &format() const = 0;

    /// Committed (cached) tokens.
    virtual std::size_t length() const = 0;

    /// Grows storage so at least `rows` cached rows fit, preserving
    /// the committed prefix; called immediately before appending rows
    /// [length(), rows). Throws std::invalid_argument when rows
    /// exceeds max_seq (paged layouts additionally throw
    /// std::runtime_error when the backing pool is exhausted).
    virtual void reserve(std::size_t rows) = 0;

    /// Commits `n` rows appended past length() via store_k()/store_v()
    /// writes. The rows must already fit (reserve first).
    virtual void advance(std::size_t n) = 0;

    /// Packs `row` (d_model floats) into row `pos` of the layer's K/V
    /// block in the cache's format (a plain copy in FP32). Rows
    /// [0, length()) are committed; rows past length() are scratch for
    /// the step in flight (up to the reserved capacity).
    void store_k(std::size_t layer, std::size_t pos,
                 std::span<const float> row)
    {
        store(KvRows::kK, layer, pos, row);
    }
    void store_v(std::size_t layer, std::size_t pos,
                 std::span<const float> row)
    {
        store(KvRows::kV, layer, pos, row);
    }

    /// Unpacks row `pos` back to float32 into `out` (d_model floats) —
    /// the values attention computes on.
    void load_k(std::size_t layer, std::size_t pos,
                std::span<float> out) const
    {
        load(KvRows::kK, layer, pos, out);
    }
    void load_v(std::size_t layer, std::size_t pos,
                std::span<float> out) const
    {
        load(KvRows::kV, layer, pos, out);
    }

    /// In-place float views of row `pos` — FP32 caches only (throws on
    /// a quantized cache, whose rows have no float image).
    /// Format-agnostic callers use store_/load_ above.
    std::span<float> k_row(std::size_t layer, std::size_t pos)
    {
        return float_row(KvRows::kK, layer, pos);
    }
    std::span<float> v_row(std::size_t layer, std::size_t pos)
    {
        return float_row(KvRows::kV, layer, pos);
    }
    std::span<const float> k_row(std::size_t layer,
                                 std::size_t pos) const
    {
        return float_row(KvRows::kK, layer, pos);
    }
    std::span<const float> v_row(std::size_t layer,
                                 std::size_t pos) const
    {
        return float_row(KvRows::kV, layer, pos);
    }

    /// Stored bytes of row `pos` in the cache's format (an FP32 row's
    /// bytes are exactly its k_row/v_row floats).
    std::span<const std::byte> packed_k_row(std::size_t layer,
                                            std::size_t pos) const
    {
        return bytes(KvRows::kK, layer, pos);
    }
    std::span<const std::byte> packed_v_row(std::size_t layer,
                                            std::size_t pos) const
    {
        return bytes(KvRows::kV, layer, pos);
    }

  protected:
    /// Where logical row `pos` is stored.
    struct Slot {
        KvRows *rows;
        std::size_t index;
    };
    virtual Slot locate(std::size_t pos) const = 0;

    /// Stored bytes of row `pos` of `tensor` (KvRows::kK or kV).
    std::span<std::byte> bytes(std::size_t tensor, std::size_t layer,
                               std::size_t pos) const
    {
        const Slot s = locate(pos);
        return s.rows->row(tensor, layer, s.index);
    }

  private:
    // Defined inline so a row access costs the one locate() call.
    void store(std::size_t tensor, std::size_t layer, std::size_t pos,
               std::span<const float> row)
    {
        const Slot s = locate(pos);
        kv_pack_row(s.rows->format(), row,
                    s.rows->row(tensor, layer, s.index));
    }
    void load(std::size_t tensor, std::size_t layer, std::size_t pos,
              std::span<float> out) const
    {
        const Slot s = locate(pos);
        kv_unpack_row(s.rows->format(),
                      s.rows->row(tensor, layer, s.index), out);
    }
    std::span<float> float_row(std::size_t tensor, std::size_t layer,
                               std::size_t pos) const
    {
        const Slot s = locate(pos);
        ANDA_CHECK(!s.rows->format().quantized(),
                   "KvSeq: float row view of a quantized cache");
        // An FP32 row is d_model floats of its float-word block.
        return {reinterpret_cast<float *>(
                    s.rows->row(tensor, layer, s.index).data()),
                s.rows->d_model()};
    }
};

/// Slab layout: one KvRows of capacity() slots, of which the first
/// length() rows are committed (slot = row). Storage grows
/// geometrically on demand from the actual prefix length (a cache
/// never eagerly reserves max_seq rows — with max_batch concurrent
/// sequences that would be prohibitive).
class KvCache final : public KvSeq {
  public:
    /// An empty cache for a model with `n_layers` layers, head
    /// dimension summing to `d_model`, and a hard `max_seq` row bound,
    /// storing rows in `fmt`. Allocates nothing until reserve() is
    /// called.
    KvCache(std::size_t n_layers, std::size_t d_model,
            std::size_t max_seq, KvFormat fmt = KvFormat::fp32());

    std::size_t n_layers() const override { return rows_.n_layers(); }
    std::size_t d_model() const override { return rows_.d_model(); }
    std::size_t max_seq() const override { return max_seq_; }
    std::size_t length() const override { return length_; }
    const KvFormat &format() const override { return rows_.format(); }

    /// Allocated rows per layer (>= length()).
    std::size_t capacity() const { return rows_.slots(); }
    /// Packed bytes of one K or V row in this cache's format.
    std::size_t row_bytes() const { return rows_.row_bytes(); }

    /// Growth is geometric (capacity at least doubles) so a decode
    /// loop performs O(log max_seq) copies.
    void reserve(std::size_t rows) override;
    void advance(std::size_t n) override;

  protected:
    Slot locate(std::size_t pos) const override
    {
        // The store is only written through the non-const accessors.
        return {const_cast<KvRows *>(&rows_), pos};
    }

  private:
    KvRows rows_;
    std::size_t max_seq_ = 0;
    std::size_t length_ = 0;
};

/// Non-owning view packing B independent per-sequence caches into one
/// ragged decode batch. Sequence i of the packed activation matrix
/// reads and extends seq(i); the caches must outlive the view, and
/// must be distinct objects (add() throws on a duplicate — two slots
/// writing one cache would silently corrupt it). Slab and paged
/// sequences may mix freely within one batch.
class BatchKvCache {
  public:
    BatchKvCache() = default;

    void add(KvSeq &cache);

    std::size_t size() const { return caches_.size(); }
    bool empty() const { return caches_.empty(); }

    KvSeq &seq(std::size_t i) { return *caches_[i]; }
    const KvSeq &seq(std::size_t i) const { return *caches_[i]; }

  private:
    std::vector<KvSeq *> caches_;
};

}  // namespace anda
