#pragma once

/// @file
/// End-to-end harness: model + datasets + cached perplexity evaluation
/// + Algorithm 1. Shared by the accuracy benches (Table II, Figs. 9,
/// 14, 18) so repeated evaluations of the same (model, dataset, format)
/// triple cost one forward pass across the whole benchmark suite.
///
/// Constructing a Transformer (weight synthesis + W4 quantization with
/// clip search) is the expensive part of harness setup, and a sweep
/// binds each model to several datasets. The ModelRegistry deduplicates
/// that work: harnesses sharing a registry share one immutable
/// Transformer per model configuration, so the 9-model x 3-dataset
/// Table II sweep constructs 9 models instead of 27.

#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/result_cache.h"
#include "llm/corpus.h"
#include "llm/transformer.h"
#include "search/precision_search.h"

namespace anda {

/// Thread-safe registry of constructed Transformers keyed by the full
/// model identity (name, family, seed, sim dims, outlier profile).
/// Concurrent get() calls for the same configuration construct the
/// model exactly once: the first caller builds, the rest block on the
/// shared future. Models are immutable after construction, so sharing
/// one instance across harnesses and sweep workers is safe.
class ModelRegistry {
  public:
    /// Returns the shared model of cfg, constructing it on first use.
    std::shared_ptr<const Transformer> get(const ModelConfig &cfg);

    /// Number of distinct model configurations held.
    std::size_t size() const;

    /// Lifetime counters: get() calls served from the registry vs
    /// constructions triggered.
    std::size_t hits() const
    {
        return hits_.load(std::memory_order_relaxed);
    }
    std::size_t misses() const
    {
        return misses_.load(std::memory_order_relaxed);
    }

    /// The process-wide registry used by SearchHarness by default.
    static ModelRegistry &global();

    /// The identity key a config is registered under: name, family,
    /// seed, sim dims, and outlier profile (everything construction
    /// reads; `real` dims are excluded). Exposed so other caches keyed
    /// on "which model is this" (e.g. the sweep scheduler's harness
    /// map) cannot collapse distinct configs that share a name.
    static std::string key_of(const ModelConfig &cfg);

  private:
    using Future =
        std::shared_future<std::shared_ptr<const Transformer>>;

    mutable std::mutex mutex_;
    std::atomic<std::size_t> hits_{0};
    std::atomic<std::size_t> misses_{0};
    std::unordered_map<std::string, Future> models_;
};

/// A model bound to one dataset's calibration and validation splits.
/// Thread-safe: sweep jobs sharing one harness may evaluate
/// concurrently (the model and corpora are built once under locks, the
/// result cache is already thread-safe).
class SearchHarness {
  public:
    /// Shares the model through ModelRegistry::global(). cache may be
    /// nullptr (no memoization).
    SearchHarness(const ModelConfig &cfg, const DatasetSpec &dataset,
                  ResultCache *cache);

    /// Shares the model through `registry`; pass nullptr for a private
    /// (unshared) model instance.
    SearchHarness(const ModelConfig &cfg, const DatasetSpec &dataset,
                  ResultCache *cache, ModelRegistry *registry);

    /// The model is constructed lazily on first use (so enqueueing
    /// sweep jobs stays cheap and construction runs on the workers).
    const Transformer &model() const;
    const ModelConfig &config() const { return cfg_; }

    /// Validation PPL of the FP16 (unquantized weights) configuration.
    double fp16_ppl();

    /// PPL of the W4A16 baseline (quantized weights, FP16 activations).
    double baseline_ppl(Split split);

    /// PPL of a uniform BFP activation format on all four taps.
    double uniform_bfp_ppl(Split split, int group_size, int mantissa_bits);

    /// PPL of an Anda precision tuple.
    double tuple_ppl(Split split, const PrecisionTuple &tuple);

    /// Runs Algorithm 1 against the calibration split.
    SearchResult search(double tolerance, int max_iterations = 32);

    /// Number of evaluator calls that missed the cache so far.
    std::size_t evaluations() const
    {
        return evaluations_.load(std::memory_order_relaxed);
    }

  private:
    double cached_ppl(const std::string &key, const RunOptions &opts,
                      Split split);
    const Corpus &corpus(Split split);

    ModelConfig cfg_;
    DatasetSpec dataset_;
    ResultCache *cache_;
    ModelRegistry *registry_;
    // Guards lazy model construction. Not std::call_once: construction
    // may throw, and exceptional call_once deadlocks under TSan (see
    // model() in harness.cpp).
    mutable std::mutex model_mutex_;
    mutable std::shared_ptr<const Transformer> model_;
    std::mutex corpus_mutex_;
    std::unique_ptr<Corpus> calibration_;
    std::unique_ptr<Corpus> validation_;
    std::atomic<std::size_t> evaluations_{0};
};

}  // namespace anda
