#pragma once

/// @file
/// In-memory string-key -> double result cache.
///
/// Accuracy evaluations dominate experiment runtime: a single perplexity
/// measurement is a full forward pass over the calibration corpus.
/// Algorithm 1 and the benches' sweeps revisit the same precision
/// combinations, so one process shares its evaluations through this
/// cache. It is never persisted: a key carries no code or numerics
/// version, so a stored value could outlive the code that computed it.

#include <atomic>
#include <cstddef>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace anda {

/// Thread-safe memo table.
class ResultCache {
  public:
    /// Looks up a key.
    std::optional<double> get(const std::string &key) const;

    /// Inserts (or overwrites).
    void put(const std::string &key, double value);

    std::size_t size() const;

    /// Lifetime lookup counters (get() calls that found / did not find
    /// their key). Sweep drivers report deltas of these per sweep.
    std::size_t hits() const
    {
        return hits_.load(std::memory_order_relaxed);
    }
    std::size_t misses() const
    {
        return misses_.load(std::memory_order_relaxed);
    }

  private:
    mutable std::mutex mutex_;
    mutable std::atomic<std::size_t> hits_{0};
    mutable std::atomic<std::size_t> misses_{0};
    std::unordered_map<std::string, double> map_;
};

}  // namespace anda
