#include "common/result_cache.h"

namespace anda {

std::optional<double>
ResultCache::get(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = map_.find(key);
    if (it == map_.end()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
}

void
ResultCache::put(const std::string &key, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    map_[key] = value;
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.size();
}

}  // namespace anda
