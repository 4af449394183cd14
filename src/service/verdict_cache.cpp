#include "service/verdict_cache.h"

#include <charconv>

#include "common/format.h"

namespace bcn::service {

double quantize(double v) {
  char buf[kGChars];
  const char* end = to_chars_g(buf, v, 12);
  // Both from_chars and strtod round to nearest.
  double out = 0.0;
  std::from_chars(buf, end, out);
  return out;
}

std::string quantize_key(double v) {
  std::string out;
  append_quantize_key(out, v);
  return out;
}

void append_quantize_key(std::string& out, double v) { append_g(out, v, 12); }

VerdictCache::VerdictCache(const Config& config,
                           obs::MetricsRegistry* metrics)
    : hits_(&own_hits_),
      misses_(&own_misses_),
      evictions_(&own_evictions_),
      entries_(&own_entries_) {
  const std::size_t shard_count = config.shards > 0 ? config.shards : 1;
  const std::size_t entries = config.entries > 0 ? config.entries : 1;
  per_shard_capacity_ = (entries + shard_count - 1) / shard_count;
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (metrics) {
    hits_ = &metrics->counter("service.cache.hits");
    misses_ = &metrics->counter("service.cache.misses");
    evictions_ = &metrics->counter("service.cache.evictions");
    entries_ = &metrics->gauge("service.cache.entries");
  }
}

std::size_t VerdictCache::shard_of(const std::string& key) const {
  return std::hash<std::string>{}(key) % shards_.size();
}

std::optional<std::string> VerdictCache::get(const std::string& key) {
  Shard& shard = *shards_[shard_of(key)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_->inc();
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_->inc();
  return it->second->second;
}

void VerdictCache::put(const std::string& key, std::string value) {
  Shard& shard = *shards_[shard_of(key)];
  std::size_t delta = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->second = std::move(value);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    shard.lru.emplace_front(key, std::move(value));
    shard.index[key] = shard.lru.begin();
    delta = 1;
    if (shard.lru.size() > per_shard_capacity_) {
      shard.index.erase(shard.lru.back().first);
      shard.lru.pop_back();
      evictions_->inc();
      delta = 0;
    }
  }
  if (delta > 0) {
    // Occupancy gauge: recomputed cheaply as a relaxed running total
    // would race with concurrent evictions on other shards; size() is
    // only called on put, which is already the slow (cold) path.
    entries_->set(static_cast<double>(size()));
  }
}

std::size_t VerdictCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->lru.size();
  }
  return total;
}

}  // namespace bcn::service
