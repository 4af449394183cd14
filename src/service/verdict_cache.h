// Sharded LRU cache for rendered service responses.
//
// Verdicts are pure functions of the quantized request key (for the
// verdict endpoint: mechanism plus the gain-space tuple (a, b, k, q0,
// B)), so repeated queries over the quantized gain space are answered
// from memory.  The cache is sharded — each shard owns an independent
// mutex, LRU list and index — so concurrent lookups from the connection
// readers only contend when they hash to the same shard.
//
// Quantization rule: every numeric request field is snapped to 12
// significant decimal digits (quantize() below) before the key is
// built and before the analysis runs, so any two requests that agree
// to 12 significant digits share one cache entry AND one answer —
// cached and cold responses are byte-identical by construction.
//
// Hit / miss / eviction totals are exported through src/obs metrics
// ("service.cache.hits", ".misses", ".evictions", plus the
// "service.cache.entries" occupancy gauge) when a registry is given.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace bcn::service {

// Snaps `v` onto the service quantization grid: the nearest double
// representable with 12 significant decimal digits.  Deterministic and
// idempotent: quantize(quantize(v)) == quantize(v).
double quantize(double v);

// The canonical key text of one quantized value ("%.12g").  Two values
// collide exactly when they quantize to the same double.
std::string quantize_key(double v);

// Appends quantize_key(v) to `out`.
void append_quantize_key(std::string& out, double v);

class VerdictCache {
 public:
  struct Config {
    // Total entries across all shards; rounded up to a multiple of
    // `shards` (each shard holds entries/shards, at least 1).
    std::size_t entries = 4096;
    std::size_t shards = 8;
  };

  // `metrics` may be null (standalone use in tests); counters then
  // accumulate internally only.
  VerdictCache(const Config& config, obs::MetricsRegistry* metrics);

  // Returns the cached response body and refreshes its LRU position.
  std::optional<std::string> get(const std::string& key);

  // Inserts or refreshes; evicts the least-recently-used entry of the
  // key's shard when that shard is full.
  void put(const std::string& key, std::string value);

  std::uint64_t hits() const { return hits_->value(); }
  std::uint64_t misses() const { return misses_->value(); }
  std::uint64_t evictions() const { return evictions_->value(); }
  std::size_t size() const;
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t per_shard_capacity() const { return per_shard_capacity_; }

  // Which shard `key` lands in — exposed so tests can target one
  // shard's LRU order deterministically.
  std::size_t shard_of(const std::string& key) const;

 private:
  struct Shard {
    std::mutex mutex;
    // Front = most recently used.  The index maps key -> list node.
    std::list<std::pair<std::string, std::string>> lru;
    std::unordered_map<
        std::string,
        std::list<std::pair<std::string, std::string>>::iterator>
        index;
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t per_shard_capacity_ = 1;

  // Own storage when no registry is supplied.
  obs::Counter own_hits_, own_misses_, own_evictions_;
  obs::Gauge own_entries_;
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* evictions_;
  obs::Gauge* entries_;
};

}  // namespace bcn::service
