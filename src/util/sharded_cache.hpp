// Process-wide memo table behind cost/plan_cache, bitstream/bitstream_cache
// and par/par_cache: sharded (a mutex per shard, so parallel
// sweeps do not serialize on one lock), bounded (past the per-shard cap an
// arbitrary resident entry is evicted - an overflow valve, not an LRU),
// first-writer-wins, with hit/miss/eviction counters and entry gauges.
//
// Metric names are resolved per cache through `Traits`, whose static
// hooks each own their PRCOST_COUNT / PRCOST_GAUGE_SET call site:
//
//   static void hit(); static void miss(); static void evicted();
//   static void gauges(std::size_t entries, std::size_t weight);
//   static std::size_t weight(const Value&);  // resident payload size
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/hash.hpp"
#include "util/ints.hpp"

namespace prcost {

/// Counters of one cache (process lifetime, not reset by clear()).
struct ShardedCacheStats {
  u64 hits = 0;
  u64 misses = 0;
  u64 evictions = 0;
  u64 entries = 0;  ///< currently resident entries across all shards
  u64 weight = 0;   ///< summed Traits::weight of the resident entries
};

/// `Value` is a shared pointer: a hit hands out the resident entry without
/// copying it, and an empty Value means "miss".
template <class Key, class Value, class Hash, class Traits,
          std::size_t kShards>
class ShardedCache {
  static_assert((kShards & (kShards - 1)) == 0, "shard count: power of 2");

 public:
  explicit ShardedCache(std::size_t capacity) : capacity_(capacity) {}

  Value lookup(const Key& key) {
    Shard& shard = shard_for(key);
    {
      const std::scoped_lock lock{shard.mu};
      const auto it = shard.map.find(key);
      if (it != shard.map.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        Traits::hit();
        return it->second;
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    Traits::miss();
    return nullptr;
  }

  /// Insert (first writer wins) and return the resident value.
  Value insert(const Key& key, Value value) {
    Shard& shard = shard_for(key);
    const std::size_t shard_cap = std::max<std::size_t>(
        1, capacity_.load(std::memory_order_relaxed) / kShards);
    const std::scoped_lock lock{shard.mu};
    if (shard.map.size() >= shard_cap &&
        shard.map.find(key) == shard.map.end()) {
      // Full: drop an arbitrary resident entry (hash order ~ random).
      const auto victim = shard.map.begin();
      weight_.fetch_sub(Traits::weight(victim->second),
                        std::memory_order_relaxed);
      shard.map.erase(victim);
      entries_.fetch_sub(1, std::memory_order_relaxed);
      evictions_.fetch_add(1, std::memory_order_relaxed);
      Traits::evicted();
    }
    const auto [it, inserted] = shard.map.try_emplace(key, std::move(value));
    if (inserted) {
      const std::size_t weight = Traits::weight(it->second);
      Traits::gauges(
          entries_.fetch_add(1, std::memory_order_relaxed) + 1,
          weight_.fetch_add(weight, std::memory_order_relaxed) + weight);
    }
    return it->second;
  }

  /// Drop every entry (counters survive).
  void clear() {
    for (Shard& shard : shards_) {
      const std::scoped_lock lock{shard.mu};
      entries_.fetch_sub(shard.map.size(), std::memory_order_relaxed);
      for (const auto& entry : shard.map) {
        weight_.fetch_sub(Traits::weight(entry.second),
                          std::memory_order_relaxed);
      }
      shard.map.clear();
    }
    Traits::gauges(entries_.load(std::memory_order_relaxed),
                   weight_.load(std::memory_order_relaxed));
  }

  ShardedCacheStats stats() const {
    ShardedCacheStats out;
    out.hits = hits_.load(std::memory_order_relaxed);
    out.misses = misses_.load(std::memory_order_relaxed);
    out.evictions = evictions_.load(std::memory_order_relaxed);
    for (const Shard& shard : shards_) {
      const std::scoped_lock lock{shard.mu};
      out.entries += shard.map.size();
      for (const auto& entry : shard.map) {
        out.weight += Traits::weight(entry.second);
      }
    }
    return out;
  }

  /// Cap the total resident entries (approximate; enforced per shard).
  void set_capacity(std::size_t max_entries) {
    capacity_.store(std::max(kShards, max_entries),
                    std::memory_order_relaxed);
  }

  /// Point-in-time copy of every resident (key, value) pair, shard by
  /// shard; values are shared, so this pins them without copying.
  std::vector<std::pair<Key, Value>> resident() const {
    std::vector<std::pair<Key, Value>> out;
    for (const Shard& shard : shards_) {
      const std::scoped_lock lock{shard.mu};
      out.reserve(out.size() + shard.map.size());
      for (const auto& entry : shard.map) out.push_back(entry);
    }
    return out;
  }

  /// Snapshot restore: `decode(entries)` fills every (key, value) pair
  /// first and only then are they inserted, so a decode that throws on a
  /// malformed payload leaves the cache unchanged. Returns the count.
  template <class Decode>
  std::size_t load(Decode decode) {
    std::vector<std::pair<Key, Value>> loaded;
    decode(loaded);
    for (auto& [key, value] : loaded) insert(key, std::move(value));
    return loaded.size();
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, Value, Hash> map;
  };

  Shard& shard_for(const Key& key) {
    return shards_[Hash{}(key) & (kShards - 1)];
  }

  std::array<Shard, kShards> shards_;
  std::atomic<u64> hits_{0};
  std::atomic<u64> misses_{0};
  std::atomic<u64> evictions_{0};
  std::atomic<std::size_t> entries_{0};  ///< mirrors the shard maps (gauge)
  std::atomic<std::size_t> weight_{0};   ///< summed Traits::weight (gauge)
  std::atomic<std::size_t> capacity_;
};

}  // namespace prcost
