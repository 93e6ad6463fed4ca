#include "bitstream/bitstream_cache.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <utility>

#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/sharded_cache.hpp"
#include "util/snapshot.hpp"

namespace prcost {
namespace {

std::atomic<bool> g_enabled{true};

/// Everything generate_bitstream reads: the family (interning the frame
/// constants), the plan geometry that shapes the bursts, and the payload
/// options. The window width is deliberately absent - generation only
/// reads window.first_col.
struct Key {
  u32 family = 0;
  u32 h = 0;
  u32 clb_cols = 0;
  u32 dsp_cols = 0;
  u32 bram_cols = 0;
  u32 first_col = 0;
  u32 first_row = 0;
  u64 payload_seed = 0;
  u32 idcode = 0;
  u32 payload_kind = 0;
  u64 density_bits = 0;  ///< sparse_density, compared bit-exactly

  bool operator==(const Key& other) const = default;
};

struct KeyHash {
  std::size_t operator()(const Key& key) const noexcept {
    Fnv1a h;
    h.mix(key.family).mix(key.h).mix(key.clb_cols).mix(key.dsp_cols);
    h.mix(key.bram_cols).mix(key.first_col).mix(key.first_row);
    h.mix(key.payload_seed).mix(key.idcode).mix(key.payload_kind);
    h.mix(key.density_bits);
    return static_cast<std::size_t>(h.h);
  }
};

using Words = std::shared_ptr<const std::vector<u32>>;

struct BitstreamCacheTraits {
  static void hit() {
    PRCOST_COUNT("bitstream_cache.hits");
    PRCOST_REQUEST_EVENT(kBitstreamCacheHit);
  }
  static void miss() {
    PRCOST_COUNT("bitstream_cache.misses");
    PRCOST_REQUEST_EVENT(kBitstreamCacheMiss);
  }
  static void evicted() { PRCOST_COUNT("bitstream_cache.evictions"); }
  static void gauges(std::size_t entries, std::size_t words) {
    PRCOST_GAUGE_SET("bitstream_cache.entries", entries);
    PRCOST_GAUGE_SET("bitstream_cache.resident_words", words);
  }
  static std::size_t weight(const Words& words) { return words->size(); }
};

using Cache = ShardedCache<Key, Words, KeyHash, BitstreamCacheTraits, 8>;

Cache& cache() {
  static Cache instance{128};
  return instance;
}

Key key_of(const PrrPlan& plan, Family family,
           const GeneratorOptions& options) {
  Key key;
  key.family = static_cast<u32>(family);
  key.h = plan.organization.h;
  key.clb_cols = plan.organization.columns.clb_cols;
  key.dsp_cols = plan.organization.columns.dsp_cols;
  key.bram_cols = plan.organization.columns.bram_cols;
  key.first_col = plan.window.first_col;
  key.first_row = plan.first_row;
  key.payload_seed = options.payload_seed;
  key.idcode = options.idcode;
  key.payload_kind = static_cast<u32>(options.payload);
  key.density_bits = std::bit_cast<u64>(options.sparse_density);
  return key;
}

// Snapshot format version 1 payload:
//   u64 entry_count
//     { 11 key fields; u64 word_count; word_count x u32 words } x count
// Words are written as one bulk byte range (not word-by-word): resident
// bitstreams dominate the file, and the bulk path keeps warm restart
// well under the 100 ms budget.
constexpr u32 kBitstreamSnapshotVersion = 1;

}  // namespace

std::size_t bitstream_cache_save(const std::string& path) {
  SnapshotWriter out;
  const auto resident = cache().resident();
  out.put_u64(resident.size());
  for (const auto& [key, words] : resident) {
    out.put_u32(key.family);
    out.put_u32(key.h);
    out.put_u32(key.clb_cols);
    out.put_u32(key.dsp_cols);
    out.put_u32(key.bram_cols);
    out.put_u32(key.first_col);
    out.put_u32(key.first_row);
    out.put_u64(key.payload_seed);
    out.put_u32(key.idcode);
    out.put_u32(key.payload_kind);
    out.put_u64(key.density_bits);
    out.put_u64(words->size());
    out.put_bytes(words->data(), words->size() * sizeof(u32));
  }
  out.write(path, kBitstreamSnapshotVersion);
  return resident.size();
}

std::size_t bitstream_cache_load(const std::string& path) {
  SnapshotReader in{path, kBitstreamSnapshotVersion};
  return cache().load([&](auto& loaded) {
    const u64 entry_count = in.get_u64();
    loaded.reserve(std::min<u64>(entry_count, 1u << 16));
    for (u64 i = 0; i < entry_count; ++i) {
      Key key;
      key.family = in.get_u32();
      key.h = in.get_u32();
      key.clb_cols = in.get_u32();
      key.dsp_cols = in.get_u32();
      key.bram_cols = in.get_u32();
      key.first_col = in.get_u32();
      key.first_row = in.get_u32();
      key.payload_seed = in.get_u64();
      key.idcode = in.get_u32();
      key.payload_kind = in.get_u32();
      key.density_bits = in.get_u64();
      const u64 word_count = in.get_u64();
      if (word_count * sizeof(u32) > in.remaining()) {
        throw ParseError{"snapshot '" + path + "': payload underrun"};
      }
      std::vector<u32> words(static_cast<std::size_t>(word_count));
      in.get_bytes(words.data(), words.size() * sizeof(u32));
      loaded.emplace_back(
          key, std::make_shared<const std::vector<u32>>(std::move(words)));
    }
    if (in.remaining() != 0) {
      throw ParseError{"snapshot '" + path + "': trailing bytes"};
    }
  });
}

bool bitstream_cache_enabled() noexcept {
  return g_enabled.load(std::memory_order_relaxed);
}

void set_bitstream_cache_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

std::shared_ptr<const std::vector<u32>> generate_bitstream_cached(
    const PrrPlan& plan, Family family, const GeneratorOptions& options) {
  if (!bitstream_cache_enabled()) {
    return std::make_shared<const std::vector<u32>>(
        generate_bitstream(plan, family, options));
  }
  const Key key = key_of(plan, family, options);
  if (Words words = cache().lookup(key)) return words;
  auto words = std::make_shared<const std::vector<u32>>(
      generate_bitstream(plan, family, options));
  return cache().insert(key, std::move(words));
}

void bitstream_cache_clear() { cache().clear(); }

BitstreamCacheStats bitstream_cache_stats() {
  const ShardedCacheStats stats = cache().stats();
  return {stats.hits, stats.misses, stats.evictions, stats.entries,
          stats.weight};
}

void set_bitstream_cache_capacity(std::size_t max_entries) {
  cache().set_capacity(max_entries);
}

}  // namespace prcost
