#include "par/par_cache.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cost/plan_cache.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/sharded_cache.hpp"
#include "util/snapshot.hpp"

namespace prcost {
namespace {

/// Everything place_and_route reads: the netlist, the fabric (interned
/// identity), the PRR's height and column window, and every ParOptions
/// field. PlaceOptions::seed is absent: place_and_route overrides it with
/// ParOptions::seed. Doubles are compared by their bits.
struct Key {
  NetlistKey netlist;
  u64 fabric_id = 0;
  u32 h = 0;
  u32 first_col = 0;
  u32 width = 0;
  u64 seed = 0;
  u64 cross_pack_bits = 0;
  u32 anneal_moves = 0;
  u64 initial_temp_bits = 0;
  u32 skip_anneal = 0;

  bool operator==(const Key& other) const = default;
};

struct KeyHash {
  std::size_t operator()(const Key& key) const noexcept {
    Fnv1a h;
    h.mix(key.netlist.hash.lo).mix(key.netlist.hash.hi).mix(key.netlist.cells).mix(key.netlist.nets);
    h.mix(key.fabric_id).mix(key.h).mix(key.first_col).mix(key.width);
    h.mix(key.seed).mix(key.cross_pack_bits).mix(key.anneal_moves);
    h.mix(key.initial_temp_bits).mix(key.skip_anneal);
    return static_cast<std::size_t>(h.h);
  }
};

using Check = std::shared_ptr<const ParCrossCheck>;

struct ParCacheTraits {
  static void hit() { PRCOST_COUNT("par_cache.hits"); }
  static void miss() { PRCOST_COUNT("par_cache.misses"); }
  static void evicted() { PRCOST_COUNT("par_cache.evictions"); }
  static void gauges(std::size_t entries, std::size_t) {
    PRCOST_GAUGE_SET("par_cache.entries", entries);
  }
  static std::size_t weight(const Check&) { return 0; }
};

using Cache = ShardedCache<Key, Check, KeyHash, ParCacheTraits, 8>;

Cache& cache() {
  static Cache instance{1u << 12};
  return instance;
}

Key key_of(const NetlistKey& netlist, const PrrPlan& plan,
           const Fabric& fabric, const ParOptions& options) {
  Key key;
  key.netlist = netlist;
  key.fabric_id = fabric.identity();
  key.h = plan.organization.h;
  key.first_col = plan.window.first_col;
  key.width = plan.window.width;
  key.seed = options.seed;
  key.cross_pack_bits = std::bit_cast<u64>(options.pack.cross_pack_efficiency);
  key.anneal_moves = options.place.anneal_moves;
  key.initial_temp_bits = std::bit_cast<u64>(options.place.initial_temp);
  key.skip_anneal = options.place.skip_anneal ? 1 : 0;
  return key;
}

// Snapshot format version 2 payload (version 1 keyed a 64-bit netlist hash):
//   fabric identity table (save_fabric_identities)
//   u64 entry_count
//     { 13 key fields; u32 routed; string failure_reason;
//       u64 placed_cells, hpwl_initial, hpwl_final; f64 critical_path_ns }
//     x entry_count
constexpr u32 kParSnapshotVersion = 2;

}  // namespace

ParCrossCheck cross_check_of(const ParResult& result) {
  ParCrossCheck check;
  check.routed = result.routed;
  check.failure_reason = result.failure_reason;
  check.placed_cells = result.placement.placed_cells;
  check.hpwl_initial = result.placement.hpwl_initial;
  check.hpwl_final = result.placement.hpwl_final;
  check.critical_path_ns = result.placement.critical_path_ns;
  return check;
}

NetlistKey netlist_key(const Netlist& mapped) {
  return NetlistKey{mapped.structural_hash(), mapped.cell_count(),
                    mapped.net_count()};
}

ParCrossCheck par_cross_check(const NetlistKey& netlist,
                              const std::function<Netlist()>& mapped,
                              const PrrPlan& plan, const Fabric& fabric,
                              const ParOptions& options) {
  const auto run = [&] {
    return cross_check_of(place_and_route(mapped(), plan, fabric, options));
  };
  if (!plan_cache_enabled()) return run();
  const Key key = key_of(netlist, plan, fabric, options);
  if (const Check check = cache().lookup(key)) return *check;
  return *cache().insert(key, std::make_shared<const ParCrossCheck>(run()));
}

std::size_t par_cache_save(const std::string& path) {
  SnapshotWriter out;
  save_fabric_identities(out);
  const auto resident = cache().resident();
  out.put_u64(resident.size());
  for (const auto& [key, check] : resident) {
    out.put_u64(key.netlist.hash.lo);
    out.put_u64(key.netlist.hash.hi);
    out.put_u32(key.netlist.cells);
    out.put_u32(key.netlist.nets);
    out.put_u64(key.fabric_id);
    out.put_u32(key.h);
    out.put_u32(key.first_col);
    out.put_u32(key.width);
    out.put_u64(key.seed);
    out.put_u64(key.cross_pack_bits);
    out.put_u32(key.anneal_moves);
    out.put_u64(key.initial_temp_bits);
    out.put_u32(key.skip_anneal);
    out.put_u32(check->routed ? 1 : 0);
    out.put_string(check->failure_reason);
    out.put_u64(check->placed_cells);
    out.put_u64(check->hpwl_initial);
    out.put_u64(check->hpwl_final);
    out.put_f64(check->critical_path_ns);
  }
  out.write(path, kParSnapshotVersion);
  return resident.size();
}

std::size_t par_cache_load(const std::string& path) {
  SnapshotReader in{path, kParSnapshotVersion};
  const std::unordered_map<u64, u64> translate =
      load_fabric_identities(in, path);
  return cache().load([&](auto& loaded) {
    const u64 entry_count = in.get_u64();
    loaded.reserve(std::min<u64>(entry_count, 1u << 16));
    for (u64 i = 0; i < entry_count; ++i) {
      Key key;
      key.netlist.hash.lo = in.get_u64();
      key.netlist.hash.hi = in.get_u64();
      key.netlist.cells = in.get_u32();
      key.netlist.nets = in.get_u32();
      const auto mapped = translate.find(in.get_u64());
      if (mapped == translate.end()) {
        throw ParseError{"snapshot '" + path + "': unknown fabric id"};
      }
      key.fabric_id = mapped->second;
      key.h = in.get_u32();
      key.first_col = in.get_u32();
      key.width = in.get_u32();
      key.seed = in.get_u64();
      key.cross_pack_bits = in.get_u64();
      key.anneal_moves = in.get_u32();
      key.initial_temp_bits = in.get_u64();
      key.skip_anneal = in.get_u32();
      auto check = std::make_shared<ParCrossCheck>();
      check->routed = in.get_u32() != 0;
      check->failure_reason = in.get_string();
      check->placed_cells = in.get_u64();
      check->hpwl_initial = in.get_u64();
      check->hpwl_final = in.get_u64();
      check->critical_path_ns = in.get_f64();
      loaded.emplace_back(key, std::move(check));
    }
    if (in.remaining() != 0) {
      throw ParseError{"snapshot '" + path + "': trailing bytes"};
    }
  });
}

void par_cache_clear() { cache().clear(); }

ParCacheStats par_cache_stats() {
  const ShardedCacheStats stats = cache().stats();
  return {stats.hits, stats.misses, stats.evictions, stats.entries};
}

}  // namespace prcost
