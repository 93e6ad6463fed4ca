#include "cost/plan_cache.hpp"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <utility>

#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/sharded_cache.hpp"
#include "util/snapshot.hpp"

namespace prcost {
namespace {

std::atomic<bool> g_enabled{true};

/// What a cache entry memoizes: a find_prr result, a candidate list, or a
/// widened (superset-window) candidate list - discriminated by Key::kind,
/// never more than one per entry.
enum class EntryKind : u32 { kFindPrr, kCandidates, kWidened };

struct Key {
  u64 fabric_id = 0;
  PrmRequirements req;
  u32 max_height = 0;  ///< SearchOptions::max_height (0 for candidates)
  u32 objective = 0;
  EntryKind kind = EntryKind::kFindPrr;

  bool operator==(const Key& other) const {
    return fabric_id == other.fabric_id &&
           req.lut_ff_pairs == other.req.lut_ff_pairs &&
           req.luts == other.req.luts && req.ffs == other.req.ffs &&
           req.dsps == other.req.dsps && req.brams == other.req.brams &&
           max_height == other.max_height && objective == other.objective &&
           kind == other.kind;
  }
};

struct KeyHash {
  std::size_t operator()(const Key& key) const noexcept {
    Fnv1a h;
    h.mix(key.fabric_id).mix(key.req.lut_ff_pairs).mix(key.req.luts);
    h.mix(key.req.ffs).mix(key.req.dsps).mix(key.req.brams);
    h.mix(key.max_height).mix(key.objective).mix(static_cast<u64>(key.kind));
    return static_cast<std::size_t>(h.h);
  }
};

struct Entry {
  std::optional<PrrPlan> plan;  // kFindPrr
  std::shared_ptr<const std::vector<PrrPlan>> candidates;  // kCandidates/kWidened
};

struct PlanCacheTraits {
  static void hit() {
    PRCOST_COUNT("plan_cache.hits");
    PRCOST_REQUEST_EVENT(kPlanCacheHit);
  }
  static void miss() {
    PRCOST_COUNT("plan_cache.misses");
    PRCOST_REQUEST_EVENT(kPlanCacheMiss);
  }
  static void evicted() { PRCOST_COUNT("plan_cache.evictions"); }
  static void gauges(std::size_t entries, std::size_t) {
    PRCOST_GAUGE_SET("plan_cache.entries", entries);
  }
  static std::size_t weight(const std::shared_ptr<const Entry>&) { return 0; }
};

using Cache = ShardedCache<Key, std::shared_ptr<const Entry>, KeyHash,
                           PlanCacheTraits, 16>;

Cache& cache() {
  static Cache instance{1u << 16};
  return instance;
}

// ---------------------------------------------------------------------
// Snapshot persistence (plan_cache_save / plan_cache_load).
//
// Format version 1 payload:
//   u64 identity_count
//     { u64 id; u32 family; u32 rows; string pattern } x identity_count
//   u64 entry_count
//     { Key; per-kind body } x entry_count
//
// Keys carry process-local fabric identity ids, so the identity table
// (family, rows, pattern - everything Fabric::identity() interns over)
// travels with the snapshot and keys are re-interned + translated on
// load. PrrPlan is flat scalars, written field-wise (never memcpy'd:
// struct padding would leak indeterminate bytes into the checksum).

constexpr u32 kPlanSnapshotVersion = 1;

void put_plan(SnapshotWriter& out, const PrrPlan& plan) {
  out.put_u32(plan.organization.h);
  out.put_u32(plan.organization.columns.clb_cols);
  out.put_u32(plan.organization.columns.dsp_cols);
  out.put_u32(plan.organization.columns.bram_cols);
  out.put_u32(plan.window.first_col);
  out.put_u32(plan.window.width);
  out.put_u32(plan.first_row);
  out.put_u64(plan.available.clbs);
  out.put_u64(plan.available.ffs);
  out.put_u64(plan.available.luts);
  out.put_u64(plan.available.dsps);
  out.put_u64(plan.available.brams);
  out.put_f64(plan.ru.clb);
  out.put_f64(plan.ru.ff);
  out.put_f64(plan.ru.lut);
  out.put_f64(plan.ru.dsp);
  out.put_f64(plan.ru.bram);
  out.put_u64(plan.bitstream.initial_words);
  out.put_u64(plan.bitstream.config_words_per_row);
  out.put_u64(plan.bitstream.bram_words_per_row);
  out.put_u64(plan.bitstream.final_words);
  out.put_u64(plan.bitstream.rows);
  out.put_u64(plan.bitstream.total_words);
  out.put_u64(plan.bitstream.total_bytes);
  out.put_u64(plan.bitstream.config_frames_per_row);
}

PrrPlan get_plan(SnapshotReader& in) {
  PrrPlan plan;
  plan.organization.h = in.get_u32();
  plan.organization.columns.clb_cols = in.get_u32();
  plan.organization.columns.dsp_cols = in.get_u32();
  plan.organization.columns.bram_cols = in.get_u32();
  plan.window.first_col = in.get_u32();
  plan.window.width = in.get_u32();
  plan.first_row = in.get_u32();
  plan.available.clbs = in.get_u64();
  plan.available.ffs = in.get_u64();
  plan.available.luts = in.get_u64();
  plan.available.dsps = in.get_u64();
  plan.available.brams = in.get_u64();
  plan.ru.clb = in.get_f64();
  plan.ru.ff = in.get_f64();
  plan.ru.lut = in.get_f64();
  plan.ru.dsp = in.get_f64();
  plan.ru.bram = in.get_f64();
  plan.bitstream.initial_words = in.get_u64();
  plan.bitstream.config_words_per_row = in.get_u64();
  plan.bitstream.bram_words_per_row = in.get_u64();
  plan.bitstream.final_words = in.get_u64();
  plan.bitstream.rows = in.get_u64();
  plan.bitstream.total_words = in.get_u64();
  plan.bitstream.total_bytes = in.get_u64();
  plan.bitstream.config_frames_per_row = in.get_u64();
  return plan;
}

}  // namespace

std::size_t plan_cache_save(const std::string& path) {
  SnapshotWriter out;
  save_fabric_identities(out);
  const auto resident = cache().resident();
  out.put_u64(resident.size());
  for (const auto& [key, entry] : resident) {
    out.put_u64(key.fabric_id);
    out.put_u64(key.req.lut_ff_pairs);
    out.put_u64(key.req.luts);
    out.put_u64(key.req.ffs);
    out.put_u64(key.req.dsps);
    out.put_u64(key.req.brams);
    out.put_u32(key.max_height);
    out.put_u32(key.objective);
    out.put_u32(static_cast<u32>(key.kind));
    if (key.kind == EntryKind::kFindPrr) {
      out.put_u32(entry->plan.has_value() ? 1 : 0);
      if (entry->plan.has_value()) put_plan(out, *entry->plan);
    } else {
      const auto& candidates = *entry->candidates;
      out.put_u64(candidates.size());
      for (const PrrPlan& plan : candidates) put_plan(out, plan);
    }
  }
  out.write(path, kPlanSnapshotVersion);
  return resident.size();
}

std::size_t plan_cache_load(const std::string& path) {
  SnapshotReader in{path, kPlanSnapshotVersion};
  const std::unordered_map<u64, u64> translate =
      load_fabric_identities(in, path);
  return cache().load([&](auto& loaded) {
    const u64 entry_count = in.get_u64();
    // Bound the reserve: a crafted count larger than the payload could
    // otherwise throw bad_alloc instead of the underrun ParseError below.
    loaded.reserve(std::min<u64>(entry_count, 1u << 16));
    for (u64 i = 0; i < entry_count; ++i) {
      Key key;
      const auto mapped = translate.find(in.get_u64());
      if (mapped == translate.end()) {
        throw ParseError{"snapshot '" + path + "': unknown fabric id"};
      }
      key.fabric_id = mapped->second;
      key.req.lut_ff_pairs = in.get_u64();
      key.req.luts = in.get_u64();
      key.req.ffs = in.get_u64();
      key.req.dsps = in.get_u64();
      key.req.brams = in.get_u64();
      key.max_height = in.get_u32();
      key.objective = in.get_u32();
      const u32 kind = in.get_u32();
      if (kind > static_cast<u32>(EntryKind::kWidened)) {
        throw ParseError{"snapshot '" + path + "': invalid entry kind"};
      }
      key.kind = static_cast<EntryKind>(kind);
      auto entry = std::make_shared<Entry>();
      if (key.kind == EntryKind::kFindPrr) {
        if (in.get_u32() != 0) entry->plan = get_plan(in);
      } else {
        const u64 plan_count = in.get_u64();
        std::vector<PrrPlan> plans;
        plans.reserve(std::min<u64>(plan_count, 1u << 16));
        for (u64 j = 0; j < plan_count; ++j) plans.push_back(get_plan(in));
        entry->candidates =
            std::make_shared<const std::vector<PrrPlan>>(std::move(plans));
      }
      loaded.emplace_back(key, std::move(entry));
    }
    if (in.remaining() != 0) {
      throw ParseError{"snapshot '" + path + "': trailing bytes"};
    }
  });
}

bool plan_cache_enabled() noexcept {
  return g_enabled.load(std::memory_order_relaxed);
}

void set_plan_cache_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

std::optional<PrrPlan> find_prr_cached(const PrmRequirements& req,
                                       const Fabric& fabric,
                                       const SearchOptions& options) {
  Key key;
  key.fabric_id = fabric.identity();
  key.req = req;
  key.max_height = options.max_height;
  key.objective = static_cast<u32>(options.objective);
  key.kind = EntryKind::kFindPrr;
  if (const auto entry = cache().lookup(key)) return entry->plan;
  auto entry = std::make_shared<Entry>();
  entry->plan = find_prr_uncached(req, fabric, options);
  return cache().insert(key, std::move(entry))->plan;
}

std::shared_ptr<const std::vector<PrrPlan>> placement_candidates(
    const PrmRequirements& req, const Fabric& fabric,
    SearchObjective objective) {
  if (!plan_cache_enabled()) {
    return std::make_shared<const std::vector<PrrPlan>>(
        placement_candidates_uncached(req, fabric, objective));
  }
  Key key;
  key.fabric_id = fabric.identity();
  key.req = req;
  key.objective = static_cast<u32>(objective);
  key.kind = EntryKind::kCandidates;
  if (const auto entry = cache().lookup(key)) {
    return entry->candidates;
  }
  auto entry = std::make_shared<Entry>();
  entry->candidates = std::make_shared<const std::vector<PrrPlan>>(
      placement_candidates_uncached(req, fabric, objective));
  return cache().insert(key, std::move(entry))->candidates;
}

std::shared_ptr<const std::vector<PrrPlan>> widened_candidates(
    const PrmRequirements& req, const Fabric& fabric,
    SearchObjective objective) {
  if (!plan_cache_enabled()) {
    return std::make_shared<const std::vector<PrrPlan>>(widen_candidates(
        placement_candidates_uncached(req, fabric, objective), req, fabric));
  }
  Key key;
  key.fabric_id = fabric.identity();
  key.req = req;
  key.objective = static_cast<u32>(objective);
  key.kind = EntryKind::kWidened;
  if (const auto entry = cache().lookup(key)) {
    return entry->candidates;
  }
  auto entry = std::make_shared<Entry>();
  entry->candidates = std::make_shared<const std::vector<PrrPlan>>(
      widen_candidates(*placement_candidates(req, fabric, objective), req,
                       fabric));
  return cache().insert(key, std::move(entry))->candidates;
}

void plan_cache_clear() { cache().clear(); }

PlanCacheStats plan_cache_stats() {
  const ShardedCacheStats stats = cache().stats();
  return {stats.hits, stats.misses, stats.evictions, stats.entries};
}

void set_plan_cache_capacity(std::size_t max_entries) {
  cache().set_capacity(max_entries);
}

}  // namespace prcost
