// Process-wide memoization of the PAR cross-check.
//
// A default `plan` request checks its PRR the way the paper's Table VI
// flow does: implement the PRM in it and read the post-PAR counts. That
// run of place_and_route dominates the request (tens of ms to ~0.6 s),
// yet it is seeded and deterministic: a pure function of the mapped
// netlist, the fabric, the PRR window and ParOptions. This cache keys on
// exactly those inputs and memoizes only the summary a response carries
// (ParCrossCheck), never the placement map, so a hit is exact and an
// entry is a few dozen bytes.
//
// Like the plan cache it is sharded, bounded and first-writer-wins
// (util/sharded_cache.hpp), with counters "par_cache.hits" / ".misses" /
// ".evictions" and the "par_cache.entries" gauge. It is switched with the
// plan cache (plan_cache_enabled(), the CLI's --no-plan-cache): with it
// off every cross-check runs PAR. The "par.runs" counter counts real PAR
// executions only, so a hit leaves it alone.
#pragma once

#include <functional>
#include <string>

#include "par/par.hpp"

namespace prcost {

/// What a PAR cross-check reports: the response's `par` block.
struct ParCrossCheck {
  bool routed = false;
  std::string failure_reason;
  u64 placed_cells = 0;
  u64 hpwl_initial = 0;
  u64 hpwl_final = 0;
  double critical_path_ns = 0;
};

/// The cross-check summary of one place_and_route result.
ParCrossCheck cross_check_of(const ParResult& result);

/// A mapped netlist as the cache keys it: Netlist::structural_hash() of
/// the netlist PAR receives (before its implementation passes rewrite
/// it), plus its cell and net counts.
struct NetlistKey {
  Hash128 hash;
  u32 cells = 0;
  u32 nets = 0;

  bool operator==(const NetlistKey&) const = default;
};

NetlistKey netlist_key(const Netlist& mapped);

/// Point-in-time cache counters (process lifetime, not reset by clear()).
struct ParCacheStats {
  u64 hits = 0;
  u64 misses = 0;
  u64 evictions = 0;
  u64 entries = 0;
};

/// Memoized cross_check_of(place_and_route(mapped(), plan, fabric,
/// options)). `netlist` must be netlist_key of what `mapped` returns;
/// `mapped` is called only when PAR actually runs (a miss, or the cache
/// off), so a caller holding just the key skips building the netlist on a
/// hit.
ParCrossCheck par_cross_check(const NetlistKey& netlist,
                              const std::function<Netlist()>& mapped,
                              const PrrPlan& plan, const Fabric& fabric,
                              const ParOptions& options = {});

/// Persist every resident entry, with the fabric-identity table its keys
/// need, as a versioned, checksummed snapshot (util/snapshot.hpp).
/// Returns the entries written. Throws IoError when the file cannot be
/// written.
std::size_t par_cache_save(const std::string& path);

/// Restore entries written by par_cache_save, re-interning fabric
/// identities. Throws IoError when the file cannot be opened and
/// ParseError on any corruption; either way the cache is left unchanged.
/// Returns the entries restored.
std::size_t par_cache_load(const std::string& path);

/// Drop every entry (stats survive). For tests and cold-cache timings.
void par_cache_clear();

ParCacheStats par_cache_stats();

}  // namespace prcost
