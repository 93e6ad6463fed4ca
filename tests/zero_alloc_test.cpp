// Zero-allocation enforcement for the warm request path.
//
// The operator-new replacement in obs/request_stats.cpp counts every heap
// allocation made while a request scope is live; these tests pin the
// steady-state contract: once the process caches are warm (plan cache,
// bitstream cache, builtin-requirements memo, scratch arena, trace rings),
// a repeated plan or bitstream request performs ZERO heap allocations.
// Any regression — a std::map rebuilt per request, a vector copied out of
// a cache, a string that outgrew SSO — shows up here as a nonzero count.
#include <gtest/gtest.h>

#include "api/engine.hpp"
#include "api/requests.hpp"
#include "util/arena.hpp"

namespace prcost {
namespace {

api::Engine stats_engine() {
  api::Engine::Options options;
  options.collect_stats = true;
  return api::Engine{options};
}

TEST(ZeroAlloc, WarmPlanRequestAllocatesNothing) {
  const api::Engine engine = stats_engine();
  api::PlanRequest request;
  request.device = "xc5vlx110t";
  request.source.prm = "fir";
  // The cross-check flow re-synthesizes and re-runs PAR by design; the
  // zero-alloc contract covers the cached model path.
  request.cross_check = false;

  // Cold pass fills the plan cache and the builtin-requirements memo (and
  // is expected to allocate); one more pass absorbs any remaining lazy
  // per-thread initialization (trace ring, metrics sites).
  const api::PlanResponse cold = engine.plan(request);
  ASSERT_TRUE(cold.stats.has_value());
  EXPECT_GT(cold.stats->allocations, 0u);
  engine.plan(request);

  const api::PlanResponse warm = engine.plan(request);
  ASSERT_TRUE(warm.stats.has_value());
  EXPECT_EQ(warm.stats->allocations, 0u);
  EXPECT_GE(warm.stats->plan_cache_hits, 1u);
  EXPECT_EQ(warm.stats->plan_cache_misses, 0u);
  // Warm answers are identical to cold ones.
  EXPECT_EQ(warm.plan.organization.h, cold.plan.organization.h);
  EXPECT_EQ(warm.plan.bitstream.total_words, cold.plan.bitstream.total_words);
}

TEST(ZeroAlloc, WarmBitstreamRequestAllocatesNothing) {
  const api::Engine engine = stats_engine();
  api::BitstreamRequest request;
  request.device = "xc5vlx110t";
  request.source.prm = "uart";

  const api::BitstreamResponse cold = engine.bitstream(request);
  ASSERT_TRUE(cold.words != nullptr);
  engine.bitstream(request);

  const api::BitstreamResponse warm = engine.bitstream(request);
  ASSERT_TRUE(warm.stats.has_value());
  EXPECT_EQ(warm.stats->allocations, 0u);
  EXPECT_GE(warm.stats->bitstream_cache_hits, 1u);
  // The warm response shares the cached words (same vector, not a copy).
  ASSERT_TRUE(warm.words != nullptr);
  EXPECT_EQ(warm.words.get(), cold.words.get());
  EXPECT_EQ(*warm.words, *cold.words);
  EXPECT_EQ(warm.total_bytes, cold.total_bytes);
}

TEST(ZeroAlloc, DistinctWarmRequestsStayAtZero) {
  // Zero-alloc must hold per requirement set, not just for one pet input.
  const api::Engine engine = stats_engine();
  for (const char* prm : {"fir", "uart", "crc32"}) {
    api::PlanRequest request;
    request.device = "xc5vlx50t";
    request.source.prm = prm;
    request.cross_check = false;
    engine.plan(request);
    engine.plan(request);
    const api::PlanResponse warm = engine.plan(request);
    ASSERT_TRUE(warm.stats.has_value());
    EXPECT_EQ(warm.stats->allocations, 0u) << prm;
  }
}

TEST(ZeroAlloc, PlanLineDecodeAllocatesNothing) {
  // The online-query plan line: every timed daemon request is decoded
  // through the plan or bitstream field table. Zero is the count measured
  // before the table-driven decoder replaced the hand-written one; a "did
  // you mean" hint may only be built on the error path.
  const Json line = Json::parse(
      R"({"op":"plan","device":"xc5vlx110t","prm":"fir","objective":"area",)"
      R"("cross_check":false,"id":"q0-1"})");
  api::plan_request_from_json(line);
  const obs::RequestScope scope{true};
  const api::PlanRequest request = api::plan_request_from_json(line);
  EXPECT_EQ(scope.finish()->allocations, 0u);
  EXPECT_FALSE(request.cross_check);
}

TEST(ZeroAlloc, ArenaRetainsCapacityAcrossScopes) {
  Arena arena{1024};
  std::size_t grown = 0;
  {
    const auto marker = arena.mark();
    for (int i = 0; i < 100; ++i) arena.allocate(128, 8);
    grown = arena.capacity();
    EXPECT_GT(grown, 0u);
    arena.rewind(marker);
  }
  // A second identical pass reuses the retained chunks: no growth.
  {
    const auto marker = arena.mark();
    for (int i = 0; i < 100; ++i) arena.allocate(128, 8);
    EXPECT_EQ(arena.capacity(), grown);
    arena.rewind(marker);
  }
}

TEST(ZeroAlloc, ArenaAlignsAndNests) {
  Arena arena{256};
  void* a = arena.allocate(3, 1);
  void* b = arena.allocate(8, 64);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 64, 0u);
  EXPECT_NE(a, b);
  const auto outer = arena.mark();
  void* c = arena.allocate(1000, 8);  // forces a second chunk
  EXPECT_NE(c, nullptr);
  {
    const auto inner = arena.mark();
    arena.allocate(5000, 8);
    arena.rewind(inner);
  }
  arena.rewind(outer);
  // After rewinding, the same request lands back on retained memory.
  void* c2 = arena.allocate(1000, 8);
  EXPECT_EQ(c, c2);
}

}  // namespace
}  // namespace prcost
