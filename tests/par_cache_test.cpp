// PAR cross-check memo: a hit equals a fresh place_and_route on every
// feasible built-in (device, PRM) pair, and changing anything PAR reads -
// one netlist cell, the PRR window, the fabric, any ParOptions field -
// changes the key, so a stale answer is never served.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/requests.hpp"
#include "cost/plan_cache.hpp"
#include "device/device_db.hpp"
#include "par/par_cache.hpp"
#include "synth/synthesizer.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace prcost {
namespace {

using Pair = std::pair<std::string, std::string>;

// The device catalog, and the 10 (device, built-in PRM) pairs on which no
// PRR fits (matmul or fft on a device without the DSP or BRAM columns).
const std::vector<std::string> kDevices = {
    "xc5vlx110t",
    "xc6vlx75t",
    "xc4vlx60",
    "xc5vlx50t",
    "xc6vlx240t",
    "xc7k325t",
    "xc6slx45",
};
const std::set<Pair> kInfeasible = {
    {"xc5vlx110t", "matmul"},
    {"xc5vlx110t", "fft"},
    {"xc4vlx60", "matmul"},
    {"xc4vlx60", "fft"},
    {"xc5vlx50t", "matmul"},
    {"xc5vlx50t", "fft"},
    {"xc6vlx240t", "matmul"},
    {"xc6vlx240t", "fft"},
    {"xc7k325t", "fft"},
    {"xc6slx45", "matmul"},
};

std::vector<Pair> feasible_pairs() {
  std::vector<Pair> pairs;
  for (const std::string& device : kDevices) {
    for (const std::string& prm : api::builtin_prm_names()) {
      if (!kInfeasible.contains({device, prm})) pairs.emplace_back(device, prm);
    }
  }
  return pairs;
}

/// A built-in PRM synthesized for a device, with its default plan.
struct Mapped {
  const Fabric& fabric;
  Netlist netlist;
  std::optional<PrrPlan> plan;
};

Mapped mapped_on(const std::string& device, const std::string& prm) {
  const Fabric& fabric = DeviceDb::instance().get(device).fabric;
  SynthesisResult synth =
      synthesize(api::make_builtin_prm(prm), SynthOptions{fabric.family()});
  const auto plan = find_prr_uncached(
      PrmRequirements::from_report(synth.report), fabric, SearchOptions{});
  return Mapped{fabric, std::move(synth.netlist), plan};
}

CellId first_lut(const Netlist& netlist) {
  for (const CellId id : netlist.live_cells()) {
    if (netlist.cell(id).kind == CellKind::kLut) return id;
  }
  throw ContractError{"netlist has no LUT"};
}

void expect_check_eq(const ParCrossCheck& a, const ParCrossCheck& b) {
  EXPECT_EQ(a.routed, b.routed);
  EXPECT_EQ(a.failure_reason, b.failure_reason);
  EXPECT_EQ(a.placed_cells, b.placed_cells);
  EXPECT_EQ(a.hpwl_initial, b.hpwl_initial);
  EXPECT_EQ(a.hpwl_final, b.hpwl_final);
  EXPECT_EQ(std::bit_cast<u64>(a.critical_path_ns),
            std::bit_cast<u64>(b.critical_path_ns));
}

/// Restores the global switch and starts each test from a cold memo.
class ParCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = plan_cache_enabled();
    set_plan_cache_enabled(true);
    par_cache_clear();
  }
  void TearDown() override {
    set_plan_cache_enabled(was_enabled_);
    par_cache_clear();
  }

 private:
  bool was_enabled_ = true;
};

class ParCacheProperty : public ParCacheTest,
                         public ::testing::WithParamInterface<Pair> {};

TEST_P(ParCacheProperty, CachedCheckEqualsFreshPlaceAndRoute) {
  const auto& [device, prm] = GetParam();
  const Mapped m = mapped_on(device, prm);
  ASSERT_TRUE(m.plan.has_value()) << device << "/" << prm;
  const NetlistKey key = netlist_key(m.netlist);

  const ParCrossCheck fresh =
      cross_check_of(place_and_route(m.netlist, *m.plan, m.fabric));
  const ParCrossCheck miss = par_cross_check(
      key, [&] { return m.netlist; }, *m.plan, m.fabric);
  const ParCrossCheck hit = par_cross_check(
      key,
      [&] {
        ADD_FAILURE() << "a hit must not build the netlist";
        return m.netlist;
      },
      *m.plan, m.fabric);
  expect_check_eq(miss, fresh);
  expect_check_eq(hit, fresh);
  const ParCacheStats stats = par_cache_stats();
  EXPECT_EQ(stats.entries, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    FeasiblePairs, ParCacheProperty, ::testing::ValuesIn(feasible_pairs()),
    [](const ::testing::TestParamInfo<Pair>& param) {
      return param.param.first + "_" + param.param.second;
    });

TEST_F(ParCacheTest, FeasiblePairsAreExactlyThoseWithAPrr) {
  std::size_t feasible = 0;
  for (const std::string& device : kDevices) {
    for (const std::string& prm : api::builtin_prm_names()) {
      const bool has_plan = mapped_on(device, prm).plan.has_value();
      EXPECT_EQ(has_plan, !kInfeasible.contains({device, prm}))
          << device << "/" << prm;
      feasible += has_plan ? 1 : 0;
    }
  }
  EXPECT_EQ(feasible, 53u);
  EXPECT_EQ(feasible_pairs().size(), 53u);
}

TEST_F(ParCacheTest, NetlistKeyFollowsStructureNotNames) {
  Mapped m = mapped_on("xc5vlx110t", "uart");
  const NetlistKey base = netlist_key(m.netlist);
  EXPECT_EQ(netlist_key(m.netlist), base);  // deterministic

  Cell& cell = m.netlist.cell_mut(first_lut(m.netlist));
  cell.name += "_renamed";
  EXPECT_EQ(netlist_key(m.netlist), base);  // names are not read by PAR
  cell.param0 ^= 1;                          // one truth-table bit
  EXPECT_NE(netlist_key(m.netlist).hash, base.hash);
}

// Two free consecutive words (a cell's param0 and param1) collide in one
// FNV-1a lane: the second xors away the difference the first made. The
// netlist digest must not fall to that.
TEST(NetlistDigest, ResistsTheTwoWordFnvCollision) {
  constexpr u64 kPrime = 1099511628211ull;
  const u64 start = Fnv1a{}.h;
  const u64 a = 0x1234, b = 0x5678, a2 = 0xabcd;
  const u64 b2 = b ^ ((start ^ a) * kPrime) ^ ((start ^ a2) * kPrime);
  ASSERT_EQ(Fnv1a{}.mix(a).mix(b).h, Fnv1a{}.mix(a2).mix(b2).h);
  EXPECT_NE(Hash128{}.mix(a).mix(b), Hash128{}.mix(a2).mix(b2));
}

TEST_F(ParCacheTest, ChangingAnythingParReadsMisses) {
  const Mapped m = mapped_on("xc5vlx50t", "uart");
  ASSERT_TRUE(m.plan.has_value());
  const NetlistKey key = netlist_key(m.netlist);
  // Same columns, one more row: a distinct fabric identity.
  const Fabric other_fabric{m.fabric.family(), m.fabric.pattern(),
                            m.fabric.rows() + 1};

  Netlist edited = m.netlist;
  edited.cell_mut(first_lut(edited)).param0 ^= 1;

  // Other placeable windows: the same composition elsewhere, and one
  // column wider from the same first column.
  const ColumnWindow window = m.plan->window;
  const ColumnDemand composition = m.fabric.window_composition(window);
  const std::vector<ColumnWindow> same = m.fabric.find_all_windows(composition);
  const std::vector<ColumnWindow> wide =
      m.fabric.find_all_windows_superset(composition, window.width + 1);
  const auto moved = std::ranges::find_if(same, [&](const ColumnWindow& w) {
    return w.first_col != window.first_col;
  });
  const auto widened = std::ranges::find_if(wide, [&](const ColumnWindow& w) {
    return w.first_col == window.first_col;
  });
  ASSERT_NE(moved, same.end());
  ASSERT_NE(widened, wide.end());
  PrrPlan shifted = *m.plan;
  PrrPlan wider = *m.plan;
  PrrPlan taller = *m.plan;
  shifted.window.first_col = moved->first_col;
  wider.window.width = widened->width;
  taller.organization.h += 1;

  struct Variant {
    const char* what;
    NetlistKey netlist;
    const Netlist* mapped;
    const PrrPlan* plan;
    const Fabric* fabric;
    ParOptions options;
  };
  const auto with = [](auto edit) {
    ParOptions options;
    edit(options);
    return options;
  };
  const std::vector<Variant> variants = {
      {"base", key, &m.netlist, &*m.plan, &m.fabric, {}},
      {"one cell", netlist_key(edited), &edited, &*m.plan, &m.fabric, {}},
      {"window column", key, &m.netlist, &shifted, &m.fabric, {}},
      {"window width", key, &m.netlist, &wider, &m.fabric, {}},
      {"height", key, &m.netlist, &taller, &m.fabric, {}},
      {"fabric", key, &m.netlist, &*m.plan, &other_fabric, {}},
      {"seed", key, &m.netlist, &*m.plan, &m.fabric,
       with([](ParOptions& o) { o.seed = 2; })},
      {"cross-pack", key, &m.netlist, &*m.plan, &m.fabric,
       with([](ParOptions& o) { o.pack.cross_pack_efficiency = 0.5; })},
      {"anneal moves", key, &m.netlist, &*m.plan, &m.fabric,
       with([](ParOptions& o) { o.place.anneal_moves = 64; })},
      {"initial temp", key, &m.netlist, &*m.plan, &m.fabric,
       with([](ParOptions& o) { o.place.initial_temp = 2.0; })},
      {"skip anneal", key, &m.netlist, &*m.plan, &m.fabric,
       with([](ParOptions& o) { o.place.skip_anneal = true; })},
  };
  for (const Variant& v : variants) {
    const ParCacheStats before = par_cache_stats();
    const ParCrossCheck cached = par_cross_check(
        v.netlist, [&] { return *v.mapped; }, *v.plan, *v.fabric, v.options);
    const ParCacheStats after = par_cache_stats();
    EXPECT_EQ(after.misses, before.misses + 1) << v.what;
    EXPECT_EQ(after.hits, before.hits) << v.what;
    expect_check_eq(cached, cross_check_of(place_and_route(
                                *v.mapped, *v.plan, *v.fabric, v.options)));
  }
  EXPECT_EQ(par_cache_stats().entries, variants.size());

  // Each variant now answers from its own entry.
  for (const Variant& v : variants) {
    const u64 hits = par_cache_stats().hits;
    par_cross_check(
        v.netlist,
        [&] {
          ADD_FAILURE() << v.what << ": a hit must not build the netlist";
          return *v.mapped;
        },
        *v.plan, *v.fabric, v.options);
    EXPECT_EQ(par_cache_stats().hits, hits + 1) << v.what;
  }
}

TEST_F(ParCacheTest, DisabledWithThePlanCacheRunsParEveryTime) {
  const Mapped m = mapped_on("xc5vlx110t", "uart");
  ASSERT_TRUE(m.plan.has_value());
  set_plan_cache_enabled(false);
  const ParCacheStats before = par_cache_stats();
  int built = 0;
  const auto mapped = [&] {
    ++built;
    return m.netlist;
  };
  const ParCrossCheck a =
      par_cross_check(netlist_key(m.netlist), mapped, *m.plan, m.fabric);
  const ParCrossCheck b =
      par_cross_check(netlist_key(m.netlist), mapped, *m.plan, m.fabric);
  EXPECT_EQ(built, 2);
  expect_check_eq(a, b);
  const ParCacheStats after = par_cache_stats();
  EXPECT_EQ(after.entries, 0u);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
}

}  // namespace
}  // namespace prcost
