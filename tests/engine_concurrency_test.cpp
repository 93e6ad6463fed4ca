// Concurrent-Engine stress: N threads issuing mixed plan / explore /
// bitstream / optimize requests against ONE shared Engine - the exact
// shape the serve daemon produces when its dispatcher fans a batch over
// the pool while the caches, interners, and obs registry are shared. Run
// under the TSan CI job, this is the data-race net for the whole warm-path
// stack (plan cache, bitstream cache, fabric interning, metrics).
//
// Consistency matters as much as absence of crashes: every thread's
// responses must be identical to a single-threaded reference dispatch of
// the same requests (caches may reorder who computes, never what).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/batch.hpp"
#include "api/engine.hpp"
#include "par/par_cache.hpp"
#include "util/json.hpp"

namespace prcost {
namespace {

std::vector<std::string> mixed_requests() {
  return {
      R"({"op":"plan","device":"xc5vlx110t","prm":"fir","cross_check":false})",
      R"({"op":"bitstream","device":"xc5vlx110t","prm":"uart"})",
      R"({"op":"plan","device":"xc6vlx240t","prm":"sdram","cross_check":false})",
      R"({"op":"explore","device":"xc6vlx240t","prms":["fir","uart"],"workers":1})",
      R"({"op":"bitstream","device":"xc5vlx110t","prm":"fir"})",
      R"({"op":"optimize","device":"xc6vlx240t","prms":["fir","uart"],"rounds":1,"proposals_per_round":2,"seed":11,"workers":1})",
      R"({"op":"plan","device":"xc5vlx110t","prm":"crc32","cross_check":false})",
      R"({"op":"ping"})",
  };
}

TEST(EngineConcurrency, MixedOpsAgainstOneEngineAreRaceFreeAndConsistent) {
  const api::Engine engine;
  const std::vector<std::string> requests = mixed_requests();

  // Single-threaded reference answers (also warms both caches, so the
  // concurrent phase exercises the hit paths).
  std::vector<std::string> expected;
  expected.reserve(requests.size());
  for (const std::string& line : requests) {
    expected.push_back(api::dispatch_line(engine, line).dump());
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 6;
  std::vector<std::vector<std::string>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Offset start index per thread so different ops overlap in time.
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < requests.size(); ++i) {
          const std::size_t at =
              (static_cast<std::size_t>(t) + i) % requests.size();
          got[static_cast<std::size_t>(t)].push_back(
              api::dispatch_line(engine, requests[at]).dump() + "@" +
              std::to_string(at));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    for (const std::string& tagged : got[static_cast<std::size_t>(t)]) {
      const auto sep = tagged.rfind('@');
      const std::size_t at = std::stoul(tagged.substr(sep + 1));
      EXPECT_EQ(tagged.substr(0, sep), expected[at])
          << "thread " << t << " diverged on request " << at;
    }
  }
}

TEST(EngineConcurrency, ColdCachesUnderConcurrencyStayConsistent) {
  // A fresh engine per run: many threads race to fill the caches from
  // cold (first-writer-wins insertion paths), then results must agree.
  const api::Engine engine;
  const std::vector<std::string> requests = {
      R"({"op":"plan","device":"xc6vlx75t","prm":"mips","cross_check":false})",
      R"({"op":"bitstream","device":"xc6vlx75t","prm":"mips"})",
  };

  constexpr int kThreads = 8;
  std::vector<std::vector<std::string>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const std::string& line : requests) {
        got[static_cast<std::size_t>(t)].push_back(
            api::dispatch_line(engine, line).dump());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<std::size_t>(t)], got[0])
        << "thread " << t << " disagrees with thread 0";
  }
}

TEST(EngineConcurrency, ParallelBatchOfRepeatedCrossChecksAgrees) {
  // Three cross-checked plans, twice, in one window over 4 workers: the
  // repeats race their first runs into the PAR memo (first writer wins),
  // and every answer must equal a single-worker run's.
  const std::string lines =
      R"({"op":"plan","device":"xc5vlx110t","prm":"fir"})"
      "\n"
      R"({"op":"plan","device":"xc6vlx75t","prm":"sdram"})"
      "\n"
      R"({"op":"plan","device":"xc7k325t","prm":"uart"})"
      "\n";
  const auto run = [&](std::size_t workers) {
    std::istringstream in{lines + lines};
    std::ostringstream out;
    api::BatchOptions options;
    options.workers = workers;
    api::run_batch(api::Engine{}, in, out, options);
    return out.str();
  };
  par_cache_clear();
  const std::string serial = run(1);
  EXPECT_EQ(par_cache_stats().entries, 3u);
  par_cache_clear();
  const std::string parallel = run(4);
  EXPECT_EQ(parallel, serial);
  EXPECT_EQ(par_cache_stats().entries, 3u);
  EXPECT_NE(serial.find(R"("par":{"routed":true)"), std::string::npos);
}

}  // namespace
}  // namespace prcost
