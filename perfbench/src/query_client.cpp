// Closed-loop load generator and answer checker for a `prcost serve` daemon.
//
//   query_client --socket PATH --requests FILE --seconds S --seed N
//                --server-pid PID
//
// Every line of FILE is one distinct warm query. Before timing, the client
// answers each line with an in-process api::Engine whose plan and bitstream
// caches are off; that is the reference. The timed phase then runs
// kConnections connections, each sending whole rounds of the lines in its
// own seeded order, one request at a time (a runtime scheduler waits for
// each cost answer, so the loop is closed). Every response must equal the
// reference byte for byte. The daemon's CPU over the timed phase comes
// from /proc/PID/stat. One JSON object goes to stdout.
//
// Throughput, p50 and p90 are each the median over the timed phase's whole
// one-second windows of that window's figure. The host's CPU steal comes in
// bursts of seconds that slow the closed loop while they last; the median
// over windows stays with the host's steady state where a figure over the
// whole phase follows the bursts.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "api/batch.hpp"
#include "api/engine.hpp"
#include "serve/client.hpp"
#include "util/json.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Closed-loop connections: a small fixed number, each waiting for its
/// answer as a runtime scheduler does.
constexpr unsigned kConnections = 2;

struct Args {
  std::string socket;
  std::string requests;
  double seconds = 10;
  unsigned long long seed = 1;
  long server_pid = 0;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--socket") {
      args.socket = value;
    } else if (key == "--requests") {
      args.requests = value;
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--server-pid") {
      args.server_pid = std::stol(value);
    } else {
      throw std::runtime_error{"unknown flag " + key};
    }
  }
  if (args.socket.empty() || args.requests.empty()) {
    throw std::runtime_error{"need --socket and --requests"};
  }
  return args;
}

/// User + system CPU seconds of a whole process (all threads).
double process_cpu_s(long pid) {
  std::ifstream in{"/proc/" + std::to_string(pid) + "/stat"};
  std::string text{std::istreambuf_iterator<char>{in}, {}};
  const auto paren = text.rfind(')');
  if (paren == std::string::npos) throw std::runtime_error{"bad /proc stat"};
  std::istringstream fields{text.substr(paren + 2)};
  std::string field;
  // Fields after the command name start at 3 (state); utime is 14.
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int index = 3; fields >> field; ++index) {
    if (index == 14) utime = std::stoull(field);
    if (index == 15) {
      stime = std::stoull(field);
      break;
    }
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Nearest-rank percentile of an unsorted sample (reorders it).
double percentile(std::vector<double>& sample, double p) {
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sample.size() - 1) + 0.5);
  std::nth_element(sample.begin(),
                   sample.begin() + static_cast<std::ptrdiff_t>(rank),
                   sample.end());
  return sample[rank];
}

constexpr auto kWindow = std::chrono::seconds{1};

struct ConnResult {
  /// Latencies of the requests completed in each one-second window.
  std::vector<std::vector<double>> window_latency_us;
  unsigned long long requests = 0;
  unsigned long long failed = 0;      ///< error envelopes
  unsigned long long mismatched = 0;  ///< answers unlike the reference
  std::string first_bad;
  std::string error;                  ///< transport failure, if any
};

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);

    std::vector<std::string> lines;
    {
      std::ifstream in{args.requests};
      if (!in) throw std::runtime_error{"cannot open " + args.requests};
      for (std::string line; std::getline(in, line);) {
        if (!line.empty()) lines.push_back(line);
      }
    }
    if (lines.empty()) throw std::runtime_error{"no requests"};

    // Reference answers from an engine that memoizes nothing.
    prcost::api::Engine::Options options;
    options.plan_cache = false;
    options.bitstream_cache = false;
    options.workers = 1;
    const prcost::api::Engine reference{options};
    std::vector<std::string> expected;
    expected.reserve(lines.size());
    for (const std::string& line : lines) {
      expected.push_back(prcost::api::dispatch_line(reference, line).dump());
    }

    std::vector<prcost::serve::Client> clients;
    for (unsigned c = 0; c < kConnections; ++c) {
      clients.push_back(prcost::serve::Client::connect_unix(args.socket));
    }

    std::vector<ConnResult> results(kConnections);
    std::atomic<bool> stop{false};
    std::atomic<unsigned> ready{0};
    Clock::time_point start;
    const auto run_conn = [&](unsigned c) {
      ConnResult& result = results[c];
      std::vector<std::size_t> order(lines.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::mt19937_64 rng{args.seed * 1000003ULL + c};
      ready.fetch_add(1);
      while (ready.load() < kConnections) std::this_thread::yield();
      try {
        // Whole rounds only: the stop flag is read between rounds.
        while (!stop.load(std::memory_order_relaxed)) {
          std::shuffle(order.begin(), order.end(), rng);
          for (const std::size_t i : order) {
            const auto t0 = Clock::now();
            const std::string answer = clients[c].request(lines[i]);
            const auto t1 = Clock::now();
            const auto window =
                static_cast<std::size_t>((t1 - start) / kWindow);
            if (result.window_latency_us.size() <= window) {
              result.window_latency_us.resize(window + 1);
            }
            result.window_latency_us[window].push_back(
                std::chrono::duration<double, std::micro>(t1 - t0).count());
            ++result.requests;
            if (answer != expected[i]) {
              if (answer.find("\"error\":") != std::string::npos) {
                ++result.failed;
              } else {
                ++result.mismatched;
              }
              if (result.first_bad.empty()) result.first_bad = answer;
            }
          }
        }
      } catch (const std::exception& e) {
        result.error = e.what();
      }
    };

    const auto server_cpu = [&] {
      return args.server_pid > 0 ? process_cpu_s(args.server_pid) : 0.0;
    };
    const double cpu_before = server_cpu();
    start = Clock::now();
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kConnections; ++c) {
      threads.emplace_back(run_conn, c);
    }
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(args.seconds)));
    stop.store(true);
    for (std::thread& thread : threads) thread.join();
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    const double cpu_after = server_cpu();

    unsigned long long requests = 0;
    unsigned long long failed = 0;
    unsigned long long mismatched = 0;
    std::string first_bad;
    std::string error;
    for (const ConnResult& result : results) {
      requests += result.requests;
      failed += result.failed;
      mismatched += result.mismatched;
      if (first_bad.empty()) first_bad = result.first_bad;
      if (error.empty()) error = result.error;
    }
    // Whole windows only: after the last one the connections just finish
    // their rounds.
    const auto windows = static_cast<std::size_t>(args.seconds);
    if (windows == 0) throw std::runtime_error{"--seconds must be >= 1"};
    std::vector<double> window_rps;
    std::vector<double> window_p50;
    std::vector<double> window_p90;
    for (std::size_t w = 0; w < windows; ++w) {
      std::vector<double> sample;
      for (const ConnResult& result : results) {
        if (w >= result.window_latency_us.size()) continue;
        const std::vector<double>& part = result.window_latency_us[w];
        sample.insert(sample.end(), part.begin(), part.end());
      }
      window_rps.push_back(static_cast<double>(sample.size()) /
                           std::chrono::duration<double>(kWindow).count());
      if (sample.empty()) continue;
      window_p50.push_back(percentile(sample, 0.50));
      window_p90.push_back(percentile(sample, 0.90));
    }
    const auto median = [](std::vector<double>& sample) {
      return sample.empty() ? 0.0 : percentile(sample, 0.50);
    };
    prcost::Json out = prcost::Json::object();
    out.set("distinct", static_cast<prcost::u64>(lines.size()))
        .set("requests", static_cast<prcost::u64>(requests))
        .set("failed", static_cast<prcost::u64>(failed))
        .set("mismatched", static_cast<prcost::u64>(mismatched))
        .set("wall_s", wall_s)
        .set("server_cpu_s", cpu_after - cpu_before)
        .set("windows", static_cast<prcost::u64>(windows))
        .set("rps", median(window_rps))
        .set("p50_us", median(window_p50))
        .set("p90_us", median(window_p90))
        .set("first_bad", first_bad)
        .set("error", error);
    std::cout << out.dump() << '\n';
    return error.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "query_client: " << e.what() << '\n';
    return 2;
  }
}
