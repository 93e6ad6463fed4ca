// prcost command-line tool: thin adapters over the library Engine API
// (src/api). Each subcommand maps flags onto a typed request, calls the
// Engine, and renders the typed response; the same requests drive the
// JSONL `batch` front-end and any embedding consumer, so no evaluation
// logic lives here.
//
//   prcost devices
//   prcost synth <prm> [--family v5] [-o report.srp]
//   prcost plan <prm> --device xc5vlx110t [--report file.srp]
//                [--objective area|height|bitstream] [--shaped]
//   prcost bitstream <prm> --device xc5vlx110t [-o out.bit]
//   prcost explore --device xc6vlx240t <prm> <prm> ...
//   prcost batch [requests.jsonl]
//
// Exit codes: 0 success, 1 runtime failure (unknown device/PRM, missing
// file, infeasible PRR...), 2 usage error (only usage errors print the
// usage banner).
//
// PRMs: fir mips sdram aes crc32 uart matmul
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "api/batch.hpp"
#include "api/engine.hpp"
#include "api/requests.hpp"
#include "bitstream/generator.hpp"
#include "bitstream/parser.hpp"
#include "netlist/serialize.hpp"
#include "obs/obs.hpp"
#include "sched/generators.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace prcost;
using api::Engine;

void print_usage(std::ostream& out) {
  out <<
      "usage:\n"
      "  prcost devices\n"
      "  prcost synth <prm> [--family v4|v5|v6|s7|s6] [-o report.srp]\n"
      "  prcost plan <prm> --device <name> [--report file.srp]\n"
      "              [--objective area|height|bitstream] [--shaped]\n"
      "  prcost bitstream <prm> --device <name> [-o out.bit]\n"
      "  prcost explore --device <name> <prm> <prm> [...] [--workers N]\n"
      "              [--cross-check]  (generate + verify Pareto-front\n"
      "               bitstreams against the Eq. 18 model)\n"
      "  prcost netlist <prm> [-o design.net]\n"
      "  prcost rank <prm> <prm> [...] [--workers N]\n"
      "  prcost faults <prm> [...] --device <name> [--prrs N] [--tasks N]\n"
      "              [--seed N] [--media cf|flash|ddr|bram]\n"
      "              [--recovery drop|reschedule] [--strict]\n"
      "              (multitask simulation under fault injection; set the\n"
      "               rate with the global --fault-rate flag)\n"
      "  prcost optimize --device <name> (<prm> [...] | --prm-count N)\n"
      "              [--groups N] [--seed N] [--rounds N] [--proposals N]\n"
      "              [--media cf|flash|ddr|bram] [--workers N]\n"
      "              (joint partition-schedule-floorplan optimization:\n"
      "               greedy baseline vs simulated annealing over\n"
      "               swap/relocate/resize/compact moves, costed through\n"
      "               the bitstream + reconfiguration + fault models)\n"
      "  prcost schedule <prm> [...] --device <name> [--slots N]\n"
      "              [--policy fcfs|priority|edf]\n"
      "              [--workload poisson|bursty | --trace FILE]\n"
      "              [--tasks N] [--seed N] [--deadline-factor X]\n"
      "              [--media cf|flash|ddr|bram] [--warm-media ...]\n"
      "              [--prefetch-rate HZ] [--cpu-workers N]\n"
      "              [--cpu-slowdown X] [--dump-trace FILE]\n"
      "              (online event-driven scheduler over floorplanned PRR\n"
      "               slots: reconfiguration-aware placement priced through\n"
      "               the controller + fault-retry models, arrival-rate-\n"
      "               triggered bitstream prefetch, CPU fallback for\n"
      "               deadline-infeasible placements)\n"
      "  prcost batch [requests.jsonl] [--workers N] [-o responses.jsonl]\n"
      "              (JSONL requests from the file or stdin, streamed in\n"
      "               bounded windows; exactly one JSON response per line -\n"
      "               see README \"Batch mode\")\n"
      "  prcost serve (--socket PATH | --port N [--host H]) [--max-queue N]\n"
      "              [--max-inflight N] [--dispatch-batch N] [--workers N]\n"
      "              [--drain-grace-ms N]\n"
      "              (warm multi-tenant daemon: one shared engine, JSONL\n"
      "               over unix/TCP sockets with the batch wire contract\n"
      "               plus \"ping\" and \"metrics\" ops; bounded admission\n"
      "               queue sheds with the \"overloaded\" code; SIGTERM\n"
      "               drains in-flight work, flushes --cache-dir snapshots\n"
      "               and exits 0 - see README \"Serve mode\")\n"
      "  prcost client (--socket PATH | --port N [--host H])\n"
      "              [requests.jsonl]\n"
      "              (send JSONL requests from the file or stdin to a\n"
      "               daemon; one response line per request on stdout)\n"
      "global flags (any command):\n"
      "  --fault-rate P      probability a bitstream transfer is corrupted\n"
      "                      (0..1, default 0 = faults off)\n"
      "  --stall-rate P      probability of a storage-media stall (0..1)\n"
      "  --fault-seed N      fault injector seed (runs are reproducible)\n"
      "  --max-retries N     verified-transfer retry budget (default 3)\n"
      "  --stats             attach request-scoped telemetry to every\n"
      "                      response (wall time, per-phase times, cache\n"
      "                      hits/misses, retries, allocations); batch\n"
      "                      lines gain a result.stats block\n"
      "  --trace-out FILE    record spans, write Chrome trace-event JSON\n"
      "                      (open at https://ui.perfetto.dev)\n"
      "  --trace-folded FILE record spans, write flamegraph folded stacks\n"
      "  --metrics-out FILE  write the metrics registry as JSON\n"
      "                      (FILE '-' sends any of these to stderr,\n"
      "                       keeping stdout results intact)\n"
      "  --log-level LVL     debug|info|warn|error|off (default warn)\n"
      "  --no-plan-cache     disable PRR plan memoization (escape hatch;\n"
      "                      results are identical either way)\n"
      "  --no-bitstream-cache  disable generated-bitstream memoization\n"
      "                      (escape hatch; output is byte-identical)\n"
      "  --cache-dir DIR     persist the plan/bitstream caches as warm-\n"
      "                      start snapshots in DIR (loaded on startup,\n"
      "                      saved on success; missing or corrupt\n"
      "                      snapshots cold-start cleanly and output is\n"
      "                      byte-identical either way)\n"
      "  --workers N         parallel workers for explore/rank/batch\n"
      "                      (0 = auto)\n"
      "prms: fir mips sdram aes crc32 uart matmul sobel fft\n"
      "netlist files: prcost netlist <prm> -o design.net; "
      "then --netlist design.net\n"
      "exit codes: 0 ok, 1 runtime failure, 2 usage error\n";
}

/// Tiny flag parser: positional args plus --key value / -o value pairs.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;
  bool has(const std::string& key) const { return flags.count(key) > 0; }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
};

Args parse_args(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) == 0 || token == "-o") {
      const std::string key = token.rfind("--", 0) == 0 ? token.substr(2)
                                                        : "out";
      if (key == "shaped" || key == "no-plan-cache" ||
          key == "no-bitstream-cache" || key == "cross-check" ||
          key == "strict" || key == "stats") {  // booleans
        args.flags[key] = "1";
        continue;
      }
      if (i + 1 >= argc) throw UsageError{"flag " + token + " needs a value"};
      args.flags[key] = argv[++i];
    } else {
      args.positional.push_back(std::move(token));
    }
  }
  return args;
}

/// Parse the --workers flag (0 = auto). Malformed values surface the
/// actual parse error, not a generic usage message.
std::size_t workers_flag(const Args& args) {
  const std::string value = args.get("workers", "0");
  try {
    return narrow<std::size_t>(parse_u64(value));
  } catch (const std::exception& error) {
    throw UsageError{"--workers: " + std::string{error.what()}};
  }
}

/// Parse an unsigned flag; malformed values surface the parse error under
/// the flag's own name.
u64 u64_flag(const Args& args, const std::string& key, u64 fallback) {
  if (!args.has(key)) return fallback;
  try {
    return parse_u64(args.get(key, ""));
  } catch (const std::exception& error) {
    throw UsageError{"--" + key + ": " + std::string{error.what()}};
  }
}

/// Parse a floating-point flag the same way.
double double_flag(const Args& args, const std::string& key, double fallback) {
  if (!args.has(key)) return fallback;
  try {
    return parse_double(args.get(key, ""));
  } catch (const std::exception& error) {
    throw UsageError{"--" + key + ": " + std::string{error.what()}};
  }
}

/// Map the shared PRM-source flags onto a typed PrmSource (the Engine
/// validates that exactly one is set).
api::PrmSource prm_source(const Args& args) {
  api::PrmSource source;
  if (args.has("netlist")) {
    source.netlist_path = args.get("netlist", "");
  } else if (args.has("report")) {
    source.report_path = args.get("report", "");
  } else if (!args.positional.empty()) {
    source.prm = args.positional[0];
  }
  return source;
}

/// Render the optional --stats block of a response on stdout (after the
/// command's own output; no-op when stats collection is off).
void print_request_stats(const std::optional<obs::RequestStatsSummary>& s) {
  if (!s) return;
  const auto ms = [](u64 ns) {
    return format_fixed(static_cast<double>(ns) / 1e6, 3);
  };
  std::cout << "\n=== request stats ===\n"
            << "wall " << ms(s->wall_ns) << " ms, plan cache "
            << s->plan_cache_hits << "/" << s->plan_cache_misses
            << " hit/miss, bitstream cache " << s->bitstream_cache_hits << "/"
            << s->bitstream_cache_misses << " hit/miss, retries "
            << s->retries << ", allocations " << s->allocations << '\n';
  if (s->phases.empty()) return;
  TextTable table{{"phase", "count", "self (ms)", "total (ms)", "max (ms)"}};
  for (const obs::RequestPhase& phase : s->phases) {
    table.add_row({phase.name, std::to_string(phase.count), ms(phase.self_ns),
                   ms(phase.total_ns), ms(phase.max_ns)});
  }
  std::cout << table.to_ascii();
}

int cmd_devices(const Engine& engine) {
  TextTable table{{"device", "family", "rows", "CLB cols", "DSP cols",
                   "BRAM cols", "CLBs", "DSPs", "BRAM36s"}};
  const api::DevicesResponse response = engine.list_devices();
  for (const api::DeviceSummary& dev : response.devices) {
    table.add_row({dev.name, dev.family, std::to_string(dev.rows),
                   std::to_string(dev.clb_cols), std::to_string(dev.dsp_cols),
                   std::to_string(dev.bram_cols), std::to_string(dev.clbs),
                   std::to_string(dev.dsps), std::to_string(dev.bram36s)});
  }
  std::cout << table.to_ascii();
  print_request_stats(response.stats);
  return 0;
}

int cmd_synth(const Engine& engine, const Args& args) {
  if (args.positional.empty()) throw UsageError{"synth needs a PRM"};
  api::SynthRequest request;
  request.source.prm = args.positional[0];
  request.family = parse_family(args.get("family", "v5"));
  const api::SynthResponse response = engine.synth(request);
  const std::string text = report_to_text(response.report);
  if (args.has("out")) {
    std::ofstream out{args.get("out", "")};
    out << text;
    std::cout << "wrote " << args.get("out", "") << '\n';
  } else {
    std::cout << text;
  }
  print_request_stats(response.stats);
  return 0;
}

int cmd_plan(const Engine& engine, const Args& args) {
  if (!args.has("device")) throw UsageError{"plan needs --device"};
  api::PlanRequest request;
  request.device = args.get("device", "");
  request.source = prm_source(args);
  request.objective = api::parse_objective(args.get("objective", "area"));
  request.shaped = args.has("shaped");

  api::PlanResponse response;
  try {
    response = engine.plan(request);
  } catch (const InfeasibleError& error) {
    std::cout << error.what() << '\n';
    return 1;
  }
  const PrrPlan& plan = response.plan;

  TextTable table{{"quantity", "value"}};
  table.add_row({"H x W", std::to_string(plan.organization.h) + " x " +
                              std::to_string(plan.organization.width())});
  table.add_row({"W_CLB / W_DSP / W_BRAM",
                 std::to_string(plan.organization.columns.clb_cols) + " / " +
                     std::to_string(plan.organization.columns.dsp_cols) +
                     " / " +
                     std::to_string(plan.organization.columns.bram_cols)});
  table.add_row({"PRR size (cells)", std::to_string(plan.organization.size())});
  table.add_row({"window first column", std::to_string(plan.window.first_col)});
  table.add_row({"RU CLB/FF/LUT/DSP/BRAM",
                 format_fixed(plan.ru.clb, 0) + "% / " +
                     format_fixed(plan.ru.ff, 0) + "% / " +
                     format_fixed(plan.ru.lut, 0) + "% / " +
                     format_fixed(plan.ru.dsp, 0) + "% / " +
                     format_fixed(plan.ru.bram, 0) + "%"});
  table.add_row({"partial bitstream",
                 std::to_string(plan.bitstream.total_bytes) + " bytes"});

  if (response.par) {
    const api::ParCrossCheck& par = *response.par;
    if (par.routed) {
      table.add_row({"PAR placed cells", std::to_string(par.placed_cells)});
      table.add_row({"PAR HPWL (initial -> final)",
                     std::to_string(par.hpwl_initial) + " -> " +
                         std::to_string(par.hpwl_final)});
      table.add_row({"PAR critical path",
                     format_fixed(par.critical_path_ns, 2) + " ns"});
    } else {
      table.add_row({"PAR", "failed: " + par.failure_reason});
    }
  }
  table.add_row({"generated bitstream",
                 std::to_string(*response.generated_bytes) + " bytes (" +
                     (response.generated_matches_model()
                          ? "matches model"
                          : "MODEL MISMATCH") +
                     ")"});
  std::cout << table.to_ascii();

  if (response.shaped) {
    if (response.shaped->beats_rectangle) {
      std::cout << "\nL-shaped alternative: " << response.shaped->cells
                << " cells, " << response.shaped->bitstream_bytes
                << " bytes (saves " << response.shaped->cells_saved
                << " cells)\n";
    } else {
      std::cout << "\nno L-shaped alternative beats the rectangle\n";
    }
  }
  print_request_stats(response.stats);
  return 0;
}

int cmd_bitstream(const Engine& engine, const Args& args) {
  if (!args.has("device")) throw UsageError{"bitstream needs --device"};
  api::BitstreamRequest request;
  request.device = args.get("device", "");
  request.source = prm_source(args);

  api::BitstreamResponse response;
  try {
    response = engine.bitstream(request);
  } catch (const InfeasibleError& error) {
    std::cout << error.what() << '\n';
    return 1;
  }
  std::cout << disassemble(*response.words, response.family);
  if (args.has("out")) {
    const auto bytes = to_bytes(*response.words, response.family);
    std::ofstream out{args.get("out", ""), std::ios::binary};
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    std::cout << "wrote " << bytes.size() << " bytes to "
              << args.get("out", "") << '\n';
  }
  print_request_stats(response.stats);
  return 0;
}

int cmd_rank(const Engine& engine, const Args& args) {
  if (args.positional.empty()) throw UsageError{"rank needs at least one PRM"};
  api::RankRequest request;
  request.prms = args.positional;
  request.workers = workers_flag(args);
  const api::RankResponse response = engine.rank(request);

  TextTable table{{"rank", "device", "feasible", "fabric used",
                   "bitstream total", "makespan (ms)"}};
  int rank = 1;
  for (const DeviceChoice& choice : response.choices) {
    table.add_row({std::to_string(rank++), choice.device,
                   choice.feasible ? "yes" : choice.reason,
                   choice.feasible
                       ? format_fixed(choice.fabric_fraction * 100, 1) + "%"
                       : "-",
                   choice.feasible
                       ? format_bytes(static_cast<double>(
                             choice.total_bitstream_bytes))
                       : "-",
                   choice.feasible
                       ? format_fixed(choice.makespan_s * 1e3, 2)
                       : "-"});
  }
  std::cout << table.to_ascii();
  print_request_stats(response.stats);
  return 0;
}

int cmd_faults(const Engine& engine, const Args& args) {
  if (!args.has("device")) throw UsageError{"faults needs --device"};
  if (args.positional.empty()) {
    throw UsageError{"faults needs at least one PRM"};
  }
  api::FaultsRequest request;
  request.device = args.get("device", "");
  request.prms = args.positional;
  request.prr_count = narrow<u32>(u64_flag(args, "prrs", 2));
  request.tasks = narrow<u32>(u64_flag(args, "tasks", 100));
  request.seed = u64_flag(args, "seed", 42);
  request.media = args.get("media", "ddr");
  request.recovery = args.get("recovery", "drop");
  request.strict = args.has("strict");
  // The fault environment itself (--fault-rate, --fault-seed,
  // --max-retries) is global and already folded into the engine defaults;
  // the request optionals stay unset so those defaults apply.
  const api::FaultsResponse response = engine.faults(request);

  TextTable table{{"quantity", "value"}};
  table.add_row({"fault rate", format_fixed(response.fault_rate, 4)});
  table.add_row({"fault seed", std::to_string(response.fault_seed)});
  table.add_row({"max retries", std::to_string(response.max_retries)});
  table.add_row({"makespan", format_fixed(response.makespan_s * 1e3, 2) +
                                 " ms"});
  table.add_row({"reconfigurations", std::to_string(response.reconfig_count)});
  table.add_row({"effective reconfig time",
                 format_fixed(response.effective_reconfig_s * 1e3, 3) +
                     " ms"});
  table.add_row({"retry attempts", std::to_string(response.retry_attempts)});
  table.add_row({"retry backoff",
                 format_fixed(response.total_retry_backoff_s * 1e3, 3) +
                     " ms"});
  table.add_row({"wasted ICAP time",
                 format_fixed(response.total_fault_wasted_s * 1e3, 3) +
                     " ms"});
  table.add_row({"injected faults / stalls",
                 std::to_string(response.injected_faults) + " / " +
                     std::to_string(response.injected_stalls)});
  table.add_row({"failed reconfigs",
                 std::to_string(response.failed_reconfigs)});
  table.add_row({"rescheduled tasks",
                 std::to_string(response.rescheduled_tasks)});
  table.add_row({"dropped tasks", std::to_string(response.dropped_tasks)});
  table.add_row({"drop penalty",
                 format_fixed(response.total_penalty_s * 1e3, 3) + " ms"});
  std::cout << table.to_ascii();
  print_request_stats(response.stats);
  return 0;
}

int cmd_optimize(const Engine& engine, const Args& args) {
  if (!args.has("device")) throw UsageError{"optimize needs --device"};
  api::OptimizeRequest request;
  request.device = args.get("device", "");
  request.prms = args.positional;
  request.prm_count = narrow<u32>(u64_flag(args, "prm-count", 0));
  if (request.prms.empty() && request.prm_count == 0) {
    throw UsageError{"optimize needs PRMs or --prm-count N"};
  }
  request.groups = narrow<u32>(u64_flag(args, "groups", 0));
  request.seed = u64_flag(args, "seed", 1);
  request.rounds = narrow<u32>(u64_flag(args, "rounds", 48));
  request.proposals_per_round = narrow<u32>(u64_flag(args, "proposals", 8));
  request.media = args.get("media", "ddr");
  request.workers = workers_flag(args);
  const api::OptimizeResponse response = engine.optimize(request);

  const auto pct = [](double x) { return format_fixed(x * 100.0, 1) + "%"; };
  TextTable table{{"quantity", "greedy", "annealed"}};
  table.add_row({"placed PRRs",
                 std::to_string(response.greedy_placed_groups) + " / " +
                     std::to_string(response.group_count),
                 std::to_string(response.anneal_placed_groups) + " / " +
                     std::to_string(response.group_count)});
  table.add_row({"rejected PRMs",
                 std::to_string(response.greedy_rejected_prms),
                 std::to_string(response.anneal_rejected_prms)});
  table.add_row({"rejection rate", pct(response.greedy_rejection_rate),
                 pct(response.anneal_rejection_rate)});
  table.add_row({"makespan",
                 format_fixed(response.greedy_makespan_s * 1e3, 2) + " ms",
                 format_fixed(response.anneal_makespan_s * 1e3, 2) + " ms"});
  table.add_row({"fragmentation", pct(response.greedy_fragmentation),
                 pct(response.anneal_fragmentation)});
  table.add_row({"cost", format_fixed(response.greedy_cost, 3),
                 format_fixed(response.anneal_cost, 3)});
  std::cout << table.to_ascii();
  std::cout << "fleet: " << response.prm_count << " PRMs in "
            << response.group_count << " shared PRRs (seed " << response.seed
            << ")\n"
            << "moves: " << response.accepted << " accepted of "
            << response.proposals << " proposed (swap "
            << response.accepted_swap << ", relocate "
            << response.accepted_relocate << ", resize "
            << response.accepted_resize << ", compact "
            << response.accepted_compact << "), relocation ICAP time "
            << format_fixed(response.anneal_relocation_s * 1e3, 3) << " ms\n"
            << "cost re-evaluation: "
            << (response.cost_verified ? "matches" : "MISMATCH")
            << ", bitstream model: "
            << (response.bitstream_verified ? "matches generated"
                                            : "MISMATCH")
            << '\n';
  print_request_stats(response.stats);
  return response.cost_verified && response.bitstream_verified ? 0 : 1;
}

int cmd_schedule(const Engine& engine, const Args& args) {
  if (!args.has("device")) throw UsageError{"schedule needs --device"};
  if (args.positional.empty()) {
    throw UsageError{"schedule needs at least one PRM"};
  }
  api::ScheduleRequest request;
  request.device = args.get("device", "");
  request.prms = args.positional;
  request.slots = narrow<u32>(u64_flag(args, "slots", 2));
  request.policy = args.get("policy", "fcfs");
  request.workload = args.get("workload", "poisson");
  if (args.has("trace")) {
    const std::string path = args.get("trace", "");
    std::ifstream in{path};
    if (!in) throw IoError{"cannot open trace file '" + path + "'"};
    std::stringstream buffer;
    buffer << in.rdbuf();
    request.trace = buffer.str();
    request.workload = "trace";
  }
  request.tasks = narrow<u32>(u64_flag(args, "tasks", 100));
  request.seed = u64_flag(args, "seed", 42);
  request.mean_interarrival_s = double_flag(args, "interarrival", 2.0e-3);
  request.mean_exec_s = double_flag(args, "exec", 5.0e-3);
  request.deadline_factor = double_flag(args, "deadline-factor", 0.0);
  request.media = args.get("media", "flash");
  request.warm_media = args.get("warm-media", "ddr");
  request.prefetch_rate_hz = double_flag(args, "prefetch-rate", 0.0);
  request.cpu_workers = narrow<u32>(u64_flag(args, "cpu-workers", 2));
  request.cpu_slowdown = double_flag(args, "cpu-slowdown", 8.0);
  // The fault environment (--fault-rate, --max-retries) is global and
  // already folded into the engine defaults; the optionals stay unset.

  if (args.has("dump-trace")) {
    // Record the arrival stream (before running it) as a replayable JSONL
    // trace: generate the same synthetic workload the run will use.
    sched::ArrivalParams params;
    params.count = request.tasks;
    params.prm_count = narrow<u32>(request.prms.size());
    params.mean_interarrival_s = request.mean_interarrival_s;
    params.mean_exec_s = request.mean_exec_s;
    params.deadline_factor = request.deadline_factor;
    params.seed = request.seed;
    const std::vector<sched::Task> tasks =
        request.workload == "trace"    ? sched::parse_trace(request.trace)
        : request.workload == "bursty" ? sched::make_bursty(params)
                                       : sched::make_poisson(params);
    const std::string path = args.get("dump-trace", "");
    std::ofstream out{path};
    if (!out) throw IoError{"cannot write trace file '" + path + "'"};
    out << sched::dump_trace(tasks);
    std::cout << "wrote " << tasks.size() << " tasks to " << path << '\n';
  }

  const api::ScheduleResponse response = engine.schedule(request);

  TextTable table{{"quantity", "value"}};
  table.add_row({"policy", response.policy});
  table.add_row({"PRR slots", std::to_string(response.slot_count)});
  table.add_row({"tasks", std::to_string(response.task_count)});
  table.add_row({"makespan", format_fixed(response.makespan_s * 1e3, 2) +
                                 " ms"});
  table.add_row({"throughput",
                 format_fixed(response.throughput_per_s, 1) + " tasks/s"});
  table.add_row({"reconfigurations",
                 std::to_string(response.reconfig_count)});
  table.add_row({"slot reuse hits", std::to_string(response.reuse_hits)});
  table.add_row({"reconfig time / task",
                 format_fixed(response.reconfig_seconds_per_task * 1e3, 3) +
                     " ms"});
  table.add_row({"prefetches issued",
                 std::to_string(response.prefetches_issued)});
  table.add_row({"warm (prefetched) reconfigs",
                 std::to_string(response.prefetched_reconfigs)});
  table.add_row({"deadline misses",
                 std::to_string(response.deadline_misses)});
  table.add_row({"CPU fallbacks", std::to_string(response.cpu_fallbacks)});
  table.add_row({"mean wait",
                 format_fixed(response.mean_wait_s * 1e3, 3) + " ms"});
  table.add_row({"mean turnaround",
                 format_fixed(response.mean_turnaround_s * 1e3, 3) + " ms"});
  std::cout << table.to_ascii();
  print_request_stats(response.stats);
  return 0;
}

int cmd_netlist(const Args& args) {
  if (args.positional.empty()) throw UsageError{"netlist needs a PRM"};
  const std::string text =
      netlist_to_text(api::make_builtin_prm(args.positional[0]));
  if (args.has("out")) {
    std::ofstream out{args.get("out", "")};
    out << text;
    std::cout << "wrote " << args.get("out", "") << '\n';
  } else {
    std::cout << text;
  }
  return 0;
}

int cmd_explore(const Engine& engine, const Args& args) {
  if (!args.has("device")) throw UsageError{"explore needs --device"};
  if (args.positional.size() < 2) {
    throw UsageError{"explore needs at least two PRMs"};
  }
  api::ExploreRequest request;
  request.device = args.get("device", "");
  request.prms = args.positional;
  request.workers = workers_flag(args);
  request.cross_check = args.has("cross-check");
  const api::ExploreResponse response = engine.explore(request);

  TextTable table{{"partitioning", "area", "makespan (ms)", "feasible"}};
  for (const DesignPoint& point : response.points) {
    std::string partition;
    for (const auto& group : point.partition) {
      partition += "{";
      for (std::size_t i = 0; i < group.size(); ++i) {
        if (i) partition += ",";
        partition += response.prms[group[i]];
      }
      partition += "}";
    }
    table.add_row({partition, std::to_string(point.total_prr_area),
                   point.feasible ? format_fixed(point.makespan_s * 1e3, 2)
                                  : "-",
                   point.feasible ? "yes" : point.infeasible_reason});
  }
  std::cout << table.to_ascii();
  std::cout << "pareto-optimal: " << response.pareto_count << " of "
            << response.points.size() << " partitionings\n";
  if (response.bitstream_check) {
    std::cout << "bitstream cross-check: "
              << response.bitstream_check->plans_checked
              << " distinct PRR plans generated, "
              << (response.bitstream_check->all_match ? "all match the model"
                                                      : "MODEL MISMATCH")
              << "\n";
    if (!response.bitstream_check->all_match) return 1;
  }
  print_request_stats(response.stats);
  return 0;
}

int cmd_batch(const Engine& engine, const Args& args) {
  api::BatchOptions options;
  options.workers = workers_flag(args);

  std::ifstream file;
  std::istream* in = &std::cin;
  if (!args.positional.empty()) {
    file.open(args.positional[0]);
    if (!file) {
      throw IoError{"cannot open batch file '" + args.positional[0] + "'"};
    }
    in = &file;
  }
  std::ofstream out_file;
  std::ostream* out = &std::cout;
  if (args.has("out")) {
    out_file.open(args.get("out", ""));
    if (!out_file) {
      throw IoError{"cannot open output file '" + args.get("out", "") + "'"};
    }
    out = &out_file;
  }

  const api::BatchStats stats = api::run_batch(engine, *in, *out, options);
  // Tally on stderr so stdout stays pure JSONL. Per-request failures are
  // structured responses, not process failures: exit 0 either way.
  std::cerr << "batch: " << stats.requests << " requests, " << stats.succeeded
            << " ok, " << stats.failed << " failed\n";
  return 0;
}

int cmd_serve(const Engine& engine, const Args& args) {
  serve::ServerOptions options;
  options.unix_path = args.get("socket", "");
  if (args.has("port")) {
    options.tcp_port = narrow<int>(u64_flag(args, "port", 0));
  }
  options.tcp_host = args.get("host", options.tcp_host);
  options.max_queue =
      narrow<std::size_t>(u64_flag(args, "max-queue", options.max_queue));
  options.max_inflight_per_conn = narrow<std::size_t>(
      u64_flag(args, "max-inflight", options.max_inflight_per_conn));
  options.dispatch_batch = narrow<std::size_t>(
      u64_flag(args, "dispatch-batch", options.dispatch_batch));
  options.workers = workers_flag(args);
  options.drain_grace_ms = narrow<int>(
      u64_flag(args, "drain-grace-ms",
               static_cast<u64>(options.drain_grace_ms)));
  if (options.unix_path.empty() && !args.has("port")) {
    throw UsageError{"serve needs --socket PATH and/or --port N"};
  }

  serve::Server server{engine, options};
  server.start();
  server.install_signal_handlers();
  // Readiness line (flushed): scripts wait for it, and an ephemeral
  // --port 0 bind is only discoverable here.
  std::cout << "serve: listening on";
  if (!options.unix_path.empty()) {
    std::cout << " unix:" << options.unix_path;
  }
  if (server.tcp_port() >= 0) {
    std::cout << " tcp:" << options.tcp_host << ":" << server.tcp_port();
  }
  std::cout << std::endl;

  server.run();  // returns after a graceful drain (stop()/SIGTERM/SIGINT)

  const serve::Server::Counters totals = server.counters();
  std::cout << "serve: " << totals.accepted << " connection(s), "
            << totals.requests << " request(s), " << totals.responses
            << " response(s), " << totals.shed << " shed\n";
  // main() calls engine.save_caches() on rc 0: the drain path flushes
  // warm-start snapshots before the process exits.
  return 0;
}

int cmd_client(const Args& args) {
  serve::Client client;
  if (args.has("socket")) {
    client = serve::Client::connect_unix(args.get("socket", ""));
  } else if (args.has("port")) {
    client = serve::Client::connect_tcp(args.get("host", "127.0.0.1"),
                                        narrow<int>(u64_flag(args, "port", 0)));
  } else {
    throw UsageError{"client needs --socket PATH or --port N"};
  }

  std::ifstream file;
  std::istream* in = &std::cin;
  if (!args.positional.empty()) {
    file.open(args.positional[0]);
    if (!file) {
      throw IoError{"cannot open requests file '" + args.positional[0] + "'"};
    }
    in = &file;
  }
  std::string line;
  while (std::getline(*in, line)) {
    std::cout << client.request(line) << '\n';
  }
  std::cout.flush();
  return 0;
}

/// Global observability flags: --trace-out, --trace-folded, --metrics-out,
/// --log-level.
struct ObsOptions {
  std::string trace_out;
  std::string trace_folded;
  std::string metrics_out;
  bool traced() const {
    return !trace_out.empty() || !trace_folded.empty();
  }
  bool active() const { return traced() || !metrics_out.empty(); }
};

ObsOptions configure_obs(const Args& args) {
  if (args.has("log-level")) {
    const auto level = parse_log_level(args.get("log-level", ""));
    if (!level) {
      throw UsageError{"unknown log level '" + args.get("log-level", "") +
                       "'"};
    }
    set_log_level(*level);
  }
  ObsOptions options;
  options.trace_out = args.get("trace-out", "");
  options.trace_folded = args.get("trace-folded", "");
  options.metrics_out = args.get("metrics-out", "");
  if (options.traced()) obs::set_tracing(true);
  if (options.active()) obs::set_metrics_enabled(true);
  return options;
}

/// Write one observability artifact to `path`, where "-" means stderr
/// (never stdout: the command's result output must stay intact there).
/// Returns false when a file could not be written.
template <typename Writer>
bool write_obs_artifact(const std::string& path, const char* what,
                        Writer&& writer) {
  if (path == "-") {
    writer(std::cerr);
    return true;
  }
  std::ofstream out{path};
  writer(out);
  if (!out) {
    std::cerr << "error: cannot write " << what << " to '" << path << "'\n";
    return false;
  }
  return true;
}

/// Write the requested artifacts and print the end-of-run summary on
/// `summary` (stderr for the JSONL commands, whose stdout is one response
/// per line). Returns nonzero if an output file could not be written.
int finalize_obs(const ObsOptions& options, std::ostream& summary) {
  if (!options.active()) return 0;
  int rc = 0;
  const bool traced = options.traced();
  obs::set_tracing(false);
  if (!options.trace_out.empty() &&
      !write_obs_artifact(options.trace_out, "trace", [](std::ostream& out) {
        obs::write_chrome_trace(out);
        out << '\n';
      })) {
    rc = 1;
  }
  if (!options.trace_folded.empty() &&
      !write_obs_artifact(options.trace_folded, "folded stacks",
                          [](std::ostream& out) {
                            obs::write_folded_stacks(out);
                          })) {
    rc = 1;
  }
  if (!options.metrics_out.empty() &&
      !write_obs_artifact(options.metrics_out, "metrics",
                          [](std::ostream& out) {
                            out << obs::registry().to_json() << '\n';
                          })) {
    rc = 1;
  }

  summary << "\n=== metrics ===\n";
  TextTable metrics{{"metric", "value"}};
  for (const auto& snap : obs::registry().snapshot()) {
    switch (snap.kind) {
      case obs::MetricKind::kCounter:
        metrics.add_row({snap.name, std::to_string(snap.count)});
        break;
      case obs::MetricKind::kGauge:
        metrics.add_row({snap.name, format_fixed(snap.value, 3)});
        break;
      case obs::MetricKind::kHistogram:
        metrics.add_row({snap.name, "count=" + std::to_string(snap.count) +
                                        " sum=" + format_fixed(snap.value, 0)});
        break;
    }
  }
  summary << metrics.to_ascii();
  if (traced) {
    summary << "\n=== span self-time";
    if (!options.trace_out.empty()) {
      summary << " (open " << options.trace_out
                << " at https://ui.perfetto.dev)";
    }
    summary << " ===\n" << obs::trace_summary_table().to_ascii();
    if (obs::trace_dropped_count() > 0) {
      summary << "note: " << obs::trace_dropped_count()
                << " spans dropped (per-thread ring wrapped)\n";
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage(std::cerr);
    return 2;
  }
  const std::string command = argv[1];
  try {
    const Args args = parse_args(argc, argv, 2);
    const ObsOptions obs_options = configure_obs(args);
    Engine::Options engine_options;
    engine_options.plan_cache = !args.has("no-plan-cache");
    engine_options.bitstream_cache = !args.has("no-bitstream-cache");
    engine_options.fault_rate =
        double_flag(args, "fault-rate", engine_options.fault_rate);
    engine_options.stall_rate =
        double_flag(args, "stall-rate", engine_options.stall_rate);
    engine_options.fault_seed =
        u64_flag(args, "fault-seed", engine_options.fault_seed);
    engine_options.max_retries = narrow<u32>(
        u64_flag(args, "max-retries", engine_options.max_retries));
    engine_options.collect_stats = args.has("stats");
    engine_options.cache_dir = args.get("cache-dir", "");
    const Engine engine{engine_options};
    int rc = 0;
    if (command == "devices") {
      rc = cmd_devices(engine);
    } else if (command == "synth") {
      rc = cmd_synth(engine, args);
    } else if (command == "plan") {
      rc = cmd_plan(engine, args);
    } else if (command == "bitstream") {
      rc = cmd_bitstream(engine, args);
    } else if (command == "explore") {
      rc = cmd_explore(engine, args);
    } else if (command == "netlist") {
      rc = cmd_netlist(args);
    } else if (command == "rank") {
      rc = cmd_rank(engine, args);
    } else if (command == "faults") {
      rc = cmd_faults(engine, args);
    } else if (command == "optimize") {
      rc = cmd_optimize(engine, args);
    } else if (command == "schedule") {
      rc = cmd_schedule(engine, args);
    } else if (command == "batch") {
      rc = cmd_batch(engine, args);
    } else if (command == "serve") {
      rc = cmd_serve(engine, args);
    } else if (command == "client") {
      rc = cmd_client(args);
    } else {
      throw UsageError{"unknown command '" + command + "'"};
    }
    if (rc == 0) engine.save_caches();
    const bool jsonl = command == "batch" || command == "serve" ||
                       command == "client";
    const int obs_rc =
        finalize_obs(obs_options, jsonl ? std::cerr : std::cout);
    return rc != 0 ? rc : obs_rc;
  } catch (const UsageError& error) {
    std::cerr << "error: " << error.what() << "\n\n";
    print_usage(std::cerr);
    return 2;
  } catch (const Error& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
