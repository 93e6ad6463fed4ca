// prcost command-line tool: thin adapters over the library Engine API
// (src/api). A request command decodes its flags through its op's field
// table (api::request_from_cli), calls the Engine and renders the typed
// response; `prcost` alone prints the usage those tables generate.
//
// Exit codes: 0 success, 1 runtime failure (unknown device/PRM, missing
// file, infeasible PRR...), 2 usage error (only usage errors print the
// usage banner).
#include <algorithm>
#include <fstream>
#include <iostream>
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
using api::CliArgs;
using api::Engine;

/// Flags every command accepts, as "name VALUE" ("name" for a boolean):
/// they configure the Engine and the observability outputs.
const std::pair<std::string_view, std::string_view> kGlobalFlags[] = {
    {"fault-rate P", "probability a bitstream transfer is corrupted"},
    {"stall-rate P", "probability of a storage-media stall"},
    {"fault-seed N", "fault injector seed (runs are reproducible)"},
    {"max-retries N", "verified-transfer retry budget"},
    {"workers N", "parallel workers (0 = auto)"},
    {"stats", "attach request-scoped telemetry to every response"},
    {"trace-out FILE", "record spans, write Chrome trace-event JSON"},
    {"trace-folded FILE", "record spans, write flamegraph folded stacks"},
    {"metrics-out FILE", "write the metrics registry as JSON ('-': stderr)"},
    {"log-level LVL", "debug|info|warn|error|off (default warn)"},
    {"no-plan-cache", "disable PRR plan and PAR memoization"},
    {"no-bitstream-cache", "disable generated-bitstream memoization"},
    {"cache-dir DIR", "persist the caches as warm-start snapshots in DIR"},
};

/// Parse a numeric flag; malformed values surface the parse error under
/// the flag's own name.
template <typename T>
T number_flag(const CliArgs& args, const std::string& key, T fallback) {
  if (!args.has(key)) return fallback;
  try {
    if constexpr (std::is_floating_point_v<T>) {
      return parse_double(args.get(key));
    } else {
      return narrow<T>(parse_u64(args.get(key)));
    }
  } catch (const std::exception& error) {
    throw UsageError{"--" + key + ": " + std::string{error.what()}};
  }
}

/// An engine-wide rate flag, bounded like the request fields' rates.
double rate_flag(const CliArgs& args, const std::string& key,
                 double fallback) {
  const double rate = number_flag(args, key, fallback);
  try {
    api::check_rate(rate);
  } catch (const ParseError& error) {
    throw UsageError{"--" + key + ": " + error.what()};
  }
  return rate;
}

/// Decode a request whose PRM source follows the CLI precedence:
/// --netlist, then --report, then the positional PRM.
template <typename Request>
Request with_source(const CliArgs& args) {
  Request request = api::request_from_cli<Request>(args);
  api::PrmSource& s = request.source;
  if (!s.netlist_path.empty()) s.report_path.clear();
  if (!s.netlist_path.empty() || !s.report_path.empty()) s.prm.clear();
  return request;
}

/// Write `text` to the -o file (announcing it) or to stdout.
void emit_text(const CliArgs& args, const std::string& text) {
  if (args.has("o")) {
    std::ofstream out{args.get("o")};
    out << text;
    std::cout << "wrote " << args.get("o") << '\n';
  } else {
    std::cout << text;
  }
}

/// The positional input file (opened into `file`), or stdin without one.
std::istream& input(const CliArgs& args, std::ifstream& file,
                    const std::string& what) {
  if (args.positional.empty()) return std::cin;
  file.open(args.positional[0]);
  if (!file) {
    throw IoError{"cannot open " + what + " file '" + args.positional[0] + "'"};
  }
  return file;
}

/// Seconds as fixed-point milliseconds, e.g. "1.234 ms".
std::string ms(double seconds, int digits) {
  return format_fixed(seconds * 1e3, digits) + " ms";
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

int cmd_devices(const Engine& engine, const CliArgs&) {
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

int cmd_synth(const Engine& engine, const CliArgs& args) {
  const api::SynthResponse response =
      engine.synth(api::request_from_cli<api::SynthRequest>(args));
  emit_text(args, report_to_text(response.report));
  print_request_stats(response.stats);
  return 0;
}

int cmd_plan(const Engine& engine, const CliArgs& args) {
  api::PlanResponse response;
  try {
    response = engine.plan(with_source<api::PlanRequest>(args));
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

int cmd_bitstream(const Engine& engine, const CliArgs& args) {
  api::BitstreamResponse response;
  try {
    response = engine.bitstream(with_source<api::BitstreamRequest>(args));
  } catch (const InfeasibleError& error) {
    std::cout << error.what() << '\n';
    return 1;
  }
  std::cout << disassemble(*response.words, response.family);
  if (args.has("o")) {
    const auto bytes = to_bytes(*response.words, response.family);
    std::ofstream out{args.get("o"), std::ios::binary};
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    std::cout << "wrote " << bytes.size() << " bytes to " << args.get("o")
              << '\n';
  }
  print_request_stats(response.stats);
  return 0;
}

int cmd_rank(const Engine& engine, const CliArgs& args) {
  const api::RankResponse response =
      engine.rank(api::request_from_cli<api::RankRequest>(args));

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

int cmd_faults(const Engine& engine, const CliArgs& args) {
  const api::FaultsResponse response =
      engine.faults(api::request_from_cli<api::FaultsRequest>(args));

  TextTable table{{"quantity", "value"}};
  table.add_row({"fault rate", format_fixed(response.fault_rate, 4)});
  table.add_row({"fault seed", std::to_string(response.fault_seed)});
  table.add_row({"max retries", std::to_string(response.max_retries)});
  table.add_row({"makespan", ms(response.makespan_s, 2)});
  table.add_row({"reconfigurations", std::to_string(response.reconfig_count)});
  table.add_row({"effective reconfig time",
                 ms(response.effective_reconfig_s, 3)});
  table.add_row({"retry attempts", std::to_string(response.retry_attempts)});
  table.add_row({"retry backoff", ms(response.total_retry_backoff_s, 3)});
  table.add_row({"wasted ICAP time", ms(response.total_fault_wasted_s, 3)});
  table.add_row({"injected faults / stalls",
                 std::to_string(response.injected_faults) + " / " +
                     std::to_string(response.injected_stalls)});
  table.add_row({"failed reconfigs",
                 std::to_string(response.failed_reconfigs)});
  table.add_row({"rescheduled tasks",
                 std::to_string(response.rescheduled_tasks)});
  table.add_row({"dropped tasks", std::to_string(response.dropped_tasks)});
  table.add_row({"drop penalty", ms(response.total_penalty_s, 3)});
  std::cout << table.to_ascii();
  print_request_stats(response.stats);
  return 0;
}

int cmd_optimize(const Engine& engine, const CliArgs& args) {
  const auto request = api::request_from_cli<api::OptimizeRequest>(args);
  if (request.prms.empty() && request.prm_count == 0) {
    throw UsageError{"optimize needs PRMs or --prm-count N"};
  }
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
  table.add_row({"makespan", ms(response.greedy_makespan_s, 2),
                 ms(response.anneal_makespan_s, 2)});
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
            << ms(response.anneal_relocation_s, 3) << "\n"
            << "cost re-evaluation: "
            << (response.cost_verified ? "matches" : "MISMATCH")
            << ", bitstream model: "
            << (response.bitstream_verified ? "matches generated"
                                            : "MISMATCH")
            << '\n';
  print_request_stats(response.stats);
  return response.cost_verified && response.bitstream_verified ? 0 : 1;
}

int cmd_schedule(const Engine& engine, const CliArgs& args) {
  auto request = api::request_from_cli<api::ScheduleRequest>(args);
  if (args.has("trace")) {
    const std::string path = args.get("trace");
    std::ifstream in{path};
    if (!in) throw IoError{"cannot open trace file '" + path + "'"};
    std::stringstream buffer;
    buffer << in.rdbuf();
    request.trace = buffer.str();
    request.workload = "trace";
  }

  if (args.has("dump-trace")) {
    // Record the arrival stream the run will use, as a replayable trace.
    const std::vector<sched::Task> tasks = api::schedule_arrivals(request);
    const std::string path = args.get("dump-trace");
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
  table.add_row({"makespan", ms(response.makespan_s, 2)});
  table.add_row({"throughput",
                 format_fixed(response.throughput_per_s, 1) + " tasks/s"});
  table.add_row({"reconfigurations",
                 std::to_string(response.reconfig_count)});
  table.add_row({"slot reuse hits", std::to_string(response.reuse_hits)});
  table.add_row({"reconfig time / task",
                 ms(response.reconfig_seconds_per_task, 3)});
  table.add_row({"prefetches issued",
                 std::to_string(response.prefetches_issued)});
  table.add_row({"warm (prefetched) reconfigs",
                 std::to_string(response.prefetched_reconfigs)});
  table.add_row({"deadline misses",
                 std::to_string(response.deadline_misses)});
  table.add_row({"CPU fallbacks", std::to_string(response.cpu_fallbacks)});
  table.add_row({"mean wait", ms(response.mean_wait_s, 3)});
  table.add_row({"mean turnaround", ms(response.mean_turnaround_s, 3)});
  std::cout << table.to_ascii();
  print_request_stats(response.stats);
  return 0;
}

int cmd_netlist(const Engine&, const CliArgs& args) {
  if (args.positional.empty()) throw UsageError{"netlist needs a PRM"};
  emit_text(args, netlist_to_text(api::make_builtin_prm(args.positional[0])));
  return 0;
}

int cmd_explore(const Engine& engine, const CliArgs& args) {
  const api::ExploreResponse response =
      engine.explore(api::request_from_cli<api::ExploreRequest>(args));

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

int cmd_batch(const Engine& engine, const CliArgs& args) {
  api::BatchOptions options;
  options.workers = number_flag(args, "workers", options.workers);

  std::ifstream file;
  std::istream& in = input(args, file, "batch");
  std::ofstream out_file;
  std::ostream* out = &std::cout;
  if (args.has("o")) {
    out_file.open(args.get("o"));
    if (!out_file) {
      throw IoError{"cannot open output file '" + args.get("o") + "'"};
    }
    out = &out_file;
  }

  const api::BatchStats stats = api::run_batch(engine, in, *out, options);
  // Tally on stderr so stdout stays pure JSONL. Per-request failures are
  // structured responses, not process failures: exit 0 either way.
  std::cerr << "batch: " << stats.requests << " requests, " << stats.succeeded
            << " ok, " << stats.failed << " failed\n";
  return 0;
}

int cmd_serve(const Engine& engine, const CliArgs& args) {
  serve::ServerOptions options;
  options.unix_path = args.get("socket");
  options.tcp_port = number_flag(args, "port", options.tcp_port);
  options.tcp_host = args.get("host", options.tcp_host);
  options.max_queue = number_flag(args, "max-queue", options.max_queue);
  options.max_inflight_per_conn =
      number_flag(args, "max-inflight", options.max_inflight_per_conn);
  options.dispatch_batch =
      number_flag(args, "dispatch-batch", options.dispatch_batch);
  options.workers = number_flag(args, "workers", options.workers);
  options.drain_grace_ms =
      number_flag(args, "drain-grace-ms", options.drain_grace_ms);
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

int cmd_client(const Engine&, const CliArgs& args) {
  serve::Client client;
  if (args.has("socket")) {
    client = serve::Client::connect_unix(args.get("socket"));
  } else if (args.has("port")) {
    client = serve::Client::connect_tcp(args.get("host", "127.0.0.1"),
                                        number_flag(args, "port", 0));
  } else {
    throw UsageError{"client needs --socket PATH or --port N"};
  }

  std::ifstream file;
  std::istream& in = input(args, file, "requests");
  std::string line;
  while (std::getline(in, line)) {
    std::cout << client.request(line) << '\n';
  }
  std::cout.flush();
  return 0;
}

/// A command; one named like a request op takes that op's field table.
struct Command {
  std::string_view name;
  int (*run)(const Engine&, const CliArgs&);
  std::vector<std::string_view> flags = {};  ///< flags outside the table
  std::string_view args = {};  ///< positional arguments outside the table
};

const Command kCommands[] = {
    {"devices", cmd_devices},
    {"synth", cmd_synth, {"o FILE"}},
    {"plan", cmd_plan},
    {"bitstream", cmd_bitstream, {"o FILE"}},
    {"explore", cmd_explore},
    {"netlist", cmd_netlist, {"o FILE"}, "<prm>"},
    {"rank", cmd_rank},
    {"faults", cmd_faults},
    {"optimize", cmd_optimize},
    {"schedule", cmd_schedule, {"trace FILE", "dump-trace FILE"}},
    {"batch", cmd_batch, {"o FILE"}, "[requests.jsonl]"},
    {"serve", cmd_serve,
     {"socket PATH", "port N", "host H", "max-queue N", "max-inflight N",
      "dispatch-batch N", "drain-grace-ms N"}},
    {"client", cmd_client, {"socket PATH", "port N", "host H"},
     "[requests.jsonl]"},
};

/// A command's flags as "name VALUE" ("name" for a boolean): its field
/// table's CLI flags, then its own.
std::vector<std::string> command_flags(const Command& command) {
  std::vector<std::string> flags;
  for (const api::FieldInfo& field : api::request_fields(command.name)) {
    if (starts_with(field.flag, "--")) flags.push_back(field.flag.substr(2));
  }
  flags.insert(flags.end(), command.flags.begin(), command.flags.end());
  return flags;
}

/// "o FILE" -> "-o FILE", "tasks N" -> "--tasks N".
std::string dashed(std::string_view flag) {
  return (flag.size() == 1 || flag[1] == ' ' ? "-" : "--") + std::string{flag};
}

void print_usage(std::ostream& out) {
  out << "usage:\n";
  for (const Command& command : kCommands) {
    std::vector<std::string> words;
    for (const api::FieldInfo& field : api::request_fields(command.name)) {
      if (starts_with(field.flag, "<")) words.push_back(field.flag);
    }
    if (!command.args.empty()) words.emplace_back(command.args);
    for (const std::string& flag : command_flags(command)) {
      words.push_back("[" + dashed(flag) + "]");
    }
    std::string line = "  prcost " + std::string{command.name};
    for (const std::string& word : words) {
      if (line.size() + word.size() >= 79) {
        out << line << '\n';
        line.assign(13, ' ');
      }
      line += ' ' + word;
    }
    out << line << '\n';
  }
  out << "global flags (any command):\n";
  for (const auto& [flag, doc] : kGlobalFlags) {
    std::string line = "  " + dashed(flag);
    line.resize(std::max<std::size_t>(line.size() + 1, 24), ' ');
    out << line << doc << '\n';
  }
  out << "prms:";
  for (const std::string& name : api::builtin_prm_names()) out << ' ' << name;
  out << "\nexit codes: 0 ok, 1 runtime failure, 2 usage error\n";
}

/// Split argv into positional arguments and flags, accepting only the
/// command's flags and the global ones.
CliArgs parse_args(int argc, char** argv, const Command& command) {
  std::vector<std::string> accepted = command_flags(command);
  for (const auto& global : kGlobalFlags) accepted.emplace_back(global.first);
  CliArgs args;
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (!starts_with(token, "--") && token != "-o") {
      args.positional.push_back(token);
      continue;
    }
    const std::string name = token.substr(token == "-o" ? 1 : 2);
    const auto flag = std::ranges::find_if(accepted, [&](std::string_view f) {
      return f.substr(0, f.find(' ')) == name;
    });
    if (flag == accepted.end()) {
      std::vector<std::string_view> names;
      for (std::string_view f : accepted) {
        names.push_back(f.substr(0, f.find(' ')));
      }
      const std::string_view near = closest_match(name, names);
      throw UsageError{
          "unknown flag " + token + " for " + std::string{command.name} +
          (near.empty() ? "" : " (did you mean " + dashed(near) + "?)")};
    }
    if (flag->size() == name.size()) {
      args.flags[name] = "1";
    } else if (i + 1 < argc) {
      args.flags[name] = argv[++i];
    } else {
      throw UsageError{"flag " + token + " needs a value"};
    }
  }
  return args;
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

ObsOptions configure_obs(const CliArgs& args) {
  if (args.has("log-level")) {
    const auto level = parse_log_level(args.get("log-level"));
    if (!level) {
      throw UsageError{"unknown log level '" + args.get("log-level") +
                       "'"};
    }
    set_log_level(*level);
  }
  ObsOptions options;
  options.trace_out = args.get("trace-out");
  options.trace_folded = args.get("trace-folded");
  options.metrics_out = args.get("metrics-out");
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
  const std::string_view name = argv[1];
  try {
    const auto command = std::ranges::find(kCommands, name, &Command::name);
    if (command == std::end(kCommands)) {
      throw UsageError{"unknown command '" + std::string{name} + "'"};
    }
    const CliArgs args = parse_args(argc, argv, *command);
    for (const api::FieldInfo& field : api::request_fields(command->name)) {
      if (field.wire == "device" && !args.has("device")) {
        throw UsageError{std::string{name} + " needs --device"};
      }
    }
    const ObsOptions obs_options = configure_obs(args);
    Engine::Options engine_options;
    engine_options.plan_cache = !args.has("no-plan-cache");
    engine_options.bitstream_cache = !args.has("no-bitstream-cache");
    engine_options.fault_rate =
        rate_flag(args, "fault-rate", engine_options.fault_rate);
    engine_options.stall_rate =
        rate_flag(args, "stall-rate", engine_options.stall_rate);
    engine_options.fault_seed =
        number_flag(args, "fault-seed", engine_options.fault_seed);
    engine_options.max_retries =
        number_flag(args, "max-retries", engine_options.max_retries);
    engine_options.collect_stats = args.has("stats");
    engine_options.cache_dir = args.get("cache-dir");
    const Engine engine{engine_options};
    const int rc = command->run(engine, args);
    if (rc == 0) engine.save_caches();
    const bool jsonl = name == "batch" || name == "serve" || name == "client";
    const int obs_rc =
        finalize_obs(obs_options, jsonl ? std::cerr : std::cout);
    return rc != 0 ? rc : obs_rc;
  } catch (const UsageError& error) {
    std::cerr << "error: " << error.what() << "\n\n";
    print_usage(std::cerr);
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
