// Traced replay of one benchmark workload, layer by layer.
//
//   layer_probe --workload NAME --requests FILE --seconds S --trace-out FILE
//               [--socket PATH]
//
// Reads the same generated request lines the end-to-end run sends to the
// program and replays them in this process, calling each module's public
// functions directly: util (JSON), api (dispatch and Engine), serve (round
// trip to the live daemon at --socket), cost, synth, par, bitstream, dse,
// multitask, sched, reconfig and opt. The replay runs whole passes over the
// lines in pairs - one pass with the span log off, one with it on - so the
// wall-time difference is the tracing overhead. Per-layer
// metrics come from the traced pass's spans. The span log goes to
// --trace-out; one JSON object goes to stdout.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "api/batch.hpp"
#include "api/engine.hpp"
#include "api/requests.hpp"
#include "bitstream/bitstream_cache.hpp"
#include "bitstream/crc.hpp"
#include "bitstream/generator.hpp"
#include "cost/floorplan.hpp"
#include "cost/prr_search.hpp"
#include "dse/device_select.hpp"
#include "dse/explorer.hpp"
#include "multitask/simulator.hpp"
#include "multitask/workload.hpp"
#include "obs/request_stats.hpp"
#include "opt/optimizer.hpp"
#include "par/par.hpp"
#include "reconfig/faults.hpp"
#include "reconfig/media.hpp"
#include "sched/generators.hpp"
#include "sched/scheduler.hpp"
#include "serve/client.hpp"
#include "spans.hpp"
#include "synth/report.hpp"
#include "synth/synthesizer.hpp"
#include "util/json.hpp"

namespace {

using namespace prcost;
using perfbench::SpanLog;
using Scope = perfbench::SpanLog::Scope;
using Clock = std::chrono::steady_clock;

// Defaults an api::Engine applies to requests that leave them unset.
const api::Engine::Options kEngineDefaults{};

std::string slurp(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"cannot open " + path};
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

const Device& device_named(const std::string& name) {
  return DeviceDb::instance().get(name);
}

/// Built-in PRM requirements, synthesized once per (name, family) as the
/// program's own memo does.
PrmRequirements builtin_requirements(const std::string& name, Family family) {
  static std::map<std::pair<std::string, Family>, PrmRequirements> memo;
  const auto key = std::make_pair(name, family);
  auto it = memo.find(key);
  if (it == memo.end()) {
    const SynthesisResult synth =
        synthesize(api::make_builtin_prm(name), SynthOptions{family});
    it = memo.emplace(key, PrmRequirements::from_report(synth.report)).first;
  }
  return it->second;
}

std::vector<PrmInfo> prm_infos(const std::vector<std::string>& names,
                               Family family) {
  std::vector<PrmInfo> prms;
  for (const std::string& name : names) {
    prms.push_back(PrmInfo{name, builtin_requirements(name, family), 0});
  }
  return prms;
}

/// Counts the traced pass accumulates beside its spans.
struct Tally {
  double generated_bytes = 0;
  double crc_bytes = 0;
  u32 crc_sink = 0;
  double sim_tasks = 0;
  double sched_tasks = 0;
  double retry_attempts = 0;
  double proposals = 0;
  double accepted = 0;
  double response_bytes = 0;
  double responses = 0;
  u64 wire_mismatches = 0;
};

void generate_bitstream(SpanLog& log, const PrrPlan& plan, Family family,
                        Tally& tally, bool with_crc) {
  static std::vector<u32> words;
  {
    const Scope span{log, "bitstream.generate"};
    generate_bitstream_into(words, plan, family);
  }
  // The wire size: Spartan-6 serializes 16-bit words.
  tally.generated_bytes +=
      static_cast<double>(words.size() * traits(family).bytes_word);
  if (!with_crc) return;
  const std::size_t bytes = words.size() * sizeof(u32);
  {
    const Scope span{log, "bitstream.crc"};
    tally.crc_sink ^= crc32c_bytes(words.data(), bytes);
  }
  tally.crc_bytes += static_cast<double>(bytes);
}

// ------------------------------------------------------------ design-sweep

void design_request(SpanLog& log, const Json& request, Tally& tally) {
  const std::string& op = request.find("op")->as_string();
  if (op == "plan") {
    const api::PlanRequest plan_request = api::plan_request_from_json(request);
    const Device& device = device_named(plan_request.device);
    const Family family = device.fabric.family();
    std::optional<SynthesisResult> synth;
    PrmRequirements req;
    if (!plan_request.source.prm.empty()) {
      const Scope span{log, "synth.synthesize"};
      synth = synthesize(api::make_builtin_prm(plan_request.source.prm),
                         SynthOptions{family});
      req = PrmRequirements::from_report(synth->report);
    } else {
      const std::string text = slurp(plan_request.source.report_path);
      req = PrmRequirements::from_report(parse_report(text));
    }
    SearchOptions options;
    options.objective = plan_request.objective;
    std::optional<PrrPlan> plan;
    {
      const Scope span{log, "cost.find_prr_uncached"};
      plan = find_prr_uncached(req, device.fabric, options);
    }
    if (!plan) throw std::runtime_error{"infeasible plan in the replay"};
    if (synth) {
      const Scope span{log, "par.place_and_route"};
      const ParResult par = place_and_route(std::move(synth->netlist), *plan,
                                            device.fabric, ParOptions{});
      if (!par.routed) throw std::runtime_error{"PAR failed in the replay"};
    }
    generate_bitstream(log, *plan, family, tally, /*with_crc=*/true);
  } else if (op == "explore") {
    const api::ExploreRequest explore_request =
        api::explore_request_from_json(request);
    const Device& device = device_named(explore_request.device);
    const std::vector<PrmInfo> prms =
        prm_infos(explore_request.prms, device.fabric.family());
    WorkloadParams params;
    params.count = explore_request.tasks;
    params.prm_count = static_cast<u32>(prms.size());
    params.seed = explore_request.seed;
    const std::vector<HwTask> workload = make_workload(params);
    ExploreOptions options;
    options.workers = 1;
    options.max_groups = explore_request.max_groups;
    std::vector<DesignPoint> points;
    {
      const Scope span{log, "dse.explore"};
      points = explore(prms, device.fabric, workload, options);
    }
    if (explore_request.cross_check) {
      std::set<std::tuple<u32, u32, u32, u32, u32, u32>> seen;
      for (const DesignPoint& point : pareto_front(points)) {
        for (const PrrPlan& plan : point.prr_plans) {
          const auto key = std::make_tuple(
              plan.organization.h, plan.organization.columns.clb_cols,
              plan.organization.columns.dsp_cols,
              plan.organization.columns.bram_cols, plan.window.first_col,
              plan.first_row);
          if (seen.insert(key).second) {
            generate_bitstream(log, plan, device.fabric.family(), tally,
                               /*with_crc=*/true);
          }
        }
      }
    }
  } else if (op == "rank") {
    const api::RankRequest rank_request = api::rank_request_from_json(request);
    const std::vector<PrmInfo> prms =
        prm_infos(rank_request.prms, Family::kVirtex5);
    WorkloadParams params;
    params.count = rank_request.tasks;
    params.prm_count = static_cast<u32>(prms.size());
    params.seed = rank_request.seed;
    const std::vector<HwTask> workload = make_workload(params);
    DeviceSelectOptions options;
    options.workers = 1;
    const Scope span{log, "dse.rank"};
    const std::vector<DeviceChoice> choices =
        rank_devices(prms, workload, options);
    if (choices.empty()) throw std::runtime_error{"empty ranking"};
  } else {
    throw std::runtime_error{"design-sweep replay: unexpected op " + op};
  }
}

// --------------------------------------------------------- multitask-sweep

/// Requirements and Eq. 18 sizes of each named PRM on `device`.
std::vector<PrmInfo> sized_prms(const std::vector<std::string>& names,
                                const Device& device,
                                std::vector<PrrPlan>* plans) {
  std::vector<PrmInfo> prms = prm_infos(names, device.fabric.family());
  for (PrmInfo& prm : prms) {
    const auto plan = find_prr(prm.req, device.fabric);
    if (!plan) throw std::runtime_error{"infeasible PRM in the replay"};
    prm.bitstream_bytes = plan->bitstream.total_bytes;
    if (plans != nullptr) plans->push_back(*plan);
  }
  return prms;
}

void multitask_request(SpanLog& log, const Json& request, Tally& tally) {
  const std::string& op = request.find("op")->as_string();
  if (op == "schedule") {
    const api::ScheduleRequest sched_request =
        api::schedule_request_from_json(request);
    const Device& device = device_named(sched_request.device);
    const Family family = device.fabric.family();
    std::vector<PrrPlan> plans;
    const std::vector<PrmInfo> prms =
        sized_prms(sched_request.prms, device, &plans);
    // Every slot hosts any PRM: size it by the element-wise maximum and
    // place as many as the floorplanner fits, as the program does.
    PrmRequirements merged;
    for (const PrmInfo& prm : prms) {
      merged.lut_ff_pairs = std::max(merged.lut_ff_pairs, prm.req.lut_ff_pairs);
      merged.luts = std::max(merged.luts, prm.req.luts);
      merged.ffs = std::max(merged.ffs, prm.req.ffs);
      merged.dsps = std::max(merged.dsps, prm.req.dsps);
      merged.brams = std::max(merged.brams, prm.req.brams);
    }
    Floorplanner floorplanner{device.fabric};
    u32 placed = 0;
    while (placed < sched_request.slots &&
           floorplanner.place("slot" + std::to_string(placed), merged)) {
      ++placed;
    }
    if (placed == 0) throw std::runtime_error{"no slot placed in the replay"};

    sched::ArrivalParams params;
    params.count = sched_request.tasks;
    params.prm_count = static_cast<u32>(prms.size());
    params.mean_interarrival_s = sched_request.mean_interarrival_s;
    params.mean_exec_s = sched_request.mean_exec_s;
    params.deadline_factor = sched_request.deadline_factor;
    params.seed = sched_request.seed;
    std::vector<sched::Task> tasks = sched_request.workload == "bursty"
                                         ? sched::make_bursty(params)
                                         : sched::make_poisson(params);
    sched::SchedulerConfig config;
    config.slot_count = placed;
    config.policy = sched::parse_policy(sched_request.policy);
    config.cold_media = parse_media(sched_request.media);
    config.warm_media = parse_media(sched_request.warm_media);
    config.fault_rate =
        sched_request.fault_rate.value_or(kEngineDefaults.fault_rate);
    config.retry.max_retries =
        sched_request.max_retries.value_or(kEngineDefaults.max_retries);
    config.prefetch_rate_hz = sched_request.prefetch_rate_hz;
    config.cpu_workers = sched_request.cpu_workers;
    config.cpu_slowdown = sched_request.cpu_slowdown;
    config.prefetch_hook = [&plans, family](u32 prm) {
      generate_bitstream_cached(plans[prm], family);
    };
    const Scope span{log, "sched.run"};
    const sched::Report report = sched::run(prms, std::move(tasks), config);
    tally.sched_tasks += static_cast<double>(report.completed);
  } else if (op == "faults") {
    const api::FaultsRequest faults_request =
        api::faults_request_from_json(request);
    const Device& device = device_named(faults_request.device);
    const std::vector<PrmInfo> prms =
        sized_prms(faults_request.prms, device, nullptr);
    FaultProfile profile;
    profile.fault_rate =
        faults_request.fault_rate.value_or(kEngineDefaults.fault_rate);
    profile.stall_rate =
        faults_request.stall_rate.value_or(kEngineDefaults.stall_rate);
    profile.seed = faults_request.fault_seed.value_or(kEngineDefaults.fault_seed);
    FaultInjector injector{profile};
    SimConfig config;
    config.prr_count = faults_request.prr_count;
    config.media = parse_media(faults_request.media);
    config.retry.max_retries =
        faults_request.max_retries.value_or(kEngineDefaults.max_retries);
    config.recovery = faults_request.recovery == "reschedule"
                          ? FaultRecovery::kReschedule
                          : FaultRecovery::kDrop;
    if (profile.active()) config.faults = &injector;
    WorkloadParams params;
    params.count = faults_request.tasks;
    params.prm_count = static_cast<u32>(prms.size());
    params.seed = faults_request.seed;
    std::vector<HwTask> workload = make_workload(params);
    const Scope span{log, "multitask.simulate"};
    const SimResult result = simulate(prms, std::move(workload), config);
    tally.sim_tasks += static_cast<double>(faults_request.tasks);
    tally.retry_attempts += static_cast<double>(result.retry_attempts);
  } else if (op == "optimize") {
    const api::OptimizeRequest opt_request =
        api::optimize_request_from_json(request);
    const Device& device = device_named(opt_request.device);
    const opt::OptInstance instance = opt::make_prm_fleet(
        device, opt_request.prm_count, opt_request.groups, opt_request.seed);
    opt::OptimizeOptions options;
    options.seed = opt_request.seed;
    options.rounds = opt_request.rounds;
    options.proposals_per_round = opt_request.proposals_per_round;
    options.media = parse_media(opt_request.media);
    options.fault_rate =
        opt_request.fault_rate.value_or(kEngineDefaults.fault_rate);
    options.max_retries =
        opt_request.max_retries.value_or(kEngineDefaults.max_retries);
    options.workers = 1;
    std::optional<opt::OptimizeResult> result;
    {
      const Scope span{log, "opt.run"};
      opt::JointOptimizer optimizer{instance, options};
      result = optimizer.run();
    }
    tally.proposals += static_cast<double>(result->proposals);
    tally.accepted += static_cast<double>(result->accepted);
    for (const PlacedPrr& placed : result->placements) {
      generate_bitstream(log, placed.plan, device.fabric.family(), tally,
                         /*with_crc=*/false);
    }
  } else {
    throw std::runtime_error{"multitask-sweep replay: unexpected op " + op};
  }
}

// ------------------------------------------------------------ online-query

/// Warm-query replay state: the daemon connection, a warm in-process
/// Engine, and each line decoded once.
struct OnlineQuery {
  struct Line {
    std::string text;
    std::optional<api::PlanRequest> plan;
    std::optional<api::BitstreamRequest> bitstream;
    PrmRequirements req;
    const Device* device = nullptr;
    SearchOptions search;
  };

  api::Engine engine;
  serve::Client client;
  std::vector<Line> lines;
  double allocs_per_request = 0;

  OnlineQuery(const std::vector<std::string>& texts, const std::string& socket)
      : client(serve::Client::connect_unix(socket)) {
    double allocations = 0;
    for (const std::string& text : texts) {
      Line line;
      line.text = text;
      const Json request = Json::parse(text);
      if (request.find("op")->as_string() == "plan") {
        line.plan = api::plan_request_from_json(request);
        line.device = &device_named(line.plan->device);
        line.search.objective = line.plan->objective;
        line.req = builtin_requirements(line.plan->source.prm,
                                        line.device->fabric.family());
      } else {
        line.bitstream = api::bitstream_request_from_json(request);
        line.device = &device_named(line.bitstream->device);
        line.req = builtin_requirements(line.bitstream->source.prm,
                                        line.device->fabric.family());
      }
      api::dispatch_line(engine, text);  // warm the in-process caches
      {
        // Allocations of one warm request, through the program's own
        // request-scoped counter.
        const obs::RequestStats stats;
        api::dispatch_line(engine, text);
        allocations += static_cast<double>(stats.summary().allocations);
      }
      client.request(text);  // the daemon was warmed by the harness
      lines.push_back(std::move(line));
    }
    allocs_per_request = allocations / static_cast<double>(lines.size());
  }

  void request(SpanLog& log, const Line& line, Tally& tally) {
    std::string answer;
    {
      const Scope span{log, "serve.roundtrip"};
      answer = client.request(line.text);
    }
    {
      const Scope span{log, "api.dispatch_line"};
      const Json envelope = api::dispatch_line(engine, line.text);
    }
    Json parsed;
    {
      const Scope span{log, "util.json_parse"};
      parsed = Json::parse(line.text);
    }
    const Json envelope = api::dispatch_request(engine, parsed);
    {
      const Scope span{log, "api.engine"};
      if (line.plan) {
        const api::PlanResponse response = engine.plan(*line.plan);
      } else {
        const api::BitstreamResponse response = engine.bitstream(*line.bitstream);
      }
    }
    std::string text;
    {
      const Scope span{log, "util.json_dump"};
      text = envelope.dump();
    }
    {
      // One hit is tens of nanoseconds: time a fixed batch of them.
      const Scope span{log, "cost.find_prr_hit"};
      for (int i = 0; i < kHitBatch; ++i) {
        if (!find_prr(line.req, line.device->fabric, line.search)) {
          throw std::runtime_error{"find_prr miss on a feasible pair"};
        }
      }
    }
    tally.response_bytes += static_cast<double>(text.size());
    tally.responses += 1;
    if (answer != text) ++tally.wire_mismatches;
  }

  static constexpr int kHitBatch = 32;
};

// -------------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::string requests;
  std::string socket;
  std::string trace_out;
  double seconds = 10;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--requests") {
      args.requests = value;
    } else if (key == "--socket") {
      args.socket = value;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else {
      throw std::runtime_error{"unknown flag " + key};
    }
  }
  if (args.workload.empty() || args.requests.empty()) {
    throw std::runtime_error{"need --workload and --requests"};
  }
  return args;
}

double per_call(const SpanLog& log, const char* name, double scale) {
  const auto spans = log.named(name);
  if (spans.empty()) return 0;
  return log.total_us(name) / static_cast<double>(spans.size()) * scale;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    std::vector<std::string> texts;
    {
      std::ifstream in{args.requests};
      if (!in) throw std::runtime_error{"cannot open " + args.requests};
      for (std::string line; std::getline(in, line);) {
        if (!line.empty()) texts.push_back(line);
      }
    }
    std::vector<Json> requests;
    // Each request's root span is named after its op ("op.plan", ...).
    std::vector<std::string> root_names;
    for (const std::string& text : texts) {
      requests.push_back(Json::parse(text));
      root_names.push_back("op." + requests.back().find("op")->as_string());
    }

    std::optional<OnlineQuery> online;
    std::function<void(SpanLog&, std::size_t, Tally&)> one;
    if (args.workload == "online-query") {
      if (args.socket.empty()) throw std::runtime_error{"need --socket"};
      online.emplace(texts, args.socket);
      one = [&](SpanLog& log, std::size_t i, Tally& tally) {
        online->request(log, online->lines[i], tally);
      };
    } else if (args.workload == "design-sweep") {
      one = [&](SpanLog& log, std::size_t i, Tally& tally) {
        design_request(log, requests[i], tally);
      };
    } else if (args.workload == "multitask-sweep") {
      one = [&](SpanLog& log, std::size_t i, Tally& tally) {
        multitask_request(log, requests[i], tally);
      };
    } else {
      throw std::runtime_error{"unknown workload " + args.workload};
    }

    // Whole passes over the lines in pairs, one untraced and one traced,
    // alternating which runs first so drift in host speed cancels, until the
    // budget is spent (at least one pair).
    SpanLog untraced_log{false};
    SpanLog log{true};
    Tally untraced_tally;
    Tally tally;
    double untraced_s = 0;
    double traced_s = 0;
    u64 passes = 0;
    u64 request_id = 0;
    const auto start = Clock::now();
    do {
      for (int k = 0; k < 2; ++k) {
        const bool traced = (k == 0) == (passes % 2 == 1);
        SpanLog& pass_log = traced ? log : untraced_log;
        Tally& pass_tally = traced ? tally : untraced_tally;
        const auto pass_start = Clock::now();
        for (std::size_t i = 0; i < requests.size(); ++i) {
          pass_log.begin_request(++request_id);
          const Scope span{pass_log, root_names[i]};
          one(pass_log, i, pass_tally);
        }
        (traced ? traced_s : untraced_s) +=
            std::chrono::duration<double>(Clock::now() - pass_start).count();
      }
      ++passes;
    } while (std::chrono::duration<double>(Clock::now() - start).count() <
             args.seconds);

    Json metrics = Json::object();
    const double pass_count = static_cast<double>(passes);
    if (args.workload == "online-query") {
      const double roundtrip = log.median_us("serve.roundtrip");
      const double dispatch = log.median_us("api.dispatch_line");
      metrics.set("serve.roundtrip_us", roundtrip)
          .set("serve.overhead_us", roundtrip - dispatch)
          .set("api.dispatch_line_us", dispatch)
          .set("api.engine_us", log.median_us("api.engine"))
          .set("api.allocs_per_request", online->allocs_per_request)
          .set("util.json_parse_us", log.median_us("util.json_parse"))
          .set("util.json_dump_us", log.median_us("util.json_dump"))
          .set("util.response_bytes", tally.response_bytes / tally.responses)
          .set("cost.find_prr_hit_ns", log.median_us("cost.find_prr_hit") *
                                           1e3 / OnlineQuery::kHitBatch);
      if (tally.wire_mismatches != 0) {
        throw std::runtime_error{"daemon answers differ from dispatch_line"};
      }
    } else if (args.workload == "design-sweep") {
      metrics.set("par.place_and_route_ms",
                  per_call(log, "par.place_and_route", 1e-3))
          .set("synth.synthesize_ms", per_call(log, "synth.synthesize", 1e-3))
          .set("bitstream.generate_mb_per_s",
               tally.generated_bytes / log.total_us("bitstream.generate"))
          .set("bitstream.crc_gb_per_s",
               tally.crc_bytes / log.total_us("bitstream.crc") / 1e3)
          .set("dse.explore_ms", per_call(log, "dse.explore", 1e-3))
          .set("dse.rank_ms", per_call(log, "dse.rank", 1e-3))
          .set("cost.find_prr_uncached_us",
               per_call(log, "cost.find_prr_uncached", 1.0));
    } else {
      metrics.set("multitask.simulate_tasks_per_s",
                  tally.sim_tasks / log.total_us("multitask.simulate") * 1e6)
          .set("sched.run_tasks_per_s",
               tally.sched_tasks / log.total_us("sched.run") * 1e6)
          .set("reconfig.retry_attempts", tally.retry_attempts / pass_count)
          .set("opt.run_ms", per_call(log, "opt.run", 1e-3))
          .set("opt.accept_ratio", tally.accepted / tally.proposals)
          .set("bitstream.generate_mb_per_s",
               tally.generated_bytes / log.total_us("bitstream.generate"));
    }

    // Share of the traced passes' time each op and each layer holds.
    std::map<std::string, double> totals;
    double request_total = 0;
    for (const perfbench::Span& span : log.spans()) {
      totals[std::string{span.name}] += span.micros();
      if (span.parent < 0) request_total += span.micros();
    }
    Json op_shares = Json::object();
    Json layer_shares = Json::object();
    for (const auto& [name, total] : totals) {
      (name.rfind("op.", 0) == 0 ? op_shares : layer_shares)
          .set(name, total / request_total);
    }

    if (!args.trace_out.empty()) log.write_chrome_trace(args.trace_out);
    Json out = Json::object();
    out.set("passes", static_cast<u64>(passes))
        .set("requests", static_cast<u64>(requests.size() * passes))
        .set("untraced_s", untraced_s)
        .set("traced_s", traced_s)
        .set("spans", static_cast<u64>(log.spans().size()))
        .set("op_share", std::move(op_shares))
        .set("layer_share", std::move(layer_shares))
        .set("metrics", std::move(metrics));
    std::cout << out.dump() << '\n';
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "layer_probe: " << e.what() << '\n';
    return 2;
  }
}
