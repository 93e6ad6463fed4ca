#include "api/requests.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>

#include "netlist/generators.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace prcost::api {
namespace {

/// Join the builtin PRM names for error messages.
std::string prm_name_list() {
  std::string out;
  for (const std::string& name : builtin_prm_names()) {
    if (!out.empty()) out += ' ';
    out += name;
  }
  return out;
}

Json prms_to_json(const std::vector<std::string>& prms) {
  Json array = Json::array();
  for (const std::string& name : prms) array.push_back(name);
  return array;
}

Json organization_to_json(const PrrOrganization& org) {
  Json j = Json::object();
  j.set("h", org.h)
      .set("clb_cols", org.columns.clb_cols)
      .set("dsp_cols", org.columns.dsp_cols)
      .set("bram_cols", org.columns.bram_cols)
      .set("width", org.width())
      .set("size", org.size());
  return j;
}

Json plan_to_json(const PrrPlan& plan) {
  Json j = Json::object();
  j.set("organization", organization_to_json(plan.organization));
  Json window = Json::object();
  window.set("first_col", plan.window.first_col)
      .set("width", plan.window.width);
  j.set("window", std::move(window));
  j.set("first_row", plan.first_row);
  Json ru = Json::object();
  ru.set("clb", plan.ru.clb)
      .set("ff", plan.ru.ff)
      .set("lut", plan.ru.lut)
      .set("dsp", plan.ru.dsp)
      .set("bram", plan.ru.bram);
  j.set("utilization", std::move(ru));
  Json bs = Json::object();
  bs.set("total_words", plan.bitstream.total_words)
      .set("total_bytes", plan.bitstream.total_bytes)
      .set("config_frames_per_row", plan.bitstream.config_frames_per_row);
  j.set("bitstream", std::move(bs));
  return j;
}

Json report_to_json(const SynthesisReport& report) {
  Json j = Json::object();
  j.set("module", report.module_name)
      .set("family", std::string{family_name(report.family)})
      .set("lut_ff_pairs", report.lut_ff_pairs)
      .set("slice_luts", report.slice_luts)
      .set("slice_ffs", report.slice_ffs)
      .set("dsps", report.dsps)
      .set("brams", report.brams)
      .set("bonded_iobs", report.bonded_iobs);
  return j;
}

}  // namespace

void PrmSource::validate() const {
  const int set_count = (prm.empty() ? 0 : 1) + (netlist_path.empty() ? 0 : 1) +
                        (report_path.empty() ? 0 : 1);
  if (set_count == 0) throw UsageError{"need a PRM or --report file"};
  if (set_count > 1) {
    throw UsageError{"give exactly one of a PRM name, --netlist, --report"};
  }
}

Netlist make_builtin_prm(const std::string& name) {
  if (name == "fir") return make_fir();
  if (name == "mips") return make_mips5();
  if (name == "sdram") return make_sdram_ctrl();
  if (name == "aes") return make_aes_round();
  if (name == "crc32") return make_crc32();
  if (name == "uart") return make_uart();
  if (name == "matmul") return make_matmul();
  if (name == "sobel") return make_sobel();
  if (name == "fft") return make_fft_stage();
  throw NotFoundError{"unknown PRM '" + name + "' (known: " + prm_name_list() +
                      ")"};
}

const std::vector<std::string>& builtin_prm_names() {
  static const std::vector<std::string> names{
      "fir", "mips", "sdram", "aes", "crc32", "uart", "matmul", "sobel",
      "fft"};
  return names;
}

// --------------------------------------------------------- field tables --
//
// Each request field is declared once, as a row of its op's table below:
// f(wire name, member, doc[, bounds[, CLI flag]]). Decoding, encoding, the
// CLI flags and the usage text visit these rows; defaults are only the
// request structs' member initializers.

namespace {

/// Range a numeric field accepts; integers must also fit their member.
struct Bounds {
  double min = 0;
  double max = std::numeric_limits<double>::infinity();
};

constexpr Bounds kRate{0, 1};
constexpr Bounds kTasks{0, 1e6};
constexpr Bounds kRetries{0, 100};
constexpr Bounds kPool{0, 1024};

/// CLI flag markers. Any other non-empty flag replaces the one derived
/// from the wire name ('_' -> '-').
constexpr std::string_view kWireOnly = "-";
constexpr std::string_view kPositional = "<>";

void fields(SynthRequest& r, const auto& f) {
  f("prm", r.source.prm, "built-in PRM name", {}, kPositional);
  f("netlist", r.source.netlist_path, ".net netlist to synthesize", {},
    kWireOnly);
  f("report", r.source.report_path, ".srp synthesis report", {}, kWireOnly);
  f("family", r.family, "device family: v4, v5, v6, s7 or s6");
}

void fields(PlanRequest& r, const auto& f) {
  f("device", r.device, "part name (shorthands accepted)");
  f("prm", r.source.prm, "built-in PRM name", {}, kPositional);
  f("netlist", r.source.netlist_path, ".net netlist to synthesize");
  f("report", r.source.report_path, ".srp synthesis report (no PAR)");
  f("objective", r.objective,
    "PRR search objective: area, height or bitstream");
  f("shaped", r.shaped, "also evaluate an L-shaped PRR");
  f("cross_check", r.cross_check,
    "run the PAR and generated-bitstream cross-checks", {}, kWireOnly);
}

void fields(BitstreamRequest& r, const auto& f) {
  f("device", r.device, "part name (shorthands accepted)");
  f("prm", r.source.prm, "built-in PRM name", {}, kPositional);
  f("netlist", r.source.netlist_path, ".net netlist to synthesize");
  f("report", r.source.report_path, ".srp synthesis report (no PAR)");
}

void fields(ExploreRequest& r, const auto& f) {
  f("device", r.device, "part name (shorthands accepted)");
  f("prms", r.prms, "built-in PRM names", {}, kPositional);
  f("workers", r.workers, "parallel width (0 = engine default)");
  f("max_groups", r.max_groups, "PRR count cap (0 = one per PRM)",
    Bounds{0, 64}, kWireOnly);
  f("tasks", r.tasks, "synthetic task count", kTasks, kWireOnly);
  f("seed", r.seed, "workload seed", {}, kWireOnly);
  f("cross_check", r.cross_check,
    "generate the Pareto-front bitstreams, check Eq. 18");
}

void fields(RankRequest& r, const auto& f) {
  f("prms", r.prms, "built-in PRM names", {}, kPositional);
  f("workers", r.workers, "parallel width (0 = engine default)");
  f("tasks", r.tasks, "synthetic task count", kTasks, kWireOnly);
  f("seed", r.seed, "workload seed", {}, kWireOnly);
}

void fields(FaultsRequest& r, const auto& f) {
  f("device", r.device, "part name (shorthands accepted)");
  f("prms", r.prms, "built-in PRM names", {}, kPositional);
  f("prr_count", r.prr_count, "PRR pool size", Bounds{1, 1024}, "prrs");
  f("tasks", r.tasks, "synthetic task count", kTasks);
  f("seed", r.seed, "workload seed");
  f("fault_rate", r.fault_rate, "probability a transfer is corrupted", kRate);
  f("stall_rate", r.stall_rate, "media stall probability", kRate);
  f("fault_seed", r.fault_seed, "fault injector seed");
  f("max_retries", r.max_retries, "verified-transfer retry budget", kRetries);
  f("media", r.media, "bitstream storage media: cf, flash, ddr or bram");
  f("recovery", r.recovery, "a failed task's fate: drop or reschedule");
  f("strict", r.strict, "fail the request if a task is dropped");
}

void fields(OptimizeRequest& r, const auto& f) {
  f("device", r.device, "part name (shorthands accepted)");
  f("prms", r.prms, "built-in PRM names", {}, kPositional);
  f("prm_count", r.prm_count, "synthetic fleet size (when no prms)",
    Bounds{0, 10000});
  f("groups", r.groups, "shared PRRs (0 = auto)", Bounds{0, 10000});
  f("seed", r.seed, "fleet and annealer seed");
  f("rounds", r.rounds, "annealing rounds", Bounds{0, 100000});
  f("proposals_per_round", r.proposals_per_round,
    "speculative proposals per round", kPool, "proposals");
  f("media", r.media, "bitstream storage media: cf, flash, ddr or bram");
  f("fault_rate", r.fault_rate, "probability a transfer is corrupted", kRate);
  f("max_retries", r.max_retries, "verified-transfer retry budget", kRetries);
  f("workers", r.workers, "parallel width (0 = engine default)");
}

void fields(ScheduleRequest& r, const auto& f) {
  f("device", r.device, "part name (shorthands accepted)");
  f("prms", r.prms, "built-in PRM names", {}, kPositional);
  f("slots", r.slots, "PRR slots the floorplanner places", Bounds{1, 1024});
  f("policy", r.policy, "fcfs, priority or edf");
  f("workload", r.workload, "arrivals: poisson, bursty or trace");
  f("trace", r.trace, "JSONL arrival trace (workload trace)", {}, kWireOnly);
  f("tasks", r.tasks, "synthetic task count", kTasks);
  f("seed", r.seed, "workload seed");
  f("mean_interarrival_s", r.mean_interarrival_s, "mean inter-arrival time (s)",
    {}, "interarrival");
  f("mean_exec_s", r.mean_exec_s, "mean execution time (s)", {}, "exec");
  f("deadline_factor", r.deadline_factor,
    "relative deadline factor (0 = none)");
  f("media", r.media, "bitstream storage media: cf, flash, ddr or bram");
  f("warm_media", r.warm_media, "media of prefetched bitstreams");
  f("prefetch_rate_hz", r.prefetch_rate_hz,
    "prefetch at this EWMA arrival rate, Hz (0 = off)", {}, "prefetch-rate");
  f("fault_rate", r.fault_rate, "probability a transfer is corrupted", kRate);
  f("max_retries", r.max_retries, "verified-transfer retry budget", kRetries);
  f("cpu_workers", r.cpu_workers, "CPU-fallback pool (0 = no fallback)", kPool);
  f("cpu_slowdown", r.cpu_slowdown, "software / hardware execution-time ratio");
  f("detail", r.detail, "include per-task outcomes", {}, kWireOnly);
}

/// Adapts a visitor of all five row columns to the rows' defaults.
template <typename F>
struct Visit {
  F f;
  void operator()(std::string_view wire, auto& member, std::string_view doc,
                  const Bounds& bounds = {},
                  std::string_view flag = {}) const {
    f(wire, member, doc, bounds, flag);
  }
};

/// Members any request line may carry besides its op's fields.
constexpr std::string_view kEnvelope[] = {"op", "id", "deadline_ms"};

std::string number_text(double v) {
  return v == std::floor(v) && std::abs(v) < 1e15
             ? std::to_string(static_cast<long long>(v))
             : Json{v}.dump();
}

std::string bounds_text(const Bounds& b) {
  return std::isinf(b.max) ? ">= " + number_text(b.min)
                           : number_text(b.min) + ".." + number_text(b.max);
}

/// Throws ParseError naming the bound when `v` is outside `b` or above
/// its member type's maximum.
void check_bounds(double v, Bounds b, double type_max) {
  b.max = std::min(b.max, type_max);
  if (v < b.min || v > b.max) {
    throw ParseError{number_text(v) + " is not " +
                     (std::isinf(b.max) ? "" : "in ") + bounds_text(b)};
  }
}

template <typename T>
constexpr bool kOptional = false;
template <typename T>
constexpr bool kOptional<std::optional<T>> = true;
using Names = std::vector<std::string>;

template <typename T>
constexpr std::string_view type_name() {
  if constexpr (kOptional<T>) return type_name<typename T::value_type>();
  if constexpr (std::is_same_v<T, bool>) return "bool";
  if constexpr (std::is_integral_v<T>) return "integer";
  if constexpr (std::is_floating_point_v<T>) return "number";
  if constexpr (std::is_same_v<T, Names>) return "strings";
  return "string";
}

constexpr std::pair<std::string_view, SearchObjective> kObjectives[] = {
    {"area", SearchObjective::kMinArea},
    {"height", SearchObjective::kFirstFeasible},
    {"bitstream", SearchObjective::kMinBitstream}};

/// Type- and bounds-checked read of one member; ParseError on failure.
template <typename T>
void read_value(T& v, const Json& j, const Bounds& b) {
  if constexpr (kOptional<T>) {
    read_value(v.emplace(), j, b);
  } else if constexpr (std::is_same_v<T, bool>) {
    v = j.as_bool();
  } else if constexpr (std::is_integral_v<T>) {
    const u64 n = j.as_u64();
    check_bounds(static_cast<double>(n), b,
                 static_cast<double>(std::numeric_limits<T>::max()));
    v = static_cast<T>(n);
  } else if constexpr (std::is_floating_point_v<T>) {
    v = j.as_double();
    check_bounds(v, b, b.max);
  } else if constexpr (std::is_same_v<T, Names>) {
    v.clear();
    for (const Json& name : j.as_array()) v.push_back(name.as_string());
  } else if constexpr (std::is_same_v<T, SearchObjective>) {
    using Entry = std::pair<std::string_view, T>;
    const auto it =
        std::ranges::find(kObjectives, j.as_string(), &Entry::first);
    if (it == std::end(kObjectives)) {
      throw UsageError{"unknown objective '" + j.as_string() + "'"};
    }
    v = it->second;
  } else if constexpr (std::is_same_v<T, Family>) {
    const std::string& name = j.as_string();
    try {
      v = parse_family(name);
    } catch (const ContractError&) {
      // The parser's contract is the request's fault here: a usage error.
      throw ParseError{"unknown family '" + name + "'"};
    }
  } else {
    v = j.as_string();
  }
}

template <typename T>
Json write_value(const T& v) {
  if constexpr (kOptional<T>) {
    return v ? write_value(*v) : Json{};
  } else if constexpr (std::is_same_v<T, Names>) {
    return prms_to_json(v);
  } else if constexpr (std::is_same_v<T, SearchObjective>) {
    using Entry = std::pair<std::string_view, T>;
    return std::ranges::find(kObjectives, v, &Entry::second)->first;
  } else if constexpr (std::is_same_v<T, Family>) {
    return family_name(v);
  } else {
    return v;
  }
}

template <typename R>
R decode(const Json& j) {
  R request;
  std::size_t known = 0;
  for (const std::string_view key : kEnvelope) known += j.find(key) != nullptr;
  fields(request, Visit{[&](auto wire, auto& member, auto, auto& b, auto) {
           if (const Json* value = j.find(wire)) {
             try {
               read_value(member, *value, b);
             } catch (const ParseError& error) {
               throw UsageError{std::string{wire} + ": " + error.what()};
             }
             ++known;
           }
         }});
  if (known == j.as_object().size()) return request;
  // Some member is neither a field nor an envelope key: name it.
  std::vector<std::string_view> names{std::begin(kEnvelope),
                                      std::end(kEnvelope)};
  fields(request, Visit{[&](auto wire, auto&...) { names.push_back(wire); }});
  for (const auto& [key, value] : j.as_object()) {
    if (std::ranges::find(names, key) != names.end()) continue;
    const std::string near{closest_match(key, names)};
    throw UsageError{"unknown field '" + key + "'" +
                     (near.empty() ? "" : " (did you mean '" + near + "'?)")};
  }
  return request;
}

/// A request line, decoded into whichever request type it converts to.
struct Wire {
  const Json& j;
  template <typename R>
  operator R() const {
    return decode<R>(j);
  }
};

/// Writes every field but the unset optionals.
template <typename R>
Json encode(R request, std::string_view op) {
  Json j = Json::object();
  j.set("op", op);
  fields(request, Visit{[&](auto wire, auto& member, auto...) {
           Json value = write_value(member);
           if (!value.is_null()) j.set(std::string{wire}, std::move(value));
         }});
  return j;
}

std::string flag_name(std::string_view wire, std::string_view flag) {
  std::string name{flag.empty() ? wire : flag};
  std::ranges::replace(name, '_', '-');
  return name;
}

template <typename R>
std::vector<FieldInfo> field_infos() {
  R defaults;
  std::vector<FieldInfo> infos;
  fields(defaults, Visit{[&](auto wire, auto& member, auto doc, auto& bounds,
                             auto flag) {
           const std::string_view type =
               type_name<std::remove_cvref_t<decltype(member)>>();
           FieldInfo& info = infos.emplace_back(FieldInfo{
               wire, "", type, write_value(member).dump(), "", doc});
           if (flag == kPositional) {
             info.flag = "<" + std::string{wire} + ">";
           } else if (flag != kWireOnly) {
             info.flag = "--" + flag_name(wire, flag) +
                         (type == "bool"      ? ""
                          : type == "integer" ? " N"
                          : type == "number"  ? " X"
                                              : " NAME");
           }
           if (type == "number" || !std::isinf(bounds.max)) {
             info.bounds = bounds_text(bounds);
           }
         }});
  return infos;
}

}  // namespace

void check_rate(double rate) { check_bounds(rate, kRate, kRate.max); }

template <typename Request>
Request request_from_cli(const CliArgs& args) {
  Request request;
  fields(request, Visit{[&](auto wire, auto& member, auto, auto& bounds,
                            auto flag) {
           const std::string_view type =
               type_name<std::remove_cvref_t<decltype(member)>>();
           const std::string name = flag_name(wire, flag);
           if (flag == kPositional && !args.positional.empty()) {
             const Json names = prms_to_json(args.positional);
             read_value(member, type == "strings" ? names : names.as_array()[0],
                        bounds);
           } else if (flag != kWireOnly && args.has(name)) {
             const std::string text = args.get(name);
             try {
               read_value(member,
                          type == "bool"      ? Json{true}
                          : type == "integer" ? Json{u64{parse_u64(text)}}
                          : type == "number"  ? Json{parse_double(text)}
                                              : Json{text},
                          bounds);
             } catch (const ParseError& error) {
               throw UsageError{"--" + name + ": " + error.what()};
             }
           }
         }});
  return request;
}

template SynthRequest request_from_cli(const CliArgs&);
template PlanRequest request_from_cli(const CliArgs&);
template BitstreamRequest request_from_cli(const CliArgs&);
template ExploreRequest request_from_cli(const CliArgs&);
template RankRequest request_from_cli(const CliArgs&);
template FaultsRequest request_from_cli(const CliArgs&);
template OptimizeRequest request_from_cli(const CliArgs&);
template ScheduleRequest request_from_cli(const CliArgs&);

std::vector<FieldInfo> request_fields(std::string_view op) {
  if (op == "synth") return field_infos<SynthRequest>();
  if (op == "plan") return field_infos<PlanRequest>();
  if (op == "bitstream") return field_infos<BitstreamRequest>();
  if (op == "explore") return field_infos<ExploreRequest>();
  if (op == "rank") return field_infos<RankRequest>();
  if (op == "faults") return field_infos<FaultsRequest>();
  if (op == "optimize") return field_infos<OptimizeRequest>();
  if (op == "schedule") return field_infos<ScheduleRequest>();
  return {};
}

SynthRequest synth_request_from_json(const Json& j) { return Wire{j}; }
PlanRequest plan_request_from_json(const Json& j) { return Wire{j}; }
BitstreamRequest bitstream_request_from_json(const Json& j) { return Wire{j}; }
ExploreRequest explore_request_from_json(const Json& j) { return Wire{j}; }
RankRequest rank_request_from_json(const Json& j) { return Wire{j}; }
FaultsRequest faults_request_from_json(const Json& j) { return Wire{j}; }
OptimizeRequest optimize_request_from_json(const Json& j) { return Wire{j}; }
ScheduleRequest schedule_request_from_json(const Json& j) { return Wire{j}; }

Json to_json(const SynthRequest& r) { return encode(r, "synth"); }
Json to_json(const PlanRequest& r) { return encode(r, "plan"); }
Json to_json(const BitstreamRequest& r) { return encode(r, "bitstream"); }
Json to_json(const ExploreRequest& r) { return encode(r, "explore"); }
Json to_json(const RankRequest& r) { return encode(r, "rank"); }
Json to_json(const FaultsRequest& r) { return encode(r, "faults"); }
Json to_json(const OptimizeRequest& r) { return encode(r, "optimize"); }
Json to_json(const ScheduleRequest& r) { return encode(r, "schedule"); }

Json to_json(const obs::RequestStatsSummary& s) {
  const auto ms = [](u64 ns) { return static_cast<double>(ns) / 1e6; };
  Json j = Json::object();
  j.set("wall_ms", ms(s.wall_ns));
  Json cache = Json::object();
  cache.set("plan_hits", s.plan_cache_hits)
      .set("plan_misses", s.plan_cache_misses)
      .set("bitstream_hits", s.bitstream_cache_hits)
      .set("bitstream_misses", s.bitstream_cache_misses);
  j.set("cache", std::move(cache));
  j.set("retries", s.retries);
  j.set("allocations", s.allocations);
  Json phases = Json::array();
  for (const obs::RequestPhase& phase : s.phases) {
    Json p = Json::object();
    p.set("name", phase.name)
        .set("count", phase.count)
        .set("total_ms", ms(phase.total_ns))
        .set("self_ms", ms(phase.self_ns))
        .set("max_ms", ms(phase.max_ns));
    phases.push_back(std::move(p));
  }
  j.set("phases", std::move(phases));
  return j;
}

namespace {

/// Append the optional stats block. Always the LAST member set on a
/// response object: stats-off serialization must stay byte-identical to
/// output that predates the stats feature.
void set_stats(Json& j, const std::optional<obs::RequestStatsSummary>& s) {
  if (s) j.set("stats", to_json(*s));
}

}  // namespace

Json to_json(const SynthResponse& r) {
  Json j = Json::object();
  j.set("report", report_to_json(r.report));
  set_stats(j, r.stats);
  return j;
}

Json to_json(const PlanResponse& r) {
  Json j = Json::object();
  j.set("device", r.device);
  j.set("plan", plan_to_json(r.plan));
  if (r.par) {
    Json par = Json::object();
    par.set("routed", r.par->routed);
    if (r.par->routed) {
      par.set("placed_cells", r.par->placed_cells)
          .set("hpwl_initial", r.par->hpwl_initial)
          .set("hpwl_final", r.par->hpwl_final)
          .set("critical_path_ns", r.par->critical_path_ns);
    } else {
      par.set("failure_reason", r.par->failure_reason);
    }
    j.set("par", std::move(par));
  }
  if (r.generated_bytes) {
    j.set("generated_bytes", *r.generated_bytes);
    j.set("model_match", r.generated_matches_model());
  }
  if (r.shaped) {
    Json shaped = Json::object();
    shaped.set("beats_rectangle", r.shaped->beats_rectangle)
        .set("cells", r.shaped->cells)
        .set("bitstream_bytes", r.shaped->bitstream_bytes)
        .set("cells_saved", r.shaped->cells_saved);
    j.set("shaped", std::move(shaped));
  }
  set_stats(j, r.stats);
  return j;
}

Json to_json(const BitstreamResponse& r) {
  Json j = Json::object();
  j.set("device", r.device)
      .set("family", std::string{family_name(r.family)})
      .set("plan", plan_to_json(r.plan))
      .set("words", static_cast<u64>(r.words ? r.words->size() : 0))
      .set("total_bytes", r.total_bytes);
  set_stats(j, r.stats);
  return j;
}

Json to_json(const ExploreResponse& r) {
  Json j = Json::object();
  j.set("device", r.device);
  j.set("prms", prms_to_json(r.prms));
  Json points = Json::array();
  for (const DesignPoint& point : r.points) {
    Json p = Json::object();
    Json partition = Json::array();
    for (const auto& group : point.partition) {
      Json names = Json::array();
      for (const u32 prm : group) names.push_back(r.prms[prm]);
      partition.push_back(std::move(names));
    }
    p.set("partition", std::move(partition));
    p.set("feasible", point.feasible);
    if (point.feasible) {
      p.set("total_prr_area", point.total_prr_area)
          .set("total_bitstream_bytes", point.total_bitstream_bytes)
          .set("makespan_s", point.makespan_s)
          .set("total_reconfig_s", point.total_reconfig_s);
    } else {
      p.set("reason", point.infeasible_reason);
    }
    points.push_back(std::move(p));
  }
  j.set("points", std::move(points));
  j.set("pareto_count", static_cast<u64>(r.pareto_count));
  if (r.bitstream_check) {
    Json check = Json::object();
    check.set("plans_checked", r.bitstream_check->plans_checked)
        .set("all_match", r.bitstream_check->all_match);
    j.set("bitstream_check", std::move(check));
  }
  set_stats(j, r.stats);
  return j;
}

Json to_json(const RankResponse& r) {
  Json j = Json::object();
  Json choices = Json::array();
  for (const DeviceChoice& choice : r.choices) {
    Json c = Json::object();
    c.set("device", choice.device).set("feasible", choice.feasible);
    if (choice.feasible) {
      c.set("total_prr_cells", choice.total_prr_cells)
          .set("fabric_fraction", choice.fabric_fraction)
          .set("total_bitstream_bytes", choice.total_bitstream_bytes)
          .set("makespan_s", choice.makespan_s);
    } else {
      c.set("reason", choice.reason);
    }
    choices.push_back(std::move(c));
  }
  j.set("choices", std::move(choices));
  set_stats(j, r.stats);
  return j;
}

Json to_json(const FaultsResponse& r) {
  Json j = Json::object();
  j.set("device", r.device)
      .set("fault_rate", r.fault_rate)
      .set("fault_seed", r.fault_seed)
      .set("max_retries", r.max_retries)
      .set("makespan_s", r.makespan_s)
      .set("reconfig_count", r.reconfig_count)
      .set("total_reconfig_s", r.total_reconfig_s)
      .set("failed_reconfigs", r.failed_reconfigs)
      .set("dropped_tasks", r.dropped_tasks)
      .set("rescheduled_tasks", r.rescheduled_tasks)
      .set("retry_attempts", r.retry_attempts)
      .set("total_retry_backoff_s", r.total_retry_backoff_s)
      .set("total_fault_wasted_s", r.total_fault_wasted_s)
      .set("total_penalty_s", r.total_penalty_s)
      .set("injected_faults", r.injected_faults)
      .set("injected_stalls", r.injected_stalls)
      .set("effective_reconfig_s", r.effective_reconfig_s);
  set_stats(j, r.stats);
  return j;
}

Json to_json(const DevicesResponse& r) {
  Json j = Json::object();
  Json devices = Json::array();
  for (const DeviceSummary& dev : r.devices) {
    Json d = Json::object();
    d.set("name", dev.name)
        .set("family", dev.family)
        .set("rows", dev.rows)
        .set("clb_cols", dev.clb_cols)
        .set("dsp_cols", dev.dsp_cols)
        .set("bram_cols", dev.bram_cols)
        .set("clbs", dev.clbs)
        .set("dsps", dev.dsps)
        .set("bram36s", dev.bram36s);
    devices.push_back(std::move(d));
  }
  j.set("devices", std::move(devices));
  set_stats(j, r.stats);
  return j;
}

Json to_json(const OptimizeResponse& r) {
  Json j = Json::object();
  j.set("device", r.device)
      .set("prm_count", r.prm_count)
      .set("group_count", r.group_count)
      .set("seed", r.seed)
      .set("greedy_rejected_prms", r.greedy_rejected_prms)
      .set("greedy_rejection_rate", r.greedy_rejection_rate)
      .set("greedy_makespan_s", r.greedy_makespan_s)
      .set("greedy_fragmentation", r.greedy_fragmentation)
      .set("greedy_cost", r.greedy_cost)
      .set("greedy_placed_groups", r.greedy_placed_groups)
      .set("anneal_rejected_prms", r.anneal_rejected_prms)
      .set("anneal_rejection_rate", r.anneal_rejection_rate)
      .set("anneal_makespan_s", r.anneal_makespan_s)
      .set("anneal_fragmentation", r.anneal_fragmentation)
      .set("anneal_cost", r.anneal_cost)
      .set("anneal_placed_groups", r.anneal_placed_groups)
      .set("anneal_relocation_s", r.anneal_relocation_s)
      .set("proposals", r.proposals)
      .set("accepted", r.accepted)
      .set("accepted_swap", r.accepted_swap)
      .set("accepted_relocate", r.accepted_relocate)
      .set("accepted_resize", r.accepted_resize)
      .set("accepted_compact", r.accepted_compact)
      .set("cost_verified", r.cost_verified)
      .set("bitstream_verified", r.bitstream_verified);
  set_stats(j, r.stats);
  return j;
}

Json to_json(const ScheduleResponse& r) {
  Json j = Json::object();
  j.set("device", r.device)
      .set("policy", r.policy)
      .set("slot_count", r.slot_count)
      .set("prm_count", r.prm_count)
      .set("task_count", r.task_count)
      .set("fault_rate", r.fault_rate)
      .set("makespan_s", r.makespan_s)
      .set("throughput_per_s", r.throughput_per_s)
      .set("reuse_hits", r.reuse_hits)
      .set("reconfig_count", r.reconfig_count)
      .set("total_reconfig_s", r.total_reconfig_s)
      .set("reconfig_seconds_per_task", r.reconfig_seconds_per_task)
      .set("deadline_misses", r.deadline_misses)
      .set("cpu_fallbacks", r.cpu_fallbacks)
      .set("prefetches_issued", r.prefetches_issued)
      .set("prefetched_reconfigs", r.prefetched_reconfigs)
      .set("mean_wait_s", r.mean_wait_s)
      .set("mean_turnaround_s", r.mean_turnaround_s);
  if (!r.task_outcomes.empty()) {
    Json tasks = Json::array();
    for (const ScheduleTaskOutcome& t : r.task_outcomes) {
      Json o = Json::object();
      o.set("name", t.name)
          .set("prm", t.prm)
          .set("slot", t.slot)
          .set("cpu_fallback", t.cpu_fallback)
          .set("reconfigured", t.reconfigured)
          .set("prefetched", t.prefetched)
          .set("deadline_miss", t.deadline_miss)
          .set("reconfig_s", t.reconfig_s)
          .set("start_s", t.start_s)
          .set("finish_s", t.finish_s)
          .set("wait_s", t.wait_s);
      tasks.push_back(std::move(o));
    }
    j.set("tasks", std::move(tasks));
  }
  set_stats(j, r.stats);
  return j;
}

}  // namespace prcost::api
