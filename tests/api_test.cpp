// Engine request/response round-trips, the JSON layer, the structured
// error taxonomy, and the JSONL batch dispatch.
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "api/batch.hpp"
#include "api/engine.hpp"
#include "api/requests.hpp"
#include "cost/prr_search.hpp"
#include "device/device_db.hpp"
#include "obs/obs.hpp"
#include "synth/report.hpp"
#include "synth/synthesizer.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace prcost {
namespace {

using api::Engine;

// ----------------------------------------------------------------- Json --

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_EQ(Json::parse("42").as_i64(), 42);
  EXPECT_EQ(Json::parse("-7").as_i64(), -7);
  EXPECT_DOUBLE_EQ(Json::parse("2.5").as_double(), 2.5);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_double(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\\n\\\"there\\\"\"").as_string(),
            "hi\n\"there\"");
}

TEST(Json, IntegersStayExact) {
  const u64 big = 9007199254740993ull;  // 2^53 + 1: not double-representable
  Json j{big};
  EXPECT_EQ(Json::parse(j.dump()).as_u64(), big);
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json j = Json::object();
  j.set("zebra", 1).set("apple", 2).set("mango", 3);
  EXPECT_EQ(j.dump(), "{\"zebra\":1,\"apple\":2,\"mango\":3}");
  j.set("apple", 9);  // overwrite keeps position
  EXPECT_EQ(j.dump(), "{\"zebra\":1,\"apple\":9,\"mango\":3}");
}

TEST(Json, RoundTripsNestedDocuments) {
  const std::string text =
      "{\"a\":[1,2.5,\"x\",null,true],\"b\":{\"c\":[{\"d\":-1}]}}";
  EXPECT_EQ(Json::parse(text).dump(), text);
}

TEST(Json, FindAndTypedAccessErrors) {
  const Json j = Json::parse("{\"s\":\"v\",\"n\":1}");
  ASSERT_NE(j.find("s"), nullptr);
  EXPECT_EQ(j.find("s")->as_string(), "v");
  EXPECT_EQ(j.find("missing"), nullptr);
  EXPECT_THROW(j.find("s")->as_i64(), ParseError);
  EXPECT_THROW(j.find("n")->as_string(), ParseError);
  EXPECT_THROW(Json::parse("-1").as_u64(), ParseError);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), ParseError);
  EXPECT_THROW(Json::parse("{"), ParseError);
  EXPECT_THROW(Json::parse("{\"a\":}"), ParseError);
  EXPECT_THROW(Json::parse("[1,]"), ParseError);
  EXPECT_THROW(Json::parse("tru"), ParseError);
  EXPECT_THROW(Json::parse("\"unterminated"), ParseError);
  EXPECT_THROW(Json::parse("1 2"), ParseError);  // trailing garbage
}

TEST(Json, EscapesControlCharacters) {
  Json j = Json::object();
  j.set("k", std::string{"a\tb\x01"});
  EXPECT_EQ(j.dump(), "{\"k\":\"a\\tb\\u0001\"}");
}

// ------------------------------------------------------- error taxonomy --

TEST(ErrorTaxonomy, CodesAndWireNames) {
  EXPECT_EQ(UsageError{"x"}.code(), ErrorCode::kUsage);
  EXPECT_EQ(NotFoundError{"x"}.code(), ErrorCode::kNotFound);
  EXPECT_EQ(InfeasibleError{"x"}.code(), ErrorCode::kInfeasible);
  EXPECT_EQ(IoError{"x"}.code(), ErrorCode::kIo);
  EXPECT_EQ(ParseError{"x"}.code(), ErrorCode::kParse);
  EXPECT_EQ(ContractError{"x"}.code(), ErrorCode::kContract);
  EXPECT_EQ(error_code_name(ErrorCode::kUsage), "usage");
  EXPECT_EQ(error_code_name(ErrorCode::kNotFound), "not_found");
  EXPECT_EQ(error_code_name(ErrorCode::kInfeasible), "infeasible");
  EXPECT_EQ(error_code_name(ErrorCode::kIo), "io");
  EXPECT_EQ(error_code_name(ErrorCode::kParse), "parse");
  EXPECT_EQ(error_code_name(ErrorCode::kContract), "contract");
  EXPECT_EQ(error_code_name(ErrorCode::kInternal), "internal");
}

TEST(ErrorTaxonomy, NotFoundIsAContractError) {
  // Pre-taxonomy catch sites caught ContractError from lookups; the
  // refinement must not break them.
  EXPECT_THROW(DeviceDb::instance().get("xc2v1000"), ContractError);
  EXPECT_THROW(DeviceDb::instance().get("xc2v1000"), NotFoundError);
}

// --------------------------------------------------------------- Engine --

TEST(Engine, PlanMatchesDirectSearch) {
  const Engine engine;
  api::PlanRequest request;
  request.device = "xc5vlx110t";
  request.source.prm = "fir";
  const api::PlanResponse response = engine.plan(request);

  const Device& device = DeviceDb::instance().get("xc5vlx110t");
  const SynthesisResult synth =
      synthesize(api::make_builtin_prm("fir"), SynthOptions{Family::kVirtex5});
  const auto direct =
      find_prr(PrmRequirements::from_report(synth.report), device.fabric);
  ASSERT_TRUE(direct.has_value());

  EXPECT_EQ(response.device, "xc5vlx110t");
  EXPECT_EQ(response.plan.organization.h, direct->organization.h);
  EXPECT_EQ(response.plan.organization.size(), direct->organization.size());
  EXPECT_EQ(response.plan.bitstream.total_bytes,
            direct->bitstream.total_bytes);
  ASSERT_TRUE(response.generated_bytes.has_value());
  EXPECT_TRUE(response.generated_matches_model());
  ASSERT_TRUE(response.par.has_value());
  EXPECT_TRUE(response.par->routed);
}

TEST(Engine, PlanSkipsParForReportSource) {
  const Engine engine;
  // Render a report, consume it via the report path: no netlist => no PAR.
  const SynthesisResult synth =
      synthesize(api::make_builtin_prm("uart"), SynthOptions{Family::kVirtex5});
  const std::string path = testing::TempDir() + "/uart_api_test.srp";
  {
    std::ofstream out{path};
    out << report_to_text(synth.report);
  }
  api::PlanRequest request;
  request.device = "v5lx110t";
  request.source.report_path = path;
  const api::PlanResponse response = engine.plan(request);
  EXPECT_FALSE(response.par.has_value());
  EXPECT_TRUE(response.generated_matches_model());
}

TEST(Engine, ErrorCodeMapping) {
  const Engine engine;
  api::PlanRequest request;

  // Missing device: usage.
  request.source.prm = "fir";
  EXPECT_THROW(engine.plan(request), UsageError);

  // Unknown device: not_found.
  request.device = "bogus";
  EXPECT_THROW(engine.plan(request), NotFoundError);

  // Unknown PRM: not_found.
  request.device = "xc5vlx110t";
  request.source.prm = "zzz";
  EXPECT_THROW(engine.plan(request), NotFoundError);

  // Unreadable file: io.
  request.source = {};
  request.source.report_path = "/nonexistent/file.srp";
  EXPECT_THROW(engine.plan(request), IoError);

  // No source at all: usage.
  request.source = {};
  EXPECT_THROW(engine.plan(request), UsageError);

  // Two sources: usage.
  request.source.prm = "fir";
  request.source.report_path = "x.srp";
  EXPECT_THROW(engine.plan(request), UsageError);

  // Infeasible: the matmul DSP demand cannot fit the LX110T's single DSP
  // column.
  request.source = {};
  request.source.prm = "matmul";
  EXPECT_THROW(engine.plan(request), InfeasibleError);

  // explore/rank shape validation: usage.
  api::ExploreRequest explore_request;
  explore_request.device = "xc5vlx110t";
  explore_request.prms = {"fir"};
  EXPECT_THROW(engine.explore(explore_request), UsageError);
  EXPECT_THROW(engine.rank(api::RankRequest{}), UsageError);
}

TEST(Engine, SynthMatchesDirectCall) {
  const Engine engine;
  api::SynthRequest request;
  request.source.prm = "fir";
  request.family = Family::kVirtex6;
  const api::SynthResponse response = engine.synth(request);
  const SynthesisResult direct =
      synthesize(api::make_builtin_prm("fir"), SynthOptions{Family::kVirtex6});
  EXPECT_EQ(response.report.lut_ff_pairs, direct.report.lut_ff_pairs);
  EXPECT_EQ(response.report.dsps, direct.report.dsps);
  EXPECT_EQ(response.report.brams, direct.report.brams);
}

TEST(Engine, ExploreAndRankAreDeterministic) {
  const Engine engine;
  api::ExploreRequest request;
  request.device = "xc6vlx240t";
  request.prms = {"fir", "uart"};
  const api::ExploreResponse a = engine.explore(request);
  request.workers = 2;
  const api::ExploreResponse b = engine.explore(request);
  ASSERT_EQ(a.points.size(), b.points.size());
  EXPECT_EQ(a.pareto_count, b.pareto_count);
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].feasible, b.points[i].feasible);
    EXPECT_EQ(a.points[i].total_prr_area, b.points[i].total_prr_area);
    EXPECT_DOUBLE_EQ(a.points[i].makespan_s, b.points[i].makespan_s);
  }

  api::RankRequest rank_request;
  rank_request.prms = {"fir", "sdram"};
  const api::RankResponse ranked = engine.rank(rank_request);
  ASSERT_FALSE(ranked.choices.empty());
  // Feasible parts sort before infeasible ones.
  bool seen_infeasible = false;
  for (const DeviceChoice& choice : ranked.choices) {
    if (!choice.feasible) seen_infeasible = true;
    if (seen_infeasible) {
      EXPECT_FALSE(choice.feasible);
    }
  }
}

TEST(Engine, DevicesMatchesCatalog) {
  const Engine engine;
  const api::DevicesResponse response = engine.list_devices();
  const auto& all = DeviceDb::instance().all();
  ASSERT_EQ(response.devices.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(response.devices[i].name, all[i].name);
    EXPECT_EQ(response.devices[i].rows, all[i].fabric.rows());
  }
}

// ------------------------------------------------- request JSON round trip

TEST(Engine, CollectStatsMatchesRegistryDelta) {
  Engine::Options options;
  options.collect_stats = true;
  const Engine engine{options};
  api::PlanRequest request;
  request.device = "xc5vlx110t";
  request.source.prm = "mips";

  obs::set_metrics_enabled(true);
  const obs::Snapshot before = obs::Snapshot::capture();
  const api::PlanResponse response = engine.plan(request);
  const obs::Snapshot after = obs::Snapshot::capture();
  obs::set_metrics_enabled(false);

  ASSERT_TRUE(response.stats.has_value());
  EXPECT_GT(response.stats->wall_ns, 0u);
  EXPECT_FALSE(response.stats->phases.empty());

  // Per-request attribution agrees with the process-global registry: this
  // request was the only traffic between the snapshots, so its cache
  // lookups account for the whole interval delta.
  const obs::Snapshot delta = obs::snapshot_diff(before, after);
  EXPECT_EQ(
      response.stats->plan_cache_hits + response.stats->plan_cache_misses,
      delta.counter("plan_cache.hits") + delta.counter("plan_cache.misses"));
  EXPECT_EQ(response.stats->bitstream_cache_hits +
                response.stats->bitstream_cache_misses,
            delta.counter("bitstream_cache.hits") +
                delta.counter("bitstream_cache.misses"));
  EXPECT_GT(
      response.stats->plan_cache_hits + response.stats->plan_cache_misses, 0u);

  // The wire form carries the block (serialized last) with the documented
  // sub-objects.
  const Json j = Json::parse(api::to_json(response).dump());
  const Json* stats = j.find("stats");
  ASSERT_NE(stats, nullptr);
  ASSERT_NE(stats->find("cache"), nullptr);
  EXPECT_EQ(stats->find("cache")->find("plan_hits")->as_u64(),
            response.stats->plan_cache_hits);
  ASSERT_NE(stats->find("phases"), nullptr);
}

TEST(Engine, StatsOffOmitsBlockEntirely) {
  const Engine engine;  // collect_stats defaults to false
  api::PlanRequest request;
  request.device = "xc5vlx110t";
  request.source.prm = "fir";
  const api::PlanResponse response = engine.plan(request);
  EXPECT_FALSE(response.stats.has_value());
  // Byte-level contract: the serialized response has no "stats" member at
  // all, keeping stats-off output identical to pre-telemetry builds.
  EXPECT_EQ(api::to_json(response).dump().find("\"stats\""),
            std::string::npos);
}

TEST(RequestJson, PlanRoundTrip) {
  api::PlanRequest request;
  request.device = "xc6vlx75t";
  request.source.prm = "mips";
  request.objective = SearchObjective::kMinBitstream;
  request.shaped = true;
  request.cross_check = false;
  const Json wire = api::to_json(request);
  const api::PlanRequest parsed =
      api::plan_request_from_json(Json::parse(wire.dump()));
  EXPECT_EQ(parsed.device, request.device);
  EXPECT_EQ(parsed.source.prm, request.source.prm);
  EXPECT_EQ(parsed.objective, request.objective);
  EXPECT_EQ(parsed.shaped, request.shaped);
  EXPECT_EQ(parsed.cross_check, request.cross_check);

  // The other PRM-source ops: the re-encoded request is byte-identical.
  api::SynthRequest synth;
  synth.source.netlist_path = "design.net";
  synth.family = Family::kSpartan6;
  const std::string synth_wire = api::to_json(synth).dump();
  EXPECT_EQ(api::to_json(api::synth_request_from_json(Json::parse(synth_wire)))
                .dump(),
            synth_wire);
  api::BitstreamRequest bitstream;
  bitstream.device = "xc6vlx75t";
  bitstream.source.report_path = "fir.srp";
  const std::string bitstream_wire = api::to_json(bitstream).dump();
  EXPECT_EQ(api::to_json(api::bitstream_request_from_json(
                             Json::parse(bitstream_wire)))
                .dump(),
            bitstream_wire);
}

TEST(RequestJson, ExploreAndRankRoundTrip) {
  api::ExploreRequest explore_request;
  explore_request.device = "xc6vlx240t";
  explore_request.prms = {"fir", "uart", "crc32"};
  explore_request.workers = 4;
  explore_request.max_groups = 2;
  const api::ExploreRequest explore_parsed = api::explore_request_from_json(
      Json::parse(api::to_json(explore_request).dump()));
  EXPECT_EQ(explore_parsed.device, explore_request.device);
  EXPECT_EQ(explore_parsed.prms, explore_request.prms);
  EXPECT_EQ(explore_parsed.workers, explore_request.workers);
  EXPECT_EQ(explore_parsed.max_groups, explore_request.max_groups);

  api::RankRequest rank_request;
  rank_request.prms = {"fir"};
  rank_request.tasks = 7;
  const api::RankRequest rank_parsed = api::rank_request_from_json(
      Json::parse(api::to_json(rank_request).dump()));
  EXPECT_EQ(rank_parsed.prms, rank_request.prms);
  EXPECT_EQ(rank_parsed.tasks, rank_request.tasks);

  // The simulation ops, with every optional set: the re-encoded request is
  // byte-identical, so no field is lost or altered on the way.
  api::FaultsRequest faults;
  faults.device = "xc5vlx110t";
  faults.prms = {"fir", "mips"};
  faults.prr_count = 3;
  faults.fault_rate = 0.25;
  faults.stall_rate = 0.5;
  faults.fault_seed = 9007199254740993ull;
  faults.max_retries = 5;
  faults.recovery = "reschedule";
  faults.strict = true;
  const std::string faults_wire = api::to_json(faults).dump();
  EXPECT_EQ(
      api::to_json(api::faults_request_from_json(Json::parse(faults_wire)))
          .dump(),
      faults_wire);
  api::OptimizeRequest optimize;
  optimize.device = "xc6vlx240t";
  optimize.prm_count = 200;
  optimize.groups = 4;
  optimize.proposals_per_round = 3;
  optimize.fault_rate = 0.1;
  optimize.workers = 2;
  const std::string optimize_wire = api::to_json(optimize).dump();
  EXPECT_EQ(api::to_json(api::optimize_request_from_json(
                             Json::parse(optimize_wire)))
                .dump(),
            optimize_wire);
  api::ScheduleRequest schedule;
  schedule.device = "xc7k325t";
  schedule.prms = {"fir", "aes"};
  schedule.workload = "trace";
  schedule.trace = "{\"name\":\"t0\",\"prm\":0,\"arrival_s\":0}\n";
  schedule.mean_exec_s = 0.125;
  schedule.prefetch_rate_hz = 50;
  schedule.max_retries = 0;
  schedule.detail = true;
  const std::string schedule_wire = api::to_json(schedule).dump();
  EXPECT_EQ(api::to_json(api::schedule_request_from_json(
                             Json::parse(schedule_wire)))
                .dump(),
            schedule_wire);
}

TEST(RequestJson, DefaultsApply) {
  const api::PlanRequest request = api::plan_request_from_json(
      Json::parse("{\"device\":\"v5lx110t\",\"prm\":\"fir\"}"));
  EXPECT_EQ(request.objective, SearchObjective::kMinArea);
  EXPECT_FALSE(request.shaped);
  EXPECT_TRUE(request.cross_check);
}

/// The usage error one request line answers with, or "" when it decodes.
std::string decode_error(
    api::PlanRequest (*decode)(const Json&), std::string_view line) {
  try {
    decode(Json::parse(line));
  } catch (const UsageError& error) {
    return error.what();
  }
  return "";
}

TEST(RequestJson, StrictDecoding) {
  const auto plan = [](std::string_view line) {
    return decode_error(api::plan_request_from_json, line);
  };
  // A typo'd member no longer silently runs the default (PAR) path.
  const std::string typo =
      plan(R"({"device":"v5lx110t","prm":"fir","cross_chek":false})");
  EXPECT_NE(typo.find("cross_chek"), std::string::npos) << typo;
  EXPECT_NE(typo.find("cross_check"), std::string::npos) << typo;
  // A wrong type names the field.
  const std::string type = plan(R"({"prm":"fir","shaped":"yes"})");
  EXPECT_NE(type.find("shaped"), std::string::npos) << type;
  EXPECT_EQ(plan(R"({"prm":"fir","shaped":true})"), "");
}

TEST(RequestJson, EveryDecoderAcceptsTheEnvelope) {
  // Whole request lines (as perfbench's layer probe passes them) decode.
  const Json line = Json::parse(
      R"({"op":"x","id":{"any":["value"]},"deadline_ms":2.5,"device":"d"})");
  EXPECT_NO_THROW(api::synth_request_from_json(Json::parse(
      R"({"op":"synth","id":1,"deadline_ms":0,"prm":"fir"})")));
  EXPECT_NO_THROW(api::plan_request_from_json(line));
  EXPECT_NO_THROW(api::bitstream_request_from_json(line));
  EXPECT_NO_THROW(api::explore_request_from_json(line));
  EXPECT_NO_THROW(api::rank_request_from_json(Json::parse(
      R"({"op":"rank","id":"r","deadline_ms":1,"prms":["fir"]})")));
  EXPECT_NO_THROW(api::faults_request_from_json(line));
  EXPECT_NO_THROW(api::optimize_request_from_json(line));
  EXPECT_NO_THROW(api::schedule_request_from_json(line));
}

TEST(RequestJson, SizeFieldsAreBounded) {
  // Checked at the decoder only: no request at a bound ever runs.
  const auto code_and_message = [](const auto& decode, const char* text) {
    try {
      decode(Json::parse(text));
    } catch (const Error& error) {
      return std::string{error_code_name(error.code())} + ": " + error.what();
    }
    return std::string{"ok"};
  };
  const auto faults = [](const Json& j) { api::faults_request_from_json(j); };
  const auto optimize = [](const Json& j) {
    api::optimize_request_from_json(j);
  };
  const auto schedule = [](const Json& j) {
    api::schedule_request_from_json(j);
  };
  const auto explore = [](const Json& j) { api::explore_request_from_json(j); };
  // Past u32 width: usage naming the field (was internal / bad_alloc).
  EXPECT_EQ(code_and_message(faults, R"({"tasks":5000000000})"),
            "usage: tasks: 5000000000 is not in 0..1000000");
  const std::string fleet = code_and_message(optimize, R"({"prm_count":4e9})");
  EXPECT_EQ(fleet.rfind("usage: prm_count", 0), 0u) << fleet;
  EXPECT_EQ(code_and_message(optimize, R"({"prm_count":10001})"),
            "usage: prm_count: 10001 is not in 0..10000");
  EXPECT_EQ(code_and_message(schedule, R"({"slots":0})"),
            "usage: slots: 0 is not in 1..1024");
  EXPECT_EQ(code_and_message(faults, R"({"prr_count":0})"),
            "usage: prr_count: 0 is not in 1..1024");
  EXPECT_EQ(code_and_message(schedule, R"({"mean_exec_s":-0.5})"),
            "usage: mean_exec_s: -0.5 is not >= 0");
  // The bounds admit every size the tests, examples, README and benches use.
  EXPECT_EQ(code_and_message(schedule, R"({"tasks":120000,"slots":3})"), "ok");
  EXPECT_EQ(code_and_message(faults, R"({"tasks":20000,"prr_count":2})"),
            "ok");
  EXPECT_EQ(code_and_message(optimize, R"({"prm_count":500,"rounds":48})"),
            "ok");
  EXPECT_EQ(code_and_message(explore, R"({"max_groups":2,"tasks":100})"),
            "ok");
}

TEST(RequestJson, FaultRateIsBoundedOnEveryOp) {
  // The same out-of-range rate is one usage error naming the field on each
  // op (schedule used to succeed and echo it; optimize answered contract).
  const Engine engine;
  for (const char* line :
       {R"({"op":"faults","device":"xc5vlx110t","prms":["fir"],"fault_rate":-1})",
        R"({"op":"schedule","device":"xc5vlx110t","prms":["fir"],"fault_rate":-1})",
        R"({"op":"optimize","device":"xc5vlx110t","prm_count":3,"fault_rate":-1})"}) {
    const Json envelope = api::dispatch_line(engine, line);
    const Json* error = envelope.find("error");
    ASSERT_NE(error, nullptr) << line;
    EXPECT_EQ(error->find("code")->as_string(), "usage") << line;
    EXPECT_EQ(error->find("message")->as_string(),
              "fault_rate: -1 is not in 0..1");
  }
}

TEST(RequestJson, UnknownFamilyIsAUsageErrorNamingTheField) {
  // parse_family throws ContractError; on the wire that is the request's
  // fault, so it answers usage (it used to answer contract).
  const Engine engine;
  const Json envelope =
      api::dispatch_line(engine, R"({"op":"synth","prm":"fir","family":"zz"})");
  const Json* error = envelope.find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->find("code")->as_string(), "usage");
  EXPECT_EQ(error->find("message")->as_string(),
            "family: unknown family 'zz'");
}

/// The README field table of one op, as the schema renders it.
std::string readme_field_table(std::string_view op) {
  TextTable table{{"field", "CLI", "type", "default", "bounds", "doc"}};
  for (const api::FieldInfo& field : api::request_fields(op)) {
    table.add_row({"`" + std::string{field.wire} + "`",
                   field.flag.empty() ? "wire only" : "`" + field.flag + "`",
                   std::string{field.type}, "`" + field.default_json + "`",
                   field.bounds, std::string{field.doc}});
  }
  return table.to_markdown();
}

TEST(RequestJson, ReadmeFieldTablesMatchTheSchema) {
  std::ifstream in{PRCOST_README};
  ASSERT_TRUE(in.good());
  std::stringstream readme;
  readme << in.rdbuf();
  for (const char* op : {"synth", "plan", "bitstream", "explore", "rank",
                         "faults", "optimize", "schedule"}) {
    const std::string table = readme_field_table(op);
    EXPECT_NE(readme.str().find("`" + std::string{op} + "`:\n\n" + table),
              std::string::npos)
        << "README.md is missing the current `" << op << "` table:\n"
        << table;
  }
}

TEST(ResponseJson, PlanResponseFields) {
  const Engine engine;
  api::PlanRequest request;
  request.device = "xc5vlx110t";
  request.source.prm = "fir";
  request.shaped = true;
  const Json j = api::to_json(engine.plan(request));
  const Json parsed = Json::parse(j.dump());
  EXPECT_EQ(parsed.find("device")->as_string(), "xc5vlx110t");
  const Json* plan = parsed.find("plan");
  ASSERT_NE(plan, nullptr);
  EXPECT_GT(plan->find("organization")->find("size")->as_u64(), 0u);
  EXPECT_GT(plan->find("bitstream")->find("total_bytes")->as_u64(), 0u);
  EXPECT_TRUE(parsed.find("model_match")->as_bool());
  ASSERT_NE(parsed.find("shaped"), nullptr);
}

// ---------------------------------------------------------------- batch --

TEST(Batch, DispatchEnvelopes) {
  const Engine engine;
  const Json ok = api::dispatch_line(
      engine, "{\"op\":\"plan\",\"device\":\"v5lx110t\",\"prm\":\"fir\","
              "\"id\":\"r1\"}");
  EXPECT_EQ(ok.find("id")->as_string(), "r1");
  EXPECT_EQ(ok.find("op")->as_string(), "plan");
  EXPECT_NE(ok.find("result"), nullptr);
  EXPECT_EQ(ok.find("error"), nullptr);

  const auto error_code = [&](std::string_view line) {
    const Json envelope = api::dispatch_line(engine, line);
    const Json* error = envelope.find("error");
    EXPECT_NE(error, nullptr) << line;
    return error == nullptr ? std::string{} : error->find("code")->as_string();
  };
  EXPECT_EQ(error_code("{\"op\":\"plan\",\"device\":\"nope\",\"prm\":\"fir\"}"),
            "not_found");
  EXPECT_EQ(error_code(
                "{\"op\":\"plan\",\"device\":\"v5lx110t\",\"prm\":\"matmul\"}"),
            "infeasible");
  EXPECT_EQ(error_code("{\"op\":\"plan\",\"prm\":\"fir\"}"), "usage");
  EXPECT_EQ(error_code("{\"op\":\"nope\"}"), "not_found");
  EXPECT_EQ(error_code("{\"device\":\"v5lx110t\"}"), "usage");
  EXPECT_EQ(error_code("this is not json"), "parse");
  EXPECT_EQ(error_code("[\"an\",\"array\"]"), "usage");
  EXPECT_EQ(error_code("{\"op\":\"plan\",\"device\":\"v5lx110t\","
                       "\"report\":\"/no/such/file\"}"),
            "io");
}

TEST(Batch, OneResponsePerLineInInputOrder) {
  const Engine engine;
  std::stringstream in;
  const int count = 40;
  for (int i = 0; i < count; ++i) {
    switch (i % 4) {
      case 0:
        in << "{\"op\":\"plan\",\"device\":\"v5lx110t\",\"prm\":\"fir\","
              "\"id\":" << i << "}\n";
        break;
      case 1:
        in << "{\"op\":\"plan\",\"device\":\"v5lx110t\",\"prm\":\"matmul\","
              "\"id\":" << i << "}\n";
        break;
      case 2:
        in << "malformed line " << i << "\n";
        break;
      case 3:
        in << "{\"op\":\"synth\",\"prm\":\"uart\",\"id\":" << i << "}\n";
        break;
    }
  }
  std::stringstream out;
  const api::BatchStats stats = api::run_batch(engine, in, out, {});
  EXPECT_EQ(stats.requests, static_cast<std::size_t>(count));
  EXPECT_EQ(stats.succeeded + stats.failed, stats.requests);
  EXPECT_EQ(stats.failed, static_cast<std::size_t>(count / 2));

  int lines = 0;
  for (std::string line; std::getline(out, line); ++lines) {
    ASSERT_LT(lines, count);
    const Json envelope = Json::parse(line);  // every line is valid JSON
    const bool is_error = envelope.find("error") != nullptr;
    switch (lines % 4) {
      case 0:
      case 3:
        EXPECT_FALSE(is_error) << line;
        EXPECT_EQ(envelope.find("id")->as_i64(), lines);  // input order
        break;
      case 1:
        EXPECT_EQ(envelope.find("error")->find("code")->as_string(),
                  "infeasible");
        EXPECT_EQ(envelope.find("id")->as_i64(), lines);
        break;
      case 2:
        EXPECT_EQ(envelope.find("error")->find("code")->as_string(), "parse");
        break;
    }
  }
  EXPECT_EQ(lines, count);
}

}  // namespace
}  // namespace prcost
