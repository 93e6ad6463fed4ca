// Golden pin for the multitasking event loops: simulate,
// simulate_full_reconfig, simulate_preemptive and sched::run over a fixed
// matrix of policies, fault modes, relocation, preemption modes, prefetch
// and deadlines. Every result field (aggregates and per-task outcomes) is
// printed with %a - exact hex floats - and each case's text is reduced to
// a CRC-32C. The digests below were recorded from a known-good build; any
// change to the schedules, the ICAP pricing or the fault accounting moves
// at least one of them.
#include <gtest/gtest.h>

#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

#include "bitstream/crc.hpp"
#include "multitask/preemptive.hpp"
#include "multitask/simulator.hpp"
#include "reconfig/faults.hpp"
#include "sched/generators.hpp"
#include "sched/scheduler.hpp"

namespace prcost {
namespace {

/// Accumulates "name=value" lines; doubles print as exact hex floats.
class Digest {
 public:
  void add(const char* name, double value) { line("%s=%a\n", name, value); }
  void add(const char* name, u64 value) {
    line("%s=%llu\n", name, static_cast<unsigned long long>(value));
  }
  void add(const char* name, u32 value) { add(name, u64{value}); }
  void add(const char* name, bool value) { add(name, u64{value ? 1u : 0u}); }
  u32 crc() const { return crc32c_bytes(text_.data(), text_.size()); }

 private:
  __attribute__((format(printf, 2, 3))) void line(const char* format, ...) {
    char buffer[128];
    va_list args;
    va_start(args, format);
    const int n = std::vsnprintf(buffer, sizeof buffer, format, args);
    va_end(args);
    text_.append(buffer, static_cast<std::size_t>(n));
  }

  std::string text_;
};

void add_outcomes(Digest& d, const std::vector<TaskOutcome>& tasks) {
  for (const TaskOutcome& t : tasks) {
    d.add("task_index", t.task_index);
    d.add("prr", t.prr);
    d.add("reconfigured", t.reconfigured);
    d.add("dropped", t.dropped);
    d.add("reconfig_attempts", t.reconfig_attempts);
    d.add("start_s", t.start_s);
    d.add("finish_s", t.finish_s);
    d.add("wait_s", t.wait_s);
  }
}

u32 digest(const SimResult& r) {
  Digest d;
  d.add("makespan_s", r.makespan_s);
  d.add("total_reconfig_s", r.total_reconfig_s);
  d.add("reconfig_count", r.reconfig_count);
  d.add("reuse_hits", r.reuse_hits);
  d.add("relocation_count", r.relocation_count);
  d.add("total_relocation_s", r.total_relocation_s);
  d.add("mean_wait_s", r.mean_wait_s);
  d.add("prr_busy_fraction", r.prr_busy_fraction);
  d.add("failed_reconfigs", r.failed_reconfigs);
  d.add("dropped_tasks", r.dropped_tasks);
  d.add("rescheduled_tasks", r.rescheduled_tasks);
  d.add("retry_attempts", r.retry_attempts);
  d.add("total_retry_backoff_s", r.total_retry_backoff_s);
  d.add("total_fault_wasted_s", r.total_fault_wasted_s);
  d.add("total_penalty_s", r.total_penalty_s);
  add_outcomes(d, r.tasks);
  return d.crc();
}

u32 digest(const PreemptiveResult& r) {
  Digest d;
  d.add("makespan_s", r.makespan_s);
  d.add("preemptions", r.preemptions);
  d.add("reconfig_count", r.reconfig_count);
  d.add("total_reconfig_s", r.total_reconfig_s);
  d.add("total_save_restore_s", r.total_save_restore_s);
  d.add("mean_high_priority_wait_s", r.mean_high_priority_wait_s);
  d.add("failed_reconfigs", r.failed_reconfigs);
  d.add("dropped_tasks", r.dropped_tasks);
  d.add("retry_attempts", r.retry_attempts);
  d.add("total_retry_backoff_s", r.total_retry_backoff_s);
  d.add("total_fault_wasted_s", r.total_fault_wasted_s);
  d.add("total_penalty_s", r.total_penalty_s);
  add_outcomes(d, r.tasks);
  return d.crc();
}

u32 digest(const sched::Report& r) {
  Digest d;
  d.add("makespan_s", r.makespan_s);
  d.add("completed", r.completed);
  d.add("reuse_hits", r.reuse_hits);
  d.add("reconfig_count", r.reconfig_count);
  d.add("total_reconfig_s", r.total_reconfig_s);
  d.add("reconfig_seconds_per_task", r.reconfig_seconds_per_task);
  d.add("deadline_misses", r.deadline_misses);
  d.add("cpu_fallbacks", r.cpu_fallbacks);
  d.add("prefetches_issued", r.prefetches_issued);
  d.add("prefetched_reconfigs", r.prefetched_reconfigs);
  d.add("mean_wait_s", r.mean_wait_s);
  d.add("mean_turnaround_s", r.mean_turnaround_s);
  d.add("throughput_per_s", r.throughput_per_s);
  for (const sched::TaskOutcome& t : r.tasks) {
    d.add("task", t.task);
    d.add("slot", t.slot);
    d.add("cpu_fallback", t.cpu_fallback);
    d.add("reconfigured", t.reconfigured);
    d.add("prefetched", t.prefetched);
    d.add("deadline_miss", t.deadline_miss);
    d.add("reconfig_s", t.reconfig_s);
    d.add("start_s", t.start_s);
    d.add("finish_s", t.finish_s);
    d.add("wait_s", t.wait_s);
  }
  return d.crc();
}

std::vector<PrmInfo> prms() {
  return {PrmInfo{"fir", {}, 83064}, PrmInfo{"fft", {}, 150000},
          PrmInfo{"aes", {}, 300000}};
}

std::vector<HwTask> workload() {
  WorkloadParams params;
  params.count = 60;
  params.prm_count = 3;
  params.mean_interarrival_s = 1.0e-3;
  params.mean_exec_s = 3.0e-3;
  params.seed = 11;
  return make_workload(params);
}

FaultProfile fault_profile() {
  FaultProfile profile;
  profile.fault_rate = 0.45;
  profile.stall_rate = 0.1;
  profile.stall_s = 1.0e-4;
  profile.seed = 0xFA17;
  return profile;
}

RetryPolicy retry_policy() {
  RetryPolicy retry;
  retry.max_retries = 1;  // p^2 ~ 0.2: permanent failures do occur
  return retry;
}

struct Golden {
  const char* name;
  u32 crc;
};

/// Compare every case against its recorded digest; a mismatch names the
/// case and the digest it produced.
void expect_golden(const std::vector<std::pair<std::string, u32>>& got,
                   const std::vector<Golden>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].name);
    EXPECT_EQ(got[i].second, want[i].crc)
        << got[i].first << " digest 0x" << std::hex << got[i].second;
  }
}

// ------------------------------------------------------------ simulate --

TEST(EventGolden, Simulate) {
  const char* const fault_modes[] = {"off", "drop", "reschedule"};
  std::vector<std::pair<std::string, u32>> got;
  for (const SchedPolicy policy : kAllPolicies) {
    for (int fault_mode = 0; fault_mode < 3; ++fault_mode) {
      for (const bool relocation : {false, true}) {
        for (const u32 prr_count : {1u, 3u}) {
          FaultInjector injector{fault_profile()};
          SimConfig config;
          config.prr_count = prr_count;
          config.policy = policy;
          config.allow_relocation = relocation;
          config.relocation_s = 1.0e-4;
          config.retry = retry_policy();
          config.drop_penalty_s = 1.0e-3;
          if (fault_mode > 0) {
            config.faults = &injector;
            config.recovery = fault_mode == 1 ? FaultRecovery::kDrop
                                              : FaultRecovery::kReschedule;
          }
          const std::string name =
              std::string{sched_policy_name(policy)} + "/faults-" +
              fault_modes[fault_mode] + (relocation ? "/reloc" : "/noreloc") +
              "/prr" + std::to_string(prr_count);
          got.emplace_back(name, digest(simulate(prms(), workload(), config)));
        }
      }
    }
  }
  const std::vector<Golden> want = {
      {"FCFS/faults-off/noreloc/prr1", 0x7dd90fd0},
      {"FCFS/faults-off/noreloc/prr3", 0x17988de2},
      {"FCFS/faults-off/reloc/prr1", 0x7dd90fd0},
      {"FCFS/faults-off/reloc/prr3", 0xbf56fbcc},
      {"FCFS/faults-drop/noreloc/prr1", 0x84f58a4b},
      {"FCFS/faults-drop/noreloc/prr3", 0x6ca52681},
      {"FCFS/faults-drop/reloc/prr1", 0x84f58a4b},
      {"FCFS/faults-drop/reloc/prr3", 0x5119c66d},
      {"FCFS/faults-reschedule/noreloc/prr1", 0xe1b57e14},
      {"FCFS/faults-reschedule/noreloc/prr3", 0x78d808a6},
      {"FCFS/faults-reschedule/reloc/prr1", 0xe1b57e14},
      {"FCFS/faults-reschedule/reloc/prr3", 0x556aee79},
      {"SJF/faults-off/noreloc/prr1", 0x71a1d243},
      {"SJF/faults-off/noreloc/prr3", 0x75795e30},
      {"SJF/faults-off/reloc/prr1", 0x71a1d243},
      {"SJF/faults-off/reloc/prr3", 0x34bf7315},
      {"SJF/faults-drop/noreloc/prr1", 0x37dd5028},
      {"SJF/faults-drop/noreloc/prr3", 0xa1389f5b},
      {"SJF/faults-drop/reloc/prr1", 0x37dd5028},
      {"SJF/faults-drop/reloc/prr3", 0xa590450e},
      {"SJF/faults-reschedule/noreloc/prr1", 0xa4bfcdb},
      {"SJF/faults-reschedule/noreloc/prr3", 0x8b03a018},
      {"SJF/faults-reschedule/reloc/prr1", 0xa4bfcdb},
      {"SJF/faults-reschedule/reloc/prr3", 0x9bc45fb7},
      {"Priority/faults-off/noreloc/prr1", 0x5244351e},
      {"Priority/faults-off/noreloc/prr3", 0x9905c98e},
      {"Priority/faults-off/reloc/prr1", 0x5244351e},
      {"Priority/faults-off/reloc/prr3", 0x5b04e2e6},
      {"Priority/faults-drop/noreloc/prr1", 0xd84ad64e},
      {"Priority/faults-drop/noreloc/prr3", 0xabb27c65},
      {"Priority/faults-drop/reloc/prr1", 0xd84ad64e},
      {"Priority/faults-drop/reloc/prr3", 0xe64e0b99},
      {"Priority/faults-reschedule/noreloc/prr1", 0x1c7ee0fc},
      {"Priority/faults-reschedule/noreloc/prr3", 0xad5f9bfd},
      {"Priority/faults-reschedule/reloc/prr1", 0x1c7ee0fc},
      {"Priority/faults-reschedule/reloc/prr3", 0x2ac9960e},
      {"Reuse-aware/faults-off/noreloc/prr1", 0x41551ceb},
      {"Reuse-aware/faults-off/noreloc/prr3", 0xa4e9cff4},
      {"Reuse-aware/faults-off/reloc/prr1", 0x41551ceb},
      {"Reuse-aware/faults-off/reloc/prr3", 0xdffdb0ca},
      {"Reuse-aware/faults-drop/noreloc/prr1", 0xd0b6f31},
      {"Reuse-aware/faults-drop/noreloc/prr3", 0xefb0d4e0},
      {"Reuse-aware/faults-drop/reloc/prr1", 0xd0b6f31},
      {"Reuse-aware/faults-drop/reloc/prr3", 0xe4de7a4},
      {"Reuse-aware/faults-reschedule/noreloc/prr1", 0xd0b6f31},
      {"Reuse-aware/faults-reschedule/noreloc/prr3", 0xe4c6b68a},
      {"Reuse-aware/faults-reschedule/reloc/prr1", 0xd0b6f31},
      {"Reuse-aware/faults-reschedule/reloc/prr3", 0xe4de7a4},
  };
  expect_golden(got, want);
}

TEST(EventGolden, SimulateFullReconfig) {
  const SimResult r = simulate_full_reconfig(prms(), workload(), 3'800'000,
                                             StorageMedia::kDdrSdram);
  EXPECT_EQ(digest(r), 0xa46a612cu) << std::hex << digest(r);
}

// -------------------------------------------------- simulate_preemptive --

TEST(EventGolden, SimulatePreemptive) {
  std::vector<std::pair<std::string, u32>> got;
  for (const PreemptMode mode : {PreemptMode::kNoPreemption,
                                 PreemptMode::kRestart,
                                 PreemptMode::kSaveRestore}) {
    for (const bool faults : {false, true}) {
      FaultInjector injector{fault_profile()};
      PreemptiveConfig config;
      config.prr_count = 2;
      config.mode = mode;
      config.context_save_s = 5.0e-5;
      config.context_restore_s = 7.0e-5;
      config.retry = retry_policy();
      config.drop_penalty_s = 1.0e-3;
      if (faults) config.faults = &injector;
      const std::string name = std::string{preempt_mode_name(mode)} +
                               (faults ? "/faults" : "/clean");
      got.emplace_back(name,
                       digest(simulate_preemptive(prms(), workload(), config)));
    }
  }
  expect_golden(got, {
                         {"no-preemption/clean", 0xca3967a3},
                         {"no-preemption/faults", 0x2cd31489},
                         {"restart/clean", 0x1344cace},
                         {"restart/faults", 0xb733df43},
                         {"save-restore/clean", 0xff3fa2c},
                         {"save-restore/faults", 0x69f208eb},
                     });
}

// ----------------------------------------------------------- sched::run --

TEST(EventGolden, SchedRun) {
  sched::ArrivalParams params;
  params.count = 80;
  params.prm_count = 3;
  params.mean_interarrival_s = 1.0e-3;
  params.mean_exec_s = 3.0e-3;
  params.deadline_factor = 3.0;  // tight enough that CPU fallback fires
  params.seed = 5;
  const std::vector<sched::Task> tasks = sched::make_bursty(params);

  std::vector<std::pair<std::string, u32>> got;
  u64 fallbacks = 0;
  for (const char* policy : {"fcfs", "priority", "edf"}) {
    for (const bool prefetch : {false, true}) {
      for (const double fault_rate : {0.0, 0.05}) {
        sched::SchedulerConfig config;
        config.slot_count = 2;
        config.policy = sched::parse_policy(policy);
        config.prefetch_rate_hz = prefetch ? 50.0 : 0.0;
        config.fault_rate = fault_rate;
        const sched::Report report = sched::run(prms(), tasks, config);
        fallbacks += report.cpu_fallbacks;
        const std::string name = std::string{policy} +
                                 (prefetch ? "/prefetch" : "/cold") +
                                 (fault_rate > 0 ? "/faults" : "/clean");
        got.emplace_back(name, digest(report));
      }
    }
  }
  EXPECT_GT(fallbacks, 0u);
  expect_golden(got, {
                         {"fcfs/cold/clean", 0xc06a17aa},
                         {"fcfs/cold/faults", 0x5135001f},
                         {"fcfs/prefetch/clean", 0x4d844c2},
                         {"fcfs/prefetch/faults", 0xed90d4a2},
                         {"priority/cold/clean", 0x9471961d},
                         {"priority/cold/faults", 0xde1da45c},
                         {"priority/prefetch/clean", 0xc6cfb011},
                         {"priority/prefetch/faults", 0x5b706d2d},
                         {"edf/cold/clean", 0x36f0111c},
                         {"edf/cold/faults", 0xd164e96c},
                         {"edf/prefetch/clean", 0x1f177b46},
                         {"edf/prefetch/faults", 0x857b3ead},
                     });
}

}  // namespace
}  // namespace prcost
