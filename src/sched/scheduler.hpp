// Online, event-driven hardware-multitasking scheduler runtime.
//
// The multitask simulators replay fixed, pre-sorted schedules; this module
// makes the dispatch decision *online*, as tasks arrive, the way a
// production PR runtime would, on the shared event core
// (multitask/event_core.hpp, reconfig/icap_channel.hpp):
//
//   - FCFS / priority / EDF over online arrivals (Poisson / bursty
//     generators or JSONL trace replay - src/sched/generators.hpp);
//   - a fixed pool of PRR slots sharing one ICAP; each task takes the slot
//     with the earliest finish, every reconfiguration priced at its
//     expected ICAP time under the fault model;
//   - bitstream prefetch: when a PRM's arrival-rate estimate crosses a
//     threshold its partial bitstream is staged from cold storage into
//     memory (the process-wide bitstream cache via `prefetch_hook`), so
//     later reconfigurations fetch at warm-media speed;
//   - CPU fallback: when every PRR placement would miss the task's
//     deadline, the task runs in software at `cpu_slowdown` cost instead
//     of wasting ICAP bandwidth on a doomed reconfiguration.
//
// The runtime is single-threaded and fully deterministic: a (prms, tasks,
// config) triple always produces the identical Report, independent of the
// engine worker count.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "multitask/event_core.hpp"

namespace prcost::sched {

/// Ready-queue discipline: the simulators' policy enum. parse_policy
/// accepts kFcfs, kPriority (ties: admission order) and kEdf (no
/// deadline = last).
using Policy = SchedPolicy;

std::string_view policy_name(Policy policy);
/// "fcfs" | "priority" | "edf" -> Policy; throws UsageError otherwise.
Policy parse_policy(std::string_view name);

/// One online task instance; deadline_s is the absolute completion
/// deadline (0 = none).
using Task = HwTask;

struct SchedulerConfig {
  u32 slot_count = 2;    ///< PRR slots (floorplanner-placed upstream)
  Policy policy = Policy::kFcfs;
  /// Where partial bitstreams are fetched from before (cold) and after
  /// (warm) a prefetch staged them into memory.
  StorageMedia cold_media = StorageMedia::kFlash;
  StorageMedia warm_media = StorageMedia::kDdrSdram;
  /// Reconfiguration controller; null selects default_controller().
  std::shared_ptr<const ReconfigController> controller;
  /// Corruption rate for reconfiguration pricing (expected_reconfig_s);
  /// rates at or below 0 (default) price the plain estimate.
  double fault_rate = 0.0;
  RetryPolicy retry;
  /// Prefetch: issue when a PRM's arrival-rate estimate (EWMA of
  /// inter-arrival gaps) reaches `prefetch_rate_hz` (0 = off). The hook
  /// (when set) warms the process-wide bitstream cache; staging from cold
  /// storage completes `fetch_seconds(cold_media, bytes)` later.
  double prefetch_rate_hz = 0.0;
  std::function<void(u32 prm)> prefetch_hook;
  /// EWMA smoothing for the per-PRM inter-arrival estimate (0..1].
  double rate_alpha = 0.5;
  /// CPU fallback pool: software execution runs `cpu_slowdown` times
  /// slower than the hardware exec_s, on `cpu_workers` cores.
  u32 cpu_workers = 2;
  double cpu_slowdown = 8.0;
};

/// Per-task outcome, in input order.
struct TaskOutcome {
  u32 task = 0;             ///< input index
  u32 slot = 0;             ///< PRR slot (or CPU worker when cpu_fallback)
  bool cpu_fallback = false;
  bool reconfigured = false;
  bool prefetched = false;  ///< reconfiguration fetched at warm media
  bool deadline_miss = false;
  double reconfig_s = 0;    ///< this task's own reconfiguration time
  double start_s = 0;       ///< execution start (post-reconfiguration)
  double finish_s = 0;
  double wait_s = 0;        ///< start - arrival
};

/// Aggregate run report. Everything here is deterministic for a fixed
/// (prms, tasks, config) input.
struct Report {
  double makespan_s = 0;
  u64 completed = 0;
  u64 reuse_hits = 0;          ///< dispatches that found the PRM resident
  u64 reconfig_count = 0;
  double total_reconfig_s = 0;
  /// Reconfiguration seconds charged per completed task - the bench's
  /// "effective reconfiguration overhead" axis.
  double reconfig_seconds_per_task = 0;
  u64 deadline_misses = 0;
  u64 cpu_fallbacks = 0;
  u64 prefetches_issued = 0;
  u64 prefetched_reconfigs = 0;  ///< reconfigs served at warm media
  double mean_wait_s = 0;
  double mean_turnaround_s = 0;  ///< mean (finish - arrival)
  double throughput_per_s = 0;   ///< completed / makespan
  std::vector<TaskOutcome> tasks;
};

/// Run the online scheduler. Tasks may arrive in any order; admission
/// uses the canonical (arrival, input order) tie-break shared with the
/// simulators. Throws ContractError on an empty slot pool or a task
/// referencing an unknown PRM.
Report run(const std::vector<PrmInfo>& prms, std::vector<Task> tasks,
           const SchedulerConfig& config);

}  // namespace prcost::sched
