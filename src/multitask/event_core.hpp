// What the three multitasking event loops (simulate, simulate_preemptive,
// sched::run) share besides the ICAP channel: one policy enum, one
// ready-queue pick, one per-task outcome and one drop/complete ledger.
// Placement, preemption, relocation, prefetch and CPU fallback differ
// between the loops and stay in them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <string_view>
#include <vector>

#include "multitask/workload.hpp"
#include "reconfig/icap_channel.hpp"

namespace prcost {

/// Ready-queue discipline.
enum class SchedPolicy {
  kFcfs,        ///< arrival order
  kSjf,         ///< shortest service first
  kPriority,    ///< highest priority first
  kReuseAware,  ///< prefer tasks whose PRM is already loaded in an idle PRR
  kEdf,         ///< earliest absolute deadline first (no deadline = last)
};

/// The policies the offline simulators sweep.
inline constexpr SchedPolicy kAllPolicies[] = {
    SchedPolicy::kFcfs, SchedPolicy::kSjf, SchedPolicy::kPriority,
    SchedPolicy::kReuseAware};

std::string_view sched_policy_name(SchedPolicy policy);

/// No residency information: kReuseAware picks like kFcfs.
struct NoResidency {
  bool operator()(const HwTask&) const { return false; }
};

/// Position in `ready` of the entry `policy` dispatches next. `task_of`
/// maps an entry to its HwTask; `resident(task)` says whether an idle PRR
/// already holds the task's PRM (kReuseAware). kFcfs and every tie pick
/// the earliest position, so a ready list in admission order breaks ties
/// by admission.
template <class Entry, class TaskOf, class Resident = NoResidency>
std::size_t pick_ready(const std::vector<Entry>& ready, SchedPolicy policy,
                       TaskOf task_of, Resident resident = {}) {
  const auto first_best = [&](auto better) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < ready.size(); ++i) {
      if (better(task_of(ready[i]), task_of(ready[best]))) best = i;
    }
    return best;
  };
  switch (policy) {
    case SchedPolicy::kFcfs:
      return 0;
    case SchedPolicy::kSjf:
      return first_best([](const HwTask& a, const HwTask& b) {
        return a.exec_s < b.exec_s;
      });
    case SchedPolicy::kPriority:
      return first_best([](const HwTask& a, const HwTask& b) {
        return a.priority > b.priority;
      });
    case SchedPolicy::kEdf:
      return first_best([](const HwTask& a, const HwTask& b) {
        constexpr double kNone = std::numeric_limits<double>::infinity();
        return (a.deadline_s > 0 ? a.deadline_s : kNone) <
               (b.deadline_s > 0 ? b.deadline_s : kNone);
      });
    case SchedPolicy::kReuseAware:
      for (std::size_t i = 0; i < ready.size(); ++i) {
        if (resident(task_of(ready[i]))) return i;
      }
      return 0;
  }
  return 0;
}

/// Remove and return the entry pick_ready selects.
template <class Entry, class TaskOf, class Resident = NoResidency>
Entry pop_ready(std::vector<Entry>& ready, SchedPolicy policy, TaskOf task_of,
                Resident resident = {}) {
  const auto it = ready.begin() + static_cast<std::ptrdiff_t>(pick_ready(
                                      ready, policy, task_of, resident));
  const Entry entry = *it;
  ready.erase(it);
  return entry;
}

/// Per-task outcome of the offline simulators.
struct TaskOutcome {
  u32 task_index = 0;
  u32 prr = 0;
  bool reconfigured = false;  ///< context switch was needed
  bool dropped = false;       ///< reconfiguration failed permanently
  u32 reconfig_attempts = 0;  ///< verified-transfer attempts (fault runs)
  double start_s = 0;         ///< execution start (post-reconfig)
  double finish_s = 0;        ///< dropped tasks: instant the ICAP gave up
  /// Time not spent executing: finish - arrival - exec, i.e. queueing
  /// delay plus the task's own reconfiguration (and retry) delay. For
  /// dropped tasks: give-up instant - arrival.
  double wait_s = 0;
};

/// Fault accounting of the offline simulators; zero without an injector.
struct FaultTotals {
  u64 failed_reconfigs = 0;  ///< transfers that exhausted their retries
  u64 dropped_tasks = 0;     ///< tasks abandoned after permanent failure
  u64 retry_attempts = 0;    ///< transfer attempts beyond the first
  double total_retry_backoff_s = 0;  ///< time spent backing off
  double total_fault_wasted_s = 0;   ///< ICAP time on failed attempts
  double total_penalty_s = 0;        ///< dropped_tasks * drop_penalty_s
};

/// Records every task a loop ends, finished or dropped.
struct OutcomeLedger {
  double makespan_s = 0;
  std::size_t ended = 0;  ///< finished + dropped; a loop runs until all end
  u64 dropped = 0;
  double penalty_s = 0;

  void finish(double at_s) {
    makespan_s = std::max(makespan_s, at_s);
    ++ended;
  }
  /// The ICAP gave up on `outcome`'s reconfiguration at `at_s`.
  void drop(TaskOutcome& outcome, double at_s, double arrival_s,
            double penalty) {
    outcome.dropped = true;
    outcome.finish_s = at_s;
    outcome.wait_s = at_s - arrival_s;
    ++dropped;
    penalty_s += penalty;
    finish(at_s);
  }
  FaultTotals totals(const TransferLedger& transfers) const {
    return {transfers.failed_reconfigs, dropped,
            transfers.retry_attempts,   transfers.backoff_s,
            transfers.wasted_s,         penalty_s};
  }
};

}  // namespace prcost
