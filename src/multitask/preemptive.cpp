#include "multitask/preemptive.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace prcost {

std::string_view preempt_mode_name(PreemptMode mode) {
  switch (mode) {
    case PreemptMode::kNoPreemption: return "no-preemption";
    case PreemptMode::kRestart: return "restart";
    case PreemptMode::kSaveRestore: return "save-restore";
  }
  return "?";
}

namespace {

/// A task instance in flight (original index + mutable progress state).
struct Job {
  std::size_t task = 0;
  double remaining_s = 0;
  bool needs_restore = false;  ///< resumed from a saved context
};

struct PrrState {
  std::optional<u32> loaded;
  std::optional<Job> running;
  double exec_end = 0;
};

}  // namespace

PreemptiveResult simulate_preemptive(const std::vector<PrmInfo>& prms,
                                     std::vector<HwTask> tasks,
                                     const PreemptiveConfig& config) {
  PRCOST_TRACE_SPAN("preemptive_sim");
  if (config.prr_count == 0) {
    throw ContractError{"simulate_preemptive: zero PRRs"};
  }
  check_prm_indices("simulate_preemptive", prms, tasks);
  IcapChannel icap{config.controller};

  sort_by_arrival(tasks);

  PreemptiveResult result;
  result.tasks.resize(tasks.size());
  std::vector<PrrState> prrs(config.prr_count);
  std::vector<Job> ready;
  OutcomeLedger ledger;
  std::size_t next_arrival = 0;
  double now = 0;

  const auto task_of = [&tasks](const Job& job) -> const HwTask& {
    return tasks[job.task];
  };

  const auto dispatch = [&](std::size_t prr_index, Job job) {
    PrrState& prr = prrs[prr_index];
    const HwTask& task = tasks[job.task];
    TaskOutcome& outcome = result.tasks[job.task];
    double start = now;
    if (prr.loaded != task.prm) {
      const u64 bytes = prms[task.prm].bitstream_bytes;
      double reconfig_s = 0;
      if (config.faults != nullptr) {
        // Fault mode: verified transfer with retry; a permanent failure
        // drops the job here - the PRR stays idle and undefined.
        const TransferOutcome xfer = icap.transfer(
            now, bytes, config.media, config.faults, config.retry);
        outcome.task_index = narrow<u32>(job.task);
        outcome.prr = narrow<u32>(prr_index);
        outcome.reconfig_attempts += xfer.attempts;
        if (!xfer.success) {
          prr.loaded.reset();
          ledger.drop(outcome, icap.free_at(), task.arrival_s,
                      config.drop_penalty_s);
          return;
        }
        reconfig_s = xfer.total_s;
      } else {
        reconfig_s = icap.estimate_s(bytes, config.media);
        icap.occupy(now, reconfig_s);
      }
      start = icap.free_at();
      prr.loaded = task.prm;
      result.total_reconfig_s += reconfig_s;
      ++result.reconfig_count;
    }
    if (job.needs_restore) {
      start = std::max(start, icap.occupy(now, config.context_restore_s));
      result.total_save_restore_s += config.context_restore_s;
      job.needs_restore = false;
    }
    prr.exec_end = start + job.remaining_s;
    prr.running = job;
    outcome.prr = narrow<u32>(prr_index);
    if (outcome.start_s == 0) outcome.start_s = start;
  };

  while (ledger.ended < tasks.size()) {
    while (next_arrival < tasks.size() &&
           tasks[next_arrival].arrival_s <= now) {
      ready.push_back(Job{next_arrival, tasks[next_arrival].exec_s, false});
      ++next_arrival;
    }

    // Retire finished jobs.
    for (PrrState& prr : prrs) {
      if (prr.running && prr.exec_end <= now) {
        const Job& job = *prr.running;
        const HwTask& task = tasks[job.task];
        TaskOutcome& outcome = result.tasks[job.task];
        outcome.task_index = narrow<u32>(job.task);
        outcome.finish_s = prr.exec_end;
        outcome.wait_s = outcome.finish_s - task.arrival_s - task.exec_s;
        ledger.finish(outcome.finish_s);
        prr.running.reset();
      }
    }

    // Dispatch onto idle PRRs, most urgent ready job first; a dropped job
    // leaves its PRR idle, so sweep until nothing dispatches.
    for (bool dispatched = true; dispatched && !ready.empty();) {
      dispatched = false;
      for (std::size_t p = 0; p < prrs.size() && !ready.empty(); ++p) {
        if (!prrs[p].running) {
          dispatch(p, pop_ready(ready, SchedPolicy::kPriority, task_of));
          dispatched = true;
        }
      }
    }

    // Preemption: the most urgent ready job may evict the lowest-priority
    // running job.
    while (config.mode != PreemptMode::kNoPreemption && !ready.empty()) {
      u32 victim_priority =
          task_of(ready[pick_ready(ready, SchedPolicy::kPriority, task_of)])
              .priority;
      std::size_t victim_prr = prrs.size();
      for (std::size_t p = 0; p < prrs.size(); ++p) {
        if (prrs[p].running &&
            task_of(*prrs[p].running).priority < victim_priority) {
          victim_prr = p;
          victim_priority = task_of(*prrs[p].running).priority;
        }
      }
      if (victim_prr == prrs.size()) break;

      // Take the urgent job out FIRST: pushing the victim below may
      // reallocate `ready`.
      const Job job = pop_ready(ready, SchedPolicy::kPriority, task_of);

      PrrState& prr = prrs[victim_prr];
      Job victim = *prr.running;
      prr.running.reset();
      ++result.preemptions;
      if (config.mode == PreemptMode::kSaveRestore) {
        icap.occupy(now, config.context_save_s);
        result.total_save_restore_s += config.context_save_s;
        victim.remaining_s = std::max(0.0, prr.exec_end - now);
        victim.needs_restore = true;
      } else {
        victim.remaining_s = tasks[victim.task].exec_s;  // lost work
      }
      ready.push_back(victim);
      dispatch(victim_prr, job);
    }

    // Advance to the next event.
    double next = std::numeric_limits<double>::infinity();
    if (next_arrival < tasks.size()) {
      next = std::min(next, tasks[next_arrival].arrival_s);
    }
    for (const PrrState& prr : prrs) {
      if (prr.running) next = std::min(next, prr.exec_end);
    }
    if (!std::isfinite(next)) {
      if (ledger.ended < tasks.size() && ready.empty()) {
        throw ContractError{"simulate_preemptive: deadlocked schedule"};
      }
      continue;  // ready jobs will dispatch next iteration
    }
    now = std::max(now, next);
  }
  static_cast<FaultTotals&>(result) = ledger.totals(icap.ledger());
  result.makespan_s = ledger.makespan_s;

  // High-priority wait statistic (top quartile by priority).
  std::vector<u32> priorities;
  priorities.reserve(tasks.size());
  for (const HwTask& task : tasks) priorities.push_back(task.priority);
  std::sort(priorities.begin(), priorities.end());
  const u32 cutoff = priorities.empty()
                         ? 0
                         : priorities[priorities.size() * 3 / 4];
  double wait_sum = 0;
  u64 wait_count = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i].priority >= cutoff) {
      wait_sum += std::max(0.0, result.tasks[i].wait_s);
      ++wait_count;
    }
  }
  result.mean_high_priority_wait_s =
      wait_count == 0 ? 0.0 : wait_sum / static_cast<double>(wait_count);
  PRCOST_COUNT("sim.preemptive_runs");
  PRCOST_COUNT_N("sim.preemptions", result.preemptions);
  if (config.faults != nullptr) {
    PRCOST_COUNT_N("sim.failed_reconfigs", result.failed_reconfigs);
    PRCOST_COUNT_N("sim.dropped_tasks", result.dropped_tasks);
  }
  return result;
}

}  // namespace prcost
