#include "multitask/simulator.hpp"

#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace prcost {

std::string_view sched_policy_name(SchedPolicy policy) {
  switch (policy) {
    case SchedPolicy::kFcfs: return "FCFS";
    case SchedPolicy::kSjf: return "SJF";
    case SchedPolicy::kPriority: return "Priority";
    case SchedPolicy::kReuseAware: return "Reuse-aware";
    case SchedPolicy::kEdf: return "EDF";
  }
  return "?";
}

namespace {

struct PrrState {
  std::optional<u32> loaded;  ///< PRM currently configured
  double free_at = 0.0;
  double busy_exec_s = 0.0;   ///< accumulated execution time
};

/// The PRR-pool event loop behind simulate and simulate_full_reconfig;
/// adds the bytes it fetched from storage to `reconfig_bytes`.
SimResult run_pool(const std::vector<PrmInfo>& prms, std::vector<HwTask> tasks,
                   const SimConfig& config, u64& reconfig_bytes) {
  IcapChannel icap{config.controller};
  sort_by_arrival(tasks);

  SimResult result;
  result.tasks.resize(tasks.size());
  std::vector<PrrState> prrs(config.prr_count);
  OutcomeLedger ledger;

  // Arrival order; re-queued (rescheduled) tasks go to the back.
  std::vector<std::size_t> ready;
  std::size_t next_arrival = 0;
  double now = 0.0;
  // Per-task re-queue budget consumed (FaultRecovery::kReschedule only).
  std::vector<u32> reschedules(config.faults ? tasks.size() : 0, 0);
  const auto task_at = [&tasks](std::size_t i) -> const HwTask& {
    return tasks[i];
  };
  // Index of the first idle PRR holding `prm`, prrs.size() if none.
  const auto idle_holding = [&prrs, &now](u32 prm) {
    std::size_t p = 0;
    while (p < prrs.size() &&
           !(prrs[p].free_at <= now && prrs[p].loaded == prm)) {
      ++p;
    }
    return p;
  };
  const auto idle_holds = [&](const HwTask& task) {
    return idle_holding(task.prm) < prrs.size();
  };

  while (ledger.ended < tasks.size()) {
    // Admit arrivals up to `now`.
    while (next_arrival < tasks.size() &&
           tasks[next_arrival].arrival_s <= now) {
      ready.push_back(next_arrival++);
    }
    std::size_t idle = 0;
    while (idle < prrs.size() && !(prrs[idle].free_at <= now)) ++idle;
    if (ready.empty() || idle == prrs.size()) {
      // Advance time to the next interesting instant.
      double next = std::numeric_limits<double>::infinity();
      if (next_arrival < tasks.size()) {
        next = std::min(next, tasks[next_arrival].arrival_s);
      }
      if (!ready.empty()) {
        for (const PrrState& prr : prrs) next = std::min(next, prr.free_at);
      }
      if (!std::isfinite(next)) {
        throw ContractError{"simulate: deadlocked schedule"};
      }
      now = std::max(now, next);
      continue;
    }

    const std::size_t ti =
        pop_ready(ready, config.policy, task_at, idle_holds);
    const HwTask& task = tasks[ti];

    // Prefer an idle PRR that already holds the PRM.
    std::size_t target = idle_holding(task.prm);
    if (target == prrs.size()) target = idle;
    PrrState& prr = prrs[target];

    TaskOutcome& outcome = result.tasks[ti];
    outcome.task_index = narrow<u32>(ti);
    outcome.prr = narrow<u32>(target);

    double exec_start = now;
    if (prr.loaded != task.prm) {
      // Context switch on the shared ICAP. With HTR enabled and the PRM
      // live in another PRR, an on-chip copy can replace the storage
      // fetch when it is cheaper.
      const u64 bytes = prms[task.prm].bitstream_bytes;
      const double storage_s = icap.estimate_s(bytes, config.media);
      bool relocate = false;
      if (config.allow_relocation && config.relocation_s > 0.0 &&
          config.relocation_s < storage_s) {
        for (std::size_t p = 0; p < prrs.size(); ++p) {
          if (p != target && prrs[p].loaded == task.prm) {
            relocate = true;
            break;
          }
        }
      }
      if (!relocate && config.faults != nullptr) {
        // Fault mode: the CRC-verified transfer spends its ICAP time
        // (failed attempts and backoff included) success or not.
        const TransferOutcome xfer = icap.transfer(
            now, bytes, config.media, config.faults, config.retry);
        outcome.reconfig_attempts += xfer.attempts;
        if (!xfer.success) {
          // Permanent failure: the PRR's contents are undefined and the
          // task did not run. Degrade gracefully - re-queue if the budget
          // allows, otherwise drop with a recorded penalty.
          prr.loaded.reset();
          if (config.recovery == FaultRecovery::kReschedule &&
              reschedules[ti] < config.max_reschedules) {
            ++reschedules[ti];
            ++result.rescheduled_tasks;
            ready.push_back(ti);
            continue;
          }
          outcome.start_s = icap.free_at();
          ledger.drop(outcome, icap.free_at(), task.arrival_s,
                      config.drop_penalty_s);
          continue;
        }
        reconfig_bytes += bytes;
        result.total_reconfig_s += xfer.total_s;
        ++result.reconfig_count;
      } else {
        const double switch_s = relocate ? config.relocation_s : storage_s;
        icap.occupy(now, switch_s);
        if (relocate) {
          result.total_relocation_s += switch_s;
          ++result.relocation_count;
        } else {
          reconfig_bytes += bytes;
          result.total_reconfig_s += switch_s;
          ++result.reconfig_count;
        }
      }
      exec_start = icap.free_at();
      prr.loaded = task.prm;
      outcome.reconfigured = true;
    } else {
      ++result.reuse_hits;
    }
    outcome.start_s = exec_start;
    outcome.finish_s = exec_start + task.exec_s;
    outcome.wait_s = exec_start - task.arrival_s;
    prr.free_at = outcome.finish_s;
    prr.busy_exec_s += task.exec_s;
    ledger.finish(outcome.finish_s);
  }
  static_cast<FaultTotals&>(result) = ledger.totals(icap.ledger());
  result.makespan_s = ledger.makespan_s;

  double wait_sum = 0;
  for (const TaskOutcome& t : result.tasks) wait_sum += t.wait_s;
  result.mean_wait_s =
      tasks.empty() ? 0.0 : wait_sum / static_cast<double>(tasks.size());
  double busy_sum = 0;
  for (const PrrState& prr : prrs) busy_sum += prr.busy_exec_s;
  result.prr_busy_fraction =
      result.makespan_s > 0
          ? busy_sum / (result.makespan_s *
                        static_cast<double>(config.prr_count))
          : 0.0;
  return result;
}

}  // namespace

SimResult simulate(const std::vector<PrmInfo>& prms, std::vector<HwTask> tasks,
                   const SimConfig& config) {
  PRCOST_TRACE_SPAN("multitask_sim");
  if (config.prr_count == 0) throw ContractError{"simulate: zero PRRs"};
  check_prm_indices("simulate", prms, tasks);
  u64 reconfig_bytes = 0;
  SimResult result = run_pool(prms, std::move(tasks), config, reconfig_bytes);
  PRCOST_COUNT("sim.runs");
  PRCOST_COUNT_N("sim.tasks_completed", result.tasks.size());
  PRCOST_COUNT_N("sim.reconfigs", result.reconfig_count);
  PRCOST_COUNT_N("sim.relocations", result.relocation_count);
  PRCOST_COUNT_N("sim.reuse_hits", result.reuse_hits);
  PRCOST_COUNT_N("sim.reconfig_bytes", reconfig_bytes);
  if (config.faults != nullptr) {
    // Gated so fault-free runs register no fault metrics at all.
    PRCOST_COUNT_N("sim.failed_reconfigs", result.failed_reconfigs);
    PRCOST_COUNT_N("sim.dropped_tasks", result.dropped_tasks);
    PRCOST_COUNT_N("sim.rescheduled_tasks", result.rescheduled_tasks);
  }
  return result;
}

SimResult simulate_full_reconfig(
    const std::vector<PrmInfo>& prms, std::vector<HwTask> tasks,
    u64 full_bitstream_bytes, StorageMedia media,
    std::shared_ptr<const ReconfigController> controller) {
  PRCOST_TRACE_SPAN("multitask_sim_full");
  check_prm_indices("simulate_full_reconfig", prms, tasks);
  // One full-device context is a one-PRR FCFS pool whose every PRM loads
  // the full bitstream.
  std::vector<PrmInfo> full = prms;
  for (PrmInfo& prm : full) prm.bitstream_bytes = full_bitstream_bytes;
  SimConfig config;
  config.prr_count = 1;
  config.policy = SchedPolicy::kFcfs;
  config.media = media;
  config.controller = std::move(controller);
  u64 reconfig_bytes = 0;
  SimResult result = run_pool(full, std::move(tasks), config, reconfig_bytes);
  PRCOST_COUNT("sim.full_reconfig_runs");
  PRCOST_COUNT_N("sim.reconfigs", result.reconfig_count);
  PRCOST_COUNT_N("sim.reconfig_bytes", reconfig_bytes);
  return result;
}

}  // namespace prcost
