#include "sched/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace prcost::sched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One PRR slot: which PRM is configured and when it goes idle.
struct SlotState {
  i64 loaded = -1;     ///< PRM index, -1 = empty
  double free_at = 0;
};

/// Per-PRM online state for the prefetch rate estimator.
struct PrmState {
  double last_arrival_s = 0;
  bool seen = false;
  double ewma_gap_s = 0;      ///< 0 until two arrivals observed
  bool prefetch_issued = false;
  double prefetch_ready_s = kInf;  ///< when the warm copy is resident
};

}  // namespace

std::string_view policy_name(Policy policy) {
  switch (policy) {
    case Policy::kFcfs:       return "fcfs";
    case Policy::kSjf:        return "sjf";
    case Policy::kPriority:   return "priority";
    case Policy::kReuseAware: return "reuse-aware";
    case Policy::kEdf:        return "edf";
  }
  return "fcfs";
}

Policy parse_policy(std::string_view name) {
  if (name == "fcfs") return Policy::kFcfs;
  if (name == "priority") return Policy::kPriority;
  if (name == "edf") return Policy::kEdf;
  throw UsageError{"unknown policy '" + std::string{name} +
                   "' (expected fcfs, priority or edf)"};
}

Report run(const std::vector<PrmInfo>& prms, std::vector<Task> tasks,
           const SchedulerConfig& config) {
  PRCOST_TRACE_SPAN("sched_run");
  if (config.slot_count == 0) {
    throw ContractError{"sched::run: zero PRR slots"};
  }
  check_prm_indices("sched::run", prms, tasks);
  IcapChannel icap{config.controller};
  const double alpha =
      config.rate_alpha > 0 && config.rate_alpha <= 1 ? config.rate_alpha
                                                      : 0.5;

  Report report;
  report.tasks.resize(tasks.size());
  if (tasks.empty()) return report;

  // Admission position -> input index.
  const std::vector<std::size_t> order = arrival_order(tasks);

  std::vector<SlotState> slots(config.slot_count);
  std::vector<double> cpu_free(config.cpu_workers, 0.0);
  std::vector<PrmState> prm_state(prms.size());
  OutcomeLedger ledger;
  double clock = 0;
  // A rate at or below 0 prices fault-free transfers.
  const double fault_rate = config.fault_rate <= 0 ? 0.0 : config.fault_rate;

  // Observe one arrival for the prefetch rate estimator; fires the
  // prefetch (once per PRM) when the EWMA arrival-rate estimate reaches
  // the threshold. The staged copy becomes resident one cold fetch later.
  const auto observe_arrival = [&](u32 prm, double arrival_s) {
    PrmState& state = prm_state[prm];
    if (state.seen) {
      const double gap = arrival_s - state.last_arrival_s;
      state.ewma_gap_s = state.ewma_gap_s > 0
                             ? alpha * gap + (1 - alpha) * state.ewma_gap_s
                             : gap;
    }
    state.seen = true;
    state.last_arrival_s = arrival_s;
    if (config.prefetch_rate_hz > 0 && !state.prefetch_issued &&
        state.ewma_gap_s > 0 &&
        1.0 / state.ewma_gap_s >= config.prefetch_rate_hz) {
      state.prefetch_issued = true;
      state.prefetch_ready_s =
          arrival_s +
          fetch_seconds(config.cold_media, prms[prm].bitstream_bytes);
      ++report.prefetches_issued;
      if (config.prefetch_hook) config.prefetch_hook(prm);
    }
  };

  std::vector<std::size_t> ready;  // positions in admission order
  std::size_t next_admit = 0;

  const auto task_at = [&tasks, &order](std::size_t pos) -> const Task& {
    return tasks[order[pos]];
  };
  const auto idle_holds = [&slots, &clock](const Task& task) {
    return std::any_of(slots.begin(), slots.end(), [&](const SlotState& s) {
      return s.free_at <= clock && s.loaded == static_cast<i64>(task.prm);
    });
  };

  while (ledger.ended < tasks.size()) {
    while (next_admit < tasks.size() &&
           task_at(next_admit).arrival_s <= clock) {
      observe_arrival(task_at(next_admit).prm, task_at(next_admit).arrival_s);
      ready.push_back(next_admit++);
    }
    if (ready.empty()) {
      clock = std::max(clock, task_at(next_admit).arrival_s);
      continue;
    }
    // Decision points are instants where at least one slot is idle;
    // otherwise advance to the next event (arrival or slot release) so
    // later, more urgent arrivals still get considered.
    double next_free = kInf;
    bool slot_idle = false;
    for (const SlotState& slot : slots) {
      if (slot.free_at <= clock) slot_idle = true;
      next_free = std::min(next_free, slot.free_at);
    }
    if (!slot_idle) {
      double next_event = next_free;
      if (next_admit < tasks.size()) {
        next_event = std::min(next_event, task_at(next_admit).arrival_s);
      }
      clock = std::max(clock, next_event);
      continue;
    }

    const std::size_t admit_pos =
        pop_ready(ready, config.policy, task_at, idle_holds);
    const Task& task = task_at(admit_pos);

    // Price every candidate slot: residency is free; anything else pays
    // an ICAP-serialized reconfiguration at warm or cold media speed.
    TaskOutcome best;
    best.finish_s = kInf;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      TaskOutcome candidate;
      candidate.slot = narrow<u32>(s);
      if (slots[s].loaded == static_cast<i64>(task.prm)) {
        candidate.start_s = std::max(clock, slots[s].free_at);
      } else {
        candidate.reconfigured = true;
        const double reconfig_start =
            std::max({clock, slots[s].free_at, icap.free_at()});
        candidate.prefetched =
            prm_state[task.prm].prefetch_ready_s <= reconfig_start;
        candidate.reconfig_s = icap.expected_s(
            prms[task.prm].bitstream_bytes,
            candidate.prefetched ? config.warm_media : config.cold_media,
            fault_rate, config.retry);
        candidate.start_s = reconfig_start + candidate.reconfig_s;
      }
      candidate.finish_s = candidate.start_s + task.exec_s;
      if (candidate.finish_s < best.finish_s) best = candidate;
    }

    TaskOutcome& outcome = report.tasks[order[admit_pos]];
    // Deadline-infeasible on every PRR: run in software instead of
    // spending ICAP bandwidth on a placement that cannot meet it.
    if (task.deadline_s > 0 && best.finish_s > task.deadline_s &&
        !cpu_free.empty()) {
      std::size_t worker = 0;
      for (std::size_t w = 1; w < cpu_free.size(); ++w) {
        if (cpu_free[w] < cpu_free[worker]) worker = w;
      }
      outcome.cpu_fallback = true;
      outcome.slot = narrow<u32>(worker);
      outcome.start_s = std::max(clock, cpu_free[worker]);
      outcome.finish_s =
          outcome.start_s + task.exec_s * config.cpu_slowdown;
      cpu_free[worker] = outcome.finish_s;
      ++report.cpu_fallbacks;
    } else {
      outcome = best;
      if (best.reconfigured) {
        icap.hold_until(best.start_s);  // reconfig ends where exec starts
        ++report.reconfig_count;
        report.total_reconfig_s += best.reconfig_s;
        if (best.prefetched) ++report.prefetched_reconfigs;
      } else {
        ++report.reuse_hits;
      }
      slots[best.slot].loaded = static_cast<i64>(task.prm);
      slots[best.slot].free_at = outcome.finish_s;
    }
    outcome.task = narrow<u32>(order[admit_pos]);
    outcome.wait_s = outcome.start_s - task.arrival_s;
    outcome.deadline_miss =
        task.deadline_s > 0 && outcome.finish_s > task.deadline_s;
    if (outcome.deadline_miss) ++report.deadline_misses;
    ledger.finish(outcome.finish_s);
  }

  report.completed = ledger.ended;
  report.makespan_s = ledger.makespan_s;
  double wait = 0;
  double turnaround = 0;
  for (std::size_t i = 0; i < report.tasks.size(); ++i) {
    const TaskOutcome& outcome = report.tasks[i];
    wait += outcome.wait_s;
    turnaround += outcome.finish_s - tasks[i].arrival_s;
  }
  const double n = static_cast<double>(report.tasks.size());
  report.mean_wait_s = wait / n;
  report.mean_turnaround_s = turnaround / n;
  report.reconfig_seconds_per_task =
      report.total_reconfig_s / static_cast<double>(report.completed);
  if (report.makespan_s > 0) {
    report.throughput_per_s =
        static_cast<double>(report.completed) / report.makespan_s;
  }
  PRCOST_COUNT_N("sched.tasks", report.completed);
  PRCOST_COUNT_N("sched.reconfigs", report.reconfig_count);
  PRCOST_COUNT_N("sched.reuse_hits", report.reuse_hits);
  PRCOST_COUNT_N("sched.prefetches", report.prefetches_issued);
  PRCOST_COUNT_N("sched.cpu_fallbacks", report.cpu_fallbacks);
  PRCOST_COUNT_N("sched.deadline_misses", report.deadline_misses);
  return report;
}

}  // namespace prcost::sched
