#include "multitask/workload.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace prcost {

void check_prm_indices(std::string_view where,
                       const std::vector<PrmInfo>& prms,
                       const std::vector<HwTask>& tasks) {
  for (const HwTask& task : tasks) {
    if (task.prm >= prms.size()) {
      throw ContractError{std::string{where} + ": task '" + task.name +
                          "' references unknown PRM " +
                          std::to_string(task.prm)};
    }
  }
}

std::vector<HwTask> make_workload(const WorkloadParams& params) {
  if (params.prm_count == 0) {
    throw ContractError{"make_workload: zero PRMs"};
  }
  Rng rng{params.seed};
  std::vector<HwTask> tasks;
  tasks.reserve(params.count);
  double clock = 0.0;
  for (u32 i = 0; i < params.count; ++i) {
    clock += rng.exponential(params.mean_interarrival_s);
    HwTask task;
    task.name = "task" + std::to_string(i);
    task.prm = narrow<u32>(rng.below(params.prm_count));
    task.arrival_s = clock;
    task.exec_s = rng.exponential(params.mean_exec_s);
    task.priority = narrow<u32>(rng.below(8));
    tasks.push_back(std::move(task));
  }
  return tasks;
}

std::vector<std::size_t> arrival_order(const std::vector<HwTask>& tasks) {
  std::vector<std::size_t> order(tasks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&tasks](std::size_t a, std::size_t b) {
              if (tasks[a].arrival_s != tasks[b].arrival_s) {
                return tasks[a].arrival_s < tasks[b].arrival_s;
              }
              return a < b;
            });
  return order;
}

void sort_by_arrival(std::vector<HwTask>& tasks) {
  // Sort an index permutation, not the tasks: the original position is
  // the tie-break key, and it must be captured before anything moves.
  const std::vector<std::size_t> order = arrival_order(tasks);
  std::vector<HwTask> sorted;
  sorted.reserve(tasks.size());
  for (const std::size_t i : order) sorted.push_back(std::move(tasks[i]));
  tasks = std::move(sorted);
}

}  // namespace prcost
