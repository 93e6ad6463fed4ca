// Event-driven hardware-multitasking simulator.
//
// Models the system the paper's title names: PRMs time-multiplexing a pool
// of PRRs. Each context switch on a PRR loads the incoming PRM's partial
// bitstream through the (single, shared) ICAP; the static region and other
// PRRs keep running meanwhile. The simulator quantifies how PRR
// sizing/organization decisions - via partial bitstream size and hence
// reconfiguration time - turn into schedule-level makespan, which is the
// motivation argument of Section I.
#pragma once

#include <memory>
#include <vector>

#include "multitask/event_core.hpp"

namespace prcost {

/// What to do with a task whose reconfiguration failed permanently (every
/// verified-transfer retry delivered a corrupted bitstream or timed out).
enum class FaultRecovery {
  kDrop,        ///< record the task as dropped with a penalty
  kReschedule,  ///< re-queue the task (bounded by max_reschedules), then drop
};

/// Simulation configuration.
struct SimConfig {
  u32 prr_count = 2;         ///< PRRs in the pool
  SchedPolicy policy = SchedPolicy::kReuseAware;
  StorageMedia media = StorageMedia::kDdrSdram;
  /// Reconfiguration controller; nullptr selects default_controller().
  std::shared_ptr<const ReconfigController> controller;
  /// HTR option: when the incoming PRM is already configured in some other
  /// PRR, copy it on-chip (capture/readback/rewrite, see src/htr) instead
  /// of fetching the bitstream from storage - taken whenever
  /// `relocation_s` beats the storage path. 0 disables relocation.
  bool allow_relocation = false;
  double relocation_s = 0.0;  ///< on-chip copy time per context switch
  /// Fault injection: when set, every storage-path context switch goes
  /// through the CRC-verified transfer loop (retry + backoff per `retry`)
  /// and permanent failures degrade per `recovery` instead of asserting.
  /// Null (default) keeps the fault-free fast path - results are
  /// bit-identical to a build without fault support.
  FaultInjector* faults = nullptr;
  RetryPolicy retry;
  FaultRecovery recovery = FaultRecovery::kDrop;
  u32 max_reschedules = 1;      ///< kReschedule re-queue budget per task
  double drop_penalty_s = 0.0;  ///< recorded penalty per dropped task
};

/// Aggregate results; the fault fields are zero when SimConfig::faults is
/// null.
struct SimResult : FaultTotals {
  double makespan_s = 0;
  double total_reconfig_s = 0;
  u64 reconfig_count = 0;
  u64 reuse_hits = 0;        ///< dispatches that skipped reconfiguration
  u64 relocation_count = 0;  ///< context switches served by on-chip copy
  double total_relocation_s = 0;
  double mean_wait_s = 0;
  double prr_busy_fraction = 0;  ///< mean execution utilization of PRRs
  u64 rescheduled_tasks = 0;     ///< re-queue events (kReschedule)
  std::vector<TaskOutcome> tasks;
};

/// Simulate `tasks` over `prms` with `config`. Tasks may arrive in any
/// order; the simulator sorts by (arrival, input order). All PRRs are
/// assumed large enough for every PRM (size the pool with find_shared_prr
/// first).
SimResult simulate(const std::vector<PrmInfo>& prms,
                   std::vector<HwTask> tasks, const SimConfig& config);

/// Non-PR baseline: a single full-device context; every switch between
/// different PRMs reloads the full bitstream and halts execution (no
/// overlap, no parallel PRRs).
SimResult simulate_full_reconfig(const std::vector<PrmInfo>& prms,
                                 std::vector<HwTask> tasks,
                                 u64 full_bitstream_bytes,
                                 StorageMedia media,
                                 std::shared_ptr<const ReconfigController>
                                     controller = nullptr);

}  // namespace prcost
