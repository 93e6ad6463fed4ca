// Preemptive hardware multitasking with context save/restore.
//
// The authors' FCCM'13 work [5] exists precisely so a running hardware
// task can be *preempted*: its flip-flop/BRAM state is captured and read
// back (context save), the PRR is given to a more urgent task, and the
// victim later resumes from its saved context. Without save/restore, a
// preempted hardware task must restart from scratch, discarding completed
// work. This simulator quantifies the difference:
//
//   kNoPreemption : urgent tasks wait for a free PRR.
//   kRestart      : preemption discards the victim's progress.
//   kSaveRestore  : preemption pays the HTR save cost; the victim resumes
//                   with its remaining execution plus a restore cost.
//
// All configuration traffic (reconfigure, save, restore) serializes on the
// shared ICAP, as in the non-preemptive simulator.
#pragma once

#include <memory>
#include <vector>

#include "multitask/simulator.hpp"

namespace prcost {

/// Preemption discipline.
enum class PreemptMode { kNoPreemption, kRestart, kSaveRestore };

std::string_view preempt_mode_name(PreemptMode mode);

/// Configuration for the preemptive simulator.
struct PreemptiveConfig {
  u32 prr_count = 1;
  PreemptMode mode = PreemptMode::kSaveRestore;
  StorageMedia media = StorageMedia::kDdrSdram;
  std::shared_ptr<const ReconfigController> controller;  ///< null = default
  double context_save_s = 0.0;     ///< HTR readback cost per preemption
  double context_restore_s = 0.0;  ///< HTR write-back cost per resume
  /// Fault injection: when set, every reconfiguration runs the verified
  /// transfer loop; a permanent failure drops the job (the preemptive
  /// simulator has no reschedule mode - a failed load leaves no context
  /// worth resuming). Null (default) keeps the fault-free fast path.
  FaultInjector* faults = nullptr;
  RetryPolicy retry;
  double drop_penalty_s = 0.0;  ///< recorded penalty per dropped task
};

/// Results; task outcomes carry final completion times. The fault fields
/// are zero when PreemptiveConfig::faults is null.
struct PreemptiveResult : FaultTotals {
  double makespan_s = 0;
  u64 preemptions = 0;
  u64 reconfig_count = 0;
  double total_reconfig_s = 0;
  double total_save_restore_s = 0;
  double mean_high_priority_wait_s = 0;  ///< mean wait of top-quartile tasks
  std::vector<TaskOutcome> tasks;
};

/// Run `tasks` (priorities matter: larger = more urgent) over `prms`.
PreemptiveResult simulate_preemptive(const std::vector<PrmInfo>& prms,
                                     std::vector<HwTask> tasks,
                                     const PreemptiveConfig& config);

}  // namespace prcost
