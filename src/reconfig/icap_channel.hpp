// The single ICAP that every multitasking event loop serializes on: the
// default controller, busy-until serialization, CRC-verified transfers
// with their retry/backoff/failure totals, and the expected cost of a
// transfer under the fault model.
#pragma once

#include <algorithm>
#include <memory>

#include "reconfig/baselines.hpp"
#include "reconfig/controllers.hpp"

namespace prcost {

/// The controller every loop falls back to: DMA-ICAP on Virtex-5 timings.
std::shared_ptr<const ReconfigController> default_controller();

/// Expected wall time of one reconfiguration of `bytes` from `media`: the
/// controller estimate expanded by expected_retry_cost at corruption rate
/// `fault_rate` (rate 0 is the plain estimate).
inline double expected_reconfig_s(const ReconfigController& controller,
                                  u64 bytes, StorageMedia media,
                                  double fault_rate,
                                  const RetryPolicy& retry) {
  const double attempt_s = controller.estimate(bytes, media).total_s;
  // expected_retry_cost at rate 0 is exactly attempt_s; skip the series.
  if (fault_rate == 0) return attempt_s;
  return expected_retry_cost(attempt_s, fault_rate, retry).expected_time_s;
}

/// Totals over the verified transfers run on one channel.
struct TransferLedger {
  u64 failed_reconfigs = 0;  ///< transfers that exhausted their retries
  u64 retry_attempts = 0;    ///< attempts beyond each transfer's first
  double backoff_s = 0;
  double wasted_s = 0;       ///< failed attempts plus backoff
};

class IcapChannel {
 public:
  /// Null `controller` selects default_controller().
  explicit IcapChannel(std::shared_ptr<const ReconfigController> controller);

  /// Fault-free transfer time of `bytes` from `media`.
  double estimate_s(u64 bytes, StorageMedia media) const {
    return controller_->estimate(bytes, media).total_s;
  }
  double expected_s(u64 bytes, StorageMedia media, double fault_rate,
                    const RetryPolicy& retry) const {
    return expected_reconfig_s(*controller_, bytes, media, fault_rate, retry);
  }

  double free_at() const { return free_at_; }
  /// Run a `duration_s` job from max(now, free_at()); returns its end.
  double occupy(double now, double duration_s) {
    return free_at_ = std::max(now, free_at_) + duration_s;
  }
  /// Busy until `end_s`, for a job the caller priced and placed itself.
  void hold_until(double end_s) { free_at_ = end_s; }

  /// verified_transfer from `now`: the channel is busy for every attempt
  /// and backoff, success or not, and ledger() is charged.
  TransferOutcome transfer(double now, u64 bytes, StorageMedia media,
                           FaultInjector* faults, const RetryPolicy& retry);

  const TransferLedger& ledger() const { return ledger_; }

 private:
  std::shared_ptr<const ReconfigController> controller_;
  double free_at_ = 0;
  TransferLedger ledger_;
};

}  // namespace prcost
