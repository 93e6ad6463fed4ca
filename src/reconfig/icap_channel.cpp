#include "reconfig/icap_channel.hpp"

#include <utility>

namespace prcost {

std::shared_ptr<const ReconfigController> default_controller() {
  return std::make_shared<DmaIcapController>(default_icap(Family::kVirtex5));
}

IcapChannel::IcapChannel(std::shared_ptr<const ReconfigController> controller)
    : controller_(controller ? std::move(controller) : default_controller()) {}

TransferOutcome IcapChannel::transfer(double now, u64 bytes,
                                      StorageMedia media,
                                      FaultInjector* faults,
                                      const RetryPolicy& retry) {
  const TransferOutcome xfer =
      verified_transfer(*controller_, bytes, media, faults, retry);
  ledger_.retry_attempts += xfer.attempts - 1;
  ledger_.backoff_s += xfer.backoff_s;
  ledger_.wasted_s += xfer.wasted_s;
  if (!xfer.success) ++ledger_.failed_reconfigs;
  occupy(now, xfer.total_s);
  return xfer;
}

}  // namespace prcost
