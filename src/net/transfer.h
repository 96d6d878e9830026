#ifndef DFLOW_NET_TRANSFER_H_
#define DFLOW_NET_TRANSFER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/channel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulation.h"

namespace dflow::net {

/// A manifest accompanying a batch of files: names, sizes, checksums.
/// The receiving side verifies each arrival against it; missing or
/// mismatched entries are re-requested. This is the "assessment and
/// maintenance of data integrity; tracking and logging; ensuring no data
/// loss" machinery of §2.2 in executable form.
class TransferManifest {
 public:
  void Add(const TransferItem& item);
  bool Contains(const std::string& name) const;
  /// OK if (name, bytes, crc) matches the manifest AND, for items carrying
  /// a real payload, the payload's CRC-32 matches the manifest checksum —
  /// this is what catches a channel's silent bit-flips. Corruption
  /// otherwise.
  Status Verify(const TransferItem& item) const;
  size_t size() const { return items_.size(); }
  int64_t TotalBytes() const;
  const std::map<std::string, TransferItem>& items() const { return items_; }

 private:
  std::map<std::string, TransferItem> items_;
};

/// Reliable delivery on top of an unreliable Channel: sends every file,
/// verifies arrivals against the manifest (including payload CRC-32 for
/// items that carry real bytes), and re-sends corrupted or lost files
/// until everything lands (up to a retry cap). Retransmits always restart
/// from the sender's pristine manifest copy, never from the damaged
/// arrival, and optionally back off exponentially in virtual time.
/// Completion fires when the whole manifest is delivered intact.
class TransferScheduler {
 public:
  TransferScheduler(sim::Simulation* simulation, Channel* channel,
                    int max_retries = 5);

  /// Virtual-time delay before retry k is initial * multiplier^(k-1)
  /// (default 0: immediate re-send, the seed behavior).
  void SetRetryBackoff(double initial_sec, double multiplier = 2.0);

  /// Queues all `items` and runs them to completion under the simulation.
  /// `on_all_delivered` fires (virtual time) once every item is verified.
  Status SendAll(std::vector<TransferItem> items,
                 std::function<void()> on_all_delivered);

  /// Attaches observability hooks (borrowed; either may be null). With a
  /// tracer, every send attempt emits one virtual-time "net.transfer" span
  /// (channel latency, with name/attempt/outcome args) and every
  /// retransmit an instant event. The counters move into `metrics` (null:
  /// a private registry), counts so far carried over, under
  /// "net.transfer.delivered", ".retries", ".failures".
  void SetObserver(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  int64_t retries() const { return retries_->Value(); }
  int64_t failures() const { return failures_->Value(); }
  const TransferManifest& manifest() const { return manifest_; }
  bool AllDelivered() const { return outstanding_ == 0 && started_; }

 private:
  void SendOne(TransferItem item, int attempt);
  void Resend(const std::string& name, int attempt);
  /// The configured tracer if currently enabled, else null.
  obs::Tracer* ActiveTracer() const {
    return tracer_ != nullptr && tracer_->enabled() ? tracer_ : nullptr;
  }

  sim::Simulation* simulation_;
  Channel* channel_;
  int max_retries_;
  double backoff_initial_sec_ = 0.0;
  double backoff_multiplier_ = 2.0;
  TransferManifest manifest_;
  int64_t outstanding_ = 0;
  bool started_ = false;
  std::function<void()> on_all_delivered_;

  // Observability: the tracer (null until SetObserver), the one counter
  // store, and handles into it, resolved once per SetObserver.
  obs::Tracer* tracer_ = nullptr;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Counter* delivered_ = nullptr;
  obs::Counter* retries_ = nullptr;
  obs::Counter* failures_ = nullptr;
};

}  // namespace dflow::net

#endif  // DFLOW_NET_TRANSFER_H_
