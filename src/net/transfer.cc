#include "net/transfer.h"

#include <utility>

#include "util/crc32.h"
#include "util/logging.h"

namespace dflow::net {

namespace {

const char* OutcomeLabel(DeliveryOutcome outcome, bool verified) {
  switch (outcome) {
    case DeliveryOutcome::kDelivered:
      return verified ? "delivered" : "verify_failed";
    case DeliveryOutcome::kCorrupted:
      return "corrupted";
    case DeliveryOutcome::kLost:
      return "lost";
  }
  return "unknown";
}

}  // namespace

void TransferManifest::Add(const TransferItem& item) {
  items_[item.name] = item;
}

bool TransferManifest::Contains(const std::string& name) const {
  return items_.count(name) > 0;
}

Status TransferManifest::Verify(const TransferItem& item) const {
  auto it = items_.find(item.name);
  if (it == items_.end()) {
    return Status::NotFound("'" + item.name + "' not in manifest");
  }
  if (it->second.bytes != item.bytes || it->second.crc32 != item.crc32) {
    return Status::Corruption("'" + item.name + "' fails manifest check");
  }
  if (!item.payload.empty() || !it->second.payload.empty()) {
    // A payload-carrying file must hash to the manifest checksum; this is
    // the line of defence against channels that flip bits silently.
    if (Crc32::Of(item.payload) != it->second.crc32) {
      return Status::Corruption("'" + item.name +
                                "' payload fails its CRC-32 check");
    }
  }
  return Status::OK();
}

int64_t TransferManifest::TotalBytes() const {
  int64_t total = 0;
  for (const auto& [name, item] : items_) {
    total += item.bytes;
  }
  return total;
}

TransferScheduler::TransferScheduler(sim::Simulation* simulation,
                                     Channel* channel, int max_retries)
    : simulation_(simulation), channel_(channel), max_retries_(max_retries) {
  DFLOW_CHECK(simulation_ != nullptr);
  DFLOW_CHECK(channel_ != nullptr);
  SetObserver(nullptr, nullptr);
}

void TransferScheduler::SetObserver(obs::Tracer* tracer,
                                    obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  // The registry being left stays alive until every handle has carried
  // its count over.
  std::unique_ptr<obs::MetricsRegistry> previous = std::move(owned_metrics_);
  obs::MetricsRegistry& registry =
      obs::InjectedOrOwned(metrics, &owned_metrics_);
  delivered_ = registry.GetCounter("net.transfer.delivered", delivered_);
  retries_ = registry.GetCounter("net.transfer.retries", retries_);
  failures_ = registry.GetCounter("net.transfer.failures", failures_);
}

Status TransferScheduler::SendAll(std::vector<TransferItem> items,
                                  std::function<void()> on_all_delivered) {
  if (started_) {
    return Status::FailedPrecondition("scheduler already started");
  }
  started_ = true;
  on_all_delivered_ = std::move(on_all_delivered);
  outstanding_ = static_cast<int64_t>(items.size());
  for (TransferItem& item : items) {
    manifest_.Add(item);
  }
  if (outstanding_ == 0) {
    if (on_all_delivered_) {
      simulation_->Schedule(0.0, on_all_delivered_);
    }
    return Status::OK();
  }
  for (TransferItem& item : items) {
    SendOne(std::move(item), 0);
  }
  return Status::OK();
}

void TransferScheduler::SetRetryBackoff(double initial_sec,
                                        double multiplier) {
  backoff_initial_sec_ = initial_sec < 0.0 ? 0.0 : initial_sec;
  backoff_multiplier_ = multiplier < 1.0 ? 1.0 : multiplier;
}

void TransferScheduler::Resend(const std::string& name, int attempt) {
  // Always retransmit the pristine manifest copy: re-sending the damaged
  // arrival would re-ship corrupted payload bytes forever.
  auto it = manifest_.items().find(name);
  DFLOW_CHECK(it != manifest_.items().end());
  TransferItem pristine = it->second;
  if (obs::Tracer* tracer = ActiveTracer()) {
    tracer->InstantEvent("net.retransmit", "net",
                         {{"name", name},
                          {"attempt", std::to_string(attempt)}});
  }
  if (backoff_initial_sec_ <= 0.0) {
    SendOne(std::move(pristine), attempt);
    return;
  }
  double delay = backoff_initial_sec_;
  for (int i = 1; i < attempt; ++i) {
    delay *= backoff_multiplier_;
  }
  simulation_->Schedule(delay, [this, pristine = std::move(pristine),
                                attempt]() mutable {
    SendOne(std::move(pristine), attempt);
  });
}

void TransferScheduler::SendOne(TransferItem item, int attempt) {
  double send_sec = simulation_->Now();
  Status s = channel_->Send(
      item, [this, attempt, send_sec](const TransferItem& delivered,
                                      DeliveryOutcome outcome) {
        bool ok = outcome == DeliveryOutcome::kDelivered &&
                  manifest_.Verify(delivered).ok();
        if (obs::Tracer* tracer = ActiveTracer()) {
          // One span per attempt: the channel latency of this send.
          double end_sec = simulation_->Now();
          tracer->CompleteEvent(
              "net.transfer", "net", obs::UsOf(send_sec),
              obs::UsOf(end_sec - send_sec),
              {{"name", delivered.name},
               {"attempt", std::to_string(attempt)},
               {"bytes", std::to_string(delivered.bytes)},
               {"outcome", OutcomeLabel(outcome, ok)}});
        }
        if (!ok) {
          if (attempt + 1 > max_retries_) {
            failures_->Add(1);
            DFLOW_LOG(Error) << "transfer of '" << delivered.name
                             << "' failed permanently";
          } else {
            retries_->Add(1);
            Resend(delivered.name, attempt + 1);
            return;
          }
        } else {
          delivered_->Add(1);
        }
        if (--outstanding_ == 0 && on_all_delivered_) {
          on_all_delivered_();
        }
      });
  if (!s.ok()) {
    DFLOW_LOG(Error) << "send failed: " << s.ToString();
    failures_->Add(1);
    if (--outstanding_ == 0 && on_all_delivered_) {
      on_all_delivered_();
    }
  }
}

}  // namespace dflow::net
