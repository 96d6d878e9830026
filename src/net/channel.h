#ifndef DFLOW_NET_CHANNEL_H_
#define DFLOW_NET_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <string>

#include "util/result.h"

namespace dflow::net {

/// Outcome of one file's journey across a channel.
enum class DeliveryOutcome {
  kDelivered,
  kCorrupted,  // Arrived but failed its checksum (must be re-sent).
  kLost,       // Never arrived (shipment damaged, link failure).
};

/// A single file (or file bundle) in flight. `bytes` is the paper-scale
/// size used for all bandwidth arithmetic; `payload` optionally carries a
/// real laptop-scale body whose CRC-32 must match `crc32`. Channels that
/// corrupt a payload-carrying item flip bytes in the payload and deliver
/// it as if intact — only the receiver's checksum verification catches it,
/// which is exactly the "assessment and maintenance of data integrity"
/// loop of §2.2.
struct TransferItem {
  std::string name;
  int64_t bytes = 0;
  uint32_t crc32 = 0;
  std::string payload;
};

/// Builds a payload-carrying item: crc32 is computed from `payload`, and
/// `scale_bytes` (when >= 0) overrides the accounted size so a small real
/// payload can stand in for a paper-scale file.
TransferItem MakePayloadItem(std::string name, std::string payload,
                             int64_t scale_bytes = -1);

/// OK if the item carries no payload or the payload matches its crc32;
/// Corruption otherwise.
Status VerifyPayload(const TransferItem& item);

/// Abstract data-movement channel. The paper's central transport contrast
/// — Arecibo's physical ATA-disk shipments vs WebLab's dedicated
/// Internet2 link vs CLEO's USB-disk Monte-Carlo imports — becomes two
/// implementations of this interface, so the same workflow code can be
/// pointed at either and the benches can sweep the crossover.
///
/// Ownership and lifetime contract:
///   * A Channel is owned by whoever constructed it — a scenario or a flow
///     on the stack. Consumers (TransferManager, fault adapters) only ever
///     borrow `Channel*`; nothing in this library takes or shares
///     ownership of a channel.
///   * A channel must outlive (a) every in-flight Send() — callbacks fire
///     from the simulation, so the channel must survive until the
///     simulation has run past the last delivery — and (b) every
///     fault::Injector it is armed with, whose registered hooks capture
///     the raw pointer.
///   * DeliveryCallbacks run in virtual time on the simulation's thread;
///     they may capture borrows with the same lifetime rules, and they must
///     not destroy the channel that invoked them.
class Channel {
 public:
  virtual ~Channel() = default;

  using DeliveryCallback =
      std::function<void(const TransferItem&, DeliveryOutcome)>;

  /// Enqueues a file. The callback fires in virtual time when the file
  /// arrives (or is discovered lost/corrupt).
  virtual Status Send(TransferItem item, DeliveryCallback on_delivery) = 0;

  virtual const std::string& name() const = 0;

  /// Effective long-run throughput in bytes/second (for capacity math).
  virtual double NominalBandwidth() const = 0;

  virtual int64_t bytes_delivered() const = 0;
  virtual int64_t items_delivered() const = 0;
};

}  // namespace dflow::net

#endif  // DFLOW_NET_CHANNEL_H_
