#ifndef DFLOW_FAULT_ADAPTERS_H_
#define DFLOW_FAULT_ADAPTERS_H_

// Header-only glue between the generic fault::Injector and the concrete
// components that take faults. Keeping the adapters out of the dflow_fault
// library leaves its link interface at sim+util, so fault scheduling never
// drags in net/storage/core; callers that wire a scenario already link
// those libraries.

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/flow_runner.h"
#include "fault/injector.h"
#include "net/network_link.h"
#include "net/shipment.h"
#include "net/topology.h"
#include "storage/tape.h"
#include "util/logging.h"
#include "util/result.h"

namespace dflow::fault {

/// Routes kLinkFlap and kTransferCorruption events whose target equals
/// `link->name()` into the link's fault hooks.
inline void ArmNetworkLink(Injector& injector, net::NetworkLink* link) {
  DFLOW_CHECK(link != nullptr);
  DFLOW_CHECK_OK(injector.Register(
      FaultKind::kLinkFlap, link->name(),
      [link](const FaultEvent& e) { link->InjectOutage(e.duration_sec); }));
  DFLOW_CHECK_OK(injector.Register(
      FaultKind::kTransferCorruption, link->name(),
      [link](const FaultEvent& e) { link->InjectCorruptNext(e.count); }));
}

/// Arms a topology against the partition events of `plan`: kPartition
/// events cut every link crossing their group spec's boundaries for the
/// event duration, and kLinkCut events cut exactly the one directed link
/// their target names ("a->b" — the reverse direction stays up, which is
/// the asymmetric failure mode). Unlike the per-component adapters, the
/// registered targets come from the plan itself (group specs are
/// free-form), so this adapter needs the plan to know what to listen for.
///
/// Every partition and link-cut event is checked before anything is
/// registered: its duration is positive, and its target is a group spec
/// that parses and names only topology nodes, or a link the topology
/// holds. InvalidArgument otherwise, with nothing registered, so no
/// handler ever fires on a target it cannot apply.
inline Status ArmTopologyPartitions(Injector& injector,
                                    net::Topology* topology,
                                    const FaultPlan& plan) {
  DFLOW_CHECK(topology != nullptr);
  const std::vector<std::string> nodes = topology->nodes();
  for (const FaultEvent& event : plan.events()) {
    if (event.kind != FaultKind::kPartition &&
        event.kind != FaultKind::kLinkCut) {
      continue;
    }
    if (!(event.duration_sec > 0.0)) {
      return Status::InvalidArgument("fault '" + event.ToString() +
                                     "' needs a positive duration");
    }
    if (event.kind == FaultKind::kPartition) {
      DFLOW_ASSIGN_OR_RETURN(auto groups,
                             net::Topology::ParseGroups(event.target));
      for (const auto& group : groups) {
        for (const std::string& name : group) {
          if (std::find(nodes.begin(), nodes.end(), name) == nodes.end()) {
            return Status::InvalidArgument("partition '" + event.target +
                                           "' names unknown node '" + name +
                                           "'");
          }
        }
      }
    } else {
      size_t sep = event.target.find("->");
      if (sep == std::string::npos ||
          !topology
               ->LinkBetween(event.target.substr(0, sep),
                             event.target.substr(sep + 2))
               .ok()) {
        return Status::InvalidArgument("link cut target '" + event.target +
                                       "' is not a link of the topology");
      }
    }
  }

  std::set<std::pair<FaultKind, std::string>> registered;
  for (const FaultEvent& event : plan.events()) {
    if (event.kind != FaultKind::kPartition &&
        event.kind != FaultKind::kLinkCut) {
      continue;
    }
    if (!registered.insert({event.kind, event.target}).second) {
      continue;
    }
    if (event.kind == FaultKind::kPartition) {
      DFLOW_RETURN_IF_ERROR(injector.Register(
          FaultKind::kPartition, event.target,
          [topology](const FaultEvent& e) {
            DFLOW_CHECK_OK(topology->Partition(e.target, e.duration_sec));
          }));
    } else {
      size_t sep = event.target.find("->");
      std::string from = event.target.substr(0, sep);
      std::string to = event.target.substr(sep + 2);
      DFLOW_RETURN_IF_ERROR(injector.Register(
          FaultKind::kLinkCut, event.target,
          [topology, from, to](const FaultEvent& e) {
            DFLOW_CHECK_OK(topology->CutLink(from, to, e.duration_sec));
          }));
    }
  }
  return Status::OK();
}

/// Routes kShipmentLoss and kShipmentDelay events into the channel.
inline void ArmShipmentChannel(Injector& injector,
                               net::ShipmentChannel* channel) {
  DFLOW_CHECK(channel != nullptr);
  DFLOW_CHECK_OK(injector.Register(
      FaultKind::kShipmentLoss, channel->name(),
      [channel](const FaultEvent&) { channel->InjectLoseNextShipment(); }));
  DFLOW_CHECK_OK(injector.Register(
      FaultKind::kShipmentDelay, channel->name(),
      [channel](const FaultEvent& e) {
        channel->InjectDelayNextShipment(e.duration_sec);
      }));
}

/// Routes kDriveFailure and kBadBlock events into the library. Bad-block
/// events strike the lexicographically rotating victim: the event count
/// indexes into the sorted file list, so a plan replays onto the same
/// files every run.
inline void ArmTapeLibrary(Injector& injector, storage::TapeLibrary* tape,
                           const std::string& target) {
  DFLOW_CHECK(tape != nullptr);
  DFLOW_CHECK_OK(injector.Register(
      FaultKind::kDriveFailure, target,
      [tape](const FaultEvent& e) {
        tape->InjectDriveFailure(e.duration_sec);
      }));
  DFLOW_CHECK_OK(injector.Register(
      FaultKind::kBadBlock, target, [tape](const FaultEvent& e) {
        auto files = tape->FileNames();
        if (files.empty()) {
          return;
        }
        size_t victim = static_cast<size_t>(e.count) % files.size();
        tape->MarkBadBlock(files[victim]);
      }));
}

/// Routes kTransientStageError and kStageCrash events targeted at `stage`
/// into the runner's injection hooks.
inline void ArmFlowRunnerStage(Injector& injector, core::FlowRunner* runner,
                               const std::string& stage) {
  DFLOW_CHECK(runner != nullptr);
  DFLOW_CHECK_OK(injector.Register(
      FaultKind::kTransientStageError, stage,
      [runner, stage](const FaultEvent& e) {
        DFLOW_CHECK_OK(runner->InjectTransientErrors(stage, e.count));
      }));
  DFLOW_CHECK_OK(injector.Register(
      FaultKind::kStageCrash, stage, [runner, stage](const FaultEvent& e) {
        DFLOW_CHECK_OK(runner->InjectDowntime(stage, e.duration_sec));
      }));
}

}  // namespace dflow::fault

#endif  // DFLOW_FAULT_ADAPTERS_H_
