#ifndef DFLOW_FAULT_ADAPTERS_H_
#define DFLOW_FAULT_ADAPTERS_H_

// Header-only glue between the generic fault::Injector and the concrete
// components that take faults. Keeping the adapters out of the dflow_fault
// library leaves its link interface at sim+util, so fault scheduling never
// drags in net/storage/core; callers that wire a scenario already link
// those libraries.

#include <string>
#include <vector>

#include "core/flow_runner.h"
#include "fault/injector.h"
#include "net/network_link.h"
#include "storage/tape.h"
#include "util/logging.h"

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
