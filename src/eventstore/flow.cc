#include "eventstore/flow.h"

#include <memory>
#include <string>

#include "core/stage.h"
#include "util/units.h"

namespace dflow::eventstore {

using core::DataProduct;
using core::ScalingStage;
using core::StageCosts;

Status BuildCleoFlow(const CleoFlowConfig& config, core::FlowGraph* graph) {
  using S = CleoFlowStages;

  DFLOW_RETURN_IF_ERROR(graph->AddStage(ScalingStage(
      S::kAcquisition, StageCosts{config.run_minutes * kMinute, 0.0}, 1.0,
      "")));
  DFLOW_RETURN_IF_ERROR(graph->AddStage(
      ScalingStage(S::kInitialAnalysis, StageCosts{120.0, 0.0}, 1.0, "")));
  DFLOW_RETURN_IF_ERROR(graph->AddStage(
      ScalingStage(S::kReconstruction, StageCosts{0.0, 4.0e-9},
                   config.recon_ratio, ".recon")));
  DFLOW_RETURN_IF_ERROR(graph->AddStage(ScalingStage(
      S::kPostRecon, StageCosts{0.0, 1.0e-9},
      config.postrecon_ratio / config.recon_ratio, ".postrecon")));
  DFLOW_RETURN_IF_ERROR(graph->AddStage(ScalingStage(
      S::kMonteCarlo, StageCosts{0.0, 8.0e-9}, config.mc_ratio, ".mc")));
  DFLOW_RETURN_IF_ERROR(graph->AddStage(ScalingStage(
      S::kUsbImport, StageCosts{2 * kHour, 0.0}, 1.0, "")));
  DFLOW_RETURN_IF_ERROR(graph->AddStage(
      ScalingStage(S::kEventStore, StageCosts{30.0, 0.0}, 1.0, "")));
  DFLOW_RETURN_IF_ERROR(graph->AddStage(ScalingStage(
      S::kAnalysis, StageCosts{0.0, 2.0e-9}, config.analysis_ratio,
      ".ntuple")));

  DFLOW_RETURN_IF_ERROR(graph->Connect(S::kAcquisition, S::kInitialAnalysis));
  DFLOW_RETURN_IF_ERROR(
      graph->Connect(S::kInitialAnalysis, S::kReconstruction));
  DFLOW_RETURN_IF_ERROR(graph->Connect(S::kReconstruction, S::kPostRecon));
  DFLOW_RETURN_IF_ERROR(graph->Connect(S::kPostRecon, S::kEventStore));
  DFLOW_RETURN_IF_ERROR(graph->Connect(S::kMonteCarlo, S::kUsbImport));
  DFLOW_RETURN_IF_ERROR(graph->Connect(S::kUsbImport, S::kEventStore));
  DFLOW_RETURN_IF_ERROR(graph->Connect(S::kEventStore, S::kAnalysis));
  return Status::OK();
}

Status InjectCleoDay(const CleoFlowConfig& config, core::FlowRunner* runner) {
  const double spacing = kDay / config.num_runs;
  for (int i = 0; i < config.num_runs; ++i) {
    DataProduct run;
    run.name = "run_" + std::to_string(i + 1);
    run.bytes = config.raw_bytes_per_run;
    run.attributes["run"] = std::to_string(i + 1);
    DFLOW_RETURN_IF_ERROR(runner->Inject(CleoFlowStages::kAcquisition, run,
                                         i * spacing));
    // Offsite MC batch mirroring the run.
    DataProduct mc;
    mc.name = "mc_batch_" + std::to_string(i + 1);
    mc.bytes = config.raw_bytes_per_run;
    DFLOW_RETURN_IF_ERROR(runner->Inject(CleoFlowStages::kMonteCarlo,
                                         std::move(mc), i * spacing));
  }
  return Status::OK();
}

}  // namespace dflow::eventstore
