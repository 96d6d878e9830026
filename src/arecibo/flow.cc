#include "arecibo/flow.h"

#include <string>

#include "core/stage.h"
#include "util/units.h"

namespace dflow::arecibo {

using core::DataProduct;
using core::ScalingStage;
using core::StageCosts;

Status BuildAreciboFlow(const SurveyConfig& config, core::FlowGraph* graph) {
  using S = AreciboFlowStages;

  // Service-time scales: acquisition is telescope-time bound; transport is
  // shipment-bound (the net:: module studies it in detail — here it is a
  // fixed courier delay per product batch amortized per pointing);
  // processing is CPU-bound (the paper's 50-200 processor question).
  const double session_sec =
      config.block_telescope_hours * kHour / config.pointings_per_block;

  DFLOW_RETURN_IF_ERROR(graph->AddStage(
      ScalingStage(S::kAcquisition, StageCosts{session_sec, 0.0}, 1.0, "")));
  DFLOW_RETURN_IF_ERROR(graph->AddStage(ScalingStage(
      S::kLocalQa, StageCosts{60.0, 0.0}, 1.0, "")));
  DFLOW_RETURN_IF_ERROR(graph->AddStage(ScalingStage(
      S::kDiskTransport, StageCosts{15 * kMinute, 0.0}, 1.0, "")));
  DFLOW_RETURN_IF_ERROR(graph->AddStage(ScalingStage(
      S::kTapeArchive, StageCosts{90.0, 1.0 / 120.0e6}, 1.0, "")));
  // Consortium processing reduces raw to data products (1-3% of raw).
  DFLOW_RETURN_IF_ERROR(graph->AddStage(
      ScalingStage(S::kConsortium, StageCosts{0.0, 2.0e-9},
                   config.product_fraction, ".products")));
  DFLOW_RETURN_IF_ERROR(graph->AddStage(ScalingStage(
      S::kConsolidation, StageCosts{30.0, 0.0}, 1.0, "")));
  // Meta-analysis culls products to refined candidates (~0.1% of raw =
  // candidate_fraction / product_fraction of the product volume).
  DFLOW_RETURN_IF_ERROR(graph->AddStage(ScalingStage(
      S::kMetaAnalysis, StageCosts{10.0, 0.0},
      config.candidate_fraction / config.product_fraction, ".candidates")));
  DFLOW_RETURN_IF_ERROR(graph->AddStage(
      ScalingStage(S::kNvo, StageCosts{1.0, 0.0}, 1.0, ".votable")));

  DFLOW_RETURN_IF_ERROR(graph->Connect(S::kAcquisition, S::kLocalQa));
  DFLOW_RETURN_IF_ERROR(graph->Connect(S::kLocalQa, S::kDiskTransport));
  DFLOW_RETURN_IF_ERROR(graph->Connect(S::kDiskTransport, S::kTapeArchive));
  DFLOW_RETURN_IF_ERROR(graph->Connect(S::kTapeArchive, S::kConsortium));
  DFLOW_RETURN_IF_ERROR(graph->Connect(S::kConsortium, S::kConsolidation));
  DFLOW_RETURN_IF_ERROR(graph->Connect(S::kConsolidation, S::kMetaAnalysis));
  DFLOW_RETURN_IF_ERROR(graph->Connect(S::kMetaAnalysis, S::kNvo));
  return Status::OK();
}

Status ConfigureAreciboSites(core::FlowRunner* runner) {
  using S = AreciboFlowStages;
  DFLOW_RETURN_IF_ERROR(runner->SetSite(S::kAcquisition, "Arecibo"));
  DFLOW_RETURN_IF_ERROR(runner->SetSite(S::kLocalQa, "Arecibo"));
  DFLOW_RETURN_IF_ERROR(runner->SetSite(S::kDiskTransport, "courier"));
  DFLOW_RETURN_IF_ERROR(runner->SetSite(S::kTapeArchive, "CTC"));
  DFLOW_RETURN_IF_ERROR(runner->SetSite(S::kConsortium, "PALFA-members"));
  DFLOW_RETURN_IF_ERROR(runner->SetSite(S::kConsolidation, "CTC"));
  DFLOW_RETURN_IF_ERROR(runner->SetSite(S::kMetaAnalysis, "CTC"));
  return runner->SetSite(S::kNvo, "NVO");
}

Status InjectObservingBlock(const SurveyConfig& config,
                            core::FlowRunner* runner) {
  const double spacing =
      config.block_telescope_hours * kHour / config.pointings_per_block;
  for (int pointing = 0; pointing < config.pointings_per_block; ++pointing) {
    DataProduct product;
    product.name = "pointing_" + std::to_string(pointing);
    product.bytes = config.raw_bytes_per_pointing;
    product.attributes["pointing"] = std::to_string(pointing);
    DFLOW_RETURN_IF_ERROR(runner->Inject(AreciboFlowStages::kAcquisition,
                                         std::move(product),
                                         pointing * spacing));
  }
  return Status::OK();
}

}  // namespace dflow::arecibo
