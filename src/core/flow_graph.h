#ifndef DFLOW_CORE_FLOW_GRAPH_H_
#define DFLOW_CORE_FLOW_GRAPH_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/stage.h"
#include "util/result.h"

namespace dflow::core {

/// A directed acyclic workflow graph: stages as nodes, data channels as
/// edges. A stage's outputs fan out to every successor. The DOT export
/// regenerates the paper's Figure 1 / Figure 2 style workflow diagrams,
/// annotated with measured per-stage volumes when rendered by FlowRunner.
class FlowGraph {
 public:
  FlowGraph() = default;

  FlowGraph(const FlowGraph&) = delete;
  FlowGraph& operator=(const FlowGraph&) = delete;

  /// Adds a stage; names must be unique.
  Status AddStage(std::shared_ptr<Stage> stage);

  /// Adds an edge from `from` to `to` (both must exist; self-loops and
  /// duplicate edges rejected).
  Status Connect(const std::string& from, const std::string& to);

  Result<Stage*> Find(const std::string& name) const;
  const std::vector<std::string>& Successors(const std::string& name) const;

  std::vector<std::string> StageNames() const;

  /// Stage names in a valid execution order; fails with
  /// FailedPrecondition if the graph has a cycle.
  Result<std::vector<std::string>> TopologicalOrder() const;

  /// Graphviz rendering. `annotations` supplies an optional extra label
  /// line per stage (e.g. "in: 14 TB / out: 420 GB").
  std::string ToDot(
      const std::map<std::string, std::string>& annotations = {}) const;

 private:
  std::map<std::string, std::shared_ptr<Stage>> stages_;
  std::map<std::string, std::vector<std::string>> edges_;
  std::vector<std::string> insertion_order_;
};

}  // namespace dflow::core

#endif  // DFLOW_CORE_FLOW_GRAPH_H_
