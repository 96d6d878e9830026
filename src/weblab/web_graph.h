#ifndef DFLOW_WEBLAB_WEB_GRAPH_H_
#define DFLOW_WEBLAB_WEB_GRAPH_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/result.h"
#include "weblab/arc_format.h"

namespace dflow::weblab {

/// Immutable CSR web graph built from one crawl's link records. This is
/// the structure §4.2 wants "loaded into the memory of a single large
/// computer": all graph workloads (PageRank, components, degree studies,
/// sampled traversals) run on it.
///
/// Build() keeps both directions of every edge: the forward CSR
/// (offsets_/targets_) and the transpose (in_offsets_/sources_). The
/// transpose is what makes the analysis passes parallel-and-deterministic:
/// PageRank gathers each node's score from its in-links in a fixed order
/// into a pre-sized slot, so the result is byte-identical at any thread
/// count — the paper's 16-processor ES7000 without losing reproducibility.
class WebGraph {
 public:
  /// Builds from (src, dst) url pairs. Unknown destination urls (crawl
  /// frontier edges) become nodes with no outlinks. Degree counting runs
  /// parallel on the dflow::par shared pool (integer sums — exact at any
  /// thread count); url interning and CSR fills stay sequential so edge
  /// order within a node is input order, deterministically.
  static WebGraph Build(
      const std::vector<std::pair<std::string, std::string>>& edges);

  /// Convenience: from DAT metadata records.
  static WebGraph FromMetadata(const std::vector<PageMetadata>& records);

  int64_t num_nodes() const { return static_cast<int64_t>(urls_.size()); }
  int64_t num_edges() const { return static_cast<int64_t>(targets_.size()); }

  const std::string& UrlOf(int node) const {
    return urls_[static_cast<size_t>(node)];
  }
  Result<int> NodeOf(const std::string& url) const;

  /// Outlink span of `node`.
  std::pair<const int*, const int*> OutLinks(int node) const;
  int OutDegree(int node) const;
  int InDegree(int node) const { return in_degree_[static_cast<size_t>(node)]; }

  /// Inlink span of `node` (the transpose CSR; sources ascend).
  std::pair<const int*, const int*> InLinks(int node) const;

  /// PageRank with uniform teleport; returns one score per node.
  /// Pull-based and parallel across nodes: iteration i+1 gathers from
  /// iteration i's scores over each node's in-links in fixed order, and
  /// the dangling-mass sum uses ParallelReduce's fixed combine tree — so
  /// scores are bit-identical at 1, 2, 4, or 8 threads. The contribution
  /// pass runs through the dflow::simd kernel layer (exact — one divide
  /// per node, byte-identical across ISA tiers).
  std::vector<double> PageRank(int iterations = 20,
                               double damping = 0.85) const;

  /// Weakly connected component id per node, plus the component count.
  std::pair<std::vector<int>, int> WeaklyConnectedComponents() const;

  /// Strongly connected component id per node, plus the component count
  /// (iterative Tarjan). The web's SCC structure — one giant core with
  /// in/out tendrils — is a staple of the link-structure studies §4
  /// motivates.
  std::pair<std::vector<int>, int> StronglyConnectedComponents() const;

  /// In-degree distribution: bucket k holds the number of nodes with
  /// in-degree k (capped at `max_degree`, excess in the last bucket).
  /// Parallel reduction with per-chunk histograms merged in fixed order.
  std::vector<int64_t> InDegreeHistogram(int max_degree = 64) const;

  /// Estimated bytes to hold the graph in memory (the "fits in one big
  /// machine" arithmetic). Counts both CSR directions.
  int64_t MemoryBytes() const;

 private:
  std::vector<std::string> urls_;
  std::unordered_map<std::string, int> ids_;
  std::vector<int64_t> offsets_;  // CSR: size num_nodes + 1.
  std::vector<int> targets_;
  std::vector<int64_t> in_offsets_;  // Transpose CSR: size num_nodes + 1.
  std::vector<int> sources_;
  std::vector<int> in_degree_;
};

}  // namespace dflow::weblab

#endif  // DFLOW_WEBLAB_WEB_GRAPH_H_
