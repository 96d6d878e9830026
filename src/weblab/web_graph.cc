#include "weblab/web_graph.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <numeric>

#include "par/par.h"
#include "simd/simd.h"

namespace dflow::weblab {

WebGraph WebGraph::Build(
    const std::vector<std::pair<std::string, std::string>>& edges) {
  WebGraph graph;
  // Interning is sequential (node ids are first-appearance order, a
  // deterministic property worth keeping) but hash-backed, which is the
  // big construction win over the old ordered-map lookups.
  graph.ids_.reserve(edges.size() / 4 + 16);
  auto intern = [&graph](const std::string& url) {
    auto [it, inserted] =
        graph.ids_.try_emplace(url, static_cast<int>(graph.urls_.size()));
    if (inserted) {
      graph.urls_.push_back(url);
    }
    return it->second;
  };
  std::vector<std::pair<int, int>> id_edges;
  id_edges.reserve(edges.size());
  for (const auto& [src, dst] : edges) {
    id_edges.emplace_back(intern(src), intern(dst));
  }
  const size_t n = graph.urls_.size();

  // Degree counting for both CSR directions, parallel over the edge list.
  // Relaxed integer fetch_adds commute exactly, so the counts — and
  // everything derived from them — are identical at any thread count.
  std::vector<std::atomic<int64_t>> out_counts(n);
  std::vector<std::atomic<int64_t>> in_counts(n);
  {
    par::Options options;
    options.label = "weblab.graph_degree_count";
    options.grain = 4096;
    par::ParallelFor(
        0, static_cast<int64_t>(id_edges.size()),
        [&](int64_t chunk_begin, int64_t chunk_end) {
          for (int64_t e = chunk_begin; e < chunk_end; ++e) {
            const auto& [src, dst] = id_edges[static_cast<size_t>(e)];
            out_counts[static_cast<size_t>(src)].fetch_add(
                1, std::memory_order_relaxed);
            in_counts[static_cast<size_t>(dst)].fetch_add(
                1, std::memory_order_relaxed);
          }
        },
        options);
  }

  graph.offsets_.assign(n + 1, 0);
  graph.in_offsets_.assign(n + 1, 0);
  graph.in_degree_.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    graph.offsets_[i + 1] =
        graph.offsets_[i] + out_counts[i].load(std::memory_order_relaxed);
    graph.in_offsets_[i + 1] =
        graph.in_offsets_[i] + in_counts[i].load(std::memory_order_relaxed);
    graph.in_degree_[i] = static_cast<int>(
        in_counts[i].load(std::memory_order_relaxed));
  }

  // CSR fills stay sequential: a node's outlinks keep edge-list order and
  // its inlinks ascend by source id — both deterministic orderings the
  // parallel analysis passes rely on.
  graph.targets_.assign(id_edges.size(), 0);
  std::vector<int64_t> cursor(graph.offsets_.begin(),
                              graph.offsets_.end() - 1);
  for (const auto& [src, dst] : id_edges) {
    graph.targets_[static_cast<size_t>(cursor[static_cast<size_t>(src)]++)] =
        dst;
  }
  graph.sources_.assign(id_edges.size(), 0);
  std::vector<int64_t> in_cursor(graph.in_offsets_.begin(),
                                 graph.in_offsets_.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    auto [begin, end] = graph.OutLinks(static_cast<int>(i));
    for (const int* t = begin; t != end; ++t) {
      graph.sources_[static_cast<size_t>(
          in_cursor[static_cast<size_t>(*t)]++)] = static_cast<int>(i);
    }
  }
  return graph;
}

WebGraph WebGraph::FromMetadata(const std::vector<PageMetadata>& records) {
  std::vector<std::pair<std::string, std::string>> edges;
  for (const PageMetadata& meta : records) {
    for (const std::string& target : meta.links) {
      edges.emplace_back(meta.url, target);
    }
  }
  return Build(edges);
}

Result<int> WebGraph::NodeOf(const std::string& url) const {
  auto it = ids_.find(url);
  if (it == ids_.end()) {
    return Status::NotFound("url not in graph: " + url);
  }
  return it->second;
}

std::pair<const int*, const int*> WebGraph::OutLinks(int node) const {
  const size_t i = static_cast<size_t>(node);
  return {targets_.data() + offsets_[i], targets_.data() + offsets_[i + 1]};
}

std::pair<const int*, const int*> WebGraph::InLinks(int node) const {
  const size_t i = static_cast<size_t>(node);
  return {sources_.data() + in_offsets_[i],
          sources_.data() + in_offsets_[i + 1]};
}

int WebGraph::OutDegree(int node) const {
  const size_t i = static_cast<size_t>(node);
  return static_cast<int>(offsets_[i + 1] - offsets_[i]);
}

std::vector<double> WebGraph::PageRank(int iterations, double damping) const {
  const size_t n = urls_.size();
  if (n == 0) {
    return {};
  }
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n, 0.0);
  std::vector<double> contrib(n, 0.0);
  par::Options options;
  options.label = "weblab.pagerank";
  options.grain = 1024;
  const simd::KernelTable& kernels = simd::Kernels();
  for (int iter = 0; iter < iterations; ++iter) {
    // contrib[i] = rank[i] / out-degree (0 for dangling nodes): pre-sized
    // slot writes through the SIMD kernel layer — one int->double convert
    // and one divide per node, exact at every ISA tier.
    par::ParallelFor(
        0, static_cast<int64_t>(n),
        [&](int64_t chunk_begin, int64_t chunk_end) {
          kernels.rank_contrib(rank.data() + chunk_begin,
                               offsets_.data() + chunk_begin,
                               contrib.data() + chunk_begin,
                               chunk_end - chunk_begin);
        },
        options);
    // Dangling mass: a floating-point reduction, so it runs through the
    // fixed combine tree — bit-stable at any thread count.
    const double dangling = par::ParallelReduce<double>(
        0, static_cast<int64_t>(n), 0.0,
        [&](int64_t chunk_begin, int64_t chunk_end) {
          double sum = 0.0;
          for (int64_t i = chunk_begin; i < chunk_end; ++i) {
            if (OutDegree(static_cast<int>(i)) == 0) {
              sum += rank[static_cast<size_t>(i)];
            }
          }
          return sum;
        },
        [](double a, double b) { return a + b; }, options);
    const double teleport =
        (1.0 - damping) / static_cast<double>(n) +
        damping * dangling / static_cast<double>(n);
    // Pull phase: each node gathers from its in-links in transpose-CSR
    // order into its own slot. Same math as the old scatter loop, but
    // parallel AND deterministic (the scatter form would need atomics and
    // would sum in scheduling order).
    par::ParallelFor(
        0, static_cast<int64_t>(n),
        [&](int64_t chunk_begin, int64_t chunk_end) {
          for (int64_t i = chunk_begin; i < chunk_end; ++i) {
            double gathered = 0.0;
            auto [begin, end] = InLinks(static_cast<int>(i));
            for (const int* s = begin; s != end; ++s) {
              gathered += contrib[static_cast<size_t>(*s)];
            }
            next[static_cast<size_t>(i)] = teleport + damping * gathered;
          }
        },
        options);
    rank.swap(next);
  }
  return rank;
}

std::pair<std::vector<int>, int> WebGraph::WeaklyConnectedComponents() const {
  const size_t n = urls_.size();
  std::vector<int> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  std::vector<int> size(n, 1);
  std::function<int(int)> find = [&](int x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  };
  auto unite = [&](int a, int b) {
    a = find(a);
    b = find(b);
    if (a == b) {
      return;
    }
    if (size[static_cast<size_t>(a)] < size[static_cast<size_t>(b)]) {
      std::swap(a, b);
    }
    parent[static_cast<size_t>(b)] = a;
    size[static_cast<size_t>(a)] += size[static_cast<size_t>(b)];
  };
  for (size_t i = 0; i < n; ++i) {
    auto [begin, end] = OutLinks(static_cast<int>(i));
    for (const int* t = begin; t != end; ++t) {
      unite(static_cast<int>(i), *t);
    }
  }
  // Renumber components densely.
  std::map<int, int> labels;
  std::vector<int> component(n);
  for (size_t i = 0; i < n; ++i) {
    int root = find(static_cast<int>(i));
    auto [it, inserted] =
        labels.try_emplace(root, static_cast<int>(labels.size()));
    component[i] = it->second;
  }
  return {component, static_cast<int>(labels.size())};
}

std::pair<std::vector<int>, int> WebGraph::StronglyConnectedComponents()
    const {
  // Iterative Tarjan (explicit stack; web graphs are too deep for
  // recursion).
  const int n = static_cast<int>(urls_.size());
  std::vector<int> index(static_cast<size_t>(n), -1);
  std::vector<int> lowlink(static_cast<size_t>(n), 0);
  std::vector<bool> on_stack(static_cast<size_t>(n), false);
  std::vector<int> component(static_cast<size_t>(n), -1);
  std::vector<int> scc_stack;
  int next_index = 0;
  int num_components = 0;

  struct Frame {
    int node;
    int64_t edge;  // Next outgoing edge offset to visit.
  };
  std::vector<Frame> call_stack;

  for (int start = 0; start < n; ++start) {
    if (index[static_cast<size_t>(start)] != -1) {
      continue;
    }
    call_stack.push_back(Frame{start, offsets_[static_cast<size_t>(start)]});
    index[static_cast<size_t>(start)] = next_index;
    lowlink[static_cast<size_t>(start)] = next_index;
    ++next_index;
    scc_stack.push_back(start);
    on_stack[static_cast<size_t>(start)] = true;

    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const size_t node = static_cast<size_t>(frame.node);
      if (frame.edge < offsets_[node + 1]) {
        int target = targets_[static_cast<size_t>(frame.edge++)];
        const size_t t = static_cast<size_t>(target);
        if (index[t] == -1) {
          // Descend.
          index[t] = next_index;
          lowlink[t] = next_index;
          ++next_index;
          scc_stack.push_back(target);
          on_stack[t] = true;
          call_stack.push_back(Frame{target, offsets_[t]});
        } else if (on_stack[t]) {
          lowlink[node] = std::min(lowlink[node], index[t]);
        }
        continue;
      }
      // Node finished: pop and propagate lowlink to the parent.
      if (lowlink[node] == index[node]) {
        while (true) {
          int member = scc_stack.back();
          scc_stack.pop_back();
          on_stack[static_cast<size_t>(member)] = false;
          component[static_cast<size_t>(member)] = num_components;
          if (member == frame.node) {
            break;
          }
        }
        ++num_components;
      }
      int finished_lowlink = lowlink[node];
      call_stack.pop_back();
      if (!call_stack.empty()) {
        size_t parent = static_cast<size_t>(call_stack.back().node);
        lowlink[parent] = std::min(lowlink[parent], finished_lowlink);
      }
    }
  }
  return {component, num_components};
}

std::vector<int64_t> WebGraph::InDegreeHistogram(int max_degree) const {
  // Per-chunk histograms merged elementwise through the fixed combine
  // tree: integer adds, so the merged histogram is exact and identical at
  // any thread count.
  par::Options options;
  options.label = "weblab.indegree_histogram";
  options.grain = 4096;
  return par::ParallelReduce<std::vector<int64_t>>(
      0, static_cast<int64_t>(in_degree_.size()),
      std::vector<int64_t>(static_cast<size_t>(max_degree) + 1, 0),
      [&](int64_t chunk_begin, int64_t chunk_end) {
        std::vector<int64_t> hist(static_cast<size_t>(max_degree) + 1, 0);
        for (int64_t i = chunk_begin; i < chunk_end; ++i) {
          ++hist[static_cast<size_t>(
              std::min(in_degree_[static_cast<size_t>(i)], max_degree))];
        }
        return hist;
      },
      [](std::vector<int64_t> a, std::vector<int64_t> b) {
        for (size_t i = 0; i < a.size(); ++i) {
          a[i] += b[i];
        }
        return a;
      },
      options);
}

int64_t WebGraph::MemoryBytes() const {
  int64_t bytes = static_cast<int64_t>(targets_.size() * sizeof(int)) +
                  static_cast<int64_t>(sources_.size() * sizeof(int)) +
                  static_cast<int64_t>(offsets_.size() * sizeof(int64_t)) +
                  static_cast<int64_t>(in_offsets_.size() * sizeof(int64_t)) +
                  static_cast<int64_t>(in_degree_.size() * sizeof(int));
  for (const std::string& url : urls_) {
    bytes += static_cast<int64_t>(url.size() + sizeof(std::string));
  }
  return bytes;
}

}  // namespace dflow::weblab
