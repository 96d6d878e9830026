#ifndef DFLOW_NET_TOPOLOGY_H_
#define DFLOW_NET_TOPOLOGY_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/network_link.h"
#include "sim/simulation.h"
#include "util/result.h"

namespace dflow::net {

struct TopologyConfig {
  /// Defaults applied to every link Connect() creates without an explicit
  /// per-link override.
  NetworkLinkConfig link;
  /// Master seed; each link gets a fork derived from (seed, link name), so
  /// adding a link never perturbs the fault draws of existing links.
  uint64_t seed = 42;
};

/// Named node endpoints joined by directed NetworkLink edges — the
/// cluster tier's partition topology. Links are named canonically
/// ("a->b"), which is the name fault plans target: a kLinkCut event whose
/// target is LinkName(a, b) cuts exactly that edge once armed through
/// fault::ArmTopologyPartitions, and fault::ArmNetworkLink binds a single
/// link's flap and corruption events by the same name.
///
/// Ownership: the topology owns its links (Channel pointers returned by
/// LinkBetween()/links() are borrows, valid for the topology's lifetime);
/// the simulation is borrowed and must outlive the topology.
class Topology {
 public:
  explicit Topology(sim::Simulation* simulation, TopologyConfig config = {});

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// Registers a node endpoint. InvalidArgument for an empty name or one
  /// containing the link separator ("->"); AlreadyExists for a duplicate.
  Status AddNode(const std::string& name);

  /// Canonical name of the directed edge from -> to.
  static std::string LinkName(const std::string& from, const std::string& to);

  /// Creates the directed link from -> to with the topology-default link
  /// config (or `config`). NotFound if either endpoint is unregistered;
  /// InvalidArgument for a self-link; AlreadyExists if connected.
  Status Connect(const std::string& from, const std::string& to);
  Status Connect(const std::string& from, const std::string& to,
                 NetworkLinkConfig config);

  /// Connects every ordered pair of registered nodes not yet connected.
  Status FullMesh();

  /// The link from -> to; NotFound when absent.
  Result<NetworkLink*> LinkBetween(const std::string& from,
                                   const std::string& to) const;

  // --- Partition fault surface ---------------------------------------
  //
  // Cuts are one-way link outages in virtual time: a cut on "a->b" drops
  // a's traffic toward b while b->a flows untouched (the asymmetric
  // failure mode real WAN cuts exhibit). A partition is just the closure
  // of cuts across a group boundary. Both are armed from fault plans via
  // fault::ArmTopologyPartitions, and both heal by the clock — the link
  // comes back when the simulation passes the outage window.

  /// Parses a partition group spec "a,b|c,d" into its node groups.
  /// InvalidArgument on an empty spec, empty group, or duplicate node.
  static Result<std::vector<std::vector<std::string>>> ParseGroups(
      const std::string& spec);

  /// Cuts the directed from -> to edge for `duration_sec` of virtual time
  /// (repeated cuts extend the window). NotFound when the link is absent;
  /// InvalidArgument for a non-positive duration.
  Status CutLink(const std::string& from, const std::string& to,
                 double duration_sec);

  /// Applies a partition group spec: every directed link whose endpoints
  /// fall in different groups is cut for `duration_sec`. Nodes named in
  /// the spec must be registered; links that were never Connect()ed are
  /// skipped (sparse topologies partition what exists).
  Status Partition(const std::string& group_spec, double duration_sec);

  /// True when from -> to traffic can flow at the simulation's current
  /// time: the directed link exists and is not inside an outage window.
  /// A node always reaches itself.
  bool Reachable(const std::string& from, const std::string& to) const;

  /// Canonical matrix dump, one "a->b up|down" line per directed link in
  /// name order — a fingerprintable snapshot of the reachability state.
  std::string ReachabilityMatrix() const;

  std::vector<std::string> nodes() const;
  std::vector<NetworkLink*> links() const;
  size_t num_links() const { return links_.size(); }
  const TopologyConfig& config() const { return config_; }

 private:
  sim::Simulation* simulation_;
  TopologyConfig config_;
  std::map<std::string, bool> nodes_;
  std::map<std::pair<std::string, std::string>, std::unique_ptr<NetworkLink>>
      links_;
};

}  // namespace dflow::net

#endif  // DFLOW_NET_TOPOLOGY_H_
