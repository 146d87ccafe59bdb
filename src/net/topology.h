// The physical network: routers and hosts placed in cities, links with
// fiber-propagation latency, and shortest-path routing.
//
// Latency realism matters more than routing realism here: the paper's
// geolocation constraints are all latency-based, so links carry a
// propagation delay derived from great-circle distance at 2c/3 with a
// configurable path-inflation factor (real fiber rarely follows the
// geodesic), plus a small per-hop processing delay. That guarantees the SOL
// invariant (RTT >= distance/133 km/ms) holds for *true* endpoint locations
// and is violated only when a geolocation database lies about a location —
// precisely the signal the multi-constraint pipeline looks for.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "geo/coord.h"
#include "net/ip.h"

namespace gam::net {

using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

enum class NodeKind { Router, Server, Client };

struct Node {
  NodeId id = kInvalidNode;
  NodeKind kind = NodeKind::Router;
  std::string name;     // "core1.fra.de" / hostname for servers
  std::string country;  // ISO code
  std::string city;     // city name (matches world::City::name)
  geo::Coord coord;
  uint32_t asn = 0;
  IPv4 ip = 0;  // 0 for unnumbered nodes
};

/// A routed path and its one-way latency.
struct Path {
  std::vector<NodeId> nodes;   // from -> ... -> to inclusive
  std::vector<double> cum_ms;  // one-way latency from `from` to nodes[i]
  double one_way_ms = 0.0;

  double rtt_ms() const { return 2.0 * one_way_ms; }
  size_t hop_count() const { return nodes.empty() ? 0 : nodes.size() - 1; }
};

class Topology {
 public:
  /// Default path inflation: simulated fiber runs ~25% longer than geodesic.
  static constexpr double kDefaultInflation = 1.25;
  /// Per-hop store-and-forward/processing delay (one-way, ms).
  static constexpr double kHopProcessingMs = 0.15;

  /// Add a node; returns its id. If `ip` is non-zero the node becomes
  /// addressable (find_by_ip / traceroute destination). Like the link
  /// mutators, it throws std::logic_error once the topology is frozen.
  NodeId add_node(NodeKind kind, std::string name, std::string country, std::string city,
                  geo::Coord coord, uint32_t asn, IPv4 ip = 0);

  /// Link two nodes with latency derived from their coordinates:
  ///   one_way = distance * inflation / kFiberKmPerMs + kHopProcessingMs.
  void add_link(NodeId a, NodeId b, double inflation = kDefaultInflation);

  /// Link with an explicit one-way latency (last-mile links, IXP fabrics).
  void add_link_latency(NodeId a, NodeId b, double one_way_ms);

  /// End construction: the topology becomes immutable, and routes can be
  /// queried from any number of threads without a lock. Splits the graph
  /// into leaves (one link, to a node with more) and a core (every other
  /// node), then builds one core-only Dijkstra tree per Client node: every
  /// volunteer and Atlas probe. Throws std::logic_error if already frozen.
  void freeze();

  const Node& node(NodeId id) const { return nodes_[id]; }
  size_t node_count() const { return nodes_.size(); }

  /// Dijkstra shortest path by latency. nullopt if disconnected. A source
  /// with no frozen tree gets one built for this call alone. Throws
  /// std::logic_error before freeze().
  std::optional<Path> shortest_path(NodeId from, NodeId to) const;

  /// One-way latency of the shortest path, or +inf if disconnected. Throws
  /// std::logic_error before freeze().
  double latency_ms(NodeId from, NodeId to) const;

  NodeId find_by_ip(IPv4 ip) const;

  /// All node ids of a given kind (used by probe/Atlas placement).
  std::vector<NodeId> nodes_of_kind(NodeKind kind) const;

  /// Number of source trees freeze() built (observability/tests).
  size_t route_cache_size() const { return trees_.size(); }

 private:
  /// Shortest-path distances and predecessors over the core, by core slot.
  /// A leaf's distance is its neighbour's plus its link: the same sum a
  /// Dijkstra over every node forms, so routes are bit-identical to one.
  struct SourceTree {
    std::vector<double> dist;
    std::vector<NodeId> prev;
  };
  static constexpr uint32_t kLeaf = std::numeric_limits<uint32_t>::max();

  void require_frozen(bool frozen) const;
  SourceTree compute_tree(NodeId from) const;
  /// The frozen tree rooted at `from`, or one built into `one_off`.
  const SourceTree& tree_for(NodeId from, SourceTree& one_off) const;
  double dist_to(const SourceTree& tree, NodeId from, NodeId to) const;

  std::vector<Node> nodes_;
  std::vector<std::vector<std::pair<NodeId, double>>> adj_;
  std::unordered_map<IPv4, NodeId> by_ip_;

  // Set by freeze(): each node's core slot (kLeaf for a leaf), the core's
  // nodes and links by slot, in node-id order so Dijkstra's (latency, slot)
  // queue breaks ties as a (latency, node id) queue does, and the trees.
  bool frozen_ = false;
  std::vector<uint32_t> core_slot_;
  std::vector<NodeId> core_nodes_;
  std::vector<std::vector<std::pair<uint32_t, double>>> core_adj_;
  std::unordered_map<NodeId, SourceTree> trees_;
};

}  // namespace gam::net
