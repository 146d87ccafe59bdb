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

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <shared_mutex>
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
  /// mutators, it drops the route memo when the memo holds a tree, so a
  /// query after any mutation sees the new graph; building a graph before
  /// its first query touches no memo lock.
  NodeId add_node(NodeKind kind, std::string name, std::string country, std::string city,
                  geo::Coord coord, uint32_t asn, IPv4 ip = 0);

  /// Link two nodes with latency derived from their coordinates:
  ///   one_way = distance * inflation / kFiberKmPerMs + kHopProcessingMs.
  void add_link(NodeId a, NodeId b, double inflation = kDefaultInflation);

  /// Link with an explicit one-way latency (last-mile links, IXP fabrics).
  void add_link_latency(NodeId a, NodeId b, double one_way_ms);

  const Node& node(NodeId id) const { return nodes_[id]; }
  size_t node_count() const { return nodes_.size(); }

  /// Dijkstra shortest path by latency. nullopt if disconnected.
  /// Results are memoized per source node (single-source tree); the memo is
  /// sharded and reader/writer-locked, so concurrent queries from any number
  /// of threads are safe (parallel study sessions share one Topology).
  std::optional<Path> shortest_path(NodeId from, NodeId to) const;

  /// One-way latency of the shortest path, or +inf if disconnected.
  double latency_ms(NodeId from, NodeId to) const;

  NodeId find_by_ip(IPv4 ip) const;

  /// All node ids of a given kind (used by probe/Atlas placement).
  std::vector<NodeId> nodes_of_kind(NodeKind kind) const;

  /// Drop all memoized routing state (call after mutating the graph).
  /// Safe to call between phases while other threads hold trees returned by
  /// earlier queries: cached trees are shared_ptr-owned, so in-flight readers
  /// keep theirs alive and only the memo entries are dropped.
  void invalidate_routes() const;

  /// Number of memoized source trees across all shards (observability/tests).
  size_t route_cache_size() const;

 private:
  struct SourceTree {
    std::vector<double> dist;
    std::vector<NodeId> prev;
  };
  /// The memoized Dijkstra tree rooted at `from`, computing it on miss.
  /// Thread-safe; the returned tree is immutable and outlives invalidation.
  std::shared_ptr<const SourceTree> tree_for(NodeId from) const;
  std::shared_ptr<const SourceTree> compute_tree(NodeId from) const;

  std::vector<Node> nodes_;
  std::vector<std::vector<std::pair<NodeId, double>>> adj_;
  std::unordered_map<IPv4, NodeId> by_ip_;

  // Route memo, sharded by source node to keep writer contention off the
  // read-mostly fast path. Each shard is independently reader/writer locked.
  static constexpr size_t kRouteShards = 16;
  struct RouteShard {
    mutable std::shared_mutex mu;
    std::unordered_map<NodeId, std::shared_ptr<const SourceTree>> trees;
  };
  mutable std::array<RouteShard, kRouteShards> route_shards_;
  // True whenever some shard may hold a tree: set under the shard lock after
  // an insert, cleared by invalidate_routes() before it clears the shards,
  // so a memo that holds a tree never reads false.
  mutable std::atomic<bool> route_memo_used_{false};
};

}  // namespace gam::net
