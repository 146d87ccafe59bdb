#include "net/topology.h"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "util/metrics.h"

namespace gam::net {

NodeId Topology::add_node(NodeKind kind, std::string name, std::string country,
                          std::string city, geo::Coord coord, uint32_t asn, IPv4 ip) {
  require_frozen(false);
  Node n;
  n.id = static_cast<NodeId>(nodes_.size());
  n.kind = kind;
  n.name = std::move(name);
  n.country = std::move(country);
  n.city = std::move(city);
  n.coord = coord;
  n.asn = asn;
  n.ip = ip;
  if (ip != 0) by_ip_[ip] = n.id;
  nodes_.push_back(std::move(n));
  adj_.emplace_back();
  return nodes_.back().id;
}

void Topology::add_link(NodeId a, NodeId b, double inflation) {
  double dist = geo::haversine_km(nodes_[a].coord, nodes_[b].coord);
  double one_way = dist * inflation / geo::kFiberKmPerMs + kHopProcessingMs;
  add_link_latency(a, b, one_way);
}

void Topology::add_link_latency(NodeId a, NodeId b, double one_way_ms) {
  require_frozen(false);
  adj_[a].push_back({b, one_way_ms});
  adj_[b].push_back({a, one_way_ms});
}

void Topology::require_frozen(bool frozen) const {
  if (frozen_ == frozen) return;
  throw std::logic_error(frozen ? "net::Topology: route query before freeze()"
                                : "net::Topology: mutated after freeze()");
}

void Topology::freeze() {
  require_frozen(false);
  core_slot_.assign(nodes_.size(), kLeaf);
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (adj_[id].size() == 1 && adj_[adj_[id][0].first].size() > 1) continue;
    core_slot_[id] = static_cast<uint32_t>(core_nodes_.size());
    core_nodes_.push_back(id);
  }
  for (NodeId id : core_nodes_) {
    core_adj_.emplace_back();
    for (auto [v, w] : adj_[id]) {
      if (core_slot_[v] != kLeaf) core_adj_.back().push_back({core_slot_[v], w});
    }
  }
  for (const Node& n : nodes_) {
    if (n.kind == NodeKind::Client) trees_.emplace(n.id, compute_tree(n.id));
  }
  frozen_ = true;
}

Topology::SourceTree Topology::compute_tree(NodeId from) const {
  static util::Counter& built =
      util::MetricsRegistry::instance().counter("net.route_cache.misses");
  built.inc();
  SourceTree tree;
  tree.dist.assign(core_nodes_.size(), std::numeric_limits<double>::infinity());
  tree.prev.assign(core_nodes_.size(), kInvalidNode);
  // A leaf source's first hop is its one link, and nothing routes back
  // through it: its tree is its neighbour's, seeded at that link's latency.
  uint32_t root = core_slot_[from];
  double root_ms = 0.0;
  if (root == kLeaf) {
    auto [next, w] = adj_[from][0];
    root = core_slot_[next];
    root_ms = w;
    tree.prev[root] = from;
  }
  using Entry = std::pair<double, uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  tree.dist[root] = root_ms;
  pq.push({root_ms, root});
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > tree.dist[u]) continue;
    for (auto [v, w] : core_adj_[u]) {
      double nd = d + w;
      if (nd < tree.dist[v]) {
        tree.dist[v] = nd;
        tree.prev[v] = core_nodes_[u];
        pq.push({nd, v});
      }
    }
  }
  return tree;
}

const Topology::SourceTree& Topology::tree_for(NodeId from, SourceTree& one_off) const {
  static util::Counter& hits =
      util::MetricsRegistry::instance().counter("net.route_cache.hits");
  auto it = trees_.find(from);
  if (it == trees_.end()) return one_off = compute_tree(from);
  hits.inc();
  return it->second;
}

double Topology::dist_to(const SourceTree& tree, NodeId from, NodeId to) const {
  if (to == from) return 0.0;
  uint32_t slot = core_slot_[to];
  if (slot != kLeaf) return tree.dist[slot];
  auto [next, w] = adj_[to][0];
  return tree.dist[core_slot_[next]] + w;
}

std::optional<Path> Topology::shortest_path(NodeId from, NodeId to) const {
  require_frozen(true);
  if (from >= nodes_.size() || to >= nodes_.size()) return std::nullopt;
  SourceTree one_off;
  const SourceTree& tree = tree_for(from, one_off);
  Path p;
  p.one_way_ms = dist_to(tree, from, to);
  if (p.one_way_ms == std::numeric_limits<double>::infinity()) return std::nullopt;
  // Per-hop cumulative latency comes straight off the source tree, so a
  // caller walking the path hop by hop (traceroute) needs no query per hop.
  // Only a path's two ends can be leaves.
  for (NodeId cur = to;;) {
    p.nodes.push_back(cur);
    p.cum_ms.push_back(dist_to(tree, from, cur));
    if (cur == from) break;
    cur = core_slot_[cur] == kLeaf ? adj_[cur][0].first : tree.prev[core_slot_[cur]];
  }
  std::reverse(p.nodes.begin(), p.nodes.end());
  std::reverse(p.cum_ms.begin(), p.cum_ms.end());
  return p;
}

double Topology::latency_ms(NodeId from, NodeId to) const {
  require_frozen(true);
  if (from >= nodes_.size() || to >= nodes_.size())
    return std::numeric_limits<double>::infinity();
  SourceTree one_off;
  return dist_to(tree_for(from, one_off), from, to);
}

NodeId Topology::find_by_ip(IPv4 ip) const {
  auto it = by_ip_.find(ip);
  return it == by_ip_.end() ? kInvalidNode : it->second;
}

std::vector<NodeId> Topology::nodes_of_kind(NodeKind kind) const {
  std::vector<NodeId> out;
  for (const auto& n : nodes_) {
    if (n.kind == kind) out.push_back(n.id);
  }
  return out;
}

}  // namespace gam::net
