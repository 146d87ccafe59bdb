#include "net/topology.h"

#include <algorithm>
#include <mutex>
#include <queue>

#include "util/metrics.h"

namespace gam::net {

NodeId Topology::add_node(NodeKind kind, std::string name, std::string country,
                          std::string city, geo::Coord coord, uint32_t asn, IPv4 ip) {
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
  if (route_memo_used_.load()) invalidate_routes();
  return nodes_.back().id;
}

void Topology::add_link(NodeId a, NodeId b, double inflation) {
  double dist = geo::haversine_km(nodes_[a].coord, nodes_[b].coord);
  double one_way = dist * inflation / geo::kFiberKmPerMs + kHopProcessingMs;
  add_link_latency(a, b, one_way);
}

void Topology::add_link_latency(NodeId a, NodeId b, double one_way_ms) {
  adj_[a].push_back({b, one_way_ms});
  adj_[b].push_back({a, one_way_ms});
  if (route_memo_used_.load()) invalidate_routes();
}

std::shared_ptr<const Topology::SourceTree> Topology::compute_tree(NodeId from) const {
  auto tree = std::make_shared<SourceTree>();
  tree->dist.assign(nodes_.size(), std::numeric_limits<double>::infinity());
  tree->prev.assign(nodes_.size(), kInvalidNode);
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  tree->dist[from] = 0.0;
  pq.push({0.0, from});
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > tree->dist[u]) continue;
    for (auto [v, w] : adj_[u]) {
      double nd = d + w;
      if (nd < tree->dist[v]) {
        tree->dist[v] = nd;
        tree->prev[v] = u;
        pq.push({nd, v});
      }
    }
  }
  return tree;
}

std::shared_ptr<const Topology::SourceTree> Topology::tree_for(NodeId from) const {
  static util::Counter& hits =
      util::MetricsRegistry::instance().counter("net.route_cache.hits");
  static util::Counter& misses =
      util::MetricsRegistry::instance().counter("net.route_cache.misses");
  RouteShard& shard = route_shards_[from % kRouteShards];
  {
    std::shared_lock lock(shard.mu);
    auto it = shard.trees.find(from);
    if (it != shard.trees.end()) {
      hits.inc();
      return it->second;
    }
  }
  misses.inc();
  // Miss: run Dijkstra outside any lock. Two threads may race to compute the
  // same source tree; both results are identical and the first insert wins,
  // which wastes a little work but never blocks readers on a graph walk.
  std::shared_ptr<const SourceTree> tree = compute_tree(from);
  std::unique_lock lock(shard.mu);
  auto inserted = shard.trees.try_emplace(from, std::move(tree)).first;
  route_memo_used_.store(true);
  return inserted->second;
}

std::optional<Path> Topology::shortest_path(NodeId from, NodeId to) const {
  if (from >= nodes_.size() || to >= nodes_.size()) return std::nullopt;
  std::shared_ptr<const SourceTree> tree = tree_for(from);
  if (tree->dist[to] == std::numeric_limits<double>::infinity()) return std::nullopt;
  Path p;
  p.one_way_ms = tree->dist[to];
  for (NodeId cur = to; cur != kInvalidNode; cur = tree->prev[cur]) {
    p.nodes.push_back(cur);
    if (cur == from) break;
  }
  std::reverse(p.nodes.begin(), p.nodes.end());
  // Per-hop cumulative latency comes straight off the source tree. Callers
  // that walk the path hop-by-hop (traceroute) must read these rather than
  // query latency_ms(prev, hop): a per-hop query would root a full Dijkstra
  // tree at every interior router it touches, and those memoized trees are
  // what used to dominate study RSS at scale.
  p.cum_ms.reserve(p.nodes.size());
  for (NodeId id : p.nodes) p.cum_ms.push_back(tree->dist[id]);
  return p;
}

double Topology::latency_ms(NodeId from, NodeId to) const {
  if (from >= nodes_.size() || to >= nodes_.size())
    return std::numeric_limits<double>::infinity();
  return tree_for(from)->dist[to];
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

void Topology::invalidate_routes() const {
  route_memo_used_.store(false);
  for (RouteShard& shard : route_shards_) {
    std::unique_lock lock(shard.mu);
    shard.trees.clear();
  }
}

size_t Topology::route_cache_size() const {
  size_t total = 0;
  for (RouteShard& shard : route_shards_) {
    std::shared_lock lock(shard.mu);
    total += shard.trees.size();
  }
  return total;
}

}  // namespace gam::net
