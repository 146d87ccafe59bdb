#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/asn.h"
#include "net/ip.h"
#include "net/topology.h"

namespace gam::net {
namespace {

// ------------------------------------------------------------------ IPv4

TEST(Ip, ToStringBasic) {
  EXPECT_EQ(ip_to_string(0), "0.0.0.0");
  EXPECT_EQ(ip_to_string(0x0A010203), "10.1.2.3");
  EXPECT_EQ(ip_to_string(0xFFFFFFFF), "255.255.255.255");
}

TEST(Ip, ParseValid) {
  EXPECT_EQ(parse_ip("10.1.2.3"), IPv4{0x0A010203});
  EXPECT_EQ(parse_ip("0.0.0.0"), IPv4{0});
  EXPECT_EQ(parse_ip("255.255.255.255"), IPv4{0xFFFFFFFF});
}

TEST(Ip, ParseInvalid) {
  EXPECT_FALSE(parse_ip("").has_value());
  EXPECT_FALSE(parse_ip("1.2.3").has_value());
  EXPECT_FALSE(parse_ip("1.2.3.4.5").has_value());
  EXPECT_FALSE(parse_ip("1.2.3.256").has_value());
  EXPECT_FALSE(parse_ip("a.b.c.d").has_value());
  EXPECT_FALSE(parse_ip("1.2.3.-1").has_value());
}

class IpRoundTrip : public ::testing::TestWithParam<uint32_t> {};

TEST_P(IpRoundTrip, ParsePrintStable) {
  IPv4 ip = GetParam();
  auto parsed = parse_ip(ip_to_string(ip));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, ip);
}

INSTANTIATE_TEST_SUITE_P(Addresses, IpRoundTrip,
                         ::testing::Values(0u, 1u, 0x0A000001u, 0xC0A80101u, 0x08080808u,
                                           0x7F000001u, 0xFFFFFFFEu, 0xFFFFFFFFu));

TEST(Prefix, Contains) {
  Prefix p = *Prefix::parse("10.1.0.0/16");
  EXPECT_TRUE(p.contains(*parse_ip("10.1.0.0")));
  EXPECT_TRUE(p.contains(*parse_ip("10.1.255.255")));
  EXPECT_FALSE(p.contains(*parse_ip("10.2.0.0")));
  EXPECT_FALSE(p.contains(*parse_ip("11.1.0.0")));
}

TEST(Prefix, EdgeLengths) {
  Prefix slash0 = *Prefix::parse("0.0.0.0/0");
  EXPECT_TRUE(slash0.contains(0xDEADBEEF));
  Prefix slash32 = *Prefix::parse("10.0.0.1/32");
  EXPECT_TRUE(slash32.contains(*parse_ip("10.0.0.1")));
  EXPECT_FALSE(slash32.contains(*parse_ip("10.0.0.2")));
  EXPECT_EQ(slash32.size(), 1u);
}

TEST(Prefix, ParseMasksBase) {
  Prefix p = *Prefix::parse("10.1.2.3/16");
  EXPECT_EQ(p.base, *parse_ip("10.1.0.0"));
  EXPECT_EQ(p.to_string(), "10.1.0.0/16");
}

TEST(Prefix, ParseInvalid) {
  EXPECT_FALSE(Prefix::parse("10.1.0.0").has_value());
  EXPECT_FALSE(Prefix::parse("10.1.0.0/33").has_value());
  EXPECT_FALSE(Prefix::parse("10.1.0/16").has_value());
}

// -------------------------------------------------------------- AsRegistry

TEST(AsRegistry, LongestPrefixMatchWins) {
  AsRegistry reg;
  reg.add({100, "AS-BIG", "Big Org", "US", AsKind::Transit});
  reg.add({200, "AS-SMALL", "Small Org", "DE", AsKind::Cloud});
  reg.announce(100, *Prefix::parse("10.0.0.0/8"));
  reg.announce(200, *Prefix::parse("10.5.0.0/16"));
  EXPECT_EQ(reg.asn_of(*parse_ip("10.1.0.1")), 100u);
  EXPECT_EQ(reg.asn_of(*parse_ip("10.5.0.1")), 200u);
  EXPECT_EQ(reg.asn_of(*parse_ip("11.0.0.1")), 0u);
}

TEST(AsRegistry, LookupReturnsMetadata) {
  AsRegistry reg;
  reg.add({100, "AS-X", "X Org", "FR", AsKind::Content});
  reg.announce(100, *Prefix::parse("10.0.0.0/16"));
  const AsInfo* info = reg.lookup_ip(*parse_ip("10.0.1.2"));
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->org, "X Org");
  EXPECT_EQ(info->country, "FR");
  EXPECT_EQ(info->kind, AsKind::Content);
}

TEST(AsRegistry, AllocatePrefixesDontOverlap) {
  AsRegistry reg;
  reg.add({1, "A", "A", "US", AsKind::Transit});
  reg.add({2, "B", "B", "US", AsKind::Transit});
  Prefix p1 = reg.allocate_prefix(1, 16);
  Prefix p2 = reg.allocate_prefix(2, 16);
  EXPECT_FALSE(p1.contains(p2.base));
  EXPECT_FALSE(p2.contains(p1.base));
}

TEST(AsRegistry, AllocateAddressesUniqueAndInside) {
  AsRegistry reg;
  reg.add({1, "A", "A", "US", AsKind::Cloud});
  Prefix p = reg.allocate_prefix(1, 24);
  std::set<IPv4> seen;
  for (int i = 0; i < 200; ++i) {
    IPv4 ip = reg.allocate_address(1);
    EXPECT_TRUE(p.contains(ip)) << ip_to_string(ip);
    EXPECT_TRUE(seen.insert(ip).second) << "duplicate " << ip_to_string(ip);
    EXPECT_NE(ip, p.base);  // network address skipped
  }
}

TEST(AsRegistry, FindByAsn) {
  AsRegistry reg;
  reg.add({77, "AS-Z", "Z", "JP", AsKind::ResidentialIsp});
  ASSERT_NE(reg.find(77), nullptr);
  EXPECT_EQ(reg.find(77)->name, "AS-Z");
  EXPECT_EQ(reg.find(78), nullptr);
}

// --------------------------------------------------------------- Topology

geo::Coord kParis{48.86, 2.35};
geo::Coord kFrankfurt{50.11, 8.68};
geo::Coord kNYC{40.71, -74.01};

TEST(Topology, ShortestPathDirect) {
  Topology topo;
  NodeId a = topo.add_node(NodeKind::Router, "a", "FR", "Paris", kParis, 1, 0x0A000001);
  NodeId b = topo.add_node(NodeKind::Router, "b", "DE", "Frankfurt", kFrankfurt, 2, 0x0A000002);
  topo.add_link(a, b);
  topo.freeze();
  auto path = topo.shortest_path(a, b);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes.size(), 2u);
  EXPECT_EQ(path->hop_count(), 1u);
  // Paris-Frankfurt ~450 km: one-way = 450*1.25/199.86 + 0.15 =~ 3 ms.
  EXPECT_NEAR(path->one_way_ms, 3.0, 0.5);
  EXPECT_DOUBLE_EQ(path->rtt_ms(), 2 * path->one_way_ms);
}

TEST(Topology, PicksShorterOfTwoRoutes) {
  Topology topo;
  NodeId a = topo.add_node(NodeKind::Router, "a", "FR", "Paris", kParis, 1, 1);
  NodeId b = topo.add_node(NodeKind::Router, "b", "DE", "Frankfurt", kFrankfurt, 1, 2);
  NodeId c = topo.add_node(NodeKind::Router, "c", "US", "NYC", kNYC, 1, 3);
  topo.add_link_latency(a, b, 100.0);  // slow direct
  topo.add_link_latency(a, c, 10.0);
  topo.add_link_latency(c, b, 10.0);  // fast detour
  topo.freeze();
  auto path = topo.shortest_path(a, b);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes.size(), 3u);
  EXPECT_DOUBLE_EQ(path->one_way_ms, 20.0);
}

TEST(Topology, DisconnectedIsNullopt) {
  Topology topo;
  NodeId a = topo.add_node(NodeKind::Router, "a", "FR", "Paris", kParis, 1, 1);
  NodeId b = topo.add_node(NodeKind::Router, "b", "DE", "Frankfurt", kFrankfurt, 1, 2);
  topo.freeze();
  EXPECT_FALSE(topo.shortest_path(a, b).has_value());
  EXPECT_TRUE(std::isinf(topo.latency_ms(a, b)));
}

TEST(Topology, LatencySymmetric) {
  Topology topo;
  NodeId a = topo.add_node(NodeKind::Router, "a", "FR", "Paris", kParis, 1, 1);
  NodeId b = topo.add_node(NodeKind::Router, "b", "DE", "Frankfurt", kFrankfurt, 1, 2);
  NodeId c = topo.add_node(NodeKind::Router, "c", "US", "NYC", kNYC, 1, 3);
  topo.add_link(a, b);
  topo.add_link(b, c);
  topo.freeze();
  EXPECT_DOUBLE_EQ(topo.latency_ms(a, c), topo.latency_ms(c, a));
}

TEST(Topology, FindByIp) {
  Topology topo;
  NodeId a = topo.add_node(NodeKind::Server, "srv", "FR", "Paris", kParis, 1, 0x0A0B0C0D);
  EXPECT_EQ(topo.find_by_ip(0x0A0B0C0D), a);
  EXPECT_EQ(topo.find_by_ip(0x01020304), kInvalidNode);
}

TEST(Topology, NodesOfKind) {
  Topology topo;
  topo.add_node(NodeKind::Router, "r", "FR", "Paris", kParis, 1, 1);
  topo.add_node(NodeKind::Server, "s", "FR", "Paris", kParis, 1, 2);
  topo.add_node(NodeKind::Client, "c", "FR", "Paris", kParis, 1, 3);
  EXPECT_EQ(topo.nodes_of_kind(NodeKind::Server).size(), 1u);
  EXPECT_EQ(topo.nodes_of_kind(NodeKind::Router).size(), 1u);
}

TEST(Topology, FreezeContract) {
  // Routes exist only on a frozen graph, and a frozen graph never changes:
  // freeze() builds one tree per Client, and a query from any other source
  // builds its tree for that call alone.
  Topology topo;
  NodeId r = topo.add_node(NodeKind::Router, "r", "FR", "Paris", kParis, 1, 1);
  NodeId c = topo.add_node(NodeKind::Client, "c", "FR", "Paris", kParis, 1, 2);
  NodeId s = topo.add_node(NodeKind::Server, "s", "DE", "Frankfurt", kFrankfurt, 2, 3);
  topo.add_link_latency(r, c, 2.0);
  topo.add_link_latency(r, s, 3.0);
  EXPECT_THROW(topo.shortest_path(c, s), std::logic_error);
  EXPECT_THROW(topo.latency_ms(c, s), std::logic_error);

  topo.freeze();
  EXPECT_THROW(topo.add_node(NodeKind::Client, "x", "US", "NYC", kNYC, 1, 4), std::logic_error);
  EXPECT_THROW(topo.add_link(r, s), std::logic_error);
  EXPECT_THROW(topo.add_link_latency(c, s, 1.0), std::logic_error);
  EXPECT_THROW(topo.freeze(), std::logic_error);
  EXPECT_EQ(topo.node_count(), 3u);
  EXPECT_EQ(topo.find_by_ip(4), kInvalidNode);
  EXPECT_EQ(topo.route_cache_size(), topo.nodes_of_kind(NodeKind::Client).size());

  EXPECT_EQ(topo.latency_ms(c, s), 5.0);  // the refused 1 ms link is not there
  EXPECT_EQ(topo.latency_ms(r, s), 3.0);  // a Router source: a one-off tree
  auto path = topo.shortest_path(s, c);   // so is a Server source
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes, (std::vector<NodeId>{s, r, c}));
  EXPECT_EQ(path->cum_ms, (std::vector<double>{0.0, 3.0, 5.0}));
  EXPECT_EQ(topo.route_cache_size(), 1u);
}

// Hand-checked routes over the leaf/core split. Link latencies are exact
// binary fractions, so every expected sum is exact.

TEST(Topology, TwoNodeComponentRoutesBothWays) {
  // Each end has one link, to a node with one link: both are core.
  Topology topo;
  NodeId c = topo.add_node(NodeKind::Client, "c", "FR", "Paris", kParis, 1, 1);
  NodeId r = topo.add_node(NodeKind::Router, "r", "DE", "Frankfurt", kFrankfurt, 1, 2);
  topo.add_link_latency(c, r, 1.5);
  topo.freeze();
  EXPECT_EQ(topo.route_cache_size(), 1u);
  for (auto [from, to] : {std::pair{c, r}, std::pair{r, c}}) {
    auto path = topo.shortest_path(from, to);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(path->nodes, (std::vector<NodeId>{from, to}));
    EXPECT_EQ(path->cum_ms, (std::vector<double>{0.0, 1.5}));
  }
  EXPECT_EQ(topo.latency_ms(c, c), 0.0);
}

TEST(Topology, LeafSourceReachesSiblingLeafAndItsNeighbour) {
  // c, s1 and s2 hang off r: three leaves, r the only core node.
  Topology topo;
  NodeId r = topo.add_node(NodeKind::Router, "r", "FR", "Paris", kParis, 1, 1);
  NodeId c = topo.add_node(NodeKind::Client, "c", "FR", "Paris", kParis, 1, 2);
  NodeId s1 = topo.add_node(NodeKind::Server, "s1", "FR", "Paris", kParis, 2, 3);
  NodeId s2 = topo.add_node(NodeKind::Server, "s2", "FR", "Paris", kParis, 2, 4);
  topo.add_link_latency(r, c, 2.0);
  topo.add_link_latency(r, s1, 0.25);
  topo.add_link_latency(s2, r, 4.0);
  topo.freeze();
  auto to_sibling = topo.shortest_path(c, s1);
  ASSERT_TRUE(to_sibling.has_value());
  EXPECT_EQ(to_sibling->nodes, (std::vector<NodeId>{c, r, s1}));
  EXPECT_EQ(to_sibling->cum_ms, (std::vector<double>{0.0, 2.0, 2.25}));
  EXPECT_EQ(to_sibling->one_way_ms, 2.25);
  auto to_neighbour = topo.shortest_path(c, r);
  ASSERT_TRUE(to_neighbour.has_value());
  EXPECT_EQ(to_neighbour->nodes, (std::vector<NodeId>{c, r}));
  EXPECT_EQ(to_neighbour->cum_ms, (std::vector<double>{0.0, 2.0}));
  EXPECT_EQ(topo.latency_ms(c, s2), 6.0);
  auto to_self = topo.shortest_path(c, c);
  ASSERT_TRUE(to_self.has_value());
  EXPECT_EQ(to_self->nodes, (std::vector<NodeId>{c}));
  EXPECT_EQ(to_self->one_way_ms, 0.0);
}

TEST(Topology, ClientWithTwoLinksIsACoreSource) {
  // m is multihomed to r1 (slow) and r2 (fast); s hangs off r1.
  Topology topo;
  NodeId m = topo.add_node(NodeKind::Client, "m", "FR", "Paris", kParis, 1, 1);
  NodeId r1 = topo.add_node(NodeKind::Router, "r1", "FR", "Paris", kParis, 1, 2);
  NodeId r2 = topo.add_node(NodeKind::Router, "r2", "DE", "Frankfurt", kFrankfurt, 2, 3);
  NodeId s = topo.add_node(NodeKind::Server, "s", "FR", "Paris", kParis, 1, 4);
  topo.add_link_latency(m, r1, 8.0);
  topo.add_link_latency(m, r2, 1.0);
  topo.add_link_latency(r2, r1, 2.0);
  topo.add_link_latency(r1, s, 0.5);
  topo.freeze();
  EXPECT_EQ(topo.route_cache_size(), 1u);
  auto path = topo.shortest_path(m, s);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes, (std::vector<NodeId>{m, r2, r1, s}));
  EXPECT_EQ(path->cum_ms, (std::vector<double>{0.0, 1.0, 3.0, 3.5}));
  EXPECT_EQ(topo.latency_ms(s, m), 3.5);
}

TEST(Topology, IsolatedNodeIsUnreachable) {
  Topology topo;
  NodeId c = topo.add_node(NodeKind::Client, "c", "FR", "Paris", kParis, 1, 1);
  NodeId r = topo.add_node(NodeKind::Router, "r", "FR", "Paris", kParis, 1, 2);
  NodeId s = topo.add_node(NodeKind::Server, "s", "FR", "Paris", kParis, 1, 3);
  NodeId iso = topo.add_node(NodeKind::Client, "iso", "US", "NYC", kNYC, 1, 4);
  topo.add_link_latency(c, r, 1.0);
  topo.add_link_latency(r, s, 1.0);
  topo.freeze();
  EXPECT_EQ(topo.route_cache_size(), 2u);
  for (auto [from, to] : {std::pair{c, iso}, std::pair{iso, c}, std::pair{iso, s},
                          std::pair{r, iso}}) {
    EXPECT_FALSE(topo.shortest_path(from, to).has_value());
    EXPECT_EQ(topo.latency_ms(from, to), std::numeric_limits<double>::infinity());
  }
  EXPECT_EQ(topo.latency_ms(iso, iso), 0.0);
}

TEST(Topology, EqualCostTieGoesToLowerNodeId) {
  // c -> r -> {a, b} -> t -> s, every link 1 ms (s's 0.5): both middle
  // routers tie. r and t list b first, yet a, the lower id, is taken.
  Topology topo;
  NodeId c = topo.add_node(NodeKind::Client, "c", "FR", "Paris", kParis, 1, 1);
  NodeId r = topo.add_node(NodeKind::Router, "r", "FR", "Paris", kParis, 1, 2);
  NodeId a = topo.add_node(NodeKind::Router, "a", "DE", "Frankfurt", kFrankfurt, 1, 3);
  NodeId b = topo.add_node(NodeKind::Router, "b", "DE", "Frankfurt", kFrankfurt, 1, 4);
  NodeId t = topo.add_node(NodeKind::Router, "t", "US", "NYC", kNYC, 1, 5);
  NodeId s = topo.add_node(NodeKind::Server, "s", "US", "NYC", kNYC, 1, 6);
  topo.add_link_latency(c, r, 1.0);
  topo.add_link_latency(r, b, 1.0);
  topo.add_link_latency(r, a, 1.0);
  topo.add_link_latency(t, b, 1.0);
  topo.add_link_latency(t, a, 1.0);
  topo.add_link_latency(t, s, 0.5);
  topo.freeze();
  auto path = topo.shortest_path(c, s);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes, (std::vector<NodeId>{c, r, a, t, s}));
  EXPECT_EQ(path->cum_ms, (std::vector<double>{0.0, 1.0, 2.0, 3.0, 3.5}));
  // From s the tie sits at r's end: t relaxes b first, and a still wins.
  auto back = topo.shortest_path(s, c);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->nodes, (std::vector<NodeId>{s, t, a, r, c}));
}

// Physics invariant: for geographically-placed links, the RTT between any
// two connected nodes can never violate the paper's SOL bound — only wrong
// *claims* about location can.
TEST(Topology, SolInvariantHoldsOnGeographicLinks) {
  Topology topo;
  std::vector<NodeId> nodes;
  std::vector<geo::Coord> coords = {{48.86, 2.35}, {50.11, 8.68},  {40.71, -74.01},
                                    {35.68, 139.69}, {-33.87, 151.21}, {1.35, 103.82},
                                    {-1.29, 36.82},  {55.76, 37.62}};
  for (size_t i = 0; i < coords.size(); ++i) {
    nodes.push_back(topo.add_node(NodeKind::Router, "n", "XX", "c", coords[i], 1,
                                  static_cast<IPv4>(i + 1)));
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (size_t j = i + 1; j < nodes.size(); ++j) {
      topo.add_link(nodes[i], nodes[j]);
    }
  }
  topo.freeze();
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (size_t j = 0; j < nodes.size(); ++j) {
      if (i == j) continue;
      double rtt = 2.0 * topo.latency_ms(nodes[i], nodes[j]);
      double dist = geo::haversine_km(coords[i], coords[j]);
      EXPECT_FALSE(geo::violates_sol(rtt, dist))
          << "impossible speed between " << i << " and " << j;
    }
  }
}

}  // namespace
}  // namespace gam::net
