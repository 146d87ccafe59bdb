#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
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
  auto path = topo.shortest_path(a, b);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes.size(), 3u);
  EXPECT_DOUBLE_EQ(path->one_way_ms, 20.0);
}

TEST(Topology, DisconnectedIsNullopt) {
  Topology topo;
  NodeId a = topo.add_node(NodeKind::Router, "a", "FR", "Paris", kParis, 1, 1);
  NodeId b = topo.add_node(NodeKind::Router, "b", "DE", "Frankfurt", kFrankfurt, 1, 2);
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

TEST(Topology, RouteCacheInvalidatedOnMutation) {
  // A query after any mutation sees the mutated graph: each mutator drops
  // the memo when it holds a tree, and the next query refills it.
  Topology topo;
  NodeId a = topo.add_node(NodeKind::Router, "a", "FR", "Paris", kParis, 1, 1);
  NodeId b = topo.add_node(NodeKind::Router, "b", "DE", "Frankfurt", kFrankfurt, 1, 2);
  topo.add_link_latency(a, b, 50.0);
  EXPECT_EQ(topo.route_cache_size(), 0u);
  EXPECT_DOUBLE_EQ(topo.latency_ms(a, b), 50.0);  // warms the memo
  EXPECT_EQ(topo.route_cache_size(), 1u);

  // add_node alone: the new node is unreachable, and the tree memoized
  // before it does not even have a slot for it.
  NodeId c = topo.add_node(NodeKind::Router, "c", "US", "NYC", kNYC, 1, 3);
  EXPECT_EQ(topo.route_cache_size(), 0u);
  EXPECT_EQ(topo.latency_ms(a, c), std::numeric_limits<double>::infinity());
  EXPECT_EQ(topo.route_cache_size(), 1u);

  // add_link: c becomes reachable at its geographic latency.
  topo.add_link(a, c);
  EXPECT_EQ(topo.route_cache_size(), 0u);
  const double a_to_c = geo::haversine_km(kParis, kNYC) * Topology::kDefaultInflation /
                            geo::kFiberKmPerMs +
                        Topology::kHopProcessingMs;
  EXPECT_DOUBLE_EQ(topo.latency_ms(a, c), a_to_c);
  EXPECT_EQ(topo.route_cache_size(), 1u);

  // add_link_latency: a -> c -> b undercuts the direct 50 ms link.
  topo.add_link_latency(c, b, 1.0);
  EXPECT_EQ(topo.route_cache_size(), 0u);
  auto path = topo.shortest_path(a, b);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes, (std::vector<NodeId>{a, c, b}));
  EXPECT_DOUBLE_EQ(path->one_way_ms, a_to_c + 1.0);
  EXPECT_EQ(topo.route_cache_size(), 1u);
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
