#include <gtest/gtest.h>

#include <cmath>

#include "dns/resolver.h"
#include "probe/atlas.h"
#include "probe/traceroute.h"

namespace gam::probe {
namespace {

// A 4-hop chain: client - r1 - r2 - server, with addressable routers.
struct ProbeFixture : ::testing::Test {
  void SetUp() override {
    geo::Coord karachi{24.86, 67.00};
    geo::Coord dubai{25.20, 55.27};
    geo::Coord paris{48.86, 2.35};
    client_ = topo_.add_node(net::NodeKind::Client, "c", "PK", "Karachi", karachi, 1, 0x0A000001);
    r1_ = topo_.add_node(net::NodeKind::Router, "r1", "PK", "Karachi", karachi, 1, 0x0A000002);
    r2_ = topo_.add_node(net::NodeKind::Router, "r2", "AE", "Dubai", dubai, 2, 0x0A000003);
    server_ = topo_.add_node(net::NodeKind::Server, "s", "FR", "Paris", paris, 3, 0x0A000004);
    topo_.add_link_latency(client_, r1_, 3.0);
    topo_.add_link(r1_, r2_);
    topo_.add_link(r2_, server_);
    topo_.freeze();
    zones_.add_ptr(0x0A000002, "cr1.khi1.backbone-pk.net");
    zones_.add_ptr(0x0A000003, "cr1.dxb1.transit-ae.net");
    zones_.add_ptr(0x0A000004, "srv.cdg.hosting.example");
    resolver_ = std::make_unique<dns::Resolver>(zones_);
    engine_ = std::make_unique<TracerouteEngine>(topo_, *resolver_);
  }

  net::Topology topo_;
  dns::ZoneStore zones_;
  std::unique_ptr<dns::Resolver> resolver_;
  std::unique_ptr<TracerouteEngine> engine_;
  net::NodeId client_ = 0, r1_ = 0, r2_ = 0, server_ = 0;
};

TEST_F(ProbeFixture, TraceReachesDestination) {
  TracerouteOptions opts;
  opts.hop_noresponse_prob = 0.0;
  opts.dest_noresponse_prob = 0.0;
  util::Rng rng(1);
  TracerouteResult r = engine_->trace(client_, 0x0A000004, opts, rng);
  EXPECT_TRUE(r.reached);
  ASSERT_EQ(r.hops.size(), 3u);
  EXPECT_EQ(r.hops[0].ip, 0x0A000002u);
  EXPECT_EQ(r.hops[2].ip, 0x0A000004u);
  EXPECT_EQ(r.hops[0].hostname, "cr1.khi1.backbone-pk.net");
  EXPECT_EQ(r.hops[0].rtts_ms.size(), 3u);  // queries_per_hop
}

TEST_F(ProbeFixture, RttsGrowAlongPath) {
  TracerouteOptions opts;
  opts.hop_noresponse_prob = 0.0;
  opts.dest_noresponse_prob = 0.0;
  util::Rng rng(2);
  TracerouteResult r = engine_->trace(client_, 0x0A000004, opts, rng);
  // First hop ~6 ms RTT, last hop dominated by Karachi->Paris propagation.
  EXPECT_LT(r.first_hop_rtt_ms(), 20.0);
  EXPECT_GT(r.last_hop_rtt_ms(), 60.0);
  EXPECT_GT(r.last_hop_rtt_ms(), r.first_hop_rtt_ms());
}

TEST_F(ProbeFixture, SolNeverViolatedForTrueLocations) {
  TracerouteOptions opts;
  opts.hop_noresponse_prob = 0.0;
  opts.dest_noresponse_prob = 0.0;
  util::Rng rng(3);
  geo::Coord karachi{24.86, 67.00};
  geo::Coord paris{48.86, 2.35};
  for (int i = 0; i < 50; ++i) {
    TracerouteResult r = engine_->trace(client_, 0x0A000004, opts, rng);
    ASSERT_TRUE(r.reached);
    EXPECT_FALSE(geo::violates_sol(r.last_hop_rtt_ms(), geo::haversine_km(karachi, paris)));
  }
}

TEST_F(ProbeFixture, BlockedPathNeverReaches) {
  TracerouteOptions opts;
  opts.blocked_prob = 1.0;
  util::Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    TracerouteResult r = engine_->trace(client_, 0x0A000004, opts, rng);
    EXPECT_FALSE(r.reached);
  }
}

TEST_F(ProbeFixture, SilentDestination) {
  TracerouteOptions opts;
  opts.hop_noresponse_prob = 0.0;
  opts.dest_noresponse_prob = 1.0;
  util::Rng rng(5);
  TracerouteResult r = engine_->trace(client_, 0x0A000004, opts, rng);
  EXPECT_FALSE(r.reached);
  ASSERT_FALSE(r.hops.empty());
  EXPECT_EQ(r.hops.back().ip, 0u);  // final row is '* * *'
}

TEST_F(ProbeFixture, UnroutedDestination) {
  TracerouteOptions opts;
  util::Rng rng(6);
  TracerouteResult r = engine_->trace(client_, 0x01020304, opts, rng);
  EXPECT_FALSE(r.reached);
  EXPECT_TRUE(r.hops.empty());
}

TEST_F(ProbeFixture, MaxTtlRespected) {
  TracerouteOptions opts;
  opts.max_ttl = 1;
  opts.hop_noresponse_prob = 0.0;
  util::Rng rng(7);
  TracerouteResult r = engine_->trace(client_, 0x0A000004, opts, rng);
  EXPECT_FALSE(r.reached);
  EXPECT_EQ(r.hops.size(), 1u);
}

// --------------------------------------------------------------- Atlas

TEST(Atlas, SelectionPriorities) {
  net::Topology topo;
  geo::Coord riyadh{24.71, 46.68};
  geo::Coord jeddah{21.54, 39.17};
  net::NodeId p1 = topo.add_node(net::NodeKind::Client, "p1", "SA", "Riyadh", riyadh, 10, 1);
  net::NodeId p2 = topo.add_node(net::NodeKind::Client, "p2", "SA", "Jeddah", jeddah, 20, 2);
  AtlasNetwork atlas;
  atlas.add_probe(topo, p1);
  atlas.add_probe(topo, p2);

  // Same city wins.
  auto probe = atlas.select_probe("SA", "Jeddah");
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(probe->city, "Jeddah");
  // Same ASN wins when city misses.
  probe = atlas.select_probe("SA", "Dammam", 20);
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(probe->asn, 20u);
  // Nearest-in-country by coordinates.
  probe = atlas.select_probe("SA", "", 0, geo::Coord{21.6, 39.2});
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(probe->city, "Jeddah");
}

TEST(Atlas, NeighborCountryFallback) {
  // The paper's Jordan case: no probe in-country, so the nearest foreign
  // probe (Israel) is used.
  net::Topology topo;
  geo::Coord telaviv{32.09, 34.78};
  geo::Coord paris{48.86, 2.35};
  net::NodeId il = topo.add_node(net::NodeKind::Client, "il", "IL", "Tel Aviv", telaviv, 1, 1);
  net::NodeId fr = topo.add_node(net::NodeKind::Client, "fr", "FR", "Paris", paris, 2, 2);
  AtlasNetwork atlas;
  atlas.add_probe(topo, il);
  atlas.add_probe(topo, fr);
  auto probe = atlas.select_probe("JO", "Amman", 0, geo::Coord{31.95, 35.93});
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(probe->country, "IL");
}

TEST(Atlas, EmptyNetwork) {
  AtlasNetwork atlas;
  EXPECT_FALSE(atlas.select_probe("US").has_value());
  EXPECT_EQ(atlas.probe_count(), 0u);
}

TEST(Atlas, ProbesInCountry) {
  net::Topology topo;
  geo::Coord berlin{52.52, 13.41};
  AtlasNetwork atlas;
  atlas.add_probe(topo, topo.add_node(net::NodeKind::Client, "d1", "DE", "Berlin", berlin, 1, 1));
  atlas.add_probe(topo, topo.add_node(net::NodeKind::Client, "d2", "DE", "Berlin", berlin, 1, 2));
  EXPECT_EQ(atlas.probes_in("DE").size(), 2u);
  EXPECT_TRUE(atlas.probes_in("FR").empty());
}

}  // namespace
}  // namespace gam::probe
