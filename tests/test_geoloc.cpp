#include <gtest/gtest.h>

#include "geoloc/constraints.h"
#include "geoloc/pipeline.h"
#include "geoloc/reference_latency.h"
#include "ipmap/geodb.h"

namespace gam::geoloc {
namespace {

// ------------------------------------------------------------------ ipmap

TEST(GeoDatabase, ClaimVsTruth) {
  ipmap::GeoDatabase db;
  db.set_location(1, {"FR", "Paris", {48.86, 2.35}});
  EXPECT_EQ(db.lookup(1)->country, "FR");
  db.inject_error(1, {"DE", "Frankfurt", {50.11, 8.68}});
  EXPECT_EQ(db.lookup(1)->country, "DE");          // the claim lies
  EXPECT_EQ(db.true_location(1)->country, "FR");   // the truth doesn't
  EXPECT_EQ(db.error_count(), 1u);
}

TEST(GeoDatabase, UnknownIpIsNullopt) {
  ipmap::GeoDatabase db;
  EXPECT_FALSE(db.lookup(42).has_value());
  db.inject_error(42, {"DE", "Frankfurt", {}});  // no-op for unknown addresses
  EXPECT_EQ(db.error_count(), 0u);
}

// -------------------------------------------------------------- reference

TEST(ReferenceLatency, CoversAllWorldPairs) {
  ReferenceLatency table = ReferenceLatency::generate(util::Rng(1));
  EXPECT_GT(table.wonder_pairs(), table.verizon_pairs());
  // Any pair of world countries resolves.
  EXPECT_TRUE(table.lookup("PK", "FR").has_value());
  EXPECT_TRUE(table.lookup("RW", "KE").has_value());
}

TEST(ReferenceLatency, PrefersVerizonForMajorMarkets) {
  ReferenceLatency table = ReferenceLatency::generate(util::Rng(2));
  EXPECT_EQ(table.lookup("US", "GB")->source, "verizon");
  // Rwanda is not a Verizon market: WonderNetwork fills the gap (§4.1.1).
  EXPECT_EQ(table.lookup("RW", "KE")->source, "wonder");
}

TEST(ReferenceLatency, SymmetricLookup) {
  ReferenceLatency table = ReferenceLatency::generate(util::Rng(3));
  EXPECT_DOUBLE_EQ(table.lookup("JP", "AU")->rtt_ms, table.lookup("AU", "JP")->rtt_ms);
}

TEST(ReferenceLatency, ScalesWithDistance) {
  ReferenceLatency table = ReferenceLatency::generate(util::Rng(4));
  double near = table.lookup("GB", "FR")->rtt_ms;   // ~350 km
  double far = table.lookup("GB", "AU")->rtt_ms;    // ~17000 km
  EXPECT_LT(near, 12.0);
  EXPECT_GT(far, 150.0);
  EXPECT_GT(far, near * 10);
}

// ------------------------------------------------------------ constraints

TEST(Constraints, EffectiveLatencySubtraction) {
  // §4.1.1: subtract first hop only when available and smaller.
  EXPECT_DOUBLE_EQ(effective_latency_ms(5.0, 50.0), 45.0);
  EXPECT_DOUBLE_EQ(effective_latency_ms(0.0, 50.0), 50.0);   // first hop missing
  EXPECT_DOUBLE_EQ(effective_latency_ms(60.0, 50.0), 50.0);  // first hop larger
}

TEST(Constraints, SolCheck) {
  geo::Coord karachi{24.86, 67.00};
  geo::Coord fujairah{25.12, 56.33};  // ~1070 km => min RTT ~8 ms
  EXPECT_TRUE(check_sol(karachi, fujairah, 20.0).pass);
  CheckResult fail = check_sol(karachi, fujairah, 2.0);
  EXPECT_FALSE(fail.pass);
  EXPECT_NE(fail.reason.find("SOL violated"), std::string::npos);
}

TEST(Constraints, ReferenceEightyPercentRule) {
  ReferenceLatency table = ReferenceLatency::generate(util::Rng(5));
  double published = table.lookup("PK", "DE")->rtt_ms;
  EXPECT_TRUE(check_reference(table, "PK", "DE", published * 1.1).pass);
  EXPECT_TRUE(check_reference(table, "PK", "DE", published * 0.85).pass);
  CheckResult fail = check_reference(table, "PK", "DE", published * 0.5);
  EXPECT_FALSE(fail.pass);
  EXPECT_NE(fail.reason.find("published"), std::string::npos);
}

TEST(Constraints, RdnsRetainWithoutHints) {
  EXPECT_TRUE(check_rdns("", "AE").pass);  // no PTR: retain (§4.1.3)
  EXPECT_TRUE(check_rdns("server-10-0-0-1.generic.example", "AE").pass);  // no hints
}

TEST(Constraints, RdnsConfirmsMatchingHint) {
  EXPECT_TRUE(check_rdns("edge1.fra2.cdn.example", "DE").pass);
}

TEST(Constraints, RdnsRejectsContradictingHint) {
  // The paper's Pakistan case: claimed UAE, hostname says Amsterdam.
  CheckResult r = check_rdns("srv-1.ams.1e100sim.net", "AE");
  EXPECT_FALSE(r.pass);
  EXPECT_NE(r.reason.find("NL"), std::string::npos);
  // And the Egypt case: claimed Germany, hostname says Zurich.
  EXPECT_FALSE(check_rdns("srv-2.zrh.1e100sim.net", "DE").pass);
}

// --------------------------------------------------------------- pipeline

// Small world: volunteer in Karachi, servers in Dubai and Amsterdam, probes
// in both places.
struct PipelineFixture : ::testing::Test {
  void SetUp() override {
    karachi_ = {24.86, 67.00};
    geo::Coord dubai{25.20, 55.27};
    geo::Coord amsterdam{52.37, 4.90};

    volunteer_ = topo_.add_node(net::NodeKind::Client, "vol", "PK", "Karachi", karachi_, 1, 1);
    net::NodeId r_pk =
        topo_.add_node(net::NodeKind::Router, "r-pk", "PK", "Karachi", karachi_, 1, 2);
    net::NodeId r_ae = topo_.add_node(net::NodeKind::Router, "r-ae", "AE", "Dubai", dubai, 2, 3);
    net::NodeId r_nl =
        topo_.add_node(net::NodeKind::Router, "r-nl", "NL", "Amsterdam", amsterdam, 3, 4);
    topo_.add_link_latency(volunteer_, r_pk, 3.0);
    topo_.add_link(r_pk, r_ae);
    topo_.add_link(r_pk, r_nl);
    topo_.add_link(r_ae, r_nl);

    srv_dubai_ = 0x0A000010;
    topo_.add_link_latency(
        r_ae, topo_.add_node(net::NodeKind::Server, "s-ae", "AE", "Dubai", dubai, 2, srv_dubai_),
        0.4);
    srv_ams_ = 0x0A000020;
    topo_.add_link_latency(
        r_nl,
        topo_.add_node(net::NodeKind::Server, "s-nl", "NL", "Amsterdam", amsterdam, 3, srv_ams_),
        0.4);
    srv_pk_ = 0x0A000030;
    topo_.add_link_latency(
        r_pk,
        topo_.add_node(net::NodeKind::Server, "s-pk", "PK", "Karachi", karachi_, 1, srv_pk_),
        0.4);

    atlas_.add_probe(topo_, topo_.add_node(net::NodeKind::Client, "p-ae", "AE", "Dubai", dubai,
                                           2, 0x0A0000F1));
    topo_.add_link_latency(r_ae, topo_.find_by_ip(0x0A0000F1), 1.0);
    atlas_.add_probe(topo_, topo_.add_node(net::NodeKind::Client, "p-nl", "NL", "Amsterdam",
                                           amsterdam, 3, 0x0A0000F2));
    topo_.add_link_latency(r_nl, topo_.find_by_ip(0x0A0000F2), 1.0);
    topo_.freeze();

    geodb_.set_location(srv_dubai_, {"AE", "Dubai", dubai});
    geodb_.set_location(srv_ams_, {"NL", "Amsterdam", amsterdam});
    geodb_.set_location(srv_pk_, {"PK", "Karachi", karachi_});

    reference_ = ReferenceLatency::generate(util::Rng(7));
    resolver_ = std::make_unique<dns::Resolver>(zones_);
    engine_ = std::make_unique<probe::TracerouteEngine>(topo_, *resolver_);
    geolocator_ = std::make_unique<MultiConstraintGeolocator>(geodb_, reference_, atlas_,
                                                              *engine_);
  }

  ServerObservation observe(net::IPv4 ip) {
    ServerObservation obs;
    obs.ip = ip;
    obs.volunteer_country = "PK";
    obs.volunteer_city = "Karachi";
    obs.volunteer_coord = karachi_;
    probe::TracerouteOptions opts;
    opts.hop_noresponse_prob = 0.0;
    opts.dest_noresponse_prob = 0.0;
    util::Rng rng(ip);
    probe::TracerouteResult trace = engine_->trace(volunteer_, ip, opts, rng);
    obs.src_trace_attempted = true;
    obs.src_trace_reached = trace.reached;
    obs.src_first_hop_ms = trace.first_hop_rtt_ms();
    obs.src_last_hop_ms = trace.last_hop_rtt_ms();
    return obs;
  }

  geo::Coord karachi_;
  net::Topology topo_;
  dns::ZoneStore zones_;
  ipmap::GeoDatabase geodb_;
  ReferenceLatency reference_;
  probe::AtlasNetwork atlas_;
  std::unique_ptr<dns::Resolver> resolver_;
  std::unique_ptr<probe::TracerouteEngine> engine_;
  std::unique_ptr<MultiConstraintGeolocator> geolocator_;
  net::NodeId volunteer_ = 0;
  net::IPv4 srv_dubai_ = 0, srv_ams_ = 0, srv_pk_ = 0;
};

TEST_F(PipelineFixture, LocalServerClassifiedLocal) {
  util::Rng rng(1);
  GeoVerdict v = geolocator_->classify(observe(srv_pk_), rng);
  EXPECT_TRUE(v.is_local());
  EXPECT_EQ(v.stage, GeoStage::Local);
}

TEST_F(PipelineFixture, TrueForeignServerConfirmed) {
  // Destination probing carries a ~15% stochastic no-response rate; a true
  // foreign server must be confirmed in the vast majority of attempts.
  util::Rng rng(2);
  int confirmed = 0;
  for (int i = 0; i < 30; ++i) {
    GeoVerdict v = geolocator_->classify(observe(srv_dubai_), rng);
    if (v.confirmed_nonlocal()) {
      ++confirmed;
      EXPECT_EQ(v.claim.country, "AE");
      EXPECT_EQ(v.dest_probe_country, "AE");
    } else {
      EXPECT_EQ(v.stage, GeoStage::DestUnreached) << v.reason;
    }
  }
  EXPECT_GE(confirmed, 18);
}

TEST_F(PipelineFixture, UnknownIpDiscarded) {
  util::Rng rng(3);
  GeoVerdict v = geolocator_->classify(observe(0x0BADBEEF), rng);
  EXPECT_EQ(v.stage, GeoStage::UnknownIp);
  EXPECT_TRUE(v.discarded());
}

TEST_F(PipelineFixture, MissingTracerouteDiscarded) {
  util::Rng rng(4);
  ServerObservation obs = observe(srv_dubai_);
  obs.src_trace_attempted = false;
  GeoVerdict v = geolocator_->classify(obs, rng);
  EXPECT_EQ(v.stage, GeoStage::SourceUnreached);
}

TEST_F(PipelineFixture, PaperErrorCaseCaught) {
  // Amsterdam server claimed to be in Al Fujairah (UAE) with an Amsterdam
  // PTR: the reverse-DNS constraint must discard it (§4.1.3).
  geodb_.inject_error(srv_ams_, {"AE", "Al Fujairah", {25.12, 56.33}});
  ServerObservation obs = observe(srv_ams_);
  obs.rdns = "srv-10-0-0-32.ams.1e100sim.net";
  util::Rng rng(5);
  GeoVerdict v = geolocator_->classify(obs, rng);
  EXPECT_EQ(v.stage, GeoStage::RdnsMismatch) << v.reason;
}

TEST_F(PipelineFixture, ErrorWithoutRdnsHintSurvives) {
  // Without the hostname hint, the claim is latency-consistent (Amsterdam
  // RTT > Al Fujairah minimum) and slips through — why the paper calls its
  // results a lower bound.
  geodb_.inject_error(srv_ams_, {"AE", "Al Fujairah", {25.12, 56.33}});
  ServerObservation obs = observe(srv_ams_);
  obs.rdns = "";
  util::Rng rng(6);
  GeoVerdict v = geolocator_->classify(obs, rng);
  EXPECT_TRUE(v.confirmed_nonlocal());
}

TEST_F(PipelineFixture, LocalServerClaimedFarIsDiscardedBySol) {
  // A PK-local server claimed to be in Amsterdam: the observed ~7 ms RTT
  // cannot reach 5,800 km — hard SOL violation.
  geodb_.inject_error(srv_pk_, {"NL", "Amsterdam", {52.37, 4.90}});
  util::Rng rng(7);
  GeoVerdict v = geolocator_->classify(observe(srv_pk_), rng);
  EXPECT_EQ(v.stage, GeoStage::SourceSol) << v.reason;
}

TEST_F(PipelineFixture, NearbyForeignClaimCaughtByReferenceRule) {
  // A PK-local server claimed to be in Dubai: ~7 ms observed vs published
  // PK<->AE ~16 ms — below the 80% threshold, caught by the soft rule even
  // though raw SOL (1,070 km needs only 8 ms) would let it pass.
  geodb_.inject_error(srv_pk_, {"AE", "Dubai", {25.20, 55.27}});
  util::Rng rng(8);
  GeoVerdict v = geolocator_->classify(observe(srv_pk_), rng);
  EXPECT_TRUE(v.stage == GeoStage::SourceReference || v.stage == GeoStage::SourceSol)
      << geo_stage_name(v.stage) << ": " << v.reason;
}

TEST_F(PipelineFixture, FunnelCountersAccumulate) {
  FunnelCounters f;
  util::Rng rng(9);
  f.absorb(geolocator_->classify(observe(srv_pk_), rng));     // local
  f.absorb(geolocator_->classify(observe(0x0BADBEEF), rng));  // unknown
  for (int i = 0; i < 10; ++i) {
    // Candidate, usually confirmed.
    f.absorb(geolocator_->classify(observe(srv_dubai_), rng));
  }
  EXPECT_EQ(f.total, 12u);
  EXPECT_EQ(f.local, 1u);
  EXPECT_EQ(f.unknown_ip, 1u);
  EXPECT_EQ(f.nonlocal_candidates, 10u);
  EXPECT_GE(f.after_rdns, 1u);  // P(all 10 dest traces fail) ~ 0.15^10
  EXPECT_GE(f.dest_traceroutes, 10u);
  // Funnel is monotone: candidates >= after_sol >= after_rdns.
  EXPECT_GE(f.nonlocal_candidates, f.after_sol_constraints);
  EXPECT_GE(f.after_sol_constraints, f.after_rdns);
}

TEST(GeoStageNames, Complete) {
  EXPECT_EQ(geo_stage_name(GeoStage::Local), "local");
  EXPECT_EQ(geo_stage_name(GeoStage::ConfirmedNonLocal), "confirmed-nonlocal");
  EXPECT_EQ(geo_stage_name(GeoStage::SourceReference), "source-reference");
}

}  // namespace
}  // namespace gam::geoloc
