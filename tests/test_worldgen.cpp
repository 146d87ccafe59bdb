// World-generation invariants: the simulated Internet must be internally
// consistent before any measurement runs on it.
#include "worldgen/world.h"

#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <set>
#include <string>

#include "trackers/org_db.h"
#include "util/rng.h"
#include "util/strings.h"
#include "web/psl.h"
#include "web/url.h"
#include "worldgen/calibration.h"

namespace gam::worldgen {
namespace {

// FNV-1a over what worldgen's draws decide for the study: every site in
// insertion order (domain, country, kind, adult flag, each resource's URL
// and type), every target list, and the topology's node count. Each field
// ends in a NUL so no two field sequences hash the same bytes.
uint64_t world_digest(const World& w) {
  std::string bytes;
  auto field = [&bytes](std::string_view s) {
    bytes.append(s);
    bytes.push_back('\0');
  };
  for (const web::Website& site : w.universe.sites()) {
    field(site.domain);
    field(site.country);
    field(std::to_string(static_cast<int>(site.kind)));
    field(site.adult ? "adult" : "");
    for (const web::Resource& r : site.resources) {
      field(r.url);
      field(std::to_string(static_cast<int>(r.type)));
    }
    field("end-site");
  }
  for (const auto& [country, targets] : w.targets) {
    field(country);
    field(targets.regional_source);
    for (const auto& domain : targets.regional) field(domain);
    field("end-regional");
    for (const auto& domain : targets.government) field(domain);
    field("end-government");
  }
  field(std::to_string(w.topology.node_count()));
  return util::fnv1a(bytes);
}

// FNV-1a over the hosting fabric worldgen builds: every topology node (kind,
// name, country, city, ASN, address) with its PTR record and its IPmap
// claim, then the steered answers (per client country, then the default)
// of every host a site resource names, in first-use order. Fields end in a
// NUL like world_digest's.
uint64_t fabric_digest(const World& w) {
  std::string bytes;
  auto field = [&bytes](std::string_view s) {
    bytes.append(s);
    bytes.push_back('\0');
  };
  for (size_t i = 0; i < w.topology.node_count(); ++i) {
    const net::Node& node = w.topology.node(static_cast<net::NodeId>(i));
    field(std::to_string(static_cast<int>(node.kind)));
    field(node.name);
    field(node.country);
    field(node.city);
    field(std::to_string(node.asn));
    field(std::to_string(node.ip));
    std::optional<std::string> ptr = w.zones.find_ptr(node.ip);
    field(ptr ? "ptr " + *ptr : "no-ptr");
    if (std::optional<ipmap::GeoRecord> claim = w.geodb.lookup(node.ip)) {
      field(claim->country);
      field(claim->city);
      field(util::format("%.17g %.17g", claim->coord.lat, claim->coord.lon));
    } else {
      field("no-claim");
    }
  }
  std::set<std::string> hosts;
  for (const web::Website& site : w.universe.sites()) {
    for (const web::Resource& r : site.resources) {
      std::string host = web::host_of(r.url);
      if (!hosts.insert(host).second) continue;
      field(host);
      if (const dns::SteeredRecord* steered = w.zones.find_steered(host)) {
        for (const auto& [country, ips] : steered->per_country) {
          field(country);
          for (net::IPv4 ip : ips) field(std::to_string(ip));
        }
        field("default");
        for (net::IPv4 ip : steered->default_ips) field(std::to_string(ip));
      }
      field("end-host");
    }
  }
  return util::fnv1a(bytes);
}

// FNV-1a over every route a study can ask for: from each Client node (every
// volunteer and Atlas probe), the latency bits to every node, then, for every
// 97th destination, the routed path's node ids and cumulative latency bits.
uint64_t route_digest(const World& w) {
  const net::Topology& topo = w.topology;
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  const auto count = static_cast<net::NodeId>(topo.node_count());
  for (net::NodeId from : topo.nodes_of_kind(net::NodeKind::Client)) {
    for (net::NodeId to = 0; to < count; ++to) {
      mix(std::bit_cast<uint64_t>(topo.latency_ms(from, to)));
    }
    for (net::NodeId to = 0; to < count; to += 97) {
      std::optional<net::Path> path = topo.shortest_path(from, to);
      if (!path) {
        mix(~0ULL);
        continue;
      }
      mix(path->nodes.size());
      for (net::NodeId id : path->nodes) mix(id);
      for (double ms : path->cum_ms) mix(std::bit_cast<uint64_t>(ms));
    }
  }
  return h;
}

struct WorldFixture : ::testing::Test {
  static void SetUpTestSuite() { world_ = generate_world({}).release(); }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static World* world_;
};

World* WorldFixture::world_ = nullptr;

TEST_F(WorldFixture, CalibrationCoversAll23Countries) {
  EXPECT_EQ(calibration().size(), 23u);
  std::set<std::string> codes;
  for (const auto& c : calibration()) codes.insert(c.code);
  for (const auto& code : world::source_countries()) {
    EXPECT_TRUE(codes.count(code)) << code;
  }
}

TEST_F(WorldFixture, OneVolunteerPerSourceCountry) {
  EXPECT_EQ(world_->volunteers.size(), 23u);
  for (const auto& v : world_->volunteers) {
    EXPECT_NE(v.node, net::kInvalidNode);
    EXPECT_NE(v.ip, 0u);
    EXPECT_FALSE(v.city.empty());
  }
}

TEST_F(WorldFixture, PaperTraceroutePathologiesConfigured) {
  EXPECT_TRUE(world_->volunteer("EG").traceroute_opt_out);
  for (const char* code : {"AU", "IN", "QA", "JO"}) {
    EXPECT_GT(world_->volunteer(code).traceroute_blocked_prob, 0.5) << code;
  }
  EXPECT_FALSE(world_->volunteer("US").traceroute_opt_out);
  EXPECT_LT(world_->volunteer("US").traceroute_blocked_prob, 0.1);
}

TEST_F(WorldFixture, LoadFailureRatesMatchFig2b) {
  // Japan 64% and Saudi Arabia 56% load success.
  EXPECT_NEAR(world_->volunteer("JP").load_failure_rate, 0.36, 0.01);
  EXPECT_NEAR(world_->volunteer("SA").load_failure_rate, 0.44, 0.01);
  EXPECT_LT(world_->volunteer("GB").load_failure_rate, 0.15);
}

TEST_F(WorldFixture, TargetsTotalNearPaper) {
  // §5: 2005 websites offered across all T_web.
  EXPECT_GT(world_->targets_before_optout, 1700u);
  EXPECT_LT(world_->targets_before_optout, 2400u);
  EXPECT_EQ(world_->targets.size(), 23u);
}

TEST_F(WorldFixture, OptOutsAreSmall) {
  // §5: only 0.99% of websites were opted out.
  size_t optouts = 0;
  for (const auto& v : world_->volunteers) optouts += v.site_opt_outs.size();
  double rate = static_cast<double>(optouts) / world_->targets_before_optout;
  EXPECT_GT(rate, 0.001);
  EXPECT_LT(rate, 0.03);
}

TEST_F(WorldFixture, GoogleAndWikipediaInEveryTargetList) {
  for (const auto& [country, targets] : world_->targets) {
    auto all = targets.all();
    std::set<std::string> set(all.begin(), all.end());
    EXPECT_TRUE(set.count("google.com")) << country;
    EXPECT_TRUE(set.count("wikipedia.org")) << country;
  }
}

TEST_F(WorldFixture, AdultSitesNeverSelected) {
  for (const auto& [country, targets] : world_->targets) {
    for (const auto& domain : targets.all()) {
      const web::Website* site = world_->universe.find(domain);
      if (site) EXPECT_FALSE(site->adult) << domain;
    }
  }
}

TEST_F(WorldFixture, GovListsUseGovTlds) {
  for (const auto& [country, targets] : world_->targets) {
    const auto& info = world::CountryDb::instance().at(country);
    for (const auto& domain : targets.government) {
      bool matches = false;
      for (const auto& tld : info.gov_tlds) {
        if (web::host_within(domain, tld)) matches = true;
      }
      EXPECT_TRUE(matches) << country << ": " << domain;
    }
  }
}

TEST_F(WorldFixture, CountriesWithFewGovSitesReflectInputs) {
  // §5: Lebanon, Russia, Algeria had few government sites.
  EXPECT_LT(world_->targets.at("LB").government.size(), 15u);
  EXPECT_LT(world_->targets.at("RU").government.size(), 20u);
  EXPECT_EQ(world_->targets.at("NZ").government.size(), 50u);
}

TEST_F(WorldFixture, EverySelectedSiteResolvesFromItsCountry) {
  for (const auto& [country, targets] : world_->targets) {
    for (const auto& domain : targets.all()) {
      dns::Answer ans = world_->resolver->resolve(domain, country);
      EXPECT_FALSE(ans.nxdomain()) << domain << " from " << country;
    }
  }
}

TEST_F(WorldFixture, SteeringRespectsGroundTruthGeography) {
  // For every tracker address: the IPmap *truth* must equal the country of
  // the node that owns the address (claims may lie; truth may not).
  size_t checked = 0;
  for (size_t i = 0; i < world_->topology.node_count(); ++i) {
    const net::Node& node = world_->topology.node(static_cast<net::NodeId>(i));
    if (node.kind != net::NodeKind::Server || node.ip == 0) continue;
    auto truth = world_->geodb.true_location(node.ip);
    if (!truth) continue;  // coverage gap
    EXPECT_EQ(truth->country, node.country) << node.name;
    ++checked;
  }
  EXPECT_GT(checked, 1000u);
}

TEST_F(WorldFixture, InjectedErrorsDisagreeWithTruth) {
  ASSERT_GT(world_->geodb.error_count(), 10u);
  for (net::IPv4 ip : world_->geodb.injected_errors()) {
    auto claim = world_->geodb.lookup(ip);
    auto truth = world_->geodb.true_location(ip);
    ASSERT_TRUE(claim.has_value());
    ASSERT_TRUE(truth.has_value());
    EXPECT_NE(claim->country, truth->country) << net::ip_to_string(ip);
  }
}

TEST_F(WorldFixture, PaperErrorCasesPlanted) {
  // PK's Google addresses: claimed AE, truly NL; EG's: claimed DE, truly CH.
  bool pk_case = false, eg_case = false;
  for (net::IPv4 ip : world_->geodb.injected_errors()) {
    auto claim = world_->geodb.lookup(ip);
    auto truth = world_->geodb.true_location(ip);
    if (claim->country == "AE" && truth->country == "NL") pk_case = true;
    if (claim->country == "DE" && truth->country == "CH") eg_case = true;
  }
  EXPECT_TRUE(pk_case);
  EXPECT_TRUE(eg_case);
}

TEST_F(WorldFixture, AtlasDensitySkewedToGlobalNorth) {
  EXPECT_GT(world_->atlas.probe_count(), 100u);
  EXPECT_GE(world_->atlas.probes_in("DE").size(), 5u);
  EXPECT_GE(world_->atlas.probes_in("US").size(), 5u);
  EXPECT_LE(world_->atlas.probes_in("RW").size(), 2u);
  // Qatar and Jordan have none (§4.1.1's neighbor fallback).
  EXPECT_TRUE(world_->atlas.probes_in("QA").empty());
  EXPECT_TRUE(world_->atlas.probes_in("JO").empty());
}

TEST_F(WorldFixture, MajorsServeLocallyWhereCalibrated) {
  // India: all major tracking networks have in-country servers (§6.3).
  dns::Answer ans = world_->resolver->resolve("doubleclick.net", "IN");
  ASSERT_FALSE(ans.nxdomain());
  auto loc = world_->geodb.true_location(ans.primary());
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->country, "IN");
  // New Zealand: Google serves from Australia.
  ans = world_->resolver->resolve("doubleclick.net", "NZ");
  ASSERT_FALSE(ans.nxdomain());
  loc = world_->geodb.true_location(ans.primary());
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->country, "AU");
}

TEST_F(WorldFixture, KenyaEdgeHostsForEastAfrica) {
  // Rwanda/Uganda majors answer from the Nairobi edge (§6.5).
  dns::Answer rw = world_->resolver->resolve("googleapis.com", "RW");
  ASSERT_FALSE(rw.nxdomain());
  auto loc = world_->geodb.true_location(rw.primary());
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->country, "KE");
  EXPECT_EQ(loc->city, "Nairobi");
}

TEST_F(WorldFixture, DeterministicForSameSeed) {
  auto other = generate_world({});
  EXPECT_EQ(other->topology.node_count(), world_->topology.node_count());
  EXPECT_EQ(other->geodb.size(), world_->geodb.size());
  EXPECT_EQ(other->targets_before_optout, world_->targets_before_optout);
  // Same steering decision for a sample domain.
  for (const char* country : {"PK", "NZ", "EG"}) {
    EXPECT_EQ(other->resolver->resolve("doubleclick.net", country).primary(),
              world_->resolver->resolve("doubleclick.net", country).primary());
  }
}

TEST_F(WorldFixture, DifferentSeedsDiffer) {
  auto other = generate_world({.seed = 777});
  bool any_difference =
      other->topology.node_count() != world_->topology.node_count() ||
      other->resolver->resolve("doubleclick.net", "PK").primary() !=
          world_->resolver->resolve("doubleclick.net", "PK").primary();
  EXPECT_TRUE(any_difference);
}

TEST_F(WorldFixture, UniverseDigestIsPinned) {
  // Worldgen's output bytes, pinned: a change to any draw (order, count or
  // index) moves the digest. Recomputing these constants is a deliberate
  // change to every generated world and every figure.
  EXPECT_EQ(world_digest(*world_), 0x3a110142ba2c45f6ULL);
  EXPECT_EQ(world_digest(*generate_world({.scale_countries = 3, .scale_sites = 30})),
            0x66cf6c909941e1e7ULL);
}

TEST_F(WorldFixture, FabricDigestIsPinned) {
  // The tracker fabric's bytes, pinned: node ids, names and addresses,
  // PTRs, IPmap claims and GeoDNS answers. UniverseDigestIsPinned counts
  // the fabric's nodes; this pins what they are and how they answer.
  EXPECT_EQ(fabric_digest(*world_), 0x773793721ad7839cULL);
  EXPECT_EQ(fabric_digest(*generate_world({.scale_countries = 3, .scale_sites = 30})),
            0x58a2b9d2d660a070ULL);
}

TEST_F(WorldFixture, RouteDigestIsPinned) {
  // Every latency and path a study can measure, pinned: a change to the
  // route computation that moves one bit of one latency, or one hop of a
  // sampled path, moves the digest. FabricDigestIsPinned pins the graph.
  EXPECT_EQ(route_digest(*world_), 0x34f446ddd65853a3ULL);
  EXPECT_EQ(route_digest(*generate_world({.scale_countries = 3, .scale_sites = 30})),
            0x64737146fa35a210ULL);
}

TEST_F(WorldFixture, GovernmentSitesAvoidUsHostedTrackersOutsideUae) {
  // §6.3: outside the UAE, government sites embed no tracker that their
  // country's GeoDNS answers from a US-hosted address. Regional sites are
  // the control: they do reach US-hosted trackers, so the check can fail.
  struct Embeds {
    size_t trackers = 0;
    size_t us_hosted = 0;
  };
  const auto& orgdb = trackers::OrgDb::instance();
  auto tracker_embeds = [&](const web::Website& site) {
    Embeds e;
    for (const web::Resource& r : site.resources) {
      std::string host = web::host_of(r.url);
      if (!orgdb.tracker_of_host(host)) continue;
      ++e.trackers;
      dns::Answer ans = world_->resolver->resolve(host, site.country);
      EXPECT_FALSE(ans.nxdomain()) << host << " from " << site.country;
      for (net::IPv4 ip : ans.ips) {
        net::NodeId node = world_->topology.find_by_ip(ip);
        EXPECT_NE(node, net::kInvalidNode) << host;
        if (node != net::kInvalidNode && world_->topology.node(node).country == "US") {
          ++e.us_hosted;
        }
      }
    }
    return e;
  };
  size_t gov_trackers = 0, reg_us_hosted = 0;
  for (const auto& country : world::source_countries()) {
    if (country == "AE" || country == "US") continue;
    for (const web::Website* site :
         world_->universe.sites_of(country, web::SiteKind::Government)) {
      Embeds e = tracker_embeds(*site);
      EXPECT_EQ(e.us_hosted, 0u) << site->domain;
      gov_trackers += e.trackers;
    }
    for (const web::Website* site : world_->universe.sites_of(country, web::SiteKind::Regional)) {
      reg_us_hosted += tracker_embeds(*site).us_hosted;
    }
  }
  EXPECT_GT(gov_trackers, 1000u);
  EXPECT_GT(reg_us_hosted, 0u);
}

TEST_F(WorldFixture, OverlapStudyMatchesPaperNumbers) {
  // §3.2: semrush ~65% overlap with similarweb, ahrefs ~48%.
  core::TargetSelector selector(world_->selection);
  auto study = selector.run_overlap_study(50);
  EXPECT_GT(study.countries_compared, 15u);
  EXPECT_NEAR(study.semrush_vs_similarweb, 0.65, 0.08);
  EXPECT_NEAR(study.ahrefs_vs_similarweb, 0.48, 0.08);
}

}  // namespace
}  // namespace gam::worldgen
