// Tests for the tool capabilities beyond the study configuration: HAR
// export (§3 C1), TLS probing (§3 C3), the constraint-ablation pipeline
// variants, longitudinal diffing and regional variation (§8), and the CDN
// catalog plumbing.
#include <gtest/gtest.h>

#include "analysis/longitudinal.h"
#include "analysis/regional_variation.h"
#include "cdn/cdn.h"
#include "geoloc/pipeline.h"
#include "web/har.h"
#include "worldgen/study.h"
#include "worldgen/world.h"

namespace gam {
namespace {

struct ExtensionsFixture : ::testing::Test {
  static void SetUpTestSuite() { world_ = worldgen::generate_world({}).release(); }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static worldgen::World* world_;
};

worldgen::World* ExtensionsFixture::world_ = nullptr;

// ------------------------------------------------------------------- HAR

TEST_F(ExtensionsFixture, HarExportIsValid) {
  web::Browser browser(world_->universe, *world_->resolver, world_->topology, {});
  const core::VolunteerProfile& vol = world_->volunteer("GB");
  util::Rng rng(1);
  web::PageLoadRecord rec =
      browser.load(*world_->universe.find("youtube.com"), vol.node, "GB", 0.0, rng);
  util::Json har = web::to_har(rec);
  EXPECT_TRUE(web::har_is_valid(har));
  EXPECT_EQ(har.find("log")->get_string("version"), "1.2");
  EXPECT_EQ(har.find("log")->find("pages")->size(), 1u);
  EXPECT_GT(har.find("log")->find("entries")->size(), 5u);
}

TEST_F(ExtensionsFixture, HarExcludesWebdriverNoise) {
  web::BrowserOptions opts;
  opts.webdriver_noise = true;
  web::Browser browser(world_->universe, *world_->resolver, world_->topology, opts);
  const core::VolunteerProfile& vol = world_->volunteer("GB");
  util::Rng rng(2);
  web::PageLoadRecord rec =
      browser.load(*world_->universe.find("google.com"), vol.node, "GB", 0.0, rng);
  util::Json har = web::to_har(rec);
  for (const auto& entry : har.find("log")->find("entries")->items()) {
    std::string url = entry.find("request")->get_string("url");
    for (const auto& noise : web::webdriver_noise_domains()) {
      EXPECT_EQ(url.find(noise), std::string::npos) << url;
    }
  }
}

TEST_F(ExtensionsFixture, HarMultiPageReferencesResolve) {
  web::Browser browser(world_->universe, *world_->resolver, world_->topology, {});
  const core::VolunteerProfile& vol = world_->volunteer("NZ");
  util::Rng rng(3);
  std::vector<web::PageLoadRecord> records;
  records.push_back(
      browser.load(*world_->universe.find("google.com"), vol.node, "NZ", 0.0, rng));
  records.push_back(
      browser.load(*world_->universe.find("wikipedia.org"), vol.node, "NZ", 0.0, rng));
  util::Json har = web::to_har(records);
  EXPECT_TRUE(web::har_is_valid(har));
  EXPECT_EQ(har.find("log")->find("pages")->size(), 2u);
  // Round-trips through the JSON layer.
  auto reparsed = util::Json::parse(har.dump());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_TRUE(web::har_is_valid(*reparsed));
}

TEST(Har, RejectsNonHar) {
  EXPECT_FALSE(web::har_is_valid(util::Json(nullptr)));
  EXPECT_FALSE(web::har_is_valid(util::Json::object()));
  auto j = util::Json::parse(R"({"log":{"version":"1.1"}})");
  EXPECT_FALSE(web::har_is_valid(*j));
}

// -------------------------------------------------------------- ablation

TEST_F(ExtensionsFixture, DisabledRdnsLetsPlantedErrorsThrough) {
  probe::TracerouteEngine engine(world_->topology, *world_->resolver);
  geoloc::ConstraintConfig no_rdns;
  no_rdns.rdns_constraint = false;
  geoloc::MultiConstraintGeolocator lenient(world_->geodb, world_->reference,
                                            world_->atlas, engine, no_rdns);
  geoloc::MultiConstraintGeolocator strict(world_->geodb, world_->reference,
                                           world_->atlas, engine);

  // A planted error address whose PTR carries the contradicting hint.
  const core::VolunteerProfile& vol = world_->volunteer("PK");
  geo::Coord coord = world_->topology.node(vol.node).coord;
  size_t strict_discards = 0, lenient_confirms = 0, audited = 0;
  util::Rng rng(7);
  for (net::IPv4 ip : world_->geodb.injected_errors()) {
    auto ptr = world_->resolver->reverse(ip);
    if (!ptr) continue;
    geoloc::ServerObservation obs;
    obs.ip = ip;
    obs.volunteer_country = "PK";
    obs.volunteer_city = vol.city;
    obs.volunteer_coord = coord;
    probe::TracerouteOptions topts;
    topts.dest_noresponse_prob = 0.0;
    topts.hop_noresponse_prob = 0.0;
    probe::TracerouteResult trace = engine.trace(vol.node, ip, topts, rng);
    if (!trace.reached) continue;
    obs.src_trace_attempted = true;
    obs.src_trace_reached = true;
    obs.src_first_hop_ms = trace.first_hop_rtt_ms();
    obs.src_last_hop_ms = trace.last_hop_rtt_ms();
    obs.rdns = *ptr;
    ++audited;
    geoloc::GeoVerdict s = strict.classify(obs, rng);
    geoloc::GeoVerdict l = lenient.classify(obs, rng);
    if (s.stage == geoloc::GeoStage::RdnsMismatch) ++strict_discards;
    if (l.confirmed_nonlocal() && s.stage == geoloc::GeoStage::RdnsMismatch) {
      ++lenient_confirms;  // survives exactly because the check is off
    }
  }
  EXPECT_GT(audited, 10u);
  EXPECT_GT(strict_discards, 0u);
  EXPECT_GT(lenient_confirms, 0u);
}

TEST_F(ExtensionsFixture, NoConstraintsConfirmsEveryNonLocalClaim) {
  probe::TracerouteEngine engine(world_->topology, *world_->resolver);
  geoloc::MultiConstraintGeolocator geolocator(world_->geodb, world_->reference,
                                               world_->atlas, engine,
                                               geoloc::ConstraintConfig::none());
  geoloc::ServerObservation obs;
  obs.ip = world_->resolver->resolve("doubleclick.net", "NZ").primary();
  obs.volunteer_country = "NZ";
  obs.volunteer_coord = {-36.85, 174.76};
  // No traceroute at all: the unconstrained pipeline still confirms.
  util::Rng rng(8);
  geoloc::GeoVerdict v = geolocator.classify(obs, rng);
  EXPECT_TRUE(v.confirmed_nonlocal());
}

// ---------------------------------------------------------- longitudinal

TEST_F(ExtensionsFixture, LongitudinalSelfDiffIsZero) {
  worldgen::StudyOptions opts;
  opts.countries = {"NZ", "CA"};
  worldgen::StudyResult snapshot = worldgen::run_study(*world_, opts);
  analysis::LongitudinalReport report =
      analysis::compare_snapshots(snapshot.analyses, snapshot.analyses);
  ASSERT_EQ(report.deltas.size(), 2u);
  for (const auto& d : report.deltas) {
    EXPECT_DOUBLE_EQ(d.prevalence_change(), 0.0);
    EXPECT_TRUE(d.destinations_gained.empty());
    EXPECT_TRUE(d.destinations_lost.empty());
    EXPECT_TRUE(d.orgs_gained.empty());
    EXPECT_TRUE(d.orgs_lost.empty());
  }
  EXPECT_TRUE(report.significant(0.001).empty());
}

TEST_F(ExtensionsFixture, LongitudinalDetectsChanges) {
  worldgen::StudyOptions a_opts, b_opts;
  a_opts.countries = b_opts.countries = {"JO"};
  a_opts.seed = 7;
  b_opts.seed = 2025;
  worldgen::StudyResult a = worldgen::run_study(*world_, a_opts);
  worldgen::StudyResult b = worldgen::run_study(*world_, b_opts);
  analysis::LongitudinalReport report = analysis::compare_snapshots(a.analyses, b.analyses);
  const analysis::CountryDelta* jo = report.find("JO");
  ASSERT_NE(jo, nullptr);
  EXPECT_GT(jo->prevalence_before, 30.0);
  EXPECT_GT(jo->prevalence_after, 30.0);
  EXPECT_EQ(report.find("ZZ"), nullptr);
}

TEST(Longitudinal, ToleratesAsymmetricSnapshots) {
  analysis::CountryAnalysis only_before;
  only_before.country = "EG";
  analysis::SiteAnalysis site;
  site.site_domain = "x.com.eg";
  site.loaded = true;
  analysis::TrackerHit hit;
  hit.domain = "t.example";
  hit.dest_country = "DE";
  hit.org = "Google";
  site.trackers.push_back(hit);
  only_before.sites.push_back(site);
  analysis::LongitudinalReport report = analysis::compare_snapshots({only_before}, {});
  ASSERT_EQ(report.deltas.size(), 1u);
  EXPECT_DOUBLE_EQ(report.deltas[0].prevalence_before, 100.0);
  EXPECT_DOUBLE_EQ(report.deltas[0].prevalence_after, 0.0);
  EXPECT_EQ(report.deltas[0].destinations_lost.count("DE"), 1u);
  EXPECT_EQ(report.deltas[0].orgs_lost.count("Google"), 1u);
}

// ----------------------------------------------------- regional variation

TEST_F(ExtensionsFixture, YahooVariesByCountry) {
  worldgen::StudyOptions opts;
  opts.countries = {"GB", "AE", "IN"};
  worldgen::StudyResult study = worldgen::run_study(*world_, opts);
  analysis::RegionalVariationReport report =
      analysis::compute_regional_variation(study.analyses, "yahoo.com");
  // yahoo.com is in the GB/AE/IN top lists by construction.
  EXPECT_GE(report.views.size(), 2u);
  bool india_clean = true;
  for (const auto& view : report.views) {
    if (view.country == "IN") india_clean = view.orgs.empty();
  }
  EXPECT_TRUE(india_clean);  // India: majors serve locally (§8 example)
}

TEST(RegionalVariation, UnknownSiteYieldsEmptyReport) {
  analysis::RegionalVariationReport report =
      analysis::compute_regional_variation({}, "nonexistent.example");
  EXPECT_TRUE(report.views.empty());
  EXPECT_TRUE(report.common_orgs().empty());
  EXPECT_TRUE(report.variable_orgs().empty());
}

// ------------------------------------------------------------------- CDN

TEST(Cdn, DeployCreatesAddressableServer) {
  net::Topology topo;
  net::AsRegistry registry;
  dns::ZoneStore zones;
  registry.add({900, "AS-CDN", "CDN Org", "US", net::AsKind::Cloud});
  registry.allocate_prefix(900, 20);
  cdn::Catalog catalog;
  catalog.add_provider({"TestCDN", 900, "CDN Org", "testcdn.example", 1.0});

  const auto& kenya = world::CountryDb::instance().at("KE");
  net::NodeId router = topo.add_node(net::NodeKind::Router, "r", "KE", "Nairobi",
                                     kenya.primary_city().coord, 1, 1);
  cdn::Deployment& d = catalog.deploy("TestCDN", kenya, kenya.primary_city(),
                                      cdn::PopKind::Edge, topo, registry, zones, router,
                                      /*with_rdns_hint=*/true);
  EXPECT_EQ(d.country, "KE");
  EXPECT_NE(d.ip, 0u);
  EXPECT_EQ(topo.find_by_ip(d.ip), d.node);
  // PTR installed with the Nairobi hint.
  ASSERT_TRUE(zones.find_ptr(d.ip).has_value());
  EXPECT_NE(zones.find_ptr(d.ip)->find("nbo"), std::string::npos);
  EXPECT_EQ(catalog.deployments_of("TestCDN").size(), 1u);

  const cdn::Deployment* nearest =
      catalog.nearest("TestCDN", {-1.0, 37.0}, topo);
  ASSERT_NE(nearest, nullptr);
  EXPECT_EQ(nearest->ip, d.ip);
  EXPECT_EQ(catalog.nearest("OtherCDN", {0, 0}, topo), nullptr);
}

}  // namespace
}  // namespace gam
