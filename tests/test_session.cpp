// Gamma session behaviour on the full generated world: resumability,
// opt-outs, traceroute dedup, per-OS recording, scrubbing, anonymization,
// dataset JSON round trip.
#include "core/session.h"

#include <gtest/gtest.h>

#include <iterator>

#include "core/recorder.h"
#include "util/strings.h"
#include "worldgen/world.h"

namespace gam::core {
namespace {

struct SessionFixture : ::testing::Test {
  static void SetUpTestSuite() { world_ = worldgen::generate_world({}).release(); }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static worldgen::World* world_;

  GammaSession make_session(const std::string& country, uint64_t seed = 11) {
    return GammaSession(world_->env(), world_->volunteer(country),
                        world_->targets.at(country), GammaConfig::study_defaults(), seed);
  }
};

worldgen::World* SessionFixture::world_ = nullptr;

TEST_F(SessionFixture, RunAllMeasuresEveryNonOptedSite) {
  GammaSession session = make_session("NZ");
  session.run_all();
  EXPECT_TRUE(session.finished());
  const VolunteerDataset& ds = session.dataset();
  size_t optouts = world_->volunteer("NZ").site_opt_outs.size();
  EXPECT_EQ(ds.attempted_sites() + optouts, session.total_sites());
  EXPECT_GT(ds.loaded_sites(), ds.attempted_sites() * 8 / 10);  // Fig 2b: >86% typical
}

TEST_F(SessionFixture, StepByStepEqualsRunAll) {
  GammaSession a = make_session("TW", 99);
  GammaSession b = make_session("TW", 99);
  a.run_all();
  size_t steps = 0;
  while (b.step()) ++steps;
  EXPECT_EQ(steps, a.dataset().attempted_sites());
  // Identical RNG seed => identical recorded data.
  EXPECT_EQ(dataset_to_json(a.dataset()).dump(), dataset_to_json(b.dataset()).dump());
}

TEST_F(SessionFixture, ResumeContinuesWhereStopped) {
  GammaSession session = make_session("TW", 5);
  session.step();
  session.step();
  size_t before = session.next_site_index();
  EXPECT_GT(before, 0u);
  EXPECT_FALSE(session.finished());
  session.run_all();
  EXPECT_TRUE(session.finished());
  EXPECT_EQ(session.dataset().attempted_sites() +
                world_->volunteer("TW").site_opt_outs.size(),
            session.total_sites());
}

TEST_F(SessionFixture, OptedOutSitesNeverMeasured) {
  const VolunteerProfile& profile = world_->volunteer("AZ");
  GammaSession session = make_session("AZ");
  session.run_all();
  for (const auto& site : session.dataset().sites) {
    EXPECT_EQ(profile.site_opt_outs.count(site.page.site_domain), 0u)
        << site.page.site_domain;
  }
}

TEST_F(SessionFixture, TraceroutesDedupedAcrossSites) {
  GammaSession session = make_session("NZ");
  session.run_all();
  const VolunteerDataset& ds = session.dataset();
  // One trace per unique address, stored at dataset level.
  EXPECT_GT(ds.traces.size(), 50u);
  for (const auto& [ip, trace] : ds.traces) {
    EXPECT_EQ(trace.ip, ip);
    EXPECT_TRUE(trace.attempted);
    EXPECT_EQ(trace.source, "volunteer");
  }
}

TEST_F(SessionFixture, WindowsVolunteerRecordsTracertOutput) {
  // Pakistan's volunteer runs Windows (calibration): the recorder renders
  // each trace as tracert text and publishes its normalization.
  GammaSession session = make_session("PK");
  session.run_all();
  const VolunteerDataset& ds = session.dataset();
  ASSERT_FALSE(ds.traces.empty());
  const util::Json published = dataset_to_json(ds);
  const util::Json* traces = published.find("traces");
  ASSERT_TRUE(traces && traces->is_object());
  bool saw_windows_format = false;
  for (const auto& [ip, trace] : ds.traces) {
    const util::Json* doc = traces->find(net::ip_to_string(ip));
    ASSERT_NE(doc, nullptr) << net::ip_to_string(ip);
    EXPECT_EQ(doc->get_string("os"), "windows");
    if (trace_text(trace).find("Tracing route to") != std::string::npos) {
      saw_windows_format = true;
      const util::Json* normalized = doc->find("normalized");
      ASSERT_NE(normalized, nullptr);
      EXPECT_TRUE(normalized->is_object());  // normalizer handled tracert
    }
  }
  EXPECT_TRUE(saw_windows_format);
}

TEST_F(SessionFixture, TracerouteOptOutRespected) {
  // Egypt's volunteer opted out of traceroutes (§3.5).
  GammaSession session = make_session("EG");
  session.run_all();
  EXPECT_TRUE(session.dataset().traces.empty());
}

TEST_F(SessionFixture, BlockedNetworkYieldsUnreachedTraces) {
  // Jordan's network blocks traceroutes (§4.1.1): attempted but unreached.
  GammaSession session = make_session("JO");
  session.run_all();
  const VolunteerDataset& ds = session.dataset();
  ASSERT_FALSE(ds.traces.empty());
  for (const auto& [ip, trace] : ds.traces) {
    EXPECT_FALSE(trace.reached) << net::ip_to_string(ip);
  }
}

TEST_F(SessionFixture, AtlasRepairFillsBlockedTraces) {
  GammaSession session = make_session("JO");
  session.run_all();
  VolunteerDataset ds = session.take_dataset();
  util::Rng rng(3);
  probe::TracerouteOptions opts;
  size_t repaired =
      augment_with_atlas_traceroutes(ds, world_->env(), world_->atlas, opts, rng);
  EXPECT_GT(repaired, 0u);
  size_t reached = 0;
  bool from_atlas = false;
  for (const auto& [ip, trace] : ds.traces) {
    if (trace.reached) ++reached;
    if (util::starts_with(trace.source, "atlas:")) from_atlas = true;
  }
  EXPECT_GT(reached, ds.traces.size() / 2);
  EXPECT_TRUE(from_atlas);
}

TEST_F(SessionFixture, ScrubRemovesWebdriverNoise) {
  GammaSession session = make_session("NZ");
  session.run_all();
  VolunteerDataset ds = session.take_dataset();
  size_t removed = scrub_webdriver_noise(ds);
  EXPECT_GT(removed, 0u);  // chrome always produced some background traffic
  for (const auto& site : ds.sites) {
    for (const auto& req : site.page.requests) {
      EXPECT_FALSE(req.background);
      for (const auto& noise : web::webdriver_noise_domains()) {
        EXPECT_NE(req.domain, noise);
      }
    }
  }
  EXPECT_EQ(scrub_webdriver_noise(ds), 0u);  // idempotent
}

TEST_F(SessionFixture, AnonymizeReplacesVolunteerIp) {
  GammaSession session = make_session("GB");
  session.run_all();
  VolunteerDataset ds = session.take_dataset();
  std::string original = ds.volunteer_ip;
  anonymize(ds);
  EXPECT_NE(ds.volunteer_ip, original);
  EXPECT_TRUE(util::starts_with(ds.volunteer_ip, "anon-"));
}

TEST_F(SessionFixture, DatasetJsonRoundTrip) {
  GammaSession session = make_session("LK", 17);
  session.run_all();
  VolunteerDataset ds = session.take_dataset();
  util::Json doc = dataset_to_json(ds);
  auto restored = dataset_from_json(doc);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->volunteer_id, ds.volunteer_id);
  EXPECT_EQ(restored->country, ds.country);
  EXPECT_EQ(restored->sites.size(), ds.sites.size());
  EXPECT_EQ(restored->traces.size(), ds.traces.size());
  // Full fidelity: re-serialization is identical.
  EXPECT_EQ(dataset_to_json(*restored).dump(), doc.dump());
}

TEST_F(SessionFixture, RestoredTracesPublishTheDocumentTheyWereReadWith) {
  // A journaled record's "normalized" went through the OS text (its RTTs are
  // rounded), and a journaled normalizer failure has no hops: a restored
  // dataset must publish both as read, never render them again.
  GammaSession session = make_session("PK", 23);
  session.run_all();
  util::Json doc = dataset_to_json(session.dataset());
  util::Json& traces = doc["traces"];
  ASSERT_GE(traces.fields().size(), 2u);
  auto it = traces.fields().begin();
  const std::string edited_rtt = it->first;
  const std::string edited_error = std::next(it)->first;

  // An RTT tracert could never print (it prints whole ms or "<1").
  util::Json& rtt_trace = traces[edited_rtt];
  ASSERT_EQ(rtt_trace.get_string("os"), "windows");
  ASSERT_TRUE(rtt_trace["normalized"].is_object());
  util::Json hop = util::Json::object();
  hop["ttl"] = 1;
  hop["ip"] = edited_rtt;
  hop["hostname"] = nullptr;
  hop["rtt_ms"] = util::Json(util::JsonArray{1.2345678, 2.5, 0.25});
  rtt_trace["normalized"]["hops"] = util::Json(util::JsonArray{std::move(hop)});
  // A journaled normalizer failure: no document, a structured error.
  traces[edited_error]["normalized"] = nullptr;
  traces[edited_error]["normalize_error"] = "malformed hop line";

  auto restored = dataset_from_json(doc);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(dataset_to_json(*restored).dump(), doc.dump());
}

TEST(Recorder, RejectsMalformedJson) {
  EXPECT_FALSE(dataset_from_json(util::Json(nullptr)).has_value());
  EXPECT_FALSE(dataset_from_json(util::Json::object()).has_value());
  util::Json bad = util::Json::object();
  bad["volunteer_id"] = "x";
  bad["country"] = "EG";
  // missing "sites"
  EXPECT_FALSE(dataset_from_json(bad).has_value());
}

}  // namespace
}  // namespace gam::core
