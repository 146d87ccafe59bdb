// Analyzer unit tests on hand-crafted CountryAnalysis fixtures — each §6
// computation verified against numbers small enough to check by hand.
#include <gtest/gtest.h>

#include "analysis/continent_flows.h"
#include "analysis/flows.h"
#include "analysis/freq.h"
#include "analysis/hosting.h"
#include "analysis/org_flows.h"
#include "analysis/party.h"
#include "analysis/per_site.h"
#include "analysis/policy.h"
#include "analysis/prevalence.h"
#include "analysis_fixture.h"

namespace gam::analysis {
namespace {

TEST(Prevalence, PerKindPercentages) {
  PrevalenceReport r = compute_prevalence(fixture());
  ASSERT_EQ(r.rows.size(), 2u);
  // NZ regional: 4 loaded, 3 with trackers => 75%.
  EXPECT_DOUBLE_EQ(r.rows[0].pct_reg, 75.0);
  EXPECT_EQ(r.rows[0].n_reg, 4u);
  // NZ gov: 2 loaded, 1 with trackers => 50%.
  EXPECT_DOUBLE_EQ(r.rows[0].pct_gov, 50.0);
  EXPECT_DOUBLE_EQ(r.rows[1].pct_reg, 0.0);
  EXPECT_DOUBLE_EQ(r.rows[1].pct_gov, 0.0);
  EXPECT_DOUBLE_EQ(r.mean_reg, 37.5);
  EXPECT_GT(r.pearson_reg_gov, 0.99);  // both countries move together
}

TEST(PerSite, BoxStatsOverTrackedSitesOnly) {
  PerSiteReport r = compute_per_site(fixture());
  ASSERT_EQ(r.rows.size(), 2u);
  const PerSiteRow& nz = r.rows[0];
  // Tracked sites have 3, 1, 1, 1 trackers.
  EXPECT_EQ(nz.combined.n, 4u);
  EXPECT_DOUBLE_EQ(nz.combined.median, 1.0);
  EXPECT_DOUBLE_EQ(nz.combined.max, 3.0);
  EXPECT_GT(nz.skew_combined, 0.0);  // positive skew, §6.2
  EXPECT_EQ(r.rows[1].combined.n, 0u);
}

TEST(PerSite, TrackerCountsFilterByKind) {
  auto counts = tracker_counts(fixture()[0], web::SiteKind::Government);
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_DOUBLE_EQ(counts[0], 1.0);
}

TEST(Flows, DestinationPercentagesAndFanIn) {
  FlowsReport r = compute_flows(fixture());
  // 4 sites with non-local trackers, all in NZ.
  EXPECT_EQ(r.sites_with_nonlocal, 4u);
  EXPECT_EQ(r.source_site_counts.at("NZ"), 4u);
  // All 4 touch AU; 1 touches US.
  EXPECT_DOUBLE_EQ(r.dest_pct.at("AU"), 100.0);
  EXPECT_DOUBLE_EQ(r.dest_pct.at("US"), 25.0);
  EXPECT_EQ(r.dest_fanin.at("AU"), 1u);
  EXPECT_EQ(r.website_flows.at("NZ").at("AU"), 4u);
  // The §6.3 sensitivity check: excluding NZ leaves nothing.
  EXPECT_DOUBLE_EQ(r.dest_pct_excluding("AU", "NZ"), 0.0);
  auto ranked = r.ranked_destinations();
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked[0].first, "AU");
}

TEST(Flows, FanInSplitsByKind) {
  FlowsReport r = compute_flows(fixture());
  EXPECT_EQ(r.dest_fanin_reg.at("AU"), 1u);
  EXPECT_EQ(r.dest_fanin_gov.at("AU"), 1u);
  EXPECT_EQ(r.dest_fanin_gov.count("US"), 0u);  // US flow is regional-only here
}

TEST(ContinentFlows, OceaniaStaysHome) {
  ContinentFlowsReport r = compute_continent_flows(fixture());
  EXPECT_EQ(r.flow("Oceania", "Oceania"), 4u);
  EXPECT_EQ(r.flow("Oceania", "North America"), 1u);
  EXPECT_EQ(r.flow("North America", "Oceania"), 0u);
  auto in_oceania = r.inward_sources("Oceania");
  EXPECT_TRUE(in_oceania.empty());  // nothing flows inward from elsewhere
}

TEST(Hosting, DistinctDomainsPerDestination) {
  HostingReport r = compute_hosting(fixture());
  EXPECT_EQ(r.domains_by_dest.at("AU").size(), 5u);  // five distinct hosts
  EXPECT_EQ(r.domains_by_dest.at("US").size(), 1u);
  auto ranked = r.ranked();
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].first, "AU");
  EXPECT_EQ(r.breakdown.at("AU").at("NZ"), 5u);
}

TEST(OrgFlows, TotalsAndSingleCountryOrgs) {
  OrgFlowsReport r = compute_org_flows(fixture());
  EXPECT_EQ(r.org_totals.at("Google"), 3u);  // three sites embed a Google tracker
  EXPECT_EQ(r.org_totals.at("Twitter"), 1u);
  EXPECT_EQ(r.observed_orgs, 4u);
  auto single = r.single_country_orgs();
  ASSERT_TRUE(single.count("NZ"));
  EXPECT_EQ(single.at("NZ").size(), 4u);  // every org observed only from NZ
  EXPECT_EQ(r.ranked().front().first, "Google");
  // HQ shares over observed orgs: Google/Facebook/Twitter US, Taboola IL.
  EXPECT_DOUBLE_EQ(r.hq_share("US"), 75.0);
  EXPECT_DOUBLE_EQ(r.hq_share("IL"), 25.0);
}

TEST(Party, FirstPartyDetection) {
  PartyReport r = compute_party(fixture());
  EXPECT_EQ(r.sites_with_nonlocal, 4u);
  EXPECT_EQ(r.sites_with_first_party, 1u);
  ASSERT_EQ(r.first_party_sites.size(), 1u);
  EXPECT_EQ(r.first_party_sites[0], "google.co.nz");  // the ccTLD pattern, §6.7
  EXPECT_DOUBLE_EQ(r.google_share(), 1.0);
}

TEST(Freq, CountsHistogram) {
  FreqReport r = compute_freq(fixture());
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].freq.at(1), 3u);  // three sites with exactly 1 tracker
  EXPECT_EQ(r.rows[0].freq.at(3), 1u);
  EXPECT_TRUE(r.rows[1].freq.empty());
}

TEST(Policy, RowsSortedByStrictness) {
  PolicyReport r = compute_policy(fixture());
  ASSERT_EQ(r.rows.size(), 2u);
  // NZ and CA are both TA: alphabetical within the tier.
  EXPECT_EQ(r.rows[0].country, "CA");
  EXPECT_EQ(r.rows[1].country, "NZ");
  EXPECT_DOUBLE_EQ(r.rows[0].nonlocal_pct, 0.0);
  // NZ: 6 loaded sites, 4 with trackers.
  EXPECT_NEAR(r.rows[1].nonlocal_pct, 66.67, 0.01);
}

TEST(Policy, SpearmanDefinedForVariedPolicies) {
  auto countries = fixture();
  countries[0].country = "AZ";  // CS, strictest, high rate
  for (auto& s : countries[0].sites) s.country = "AZ";
  PolicyReport r = compute_policy(countries);
  EXPECT_EQ(r.rows.front().country, "AZ");  // CS sorts first
  EXPECT_GT(r.spearman_strictness_vs_rate, 0.0);  // stricter had more trackers
}

}  // namespace
}  // namespace gam::analysis
