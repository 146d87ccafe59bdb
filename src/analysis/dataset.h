// Analysis dataset assembly — Figure 1, Box 2.
//
// Input: one volunteer's (scrubbed) dataset. For every *unique* content
// domain observed in that country the assembler builds a ServerObservation
// (source traceroute + reverse DNS), runs the multi-constraint geolocation
// pipeline, and — for confirmed non-local domains — runs tracker
// identification. The result is a per-site view of confirmed non-local
// tracker domains annotated with destination country, organization, and
// first/third-party status: the exact substrate on which every §6 analysis
// and Table 1 is computed.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/recorder.h"
#include "core/session.h"
#include "geoloc/pipeline.h"
#include "trackers/identify.h"
#include "web/website.h"

namespace gam::analysis {

/// One confirmed non-local tracker domain on one website.
struct TrackerHit {
  std::string domain;      // full request host (the paper's "domain", §6.2)
  std::string reg_domain;  // eTLD+1
  net::IPv4 ip = 0;
  std::string dest_country;  // confirmed hosting country (ISO)
  std::string dest_city;
  std::string org;  // owning organization ("" if unattributed)
  trackers::IdMethod method = trackers::IdMethod::None;
  bool first_party = false;  // same organization as the website (§6.7)
};

struct SiteAnalysis {
  std::string site_domain;
  std::string country;  // measurement country
  web::SiteKind kind = web::SiteKind::Regional;
  bool loaded = false;
  size_t total_domains = 0;     // unique content domains on the page
  size_t nonlocal_domains = 0;  // confirmed non-local (tracker or not)
  std::vector<TrackerHit> trackers;  // unique per full host

  bool has_nonlocal_tracker() const { return !trackers.empty(); }
};

struct CountryAnalysis {
  std::string country;
  std::vector<SiteAnalysis> sites;

  // §5 accounting for this country.
  size_t unique_domains = 0;
  size_t unique_ips = 0;
  size_t traceroutes = 0;
  geoloc::FunnelCounters funnel;  // this country's share of the funnel
  std::set<std::string> dest_probe_countries;  // where destination probes sat
};

/// Assembles CountryAnalysis objects. Holds non-owning references to the
/// shared pipeline pieces; one analyzer serves all countries.
class CountryAnalyzer {
 public:
  CountryAnalyzer(const geoloc::MultiConstraintGeolocator& geolocator,
                  const trackers::TrackerIdentifier& identifier,
                  const web::WebUniverse& universe);

  /// Analyze one volunteer dataset. The dataset must already be scrubbed of
  /// webdriver noise (core::scrub_webdriver_noise); requests still marked
  /// background are ignored defensively.
  CountryAnalysis analyze(const core::VolunteerDataset& dataset, util::Rng& rng) const;

 private:
  const geoloc::MultiConstraintGeolocator& geolocator_;
  const trackers::TrackerIdentifier& identifier_;
  const web::WebUniverse& universe_;
};

}  // namespace gam::analysis
