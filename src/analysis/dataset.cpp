#include "analysis/dataset.h"

#include <set>

#include "trackers/org_db.h"
#include "web/psl.h"
#include "world/country.h"

namespace gam::analysis {

CountryAnalyzer::CountryAnalyzer(const geoloc::MultiConstraintGeolocator& geolocator,
                                 const trackers::TrackerIdentifier& identifier,
                                 const web::WebUniverse& universe)
    : geolocator_(geolocator), identifier_(identifier), universe_(universe) {}

namespace {

// A domain's fate after geolocation + identification, cached per country.
struct DomainFate {
  geoloc::GeoVerdict verdict;
  trackers::IdentifyResult id;  // only meaningful for confirmed non-local
  net::IPv4 ip = 0;
};

geo::Coord volunteer_coord(const core::VolunteerDataset& dataset) {
  const world::CountryInfo& country = world::CountryDb::instance().at(dataset.country);
  for (const auto& c : country.cities) {
    if (c.name == dataset.disclosed_city) return c.coord;
  }
  return country.primary_city().coord;
}

web::SiteKind site_kind_of(const web::WebUniverse& universe, const std::string& domain,
                           const std::string& country) {
  if (const web::Website* site = universe.find(domain)) return site->kind;
  // Fall back to government-TLD classification (§3.2's definition).
  for (const auto& tld : world::CountryDb::instance().at(country).gov_tlds) {
    if (web::host_within(domain, tld)) return web::SiteKind::Government;
  }
  return web::SiteKind::Regional;
}

}  // namespace

CountryAnalysis CountryAnalyzer::analyze(const core::VolunteerDataset& dataset,
                                         util::Rng& rng) const {
  CountryAnalysis out;
  out.country = dataset.country;
  geo::Coord coord = volunteer_coord(dataset);

  // ---- Pass 1: classify every unique content domain once per country. ----
  // (The paper's §5 counts — 26K domains, 14K non-local, ... — are sums of
  // per-country unique domains, so uniqueness is per country here.)
  std::map<std::string, DomainFate> fate;
  std::map<std::string, std::pair<std::string, web::ResourceType>> sample_request;
  std::set<net::IPv4> ips_seen;
  for (const auto& site : dataset.sites) {
    for (const auto& req : site.page.requests) {
      if (req.background || !req.completed || req.ip == 0) continue;
      ips_seen.insert(req.ip);
      if (!sample_request.count(req.domain)) {
        sample_request[req.domain] = {req.url, req.type};
      }
      if (fate.count(req.domain)) continue;

      DomainFate f;
      f.ip = req.ip;
      geoloc::ServerObservation obs;
      obs.ip = req.ip;
      obs.volunteer_country = dataset.country;
      obs.volunteer_city = dataset.disclosed_city;
      obs.volunteer_coord = coord;
      if (auto it = dataset.traces.find(req.ip); it != dataset.traces.end()) {
        obs.src_trace_attempted = it->second.attempted;
        obs.src_trace_reached = it->second.reached;
        obs.src_trace_fault = it->second.fault_injected;
        obs.src_first_hop_ms = it->second.first_hop_ms;
        obs.src_last_hop_ms = it->second.last_hop_ms;
      }
      if (auto it = site.rdns.find(req.ip); it != site.rdns.end()) {
        obs.rdns = it->second;
      }
      f.verdict = geolocator_.classify(obs, rng);
      out.funnel.absorb(f.verdict);
      if (!f.verdict.dest_probe_country.empty()) {
        out.dest_probe_countries.insert(f.verdict.dest_probe_country);
      }

      if (f.verdict.confirmed_nonlocal()) {
        trackers::RequestContext ctx;
        ctx.url = req.url;
        ctx.host = req.domain;
        ctx.page_host = site.page.site_domain;
        ctx.type = req.type;
        ctx.third_party = web::registrable_domain(req.domain) !=
                          web::registrable_domain(site.page.site_domain);
        f.id = identifier_.identify(ctx, dataset.country);
      }
      fate.emplace(req.domain, std::move(f));
    }
  }
  out.unique_domains = fate.size();
  out.unique_ips = ips_seen.size();
  out.traceroutes = dataset.traceroutes_launched();

  // ---- Pass 2: per-site view. ----
  for (const auto& site : dataset.sites) {
    SiteAnalysis sa;
    sa.site_domain = site.page.site_domain;
    sa.country = dataset.country;
    sa.kind = site_kind_of(universe_, sa.site_domain, dataset.country);
    sa.loaded = site.page.loaded;

    std::set<std::string> site_domains;
    std::set<std::string> tracker_domains;
    const trackers::Organization* site_org =
        trackers::OrgDb::instance().org_of_host(sa.site_domain);
    for (const auto& req : site.page.requests) {
      if (req.background || !req.completed || req.ip == 0) continue;
      if (!site_domains.insert(req.domain).second) continue;
      auto it = fate.find(req.domain);
      if (it == fate.end()) continue;
      const DomainFate& f = it->second;
      if (!f.verdict.confirmed_nonlocal()) continue;
      ++sa.nonlocal_domains;
      if (!f.id.is_tracker) continue;
      if (!tracker_domains.insert(req.domain).second) continue;

      TrackerHit hit;
      hit.domain = req.domain;
      hit.reg_domain = web::registrable_domain(req.domain);
      hit.ip = f.ip;
      hit.dest_country = f.verdict.claim.country;
      hit.dest_city = f.verdict.claim.city;
      hit.org = f.id.org;
      hit.method = f.id.method;
      const trackers::Organization* tracker_org =
          trackers::OrgDb::instance().org_of_host(req.domain);
      hit.first_party = site_org && tracker_org && site_org == tracker_org;
      sa.trackers.push_back(std::move(hit));
    }
    sa.total_domains = site_domains.size();
    out.sites.push_back(std::move(sa));
  }
  return out;
}

}  // namespace gam::analysis
