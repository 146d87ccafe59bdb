// The hand-checked two-country fixture behind test_analysis's expected
// values, shared with test_store's edge round trip.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "analysis/dataset.h"
#include "web/psl.h"

namespace gam::analysis {

inline TrackerHit hit(std::string domain, std::string dest, std::string org = "Google",
                      bool first_party = false) {
  TrackerHit h;
  h.domain = domain;
  h.reg_domain = web::registrable_domain(domain);
  h.dest_country = std::move(dest);
  h.org = std::move(org);
  h.first_party = first_party;
  h.method = trackers::IdMethod::EasyList;
  return h;
}

inline SiteAnalysis site(std::string domain, std::string country, web::SiteKind kind,
                         std::vector<TrackerHit> trackers, bool loaded = true) {
  SiteAnalysis s;
  s.site_domain = std::move(domain);
  s.country = std::move(country);
  s.kind = kind;
  s.loaded = loaded;
  s.trackers = std::move(trackers);
  s.nonlocal_domains = s.trackers.size();
  s.total_domains = s.trackers.size() + 3;
  return s;
}

// Two-country fixture: New Zealand (high prevalence, flows to AU) and
// Canada (clean).
inline std::vector<CountryAnalysis> fixture() {
  CountryAnalysis nz;
  nz.country = "NZ";
  nz.sites = {
      site("news.co.nz", "NZ", web::SiteKind::Regional,
           {hit("stats.g.doubleclick.net", "AU"), hit("connect.facebook.net", "AU", "Facebook"),
            hit("cdn.taboola.com", "US", "Taboola")}),
      site("shop.co.nz", "NZ", web::SiteKind::Regional, {hit("ads.twitter.com", "AU", "Twitter")}),
      site("blog.co.nz", "NZ", web::SiteKind::Regional, {}),       // no non-local trackers
      site("dead.co.nz", "NZ", web::SiteKind::Regional, {}, false),  // failed load
      site("moi.govt.nz", "NZ", web::SiteKind::Government,
           {hit("www.google-analytics.com", "AU")}),
      site("tax.govt.nz", "NZ", web::SiteKind::Government, {}),
      site("google.co.nz", "NZ", web::SiteKind::Regional,
           {hit("www.googleapis.com", "AU", "Google", /*first_party=*/true)}),
  };
  CountryAnalysis ca;
  ca.country = "CA";
  ca.sites = {
      site("news.gc.ca", "CA", web::SiteKind::Government, {}),
      site("shop-ca.com", "CA", web::SiteKind::Regional, {}),
  };
  return {nz, ca};
}

}  // namespace gam::analysis
