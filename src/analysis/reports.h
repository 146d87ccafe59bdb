// The six paper reports, written once: Figure 3 prevalence, Table 1 policy,
// Figure 4 per-site counts, Figure 5 flows, Figure 2b coverage and the §5
// funnel. Each is a template over a small read-only study view, and exactly
// two views exist: MemoryView below reads the in-memory CountryAnalysis
// tree, and store/reports.cpp's view reads a mapped GMST store's columns in
// place. Each report is instantiated once per view at compile time, so the
// store path makes no virtual call per row and rebuilds no CountryAnalysis.
//
// A view V names sites and hits by opaque handles and provides:
//   size_t countries()                    rows, in study (input) order
//   std::string_view code(c)              country c's code
//   sites(c)                              a sized range of c's site handles
//   web::SiteKind kind(s), bool loaded(s)
//   hits(s)                               a sized range of s's hit handles,
//                                         one per distinct non-local tracker
//   std::string_view dest_country(h)      the hit's hosting country
//   CountryFunnel funnel(c)               country c's §5 tallies
//
// Only analysis/reports.cpp (the in-memory entry points) and
// store/reports.cpp (the store entry points) include this header; everyone
// else calls those entry points.
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/flows.h"
#include "analysis/per_site.h"
#include "analysis/policy.h"
#include "analysis/prevalence.h"
#include "analysis/report_json.h"
#include "util/json.h"
#include "util/stats.h"
#include "world/country.h"

namespace gam::analysis {

/// One country's §5 accounting, as the funnel report renders it.
struct CountryFunnel {
  size_t unique_domains = 0, unique_ips = 0, traceroutes = 0;
  size_t nonlocal_candidates = 0, after_sol = 0, after_rdns = 0, dest_traceroutes = 0;
};

/// The in-memory view: handles are the SiteAnalysis / TrackerHit objects.
class MemoryView {
 public:
  explicit MemoryView(std::span<const CountryAnalysis> countries) : countries_(countries) {}

  size_t countries() const { return countries_.size(); }
  std::string_view code(size_t c) const { return countries_[c].country; }
  const std::vector<SiteAnalysis>& sites(size_t c) const { return countries_[c].sites; }
  web::SiteKind kind(const SiteAnalysis& s) const { return s.kind; }
  bool loaded(const SiteAnalysis& s) const { return s.loaded; }
  const std::vector<TrackerHit>& hits(const SiteAnalysis& s) const { return s.trackers; }
  std::string_view dest_country(const TrackerHit& h) const { return h.dest_country; }
  CountryFunnel funnel(size_t c) const {
    const CountryAnalysis& a = countries_[c];
    return {a.unique_domains,
            a.unique_ips,
            a.traceroutes,
            a.funnel.nonlocal_candidates,
            a.funnel.after_sol_constraints,
            a.funnel.after_rdns,
            a.funnel.dest_traceroutes};
  }

 private:
  std::span<const CountryAnalysis> countries_;
};

inline double percent(size_t part, size_t whole) {
  return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) / whole;
}

/// % of country c's loaded sites (of one kind, if given) that embed at
/// least one non-local tracker, and the loaded-site denominator.
template <class View>
std::pair<double, size_t> pct_with_tracker(const View& view, size_t c,
                                           std::optional<web::SiteKind> kind) {
  size_t loaded = 0, with = 0;
  for (const auto& s : view.sites(c)) {
    if (kind && view.kind(s) != *kind) continue;
    if (!view.loaded(s)) continue;
    ++loaded;
    if (!view.hits(s).empty()) ++with;
  }
  return {percent(with, loaded), loaded};
}

template <class View>
PrevalenceReport prevalence_of(const View& view) {
  PrevalenceReport report;
  std::vector<double> reg, gov;
  for (size_t c = 0; c < view.countries(); ++c) {
    PrevalenceRow row;
    row.country = std::string(view.code(c));
    std::tie(row.pct_reg, row.n_reg) = pct_with_tracker(view, c, web::SiteKind::Regional);
    std::tie(row.pct_gov, row.n_gov) = pct_with_tracker(view, c, web::SiteKind::Government);
    reg.push_back(row.pct_reg);
    gov.push_back(row.pct_gov);
    report.rows.push_back(std::move(row));
  }
  report.mean_reg = util::mean(reg);
  report.stddev_reg = util::stddev(reg);
  report.mean_gov = util::mean(gov);
  report.stddev_gov = util::stddev(gov);
  report.pearson_reg_gov = util::pearson(reg, gov);
  return report;
}

/// Reads each country's policy class from world::CountryDb, which aborts on
/// a code it does not know: callers serving foreign stores check first.
template <class View>
PolicyReport policy_of(const View& view) {
  PolicyReport report;
  std::vector<double> strictness, rate;
  for (size_t c = 0; c < view.countries(); ++c) {
    const world::CountryInfo& info = world::CountryDb::instance().at(view.code(c));
    PolicyRow row;
    row.country = std::string(view.code(c));
    row.policy = info.policy;
    row.enacted = info.policy_enacted;
    row.nonlocal_pct = pct_with_tracker(view, c, std::nullopt).first;
    strictness.push_back(world::policy_strictness(info.policy));
    rate.push_back(row.nonlocal_pct);
    report.rows.push_back(std::move(row));
  }
  report.spearman_strictness_vs_rate = util::spearman(strictness, rate);
  std::stable_sort(report.rows.begin(), report.rows.end(),
                   [](const PolicyRow& a, const PolicyRow& b) {
                     int sa = world::policy_strictness(a.policy);
                     int sb = world::policy_strictness(b.policy);
                     if (sa != sb) return sa > sb;
                     return a.country < b.country;
                   });
  return report;
}

/// Per loaded, tracked site of country c (optionally one kind): the number
/// of distinct non-local tracker domains.
template <class View>
std::vector<double> tracker_counts_of(const View& view, size_t c,
                                      std::optional<web::SiteKind> kind) {
  std::vector<double> out;
  for (const auto& s : view.sites(c)) {
    if (kind && view.kind(s) != *kind) continue;
    size_t hits = view.hits(s).size();
    if (!view.loaded(s) || hits == 0) continue;
    out.push_back(static_cast<double>(hits));
  }
  return out;
}

template <class View>
PerSiteReport per_site_of(const View& view) {
  PerSiteReport report;
  for (size_t c = 0; c < view.countries(); ++c) {
    PerSiteRow row;
    row.country = std::string(view.code(c));
    row.reg = util::box_stats(tracker_counts_of(view, c, web::SiteKind::Regional));
    row.gov = util::box_stats(tracker_counts_of(view, c, web::SiteKind::Government));
    std::vector<double> all = tracker_counts_of(view, c, std::nullopt);
    row.combined = util::box_stats(all);
    row.skew_combined = util::skewness(all);
    report.rows.push_back(std::move(row));
  }
  return report;
}

/// Each loaded, tracked site counts once per distinct destination its
/// trackers reach. Destinations are collected as views into the study, so
/// a string is copied once per (site, destination), never per hit.
template <class View>
FlowsReport flows_of(const View& view) {
  FlowsReport report;
  std::map<std::string, std::set<std::string>> fanin, fanin_reg, fanin_gov;
  std::map<std::string, size_t> dest_site_count;
  std::set<std::string_view> dests;
  for (size_t c = 0; c < view.countries(); ++c) {
    const std::string source(view.code(c));
    for (const auto& s : view.sites(c)) {
      if (!view.loaded(s) || view.hits(s).empty()) continue;
      ++report.sites_with_nonlocal;
      ++report.source_site_counts[source];
      dests.clear();
      for (const auto& h : view.hits(s)) dests.insert(view.dest_country(h));
      auto& fanin_kind = view.kind(s) == web::SiteKind::Regional ? fanin_reg : fanin_gov;
      for (std::string_view d : dests) {
        const std::string dest(d);
        ++report.website_flows[source][dest];
        ++dest_site_count[dest];
        fanin[dest].insert(source);
        fanin_kind[dest].insert(source);
      }
    }
  }
  for (const auto& [dest, n] : dest_site_count) {
    report.dest_pct[dest] = percent(n, report.sites_with_nonlocal);
  }
  for (const auto& [dest, sources] : fanin) report.dest_fanin[dest] = sources.size();
  for (const auto& [dest, sources] : fanin_reg) report.dest_fanin_reg[dest] = sources.size();
  for (const auto& [dest, sources] : fanin_gov) report.dest_fanin_gov[dest] = sources.size();
  return report;
}

/// {"rows": [{country, sites, loaded, pct}...]}
template <class View>
util::Json coverage_of(const View& view) {
  util::Json rows = util::Json::array();
  for (size_t c = 0; c < view.countries(); ++c) {
    size_t n = view.sites(c).size(), loaded = 0;
    for (const auto& s : view.sites(c)) {
      if (view.loaded(s)) ++loaded;
    }
    util::Json row = util::Json::object();
    row["country"] = std::string(view.code(c));
    row["sites"] = n;
    row["loaded"] = loaded;
    row["pct"] = percent(loaded, n);
    rows.push_back(std::move(row));
  }
  util::Json doc = util::Json::object();
  doc["rows"] = std::move(rows);
  return doc;
}

/// Per-country §5 tallies plus study-wide totals.
template <class View>
util::Json funnel_of(const View& view) {
  util::Json rows = util::Json::array();
  CountryFunnel total;
  for (size_t c = 0; c < view.countries(); ++c) {
    CountryFunnel f = view.funnel(c);
    util::Json row = util::Json::object();
    row["country"] = std::string(view.code(c));
    row["unique_domains"] = f.unique_domains;
    row["unique_ips"] = f.unique_ips;
    row["traceroutes"] = f.traceroutes;
    row["nonlocal_candidates"] = f.nonlocal_candidates;
    row["after_sol"] = f.after_sol;
    row["after_rdns"] = f.after_rdns;
    row["dest_traceroutes"] = f.dest_traceroutes;
    total.nonlocal_candidates += f.nonlocal_candidates;
    total.after_sol += f.after_sol;
    total.after_rdns += f.after_rdns;
    total.dest_traceroutes += f.dest_traceroutes;
    rows.push_back(std::move(row));
  }
  util::Json doc = util::Json::object();
  doc["rows"] = std::move(rows);
  util::Json totals = util::Json::object();
  totals["nonlocal_candidates"] = total.nonlocal_candidates;
  totals["after_sol"] = total.after_sol;
  totals["after_rdns"] = total.after_rdns;
  totals["dest_traceroutes"] = total.dest_traceroutes;
  doc["totals"] = std::move(totals);
  return doc;
}

}  // namespace gam::analysis
