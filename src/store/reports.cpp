#include "store/reports.h"

#include <ranges>
#include <string>

#include "analysis/reports.h"
#include "world/country.h"

namespace gam::store {

namespace {

/// The store's study view (see analysis/reports.h): site and hit handles
/// are row numbers, and every accessor reads a mapped column in place.
class StoreView {
 public:
  explicit StoreView(const Reader& reader) : r_(reader) {}

  size_t countries() const { return r_.num_countries(); }
  std::string_view code(size_t c) const { return r_.countries().code.at(c); }
  auto sites(size_t c) const {
    const auto& offsets = r_.countries().site_offsets;
    return std::views::iota(offsets[c], offsets[c + 1]);
  }
  web::SiteKind kind(uint64_t s) const {
    return r_.sites().kind.at(s) == 1 ? web::SiteKind::Government : web::SiteKind::Regional;
  }
  bool loaded(uint64_t s) const { return r_.sites().loaded.at(s) != 0; }
  auto hits(uint64_t s) const {
    const auto& offsets = r_.sites().hit_offsets;
    return std::views::iota(offsets[s], offsets[s + 1]);
  }
  std::string_view dest_country(uint64_t h) const { return r_.hits().dest_country.at(h); }
  analysis::CountryFunnel funnel(size_t c) const {
    const CountriesView& C = r_.countries();
    return {C.unique_domains.at(c),   C.unique_ips.at(c),       C.traceroutes.at(c),
            C.funnel_nonlocal.at(c),  C.funnel_after_sol.at(c), C.funnel_after_rdns.at(c),
            C.funnel_dest_traces.at(c)};
  }

 private:
  const Reader& r_;
};

}  // namespace

analysis::PrevalenceReport prevalence_report(const Reader& reader) {
  return analysis::prevalence_of(StoreView(reader));
}

analysis::PolicyReport policy_report(const Reader& reader) {
  return analysis::policy_of(StoreView(reader));
}

analysis::PerSiteReport per_site_report(const Reader& reader) {
  return analysis::per_site_of(StoreView(reader));
}

analysis::FlowsReport flows_report(const Reader& reader) {
  return analysis::flows_of(StoreView(reader));
}

util::Json coverage_json(const Reader& reader) {
  return analysis::coverage_of(StoreView(reader));
}

util::Json funnel_json(const Reader& reader) { return analysis::funnel_of(StoreView(reader)); }

util::Json summary_json(const Reader& reader) {
  return analysis::study_summary_json(reader.num_countries(), prevalence_report(reader),
                                      flows_report(reader));
}

util::StatusOr<util::Json> report_json(const Reader& reader, std::string_view name) {
  if (name == "summary") return summary_json(reader);
  if (name == "prevalence") return analysis::to_json(prevalence_report(reader));
  if (name == "policy") {
    for (size_t c = 0; c < reader.num_countries(); ++c) {
      std::string_view code = reader.countries().code.at(c);
      if (!world::CountryDb::instance().find(code)) {
        return util::Status::failed_precondition("policy: no policy record for country code '" +
                                                 std::string(code) + "'");
      }
    }
    return analysis::to_json(policy_report(reader));
  }
  if (name == "per-site") return analysis::to_json(per_site_report(reader));
  if (name == "flows") return analysis::to_json(flows_report(reader));
  if (name == "coverage") return coverage_json(reader);
  if (name == "funnel") return funnel_json(reader);
  return util::Status::invalid_argument(
      "unknown report '" + std::string(name) +
      "' (summary|prevalence|policy|per-site|flows|coverage|funnel)");
}

}  // namespace gam::store
