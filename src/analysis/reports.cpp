// The in-memory entry points of the shared report loops (reports.h).
#include "analysis/reports.h"

namespace gam::analysis {

PrevalenceReport compute_prevalence(const std::vector<CountryAnalysis>& countries) {
  return prevalence_of(MemoryView(countries));
}

PolicyReport compute_policy(const std::vector<CountryAnalysis>& countries) {
  return policy_of(MemoryView(countries));
}

PerSiteReport compute_per_site(const std::vector<CountryAnalysis>& countries) {
  return per_site_of(MemoryView(countries));
}

std::vector<double> tracker_counts(const CountryAnalysis& country,
                                   std::optional<web::SiteKind> kind) {
  return tracker_counts_of(MemoryView({&country, 1}), 0, kind);
}

FlowsReport compute_flows(const std::vector<CountryAnalysis>& countries) {
  return flows_of(MemoryView(countries));
}

util::Json coverage_json(const std::vector<CountryAnalysis>& countries) {
  return coverage_of(MemoryView(countries));
}

util::Json funnel_json(const std::vector<CountryAnalysis>& countries) {
  return funnel_of(MemoryView(countries));
}

}  // namespace gam::analysis
