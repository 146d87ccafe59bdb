#include "analysis/flows.h"

#include <algorithm>

namespace gam::analysis {

double FlowsReport::dest_pct_excluding(std::string_view dest,
                                       std::string_view excluded_source) const {
  size_t total = 0, with_dest = 0;
  for (const auto& [source, dests] : website_flows) {
    if (source == excluded_source) continue;
    for (const auto& [d, n] : dests) {
      if (d == dest) with_dest += n;
    }
  }
  // Denominator: all sites with non-local trackers outside the excluded source.
  size_t excluded_sites = 0;
  if (auto it = source_site_counts.find(std::string(excluded_source));
      it != source_site_counts.end()) {
    excluded_sites = it->second;
  }
  total = sites_with_nonlocal - excluded_sites;
  if (total == 0) return 0.0;
  return 100.0 * static_cast<double>(with_dest) / static_cast<double>(total);
}

std::vector<std::pair<std::string, double>> FlowsReport::ranked_destinations() const {
  std::vector<std::pair<std::string, double>> out(dest_pct.begin(), dest_pct.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

}  // namespace gam::analysis
