// Quickstart: the smallest end-to-end use of the library.
//
// Generates the simulated world, runs one Gamma volunteer session (New
// Zealand by default, or the country code passed as argv[1]), repairs and
// analyzes the dataset, and prints what the paper's pipeline would report
// for that country: load coverage, the geolocation funnel, and the
// non-local tracker summary.
#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/prevalence.h"
#include "util/logging.h"
#include "worldgen/study.h"
#include "worldgen/world.h"

int main(int argc, char** argv) {
  using namespace gam;
  util::set_log_level(util::LogLevel::Info);

  std::string country = argc > 1 ? argv[1] : "NZ";
  worldgen::StudyOptions options;
  options.countries = {country};
  // The rules every front door checks, before the world is built.
  if (util::Status request = worldgen::check_study_request({}, options); !request.ok()) {
    std::fprintf(stderr, "%s\n", request.message().c_str());
    return 1;
  }

  std::printf("== Gamma quickstart: measuring from %s ==\n\n", country.c_str());
  std::printf("Generating the simulated Internet + web...\n");
  auto world = worldgen::generate_world({});
  worldgen::StudyResult study = worldgen::run_study(*world, options);

  const core::VolunteerDataset& ds = study.datasets.front();
  const analysis::CountryAnalysis& a = study.analyses.front();

  std::printf("\n-- Collection (Fig 1, Box 1) --\n");
  std::printf("target websites attempted : %zu\n", ds.attempted_sites());
  std::printf("loaded successfully       : %zu (%.1f%%)\n", ds.loaded_sites(),
              100.0 * ds.loaded_sites() / std::max<size_t>(1, ds.attempted_sites()));
  std::printf("unique domains observed   : %zu\n", a.unique_domains);
  std::printf("unique server addresses   : %zu\n", a.unique_ips);
  std::printf("source traceroutes        : %zu\n", a.traceroutes);

  std::printf("\n-- Geolocation funnel (§4.1) --\n");
  std::printf("non-local candidates      : %zu\n", a.funnel.nonlocal_candidates);
  std::printf("after SOL constraints     : %zu\n", a.funnel.after_sol_constraints);
  std::printf("after reverse-DNS         : %zu\n", a.funnel.after_rdns);
  std::printf("destination traceroutes   : %zu\n", a.funnel.dest_traceroutes);

  analysis::PrevalenceReport prev = analysis::compute_prevalence(study.analyses);
  const analysis::PrevalenceRow& row = prev.rows.front();
  std::printf("\n-- Non-local trackers (§6.1) --\n");
  std::printf("regional sites with non-local trackers  : %.1f%% (of %zu)\n", row.pct_reg,
              row.n_reg);
  std::printf("government sites with non-local trackers: %.1f%% (of %zu)\n", row.pct_gov,
              row.n_gov);

  // Top destination countries for this source.
  std::map<std::string, size_t> dests;
  for (const auto& site : a.sites) {
    std::set<std::string> site_dests;
    for (const auto& t : site.trackers) site_dests.insert(t.dest_country);
    for (const auto& d : site_dests) ++dests[d];
  }
  std::printf("\n-- Destination countries (websites using each) --\n");
  std::vector<std::pair<size_t, std::string>> ranked;
  for (const auto& [d, n] : dests) ranked.push_back({n, d});
  std::sort(ranked.rbegin(), ranked.rend());
  for (size_t i = 0; i < ranked.size() && i < 8; ++i) {
    std::printf("  %-3s %zu websites\n", ranked[i].second.c_str(), ranked[i].first);
  }
  std::printf("\nDone.\n");
  return 0;
}
