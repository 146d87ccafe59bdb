// The determinism contract, end to end: a multi-threaded full-study run must
// be indistinguishable from the serial run — same StudyStats, same
// per-country CountryAnalysis down to every per-site tracker hit — for any
// thread count, because every random draw comes from an order-independent
// (seed, country) substream and results merge in input country order.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>

#include "analysis/study.h"
#include "core/parallel_runner.h"
#include "worldgen/study.h"
#include "worldgen/world.h"

namespace gam {
namespace {

const worldgen::World& shared_world() {
  static const std::unique_ptr<worldgen::World> world = worldgen::generate_world({});
  return *world;
}

void print_funnel(std::ostringstream& os, const geoloc::FunnelCounters& f) {
  os << f.total << '/' << f.unknown_ip << '/' << f.local << '/' << f.nonlocal_candidates
     << '/' << f.after_sol_constraints << '/' << f.after_rdns << '/' << f.dest_traceroutes;
}

/// Byte-exact textual image of everything a study produced. Two runs are
/// considered identical iff their fingerprints are equal strings.
std::string fingerprint(const worldgen::StudyResult& study) {
  std::ostringstream os;
  os << "targets=" << study.targets_before_optout
     << " repaired=" << study.atlas_repaired_traces << '\n';

  for (const auto& ds : study.datasets) {
    os << "dataset " << ds.volunteer_id << ' ' << ds.country << ' ' << ds.disclosed_city
       << ' ' << ds.os << " ip=" << ds.volunteer_ip << " sites=" << ds.sites.size()
       << " loaded=" << ds.loaded_sites() << " traces=" << ds.traces.size()
       << " launched=" << ds.traceroutes_launched() << '\n';
  }

  for (const auto& a : study.analyses) {
    os << "country " << a.country << " domains=" << a.unique_domains
       << " ips=" << a.unique_ips << " traceroutes=" << a.traceroutes << " funnel=";
    print_funnel(os, a.funnel);
    os << " probes=";
    for (const auto& c : a.dest_probe_countries) os << c << ',';
    os << '\n';
    for (const auto& site : a.sites) {
      os << "  site " << site.site_domain << " kind=" << static_cast<int>(site.kind)
         << " loaded=" << site.loaded << " domains=" << site.total_domains
         << " nonlocal=" << site.nonlocal_domains << '\n';
      for (const auto& hit : site.trackers) {
        os << "    hit " << hit.domain << ' ' << hit.reg_domain << ' ' << hit.ip << ' '
           << hit.dest_country << ' ' << hit.dest_city << ' ' << hit.org << ' '
           << static_cast<int>(hit.method) << ' ' << hit.first_party << '\n';
      }
    }
  }

  const analysis::StudyStats stats = analysis::compute_study_stats(
      study.datasets, study.analyses, study.targets_before_optout);
  os << "stats " << stats.target_sites << ' ' << stats.attempted_sites << ' '
     << stats.unique_target_sites << ' ' << stats.loaded_sites << ' '
     << stats.load_success_pct << ' ' << stats.domains_recorded << ' '
     << stats.unique_domains << ' ' << stats.unique_ips << ' '
     << stats.volunteer_traceroutes << ' ' << stats.atlas_source_traceroutes << ' '
     << stats.dest_traceroutes << ' ' << stats.nonlocal_candidates << ' '
     << stats.after_sol << ' ' << stats.after_rdns << ' '
     << stats.tracker_domains_instances << ' ' << stats.unique_tracker_domains << ' '
     << stats.identified_by_lists << ' ' << stats.identified_manually << " dests=";
  for (const auto& c : stats.dest_trace_countries) os << c << ',';
  os << '\n';
  return os.str();
}

worldgen::StudyResult run_with_jobs(uint64_t seed, size_t jobs,
                                    std::vector<std::string> countries = {}) {
  worldgen::StudyOptions options;
  options.seed = seed;
  options.jobs = jobs;
  options.countries = std::move(countries);
  // The world is shared across runs and only read; run_study takes a
  // non-const ref purely for historical reasons.
  return worldgen::run_study(const_cast<worldgen::World&>(shared_world()), options);
}

TEST(ParallelStudy, FourThreadFullStudyMatchesSerialSeed7) {
  std::string serial = fingerprint(run_with_jobs(7, 1));
  std::string parallel = fingerprint(run_with_jobs(7, 4));
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(serial, parallel);
  // Sanity: the fingerprint actually covers a full 23-country study.
  EXPECT_EQ(std::count(serial.begin(), serial.end(), '\n') > 23, true);
}

TEST(ParallelStudy, FourThreadFullStudyMatchesSerialSeed1234) {
  std::string serial = fingerprint(run_with_jobs(1234, 1));
  std::string parallel = fingerprint(run_with_jobs(1234, 4));
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelStudy, OversubscribedAndHardwareJobsStillIdentical) {
  // More workers than countries, and the 0 = hardware-threads default.
  std::vector<std::string> subset = {"EG", "PK", "JP", "CA", "GB"};
  std::string serial = fingerprint(run_with_jobs(42, 1, subset));
  EXPECT_EQ(serial, fingerprint(run_with_jobs(42, 16, subset)));
  EXPECT_EQ(serial, fingerprint(run_with_jobs(42, 0, subset)));
}

TEST(ParallelStudy, DifferentSeedsDiffer) {
  std::vector<std::string> subset = {"EG", "PK"};
  EXPECT_NE(fingerprint(run_with_jobs(7, 2, subset)),
            fingerprint(run_with_jobs(8, 2, subset)));
}

TEST(ParallelStudy, RunnerMapPreservesInputOrder) {
  std::vector<std::string> countries = {"EG", "PK", "JP", "BR", "DE", "US", "GB", "IN"};
  core::ParallelStudyRunner runner(4, countries.size());
  EXPECT_EQ(runner.jobs(), 4u);
  std::vector<std::string> out(countries.size());
  runner.for_each_with_breaker(
      countries,
      [](size_t i, const std::string& code, int) { return std::to_string(i) + ":" + code; },
      [](size_t, const std::string&, const std::string& error) { return error; },
      [&out](size_t i, const std::string&, std::string&& r) { out[i] = std::move(r); });
  for (size_t i = 0; i < countries.size(); ++i) {
    EXPECT_EQ(out[i], std::to_string(i) + ":" + countries[i]);
  }
}

TEST(ParallelStudy, ResolveJobs) {
  EXPECT_EQ(core::ParallelStudyRunner::resolve_jobs(3), 3u);
  EXPECT_GE(core::ParallelStudyRunner::resolve_jobs(0), 1u);
}

TEST(ParallelStudy, RunnerNeverStartsMoreWorkersThanCountries) {
  EXPECT_EQ(core::ParallelStudyRunner(16, 2).jobs(), 2u);
  EXPECT_EQ(core::ParallelStudyRunner(0, 1).jobs(), 1u);
  EXPECT_EQ(core::ParallelStudyRunner(3, 0).jobs(), 1u);
}

TEST(ParallelStudy, UnknownCountryIsRejectedBeforeAnySession) {
  EXPECT_THROW(run_with_jobs(7, 2, {"ZZ"}), std::invalid_argument);
  EXPECT_THROW(run_with_jobs(7, 2, {"US", "ZZ"}), std::invalid_argument);
}

}  // namespace
}  // namespace gam
