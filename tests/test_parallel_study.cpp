// The determinism contract, end to end: a multi-threaded full-study run must
// be indistinguishable from the serial run — same StudyStats, same
// per-country CountryAnalysis down to every per-site tracker hit — for any
// thread count, because every random draw comes from an order-independent
// (seed, country) substream and results merge in input country order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "analysis/study.h"
#include "core/parallel_runner.h"
#include "core/recorder.h"
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

// Every published trace (the OS tool's text, normalized) agrees with the
// typed values the analysis reads, to the precision the text prints: "%.3f"
// ms for GNU and macOS traceroute (and Atlas), whole ms and "<1" for tracert.
TEST(ParallelStudy, PublishedTracesAgreeWithTypedValues) {
  const worldgen::StudyResult study = run_with_jobs(42, 4);
  auto mean_rtt = [](const util::Json& hop) {
    const util::JsonArray& rtts = hop.find("rtt_ms")->items();
    double sum = 0.0;
    for (const util::Json& r : rtts) sum += r.as_number();
    return sum / static_cast<double>(rtts.size());
  };
  std::map<std::string, size_t> per_os;
  size_t atlas = 0;
  double worst_text = 0.0, worst_tracert = 0.0;
  for (const auto& ds : study.datasets) {
    const util::Json doc = core::dataset_to_json(ds);
    for (const auto& [ip, tr] : doc.find("traces")->fields()) {
      SCOPED_TRACE(ds.country + " " + ip);
      const std::string os = tr.get_string("os");
      ++per_os[os];
      if (tr.get_string("source").rfind("atlas:", 0) == 0) ++atlas;
      ASSERT_FALSE(tr.has("normalize_error")) << tr.get_string("normalize_error");
      const util::Json* normalized = tr.find("normalized");
      ASSERT_TRUE(normalized && normalized->is_object());
      const bool reached = tr.get_bool("reached");
      EXPECT_EQ(normalized->get_bool("reached"), reached);

      const bool tracert = os == "windows";
      double& worst = tracert ? worst_tracert : worst_text;
      const double precision = (tracert ? 0.5 : 0.0005) + 1e-9;
      auto expect_rtt = [&](double published, double typed) {
        worst = std::max(worst, std::abs(published - typed));
        EXPECT_NEAR(published, typed, precision);
      };
      const util::JsonArray& hops = normalized->find("hops")->items();
      auto first = std::find_if(hops.begin(), hops.end(), [](const util::Json& hop) {
        return hop.find("ip")->is_string() && hop.find("rtt_ms")->size() > 0;
      });
      expect_rtt(first == hops.end() ? 0.0 : mean_rtt(*first), tr.get_number("first_hop_ms"));
      if (reached) expect_rtt(mean_rtt(hops.back()), tr.get_number("last_hop_ms"));
    }
  }
  // Every tool and the Atlas repair are covered.
  EXPECT_GT(per_os["linux"], 0u);
  EXPECT_GT(per_os["macos"], 0u);
  EXPECT_GT(per_os["windows"], 0u);
  EXPECT_GT(atlas, 0u);
  RecordProperty("linux", static_cast<int>(per_os["linux"]));
  RecordProperty("macos", static_cast<int>(per_os["macos"]));
  RecordProperty("windows", static_cast<int>(per_os["windows"]));
  RecordProperty("atlas", static_cast<int>(atlas));
  RecordProperty("worst_text_ms", std::to_string(worst_text));
  RecordProperty("worst_tracert_ms", std::to_string(worst_tracert));
}

TEST(ParallelStudy, UnknownCountryIsRejectedBeforeAnySession) {
  EXPECT_THROW(run_with_jobs(7, 2, {"ZZ"}), std::invalid_argument);
  EXPECT_THROW(run_with_jobs(7, 2, {"US", "ZZ"}), std::invalid_argument);
}

}  // namespace
}  // namespace gam
