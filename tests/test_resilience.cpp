// The resilience acceptance criteria, end to end: a faulty study is
// deterministic across thread counts, an armed-but-zero plan changes
// nothing, a hostile plan degrades coverage instead of crashing or hanging,
// and checkpoint/resume reproduces an uninterrupted run byte-for-byte.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/recorder.h"
#include "util/fault.h"
#include "web/browser.h"
#include "util/metrics.h"
#include "worldgen/checkpoint.h"
#include "worldgen/study.h"
#include "worldgen/world.h"

namespace gam {
namespace {

const worldgen::World& shared_world() {
  static const std::unique_ptr<worldgen::World> world = worldgen::generate_world({});
  return *world;
}

/// Byte-exact image of everything a study run ships: the full serialized
/// datasets (the same JSON the CLI writes) plus analysis totals. Stronger
/// than test_parallel_study's summary fingerprint — any drift in any stored
/// field shows up here.
std::string fingerprint(const worldgen::StudyResult& study) {
  std::ostringstream os;
  os << "targets=" << study.targets_before_optout
     << " repaired=" << study.atlas_repaired_traces << " degraded=";
  for (const auto& c : study.degraded_countries) os << c << ',';
  os << '\n';
  for (const auto& ds : study.datasets) {
    os << core::dataset_to_json(ds).dump() << '\n';
  }
  for (const auto& a : study.analyses) {
    const auto& f = a.funnel;
    os << a.country << ' ' << a.unique_domains << ' ' << a.unique_ips << ' '
       << a.traceroutes << ' ' << f.total << '/' << f.unknown_ip << '/' << f.local << '/'
       << f.nonlocal_candidates << '/' << f.after_sol_constraints << '/' << f.after_rdns
       << '/' << f.dest_traceroutes << '\n';
    for (const auto& site : a.sites) {
      os << "  " << site.site_domain << ' ' << site.loaded << ' ' << site.total_domains
         << ' ' << site.nonlocal_domains << " hits=" << site.trackers.size() << '\n';
    }
  }
  return os.str();
}

util::FaultPlan hostile_plan() {
  util::FaultPlan plan;
  plan.dns_timeout = 0.10;
  plan.dns_servfail = 0.05;
  plan.trace_timeout = 0.20;
  plan.trace_hop_loss = 0.10;
  plan.browser_hang = 0.05;
  plan.browser_reset = 0.05;
  plan.browser_slow = 0.10;
  plan.atlas_unavailable = 0.20;
  return plan;
}

worldgen::StudyResult run(worldgen::StudyOptions options) {
  return worldgen::run_study(const_cast<worldgen::World&>(shared_world()), options);
}

worldgen::StudyOptions subset_options(std::vector<std::string> countries) {
  worldgen::StudyOptions options;
  options.seed = 21;
  options.countries = std::move(countries);
  return options;
}

const std::vector<std::string>& subset() {
  // Includes the operationally interesting volunteers: Egypt (traceroute
  // opt-out), Australia (blocked traceroutes -> Atlas repair), Japan
  // (flaky loads), plus two plain countries.
  static const std::vector<std::string> kSubset = {"EG", "AU", "JP", "CA", "GB"};
  return kSubset;
}

TEST(Resilience, FaultyStudyIdenticalAcrossJobCounts) {
  worldgen::StudyOptions options = subset_options(subset());
  options.fault_plan = hostile_plan();
  options.jobs = 1;
  std::string serial = fingerprint(run(options));
  options.jobs = 4;
  std::string parallel = fingerprint(run(options));
  EXPECT_EQ(serial, parallel);
}

TEST(Resilience, ArmedZeroPlanMatchesDisarmedByteForByte) {
  worldgen::StudyOptions options = subset_options({"EG", "JP"});
  std::string disarmed = fingerprint(run(options));
  options.fault_plan = util::FaultPlan{};  // engaged but all-zero: armed path
  std::string armed = fingerprint(run(options));
  EXPECT_EQ(disarmed, armed);
}

TEST(Resilience, HostilePlanFullStudyCompletesWithLossAccounted) {
  util::MetricsRegistry::instance().counter("fault.injected").reset();
  worldgen::StudyOptions options;  // all 23 countries
  options.seed = 9;
  options.jobs = 4;
  options.fault_plan = hostile_plan();
  worldgen::StudyResult study = run(options);
  EXPECT_EQ(study.datasets.size(), 23u);
  EXPECT_EQ(study.analyses.size(), 23u);
  // The plan actually fired, and the loss is visible in the metrics layer.
  EXPECT_GT(util::MetricsRegistry::instance().counter("fault.injected").value(), 0u);
  // Partial coverage, not collapse: pages still load, classification still
  // confirms non-local servers somewhere.
  size_t loaded = 0, confirmed = 0;
  for (const auto& ds : study.datasets) loaded += ds.loaded_sites();
  for (const auto& a : study.analyses) confirmed += a.funnel.after_rdns;
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(confirmed, 0u);
}

TEST(Resilience, AtlasOutageSkipsDestConstraintInsteadOfDiscarding) {
  worldgen::StudyOptions options = subset_options({"CA", "GB"});
  std::string baseline = fingerprint(run(options));

  util::FaultPlan plan;
  plan.atlas_unavailable = 1.0;
  options.fault_plan = plan;
  worldgen::StudyResult study = run(options);
  size_t dest_traces = 0, confirmed = 0;
  for (const auto& a : study.analyses) {
    dest_traces += a.funnel.dest_traceroutes;
    confirmed += a.funnel.after_rdns;
  }
  // No destination probe ever ran, yet the pipeline degraded gracefully and
  // still confirmed servers on the surviving constraints.
  EXPECT_EQ(dest_traces, 0u);
  EXPECT_GT(confirmed, 0u);
  EXPECT_GT(util::MetricsRegistry::instance().counter("geoloc.degraded").value(), 0u);
  EXPECT_NE(fingerprint(study), baseline);
}

TEST(Resilience, SessionAbortOpensBreakerAndDegradesCountry) {
  worldgen::StudyOptions options = subset_options({"CA", "GB", "JP"});
  util::FaultPlan plan;
  plan.session_abort = 1.0;  // every attempt aborts -> breaker opens everywhere
  options.fault_plan = plan;
  worldgen::StudyResult study = run(options);
  ASSERT_EQ(study.datasets.size(), 3u);
  EXPECT_EQ(study.degraded_countries, options.countries);
  for (const auto& ds : study.datasets) {
    EXPECT_EQ(ds.sites.size(), 0u);   // metadata-only shell
    EXPECT_FALSE(ds.country.empty());
  }
  EXPECT_GT(util::MetricsRegistry::instance().counter("breaker.open").value(), 0u);
}

class CheckpointDir {
 public:
  explicit CheckpointDir(const std::string& name)
      : path_(::testing::TempDir() + "gamma-" + name + "-" +
              std::to_string(::getpid())) {}
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(Resilience, ResumeAfterPartialRunMatchesUninterrupted) {
  worldgen::StudyOptions options = subset_options(subset());
  options.fault_plan = hostile_plan();
  options.jobs = 2;
  std::string uninterrupted = fingerprint(run(options));

  // "Kill" the study after two countries: run only a prefix with the journal
  // enabled, then run the full list with --resume against the same journal.
  CheckpointDir dir("resume");
  worldgen::StudyOptions partial = options;
  partial.countries = {subset()[0], subset()[1]};
  partial.checkpoint_dir = dir.path();
  run(partial);

  worldgen::StudyOptions resumed_options = options;
  resumed_options.checkpoint_dir = dir.path();
  resumed_options.resume = true;
  worldgen::StudyResult resumed = run(resumed_options);
  EXPECT_EQ(resumed.resumed_countries, 2u);
  EXPECT_EQ(fingerprint(resumed), uninterrupted);
}

TEST(Resilience, ResumeToleratesTruncatedTrailingLine) {
  worldgen::StudyOptions options = subset_options({"EG", "AU", "JP"});
  std::string uninterrupted = fingerprint(run(options));

  CheckpointDir dir("truncated");
  worldgen::StudyOptions partial = options;
  partial.countries = {"EG"};
  partial.checkpoint_dir = dir.path();
  run(partial);

  // A kill mid-write leaves half a record; resume must drop it and re-run
  // that country instead of crashing or importing garbage.
  std::string journal = worldgen::StudyJournal::path_for(dir.path(), options.seed);
  {
    std::ofstream out(journal, std::ios::app);
    out << R"({"country":"AU","atlas_repaired":3,"dataset":{"volunteer_)";
  }
  worldgen::StudyOptions resumed_options = options;
  resumed_options.checkpoint_dir = dir.path();
  resumed_options.resume = true;
  worldgen::StudyResult resumed = run(resumed_options);
  EXPECT_EQ(resumed.resumed_countries, 1u);
  EXPECT_EQ(fingerprint(resumed), uninterrupted);
}

TEST(Resilience, StaleJournalSeedMismatchIsDiscarded) {
  CheckpointDir dir("stale");
  worldgen::StudyOptions partial = subset_options({"EG"});
  partial.checkpoint_dir = dir.path();
  run(partial);

  worldgen::StudyOptions other = subset_options({"EG", "AU"});
  other.seed = 1234;  // journal was written by seed 21
  other.checkpoint_dir = dir.path();
  other.resume = true;
  worldgen::StudyResult resumed = run(other);
  EXPECT_EQ(resumed.resumed_countries, 0u);

  worldgen::StudyOptions clean = subset_options({"EG", "AU"});
  clean.seed = 1234;
  EXPECT_EQ(fingerprint(resumed), fingerprint(run(clean)));
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// The single-writer contract (ISSUE 6): two studies racing for the same
// (dir, seed) journal cannot interleave appends into a torn file. The loser
// gets a structured kUnavailable and never touches the journal.
TEST(Resilience, JournalLockRefusesSecondWriterWithoutTouchingFile) {
  CheckpointDir dir("locked");
  worldgen::StudyOptions partial = subset_options({"EG"});
  partial.checkpoint_dir = dir.path();
  run(partial);
  const std::string journal_path = worldgen::StudyJournal::path_for(dir.path(), 21);

  worldgen::StudyJournal winner(dir.path(), 21, {}, /*resume=*/true);
  ASSERT_TRUE(winner.status().ok()) << winner.status().to_string();
  EXPECT_EQ(winner.completed().size(), 1u);
  const std::string held = slurp(journal_path);
  ASSERT_FALSE(held.empty());

  worldgen::StudyJournal loser(dir.path(), 21, {}, /*resume=*/true);
  EXPECT_EQ(loser.status().code(), util::StatusCode::kUnavailable);
  EXPECT_TRUE(loser.completed().empty());
  EXPECT_EQ(slurp(journal_path), held);  // the loser never touched the file
  worldgen::CheckpointRecord rec;
  rec.country = "AU";
  loser.append(rec);  // no-op on a non-OK journal
  EXPECT_EQ(slurp(journal_path), held);

  // The study driver surfaces the conflict as a structured failure instead
  // of running uncheckpointed or corrupting the winner's journal.
  worldgen::StudyOptions contender = subset_options({"AU"});
  contender.checkpoint_dir = dir.path();
  try {
    run(contender);
    FAIL() << "run_study with a held journal should throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("locked"), std::string::npos) << e.what();
  }
}

TEST(Resilience, ConcurrentJournalRacersGetOneWinnerStructuredLosers) {
  CheckpointDir dir("race");
  constexpr int kRacers = 4;
  std::atomic<int> constructed{0};
  std::atomic<int> winners{0}, losers{0}, other{0};
  std::vector<std::thread> threads;
  threads.reserve(kRacers);
  for (int t = 0; t < kRacers; ++t) {
    threads.emplace_back([&] {
      worldgen::StudyJournal journal(dir.path(), 77, {}, /*resume=*/true);
      if (journal.status().ok()) {
        winners.fetch_add(1);
      } else if (journal.status().code() == util::StatusCode::kUnavailable) {
        losers.fetch_add(1);
      } else {
        other.fetch_add(1);
      }
      // Hold the journal until every racer has constructed, so winners
      // cannot succeed sequentially — the exclusion must be concurrent.
      constructed.fetch_add(1);
      while (constructed.load() < kRacers) std::this_thread::yield();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(winners.load(), 1);
  EXPECT_EQ(losers.load(), kRacers - 1);
  EXPECT_EQ(other.load(), 0);
  // The one winner published a well-formed journal: header parses.
  std::string bytes = slurp(worldgen::StudyJournal::path_for(dir.path(), 77));
  ASSERT_FALSE(bytes.empty());
  auto header = util::Json::parse(bytes.substr(0, bytes.find('\n')));
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->get_string("checkpoint"), "gamma-study");
}

// Crash-atomicity of the resume-time rewrite, proven with the fault plane:
// an injected write failure disables the journal (structured kInternal,
// appends become no-ops) but the previous journal on disk stays byte-intact
// and a later clean resume still restores its countries.
TEST(Resilience, InjectedJournalRewriteFailureLeavesJournalIntact) {
  CheckpointDir dir("write-fail");
  worldgen::StudyOptions partial = subset_options({"EG"});
  partial.checkpoint_dir = dir.path();
  run(partial);
  const std::string journal_path = worldgen::StudyJournal::path_for(dir.path(), 21);
  const std::string before = slurp(journal_path);
  ASSERT_FALSE(before.empty());

  util::FaultPlan plan;
  plan.journal_write_fail = 1.0;
  {
    worldgen::StudyJournal journal(dir.path(), 21, plan, /*resume=*/true);
    EXPECT_EQ(journal.status().code(), util::StatusCode::kInternal);
    worldgen::CheckpointRecord rec;
    rec.country = "AU";
    journal.append(rec);  // disabled: must not extend a failed journal
  }
  EXPECT_EQ(slurp(journal_path), before);

  worldgen::StudyOptions resumed = subset_options({"EG", "AU"});
  resumed.checkpoint_dir = dir.path();
  resumed.resume = true;
  EXPECT_EQ(run(resumed).resumed_countries, 1u);
}

// A resumed study's store is the uninterrupted study's store, byte for byte:
// nothing in it records which countries came from the journal.
TEST(Resilience, ResumedStoreEqualsUninterruptedStore) {
  CheckpointDir dir("resume-store");
  worldgen::StudyOptions options = subset_options({"EG", "AU", "GB"});
  options.store_out = dir.path() + "-uninterrupted.gmst";
  run(options);

  worldgen::StudyOptions partial = subset_options({"EG"});
  partial.checkpoint_dir = dir.path();
  run(partial);

  worldgen::StudyOptions resumed = options;
  resumed.checkpoint_dir = dir.path();
  resumed.resume = true;
  resumed.store_out = dir.path() + "-resumed.gmst";
  EXPECT_EQ(run(resumed).resumed_countries, 1u);
  const std::string uninterrupted = slurp(options.store_out);
  ASSERT_FALSE(uninterrupted.empty());
  EXPECT_EQ(slurp(resumed.store_out), uninterrupted);
}

// A journaled degraded country resumes as degraded in both sinks: the
// progress observer and StudyResult agree on it.
TEST(Resilience, ResumedDegradedCountryReportsDegradedInBothSinks) {
  util::FaultPlan plan;
  plan.session_abort = 1.0;  // every attempt aborts -> both countries degrade
  for (bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "shard mode" : "memory mode");
    CheckpointDir dir(sharded ? "degraded-shard" : "degraded-memory");
    worldgen::StudyOptions options = subset_options({"US", "GB"});
    options.fault_plan = plan;
    options.checkpoint_dir = dir.path();
    if (sharded) options.shard_dir = dir.path() + "/shards";
    run(options);

    options.resume = true;
    auto progress = std::make_shared<worldgen::StudyProgress>();
    options.progress = progress;
    worldgen::StudyResult resumed = run(options);
    EXPECT_EQ(sharded ? resumed.shards_reused : resumed.resumed_countries, 2u);
    EXPECT_EQ(resumed.degraded_countries, options.countries);

    util::Json status = progress->status_json();
    EXPECT_EQ(static_cast<size_t>(status.find("counts")->get_number("degraded")),
              resumed.degraded_countries.size());
    for (const std::string& code : options.countries) {
      EXPECT_EQ(status.find("countries")->get_string(code), "degraded") << code;
    }
  }
}

// Each sink registers only its own resume counter, so a study's metrics
// never name the other sink's. Registration is process-wide: the check bites
// when no earlier study in the process registered that name (ctest runs each
// test in a process of its own).
void expect_only_own_resume_counter(bool sharded) {
  const std::string own = sharded ? "study.shards_reused" : "study.resumed_countries";
  const std::string other = sharded ? "study.resumed_countries" : "study.shards_reused";
  CheckpointDir dir(sharded ? "counter-shard" : "counter-memory");
  worldgen::StudyOptions options = subset_options({"EG"});
  if (sharded) options.shard_dir = dir.path() + "/shards";
  const size_t before = util::MetricsRegistry::instance().snapshot().counters.count(other);
  run(options);
  const util::MetricsSnapshot after = util::MetricsRegistry::instance().snapshot();
  EXPECT_EQ(after.counters.count(own), 1u);
  EXPECT_EQ(after.counters.count(other), before);
}

TEST(Resilience, MemorySinkRegistersOnlyItsResumeCounter) {
  expect_only_own_resume_counter(false);
}

TEST(Resilience, ShardSinkRegistersOnlyItsResumeCounter) {
  expect_only_own_resume_counter(true);
}

TEST(Resilience, BrowserFailuresAlwaysCarryClosedEnumReason) {
  // Japan's volunteer models the paper's flakiest loads; every failed page
  // must land in the closed taxonomy with a non-empty reason.
  worldgen::StudyOptions options = subset_options({"JP", "SA"});
  options.fault_plan = hostile_plan();
  worldgen::StudyResult study = run(options);
  size_t failures = 0;
  for (const auto& ds : study.datasets) {
    for (const auto& site : ds.sites) {
      if (site.page.loaded) {
        EXPECT_TRUE(site.page.failure_reason.empty());
        continue;
      }
      ++failures;
      EXPECT_FALSE(site.page.failure_reason.empty());
      EXPECT_TRUE(site.page.failure_reason == "timeout" ||
                  site.page.failure_reason == "connection" ||
                  site.page.failure_reason == "dns" ||
                  site.page.failure_reason == "hang")
          << site.page.failure_reason;
      EXPECT_EQ(site.page.failure_reason,
                std::string(web::load_failure_name(site.page.failure)));
    }
  }
  EXPECT_GT(failures, 0u);
}

}  // namespace
}  // namespace gam
