// The full study, end to end — Figure 1 as one callable.
//
// For each requested measurement country: run a Gamma session on the
// volunteer's machine (C1 -> C2 -> C3), scrub the chromedriver noise,
// repair missing traceroutes from Atlas (§4.1.1), then push the dataset
// through the multi-constraint geolocation pipeline and tracker
// identification (Box 2). Returns both the raw datasets and the per-country
// analyses every figure/table is computed from.
#pragma once

#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "analysis/dataset.h"
#include "util/fault.h"
#include "util/json.h"
#include "util/status.h"
#include "worldgen/world.h"

namespace gam::worldgen {

/// GammaPulse study progress: thread-safe per-country states shared between
/// a running study and its observers (the serve `study_status` RPC, the
/// `gamma study --progress` stderr line). run_study drives it from the
/// ParallelStudyRunner's stage/fallback callbacks; observers snapshot it
/// at any time from any thread.
///
/// Country state machine (DESIGN §14), one stage for both sinks:
///   pending -> running -> done             (memory sink, incl. journal resume)
///   pending -> running -> shard_published  (shard sink, incl. shard reuse)
///   pending -> running -> degraded         (breaker fallback, or a journaled
///                                           degraded country resumed)
/// Terminal states never regress (a breaker retry re-marks running only
/// from pending), so observed completed-counts are monotonically
/// non-decreasing — the kill+resume status test's invariant.
class StudyProgress {
 public:
  enum class CountryState { kPending, kRunning, kDone, kDegraded, kShardPublished };

  static const char* state_name(CountryState s);

  /// (Re)arm for a study over `countries`; starts the wall clock.
  void begin(const std::vector<std::string>& countries);
  /// Advance one country. Downgrades (terminal -> running/pending) are
  /// ignored; upgrades always land.
  void mark(size_t index, CountryState state);
  /// The study returned (ok) or threw (!ok); freezes the elapsed clock.
  void finish(bool ok);

  bool finished() const;
  /// Countries in a terminal state (done/degraded/shard_published).
  size_t completed() const;

  /// The study_status payload: overall state (pending|running|done|failed),
  /// total, per-state counts, per-country states, completed, elapsed_ms,
  /// and a completed-country-rate eta_ms (absent until one country lands).
  util::Json status_json() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::string> countries_;
  std::vector<CountryState> states_;
  bool started_ = false;
  bool finished_ = false;
  bool ok_ = true;
  std::chrono::steady_clock::time_point start_{};
  std::chrono::steady_clock::time_point end_{};
};

struct StudyResult {
  std::vector<core::VolunteerDataset> datasets;   // scrubbed + repaired
  std::vector<analysis::CountryAnalysis> analyses;
  size_t targets_before_optout = 0;
  size_t atlas_repaired_traces = 0;
  /// Countries whose circuit breaker opened: their crawl kept failing, so
  /// the study carries a degraded (metadata-only) outcome for them instead
  /// of wedging — the paper's partial-coverage mode.
  std::vector<std::string> degraded_countries;
  /// Countries restored from the checkpoint journal instead of re-measured.
  size_t resumed_countries = 0;

  // GammaShard (shard_dir set): the published per-country shard files in
  // study (index) order, and how many were reused intact from a previous
  // killed run's journal instead of re-measured. In shard mode `datasets`
  // and `analyses` stay empty — that is the point: results live on disk.
  std::vector<std::string> shard_paths;
  size_t shards_reused = 0;

  /// Countries the study delivered, whichever sink held them: one analysis
  /// each in memory mode, one published shard each in shard mode.
  size_t countries() const { return analyses.size() + shard_paths.size(); }
};

struct StudyOptions {
  uint64_t seed = 7;
  /// Countries to measure; empty = the world's whole vantage set.
  std::vector<std::string> countries;
  /// Worker threads for the per-country fan-out: each country's whole
  /// crawl -> scrub -> Atlas repair -> analysis chain runs as one task on a
  /// core::ParallelStudyRunner. 1 = serial (default), 0 = one per hardware
  /// thread. Results are byte-identical for every value — all randomness
  /// comes from util::Rng::substream(seed, country) streams and results are
  /// merged in input country order.
  size_t jobs = 1;
  /// Arm the fault plane with this plan (seeded with `seed`). nullopt =
  /// disarmed (the legacy code path, byte-identical output). An engaged
  /// all-zero plan is armed but never fires — the retry-overhead benchmark.
  std::optional<util::FaultPlan> fault_plan;
  /// Journal each completed country to `<checkpoint_dir>/study-<seed>.jsonl`
  /// ("" = no checkpointing). With `resume`, countries already journaled by
  /// a matching previous run are restored instead of re-measured; output is
  /// byte-identical to an uninterrupted run.
  std::string checkpoint_dir;
  bool resume = false;
  /// Serialize the finished study's analysis substrate to this GMST store
  /// file ("" = no store). The store is written once, after the merge, so
  /// its bytes are identical for any `jobs` value; a write failure throws
  /// std::runtime_error — the caller asked for a store and did not get one.
  std::string store_out;
  /// GammaShard streaming mode ("" = off): publish each country's analysis
  /// as `<shard_dir>/shard-<index>-<code>.gmst` the moment it completes and
  /// drop it from memory. Peak RSS is bounded per jobs slot by ONE country's
  /// working set (dataset + traceroutes + analysis, ~O(sites_per_country))
  /// — total ~jobs × that, independent of how many countries the study
  /// spans. With `checkpoint_dir`, the journal records each shard's path +
  /// CRC, and `resume` reuses intact shards without recomputing anything.
  /// With `store_out` also set, the shards are merged into that single
  /// store at the end (byte-identical to a non-sharded run's store).
  std::string shard_dir;
  /// Progress observer (null = none). run_study calls begin() once the
  /// country list is resolved and mark() from worker threads as countries
  /// change state; the caller owns finish(). Purely observational — engaging
  /// it cannot change any study output byte.
  std::shared_ptr<StudyProgress> progress;
};

/// The rules every study request meets, checked before any world is built:
/// a site budget (scale_sites) needs synthetic countries (scale_countries),
/// each requested country is one of vantage_countries(cfg), and resume needs
/// a checkpoint_dir. Returns the first rule broken, as invalid_argument.
util::Status check_study_request(const WorldConfig& cfg, const StudyOptions& options);

/// Throws std::invalid_argument for a request check_study_request refuses.
StudyResult run_study(World& world, const StudyOptions& options = {});

}  // namespace gam::worldgen
