#include "worldgen/study.h"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "core/parallel_runner.h"
#include "core/recorder.h"
#include "net/ip.h"
#include "geoloc/pipeline.h"
#include "probe/traceroute.h"
#include "store/shard.h"
#include "store/writer.h"
#include "trackers/identify.h"
#include "util/io.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/trace.h"
#include "util/strings.h"
#include "worldgen/checkpoint.h"

namespace gam::worldgen {

namespace {

/// Everything one country's task produces; merged in country order. In
/// shard mode only the bookkeeping survives the task: the dataset and
/// analysis are dropped once the country's shard is published.
struct CountryOutcome {
  std::string country;
  core::VolunteerDataset dataset;
  analysis::CountryAnalysis analysis;
  size_t atlas_repaired = 0;
  bool degraded = false;       // circuit breaker opened; metadata-only outcome
  std::string degraded_reason;
  bool resumed = false;        // restored from the checkpoint journal
  std::string shard_path;      // shard mode: the published (or reused) shard
  uint32_t shard_crc = 0;
};

/// Installs `faults` as the process-global io injector for a scope,
/// restoring whatever was there before (nesting-safe).
class ScopedIoFaults {
 public:
  explicit ScopedIoFaults(const util::FaultInjector* faults)
      : prev_(util::io::fault_injector()) {
    util::io::set_fault_injector(faults);
  }
  ~ScopedIoFaults() { util::io::set_fault_injector(prev_); }
  ScopedIoFaults(const ScopedIoFaults&) = delete;
  ScopedIoFaults& operator=(const ScopedIoFaults&) = delete;

 private:
  const util::FaultInjector* prev_;
};

}  // namespace

const char* StudyProgress::state_name(CountryState s) {
  switch (s) {
    case CountryState::kPending:
      return "pending";
    case CountryState::kRunning:
      return "running";
    case CountryState::kDone:
      return "done";
    case CountryState::kDegraded:
      return "degraded";
    case CountryState::kShardPublished:
      return "shard_published";
  }
  return "pending";
}

void StudyProgress::begin(const std::vector<std::string>& countries) {
  std::lock_guard<std::mutex> lock(mu_);
  countries_ = countries;
  states_.assign(countries.size(), CountryState::kPending);
  started_ = true;
  finished_ = false;
  ok_ = true;
  start_ = std::chrono::steady_clock::now();
}

void StudyProgress::mark(size_t index, CountryState state) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index >= states_.size()) return;
  CountryState& cur = states_[index];
  // Terminal states never regress: a breaker retry re-enters the stage and
  // marks running again, which must not un-complete the country — observed
  // completed-counts stay monotonic.
  if (state == CountryState::kRunning && cur != CountryState::kPending) return;
  if (state == CountryState::kPending) return;
  cur = state;
}

void StudyProgress::finish(bool ok) {
  std::lock_guard<std::mutex> lock(mu_);
  finished_ = true;
  ok_ = ok;
  end_ = std::chrono::steady_clock::now();
}

bool StudyProgress::finished() const {
  std::lock_guard<std::mutex> lock(mu_);
  return finished_;
}

size_t StudyProgress::completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (CountryState s : states_) {
    if (s == CountryState::kDone || s == CountryState::kDegraded ||
        s == CountryState::kShardPublished) {
      ++n;
    }
  }
  return n;
}

util::Json StudyProgress::status_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  util::Json doc = util::Json::object();
  size_t pending = 0, running = 0, done = 0, degraded = 0, shard_published = 0;
  util::Json per_country = util::Json::object();
  for (size_t i = 0; i < states_.size(); ++i) {
    switch (states_[i]) {
      case CountryState::kPending: ++pending; break;
      case CountryState::kRunning: ++running; break;
      case CountryState::kDone: ++done; break;
      case CountryState::kDegraded: ++degraded; break;
      case CountryState::kShardPublished: ++shard_published; break;
    }
    per_country[countries_[i]] = state_name(states_[i]);
  }
  size_t completed = done + degraded + shard_published;
  if (!started_) {
    doc["state"] = "pending";
  } else if (finished_) {
    doc["state"] = ok_ ? "done" : "failed";
  } else {
    doc["state"] = "running";
  }
  doc["total"] = states_.size();
  doc["completed"] = completed;
  util::Json counts = util::Json::object();
  counts["pending"] = pending;
  counts["running"] = running;
  counts["done"] = done;
  counts["degraded"] = degraded;
  counts["shard_published"] = shard_published;
  doc["counts"] = std::move(counts);
  doc["countries"] = std::move(per_country);
  if (started_) {
    auto end = finished_ ? end_ : std::chrono::steady_clock::now();
    double elapsed_ms =
        std::chrono::duration<double, std::milli>(end - start_).count();
    doc["elapsed_ms"] = elapsed_ms;
    if (completed > 0 && completed < states_.size()) {
      // Completed-country-rate ETA: remaining countries at the observed pace.
      doc["eta_ms"] = elapsed_ms / static_cast<double>(completed) *
                      static_cast<double>(states_.size() - completed);
    } else if (completed == states_.size() || finished_) {
      doc["eta_ms"] = 0.0;
    }
  }
  return doc;
}

util::Status check_study_request(const WorldConfig& cfg, const StudyOptions& options) {
  if (cfg.scale_sites > 0 && cfg.scale_countries == 0) {
    return util::Status::invalid_argument("--sites needs --countries N");
  }
  // A country outside the vantage set has no volunteer to measure from.
  const std::vector<std::string> vantage = vantage_countries(cfg);
  for (const std::string& code : options.countries) {
    if (std::find(vantage.begin(), vantage.end(), code) == vantage.end()) {
      return util::Status::invalid_argument("country '" + code +
                                            "' is not a vantage country of this world");
    }
  }
  if (options.resume && options.checkpoint_dir.empty()) {
    return util::Status::invalid_argument("--resume needs --checkpoint DIR");
  }
  return util::Status();
}

StudyResult run_study(World& world, const StudyOptions& options) {
  if (util::Status request = check_study_request(world.config, options); !request.ok()) {
    throw std::invalid_argument(request.message());
  }
  StudyResult result;
  result.targets_before_optout = world.targets_before_optout;
  std::vector<std::string> countries =
      options.countries.empty() ? vantage_countries(world.config) : options.countries;

  // Arm the progress observer on the *resolved* list, so study_status shows
  // real country codes even when the caller asked for "all".
  if (options.progress) options.progress->begin(countries);

  core::GammaEnv env = world.env();
  core::GammaConfig config = core::GammaConfig::study_defaults();

  // Fault plane: disarmed (nullptr) unless the caller engaged a plan, in
  // which case even an all-zero plan is armed — that is the retry-overhead
  // benchmark configuration. The injector outlives every task via `env`.
  util::FaultInjector injector;
  std::optional<ScopedIoFaults> io_faults;
  if (options.fault_plan) {
    injector = util::FaultInjector(*options.fault_plan, options.seed);
    env.faults = &injector;
    // Arm the durable-write plane for the study's lifetime too, so io faults
    // reach artifact writes that don't take an explicit injector. Restored
    // on every exit path (including the journal-lock throw below).
    io_faults.emplace(&injector);
  }

  // Shared, immutable analysis substrate. Everything here is read-only after
  // construction (the geolocation pipeline is pure, the topology's route
  // cache is internally locked), so one instance serves all worker threads.
  probe::TracerouteEngine engine(world.topology, *world.resolver);
  geoloc::MultiConstraintGeolocator geolocator(world.geodb, world.reference, world.atlas,
                                               engine);
  geolocator.set_fault_injector(env.faults);
  trackers::TrackerIdentifier identifier;
  analysis::CountryAnalyzer analyzer(geolocator, identifier, world.universe);

  // Crash-safe journal: each completed country is appended (flushed) as it
  // finishes; with --resume, matching records from a killed run are reused.
  std::optional<StudyJournal> journal;
  if (!options.checkpoint_dir.empty()) {
    journal.emplace(options.checkpoint_dir, options.seed,
                    options.fault_plan.value_or(util::FaultPlan{}), options.resume);
    // A journal locked by a concurrent study is a structured failure: the
    // loser must not run (its appends would be dropped and its resume view
    // is empty). Other journal failures stay best-effort — the study still
    // runs, it just isn't checkpointed (status was logged by the journal).
    if (journal->status().code() == util::StatusCode::kUnavailable) {
      throw std::runtime_error("checkpoint: " + journal->status().to_string());
    }
  }

  // The two sinks. GammaShard mode (shard_dir set) publishes each country as
  // a shard the moment it settles and drops it from memory; memory mode keeps
  // every outcome for StudyResult and writes one store at the end. Everything
  // between — measure, analyze, resume, journal, progress, breaker — is one
  // code path, so both sinks draw identical substreams: the root of the
  // merged-store byte-identity contract.
  const bool sharded = !options.shard_dir.empty();
  std::optional<store::ShardWriter> shard_writer;
  if (sharded) {
    std::error_code ec;
    std::filesystem::create_directories(options.shard_dir, ec);
    shard_writer.emplace(options.shard_dir,
                         store::ShardStudyMeta{options.seed, countries.size(),
                                               world.targets_before_optout});
    shard_writer->set_faults(env.faults);
  }

  // Analysis is recomputed even for resumed countries: it is pure and
  // deterministic given (dataset, analyze substream), which keeps the
  // journal small (datasets only) and the resumed output byte-identical.
  auto analyze_outcome = [&](const std::string& code, CountryOutcome& out) {
    util::trace::ScopedSpan span("analyze", "analysis");
    span.arg("country", code);
    util::Rng analyze_rng = util::Rng::substream(options.seed, "analyze-" + code);
    out.analysis = analyzer.analyze(out.dataset, analyze_rng);
  };

  // ---- Boxes 1+2, fanned out per country. ----
  // Each task is the full chain for one volunteer: session (C1 -> C2 -> C3),
  // webdriver scrub, Atlas repair (§4.1.1), geolocation + identification +
  // per-country analysis. Every random draw comes from a (seed, country)
  // substream, so any interleaving reproduces the serial run exactly.
  core::ParallelStudyRunner runner(options.jobs, countries.size());

  // One country's full measurement chain.
  auto measure = [&](const std::string& code, int attempt, CountryOutcome& out) {
    // Whole-run abort, keyed per attempt so the breaker's retry can clear a
    // transient fault; a rate of 1.0 reliably opens the breaker.
    if (env.faults &&
        env.faults->roll("session.abort", code + "#" + std::to_string(attempt),
                         env.faults->plan().session_abort)) {
      throw std::runtime_error("injected session abort for " + code);
    }

    const core::VolunteerProfile& profile = world.volunteer(code);
    {
      util::trace::ScopedSpan span("session", "core");
      span.arg("country", code);
      core::GammaSession session(
          env, profile, world.targets.at(code), config,
          util::Rng::substream(options.seed, "session-" + code).next());
      session.run_all();
      out.dataset = session.take_dataset();
      span.arg("sites", out.dataset.sites.size());
    }

    // §5 cleaning: drop the chromedriver background requests.
    core::scrub_webdriver_noise(out.dataset);

    // §4.1.1 repair: countries whose traceroutes were opted out or
    // blocked get replacement traces from the nearest Atlas probe.
    bool needs_repair =
        profile.traceroute_opt_out || profile.traceroute_blocked_prob > 0.5;
    if (needs_repair) {
      util::trace::ScopedSpan span("atlas_repair", "core");
      span.arg("country", code);
      util::Rng repair_rng = util::Rng::substream(options.seed, "repair-" + code);
      probe::TracerouteOptions opts = config.traceroute;
      out.atlas_repaired = core::augment_with_atlas_traceroutes(
          out.dataset, env, world.atlas, opts, repair_rng);
      span.arg("repaired", out.atlas_repaired);
    }
    util::log_info("study", "collected " + code);
  };

  // Circuit-breaker degraded outcome: the country's crawl kept failing, so
  // ship a metadata-only dataset (zero sites, zero traces) through the same
  // analysis path — partial coverage, deterministic, never a wedged worker.
  auto degraded_outcome = [&](const std::string& code, const std::string& error) {
    util::trace::ScopedSpan span("degraded", "study");
    span.arg("country", code);
    span.arg("reason", error);
    CountryOutcome out;
    out.country = code;
    out.degraded = true;
    out.degraded_reason = error;
    const core::VolunteerProfile& profile = world.volunteer(code);
    out.dataset.country = code;
    out.dataset.volunteer_id = profile.id;
    out.dataset.disclosed_city = profile.city;
    out.dataset.volunteer_ip = net::ip_to_string(profile.ip);
    out.dataset.os = probe::os_kind_name(profile.os);
    try {
      analyze_outcome(code, out);
    } catch (...) {
      out.analysis = {};
      out.analysis.country = code;
    }
    util::log_info("study", "degraded " + code + ": " + error);
    return out;
  };

  // Journal restore. A memory record carries its dataset, whose analysis is
  // recomputed; a shard record is reused only while the file's CRC still
  // matches the journal — a deleted or torn shard is silently re-measured,
  // and so is a record written by the other sink.
  auto restore = [&](const std::string& code, CountryOutcome& out, util::Counter& restored) {
    if (!journal) return false;
    auto it = journal->completed().find(code);
    if (it == journal->completed().end() || it->second.is_shard() != sharded) {
      return false;
    }
    const CheckpointRecord& rec = it->second;
    if (sharded) {
      std::optional<uint32_t> crc = store::file_crc32(rec.shard_path);
      if (!crc || *crc != rec.shard_crc) return false;
    }
    util::trace::ScopedSpan span(sharded ? "resume_shard" : "resume", "study");
    span.arg("country", code);
    out.atlas_repaired = rec.atlas_repaired;
    out.degraded = rec.degraded;
    out.degraded_reason = rec.degraded_reason;
    out.shard_path = rec.shard_path;
    out.shard_crc = rec.shard_crc;
    out.resumed = true;
    restored.inc();
    if (sharded) {
      util::log_info("study", "reused shard for " + code + ": " + rec.shard_path);
    } else {
      out.dataset = rec.dataset;
      analyze_outcome(code, out);
      util::log_info("study", "resumed " + code + " from checkpoint");
    }
    return true;
  };

  // Publish (shard mode), then journal. A failed shard write is returned
  // before anything is journaled, so --resume never sees a shard that is not
  // on disk.
  auto publish = [&](size_t i, CountryOutcome& out) -> store::Error {
    if (shard_writer) {
      store::ShardWriteResult sw =
          shard_writer->write(i, out.analysis, out.atlas_repaired, out.degraded);
      if (!sw.ok()) return sw.error;
      out.shard_path = sw.path;
      out.shard_crc = sw.crc;
      util::log_info("study", "published shard for " + out.country + ": " + sw.path);
    }
    if (journal) {
      CheckpointRecord rec;
      rec.country = out.country;
      rec.atlas_repaired = out.atlas_repaired;
      rec.degraded = out.degraded;
      rec.degraded_reason = out.degraded_reason;
      rec.shard_path = out.shard_path;
      rec.shard_crc = out.shard_crc;
      rec.shard_index = i;
      if (!sharded) rec.dataset = out.dataset;
      util::Status js = journal->append(rec);
      if (!js.ok()) {
        util::log_info("study", "checkpoint not durable for " + out.country + ": " +
                                    js.to_string());
      }
    }
    return {};
  };

  auto mark_settled = [&](size_t i, const CountryOutcome& out) {
    if (!options.progress) return;
    options.progress->mark(i, out.degraded ? StudyProgress::CountryState::kDegraded
                              : sharded    ? StudyProgress::CountryState::kShardPublished
                                           : StudyProgress::CountryState::kDone);
  };

  auto stage = [&](size_t i, const std::string& code, int attempt) {
    static util::Counter& done =
        util::MetricsRegistry::instance().counter("study.countries");
    // Each sink has its own resume counter, registered only while that sink
    // runs, so a study's metrics never name the other mode's counter.
    util::Counter& restored = util::MetricsRegistry::instance().counter(
        sharded ? "study.shards_reused" : "study.resumed_countries");
    static util::Histogram& wall =
        util::MetricsRegistry::instance().histogram("study.country_wall_ms");
    util::ScopedTimer timer(wall);
    done.inc();
    if (options.progress) {
      options.progress->mark(i, StudyProgress::CountryState::kRunning);
    }
    CountryOutcome out;
    out.country = code;
    if (!restore(code, out, restored)) {
      measure(code, attempt, out);
      analyze_outcome(code, out);
      util::log_info("study", "analyzed " + code);
      // A failed publish throws, so the breaker retries the whole
      // (idempotent) chain — the crash-atomic rename means a half-published
      // shard is impossible.
      if (store::Error err = publish(i, out); !err.ok()) {
        throw std::runtime_error("shard write failed for " + code + ": " +
                                 err.to_string());
      }
    }
    mark_settled(i, out);
    return out;
  };

  auto fallback = [&](size_t i, const std::string& code, const std::string& error) {
    CountryOutcome out = degraded_outcome(code, error);
    if (store::Error err = publish(i, out); !err.ok()) {
      // No shard for this country: surfaced later as a merge coverage
      // failure rather than silently shipping a hole.
      util::log_info("study", "degraded shard write failed for " + code + ": " +
                                  err.to_string());
    }
    mark_settled(i, out);
    return out;
  };

  std::vector<CountryOutcome> outcomes(countries.size());
  runner.for_each_with_breaker(
      countries, stage, fallback, [&](size_t i, const std::string&, CountryOutcome&& out) {
        if (sharded) {
          // The shard holds the results: this country's dataset and analysis
          // die here, on its worker — that is the streaming memory bound.
          out.dataset = {};
          out.analysis = {};
        }
        outcomes[i] = std::move(out);
      });

  // Deterministic merge: input country order, independent of scheduling.
  for (CountryOutcome& out : outcomes) {
    result.atlas_repaired_traces += out.atlas_repaired;
    if (out.degraded) result.degraded_countries.push_back(out.country);
    if (out.resumed) ++(sharded ? result.shards_reused : result.resumed_countries);
    if (!out.shard_path.empty()) result.shard_paths.push_back(out.shard_path);
    if (!sharded) {
      result.datasets.push_back(std::move(out.dataset));
      result.analyses.push_back(std::move(out.analysis));
    }
  }

  if (sharded) {
    if (!options.store_out.empty()) {
      store::MergeResult merged =
          store::merge_shards(options.store_out, result.shard_paths, env.faults);
      if (!merged.ok()) {
        throw std::runtime_error("shard merge failed: " + merged.error.to_string());
      }
      util::log_info("study", "merged " + std::to_string(merged.shards) +
                                  " shards into " + options.store_out + " (" +
                                  std::to_string(merged.bytes_written) + " bytes)");
    }
    return result;
  }

  // §3.5: volunteer IPs are anonymized once analysis no longer needs them.
  for (auto& dataset : result.datasets) core::anonymize(dataset);

  if (!options.store_out.empty()) {
    store::StudyMeta meta;
    meta.seed = options.seed;
    meta.targets_before_optout = result.targets_before_optout;
    meta.atlas_repaired_traces = result.atlas_repaired_traces;
    meta.degraded_countries = result.degraded_countries;
    store::Writer writer(meta);
    writer.set_faults(env.faults);
    store::WriteResult written = writer.write(options.store_out, result.analyses);
    if (!written.ok()) {
      throw std::runtime_error("store write failed: " + written.error.to_string());
    }
    util::log_info("study", "wrote store " + options.store_out + " (" +
                                std::to_string(written.bytes_written) + " bytes, " +
                                std::to_string(written.blocks) + " blocks)");
  }
  return result;
}

}  // namespace gam::worldgen
