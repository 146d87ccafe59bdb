#include "serve/service.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "analysis/flows.h"
#include "analysis/prevalence.h"
#include "analysis/report_json.h"
#include "store/query.h"
#include "store/reports.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace gam::serve {

Session::~Session() {
  if (fd >= 0) ::close(fd);
}

namespace {

/// Ceiling on the test/bench `sleep` kind, so a typo cannot wedge a worker
/// past any reasonable drain timeout.
constexpr double kMaxSleepMs = 5000.0;

/// How many submitted studies keep a queryable StudyProgress. Old jobs age
/// out oldest-first; the latest is always queryable.
constexpr size_t kMaxTrackedJobs = 8;

util::Counter& kind_counter(const std::string& kind) {
  return util::MetricsRegistry::instance().counter("serve.requests." + kind);
}

/// A non-negative integer param (`fallback` when absent), or nullopt for
/// anything else: a string, a fraction, a sign, or a value past 2^64.
std::optional<uint64_t> count_param(const util::Json& params, std::string_view key,
                                    uint64_t fallback) {
  const util::Json* v = params.find(key);
  if (!v) return fallback;
  double d = v->as_number(-1.0);
  if (d < 0 || d != std::floor(d) || d >= 0x1p64) return std::nullopt;
  return static_cast<uint64_t>(d);
}

}  // namespace

util::StatusOr<std::shared_ptr<store::Reader>> StoreRegistry::get(
    const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = stores_.find(path);
    if (it != stores_.end()) return it->second;
  }
  // Open outside the lock: mapping + CRC-validating a store is milliseconds
  // of work that must not stall every other session's lookup.
  store::Error error;
  std::shared_ptr<store::Reader> reader = store::Reader::open_shared(path, &error);
  if (!reader) {
    return util::Status::not_found("cannot open store " + path + ": " +
                                   error.to_string());
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = stores_.emplace(path, std::move(reader));
  return it->second;  // a racing open of the same path keeps the first mapping
}

util::Status StoreRegistry::set_default(const std::string& path) {
  auto reader = get(path);
  if (!reader.ok()) return reader.status();
  std::lock_guard<std::mutex> lock(mu_);
  stores_[""] = *reader;
  return util::Status();
}

size_t StoreRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stores_.size();
}

Service::Service(ServiceOptions options) : options_(std::move(options)) {}

util::Status Service::init() {
  if (options_.store_path.empty()) return util::Status();
  return registry_.set_default(options_.store_path);
}

bool Service::is_inline_kind(const std::string& kind) {
  // The control plane bypasses the bounded queue: health/stats must answer
  // while the data plane is saturated, and shutdown must be deliverable
  // under exactly that condition. study_status joins them because a running
  // study holds a worker under study_mu_ — progress must be readable from
  // the reactor precisely then.
  return kind == "ping" || kind == "health" || kind == "stats" ||
         kind == "shutdown" || kind == "study_status";
}

util::StatusOr<util::Json> Service::handle(Session& session, const std::string& kind,
                                           const util::Json& params) {
  static util::Counter& requests =
      util::MetricsRegistry::instance().counter("serve.requests");
  requests.inc();
  session.requests.fetch_add(1, std::memory_order_relaxed);

  if (kind == "ping") {
    kind_counter("ping").inc();
    util::Json result = util::Json::object();
    result["pong"] = true;
    result["session"] = static_cast<size_t>(session.id);
    return result;
  }
  if (kind == "health") {
    kind_counter("health").inc();
    util::Json result = health_provider_ ? health_provider_() : util::Json::object();
    result["stores"] = registry_.size();
    return result;
  }
  if (kind == "stats") {
    kind_counter("stats").inc();
    return handle_stats();
  }
  if (kind == "shutdown") {
    kind_counter("shutdown").inc();
    if (!on_shutdown_) {
      return util::Status::failed_precondition("no shutdown handler installed");
    }
    // The handler is NOT invoked here: the transport triggers it after the
    // reply is on the wire, or the drain would race the client's read.
    util::Json result = util::Json::object();
    result["draining"] = true;
    return result;
  }
  if (kind == "open") {
    kind_counter("open").inc();
    return handle_open(session, params);
  }
  if (kind == "query") {
    kind_counter("query").inc();
    return handle_query(session, params);
  }
  if (kind == "submit_study") {
    kind_counter("submit_study").inc();
    return handle_submit_study(params);
  }
  if (kind == "study_status") {
    kind_counter("study_status").inc();
    return handle_study_status(params);
  }
  if (kind == "sleep") {
    kind_counter("sleep").inc();
    return handle_sleep(params);
  }
  return util::Status::invalid_argument("unknown request kind '" + kind + "'");
}

util::StatusOr<std::shared_ptr<store::Reader>> Service::resolve_store(
    Session& session, const util::Json& params) {
  std::string name = params.get_string("store");
  auto reader = registry_.get(name);
  if (!reader.ok() && name.empty()) {
    return util::Status::failed_precondition(
        "no default store — start the daemon with --store, or name one with "
        "\"store\"");
  }
  if (reader.ok() && !name.empty()) {
    std::lock_guard<std::mutex> lock(session.opened_mu);
    session.opened.emplace(name, *reader);
  }
  return reader;
}

util::StatusOr<util::Json> Service::handle_open(Session& session,
                                                const util::Json& params) {
  std::string path = params.get_string("path");
  if (path.empty()) return util::Status::invalid_argument("open: need \"path\"");
  auto reader = registry_.get(path);
  if (!reader.ok()) return reader.status();
  {
    std::lock_guard<std::mutex> lock(session.opened_mu);
    session.opened.emplace(path, *reader);
  }
  util::Json result = util::Json::object();
  result["path"] = path;
  result["countries"] = (*reader)->num_countries();
  result["sites"] = (*reader)->num_sites();
  result["hits"] = (*reader)->num_hits();
  result["bytes"] = static_cast<size_t>((*reader)->file_size());
  return result;
}

util::StatusOr<util::Json> Service::handle_query(Session& session,
                                                 const util::Json& params) {
  auto reader = resolve_store(session, params);
  if (!reader.ok()) return reader.status();
  const store::Reader& r = **reader;

  // Report mode resolves the name through the same table as `gamma store
  // query --report R`, so the two front doors answer with identical bytes
  // (test_serve and the check.sh serve arm diff them).
  std::string report = params.get_string("report");
  if (!report.empty()) return store::report_json(r, report);

  store::QuerySpec spec;
  std::string table = params.get_string("table", "hits");
  auto table_id = store::table_from_name(table);
  if (!table_id) {
    return util::Status::invalid_argument("unknown table '" + table +
                                          "' (countries|sites|hits)");
  }
  spec.table = *table_id;
  if (const util::Json* project = params.find("project")) {
    for (const util::Json& col : project->items()) {
      if (!col.is_string()) {
        return util::Status::invalid_argument("\"project\" must be an array of strings");
      }
      spec.project.push_back(col.as_string());
    }
  }
  if (const util::Json* where = params.find("where")) {
    for (const util::Json& pred : where->items()) {
      if (!pred.is_array() || pred.size() != 2 || !pred.at(0).is_string() ||
          !pred.at(1).is_string()) {
        return util::Status::invalid_argument(
            "\"where\" must be an array of [column, value] string pairs");
      }
      spec.where.emplace_back(pred.at(0).as_string(), pred.at(1).as_string());
    }
  }
  spec.group_by = params.get_string("group_by");
  spec.flows = params.get_bool("flows");
  std::optional<uint64_t> limit = count_param(params, "limit", 0);
  if (!limit) return util::Status::invalid_argument("\"limit\" must be a non-negative integer");
  spec.limit = *limit;

  store::Error error;
  std::optional<util::Json> result = store::Query(r).run(spec, &error);
  if (!result) return util::Status::invalid_argument(error.to_string());
  return std::move(*result);
}

util::StatusOr<util::Json> Service::handle_submit_study(const util::Json& params) {
  // Every key must be one this kind reads (or the envelope's id and kind),
  // with the type it needs: a dropped key would run a study nobody asked for.
  static constexpr std::string_view kKeys[] = {"id",        "kind",      "seed",     "jobs",
                                               "countries", "store_out", "shard_dir"};
  for (const auto& [key, value] : params.fields()) {
    if (std::find(std::begin(kKeys), std::end(kKeys), key) == std::end(kKeys)) {
      return util::Status::invalid_argument("submit_study: unknown key \"" + key + "\"");
    }
    if ((key == "store_out" || key == "shard_dir") && !value.is_string()) {
      return util::Status::invalid_argument("submit_study: \"" + key + "\" must be a string");
    }
    auto is_string = [](const util::Json& c) { return c.is_string(); };
    const util::JsonArray& items = value.items();
    if (key == "countries" &&
        !(value.is_array() && std::all_of(items.begin(), items.end(), is_string))) {
      return util::Status::invalid_argument(
          "submit_study: \"countries\" must be an array of strings");
    }
  }
  worldgen::StudyOptions options;
  std::optional<uint64_t> seed = count_param(params, "seed", options.seed);
  std::optional<uint64_t> jobs = count_param(params, "jobs", options.jobs);
  if (!seed || !jobs) {
    return util::Status::invalid_argument(
        "submit_study: \"seed\" and \"jobs\" must be non-negative integers");
  }
  options.seed = *seed;
  options.jobs = *jobs;
  if (const util::Json* countries = params.find("countries")) {
    for (const util::Json& c : countries->items()) options.countries.push_back(c.as_string());
  }
  options.store_out = params.get_string("store_out");
  options.shard_dir = params.get_string("shard_dir");
  options.checkpoint_dir = options_.checkpoint_dir;
  options.fault_plan = options_.fault_plan;
  // Resume unconditionally when journaled: that is the daemon restart
  // contract — a killed study's countries are reused, byte-identically.
  options.resume = !options_.checkpoint_dir.empty();
  // The study rules, against the world this daemon serves (the paper world
  // until one is generated), before the request queues behind a study.
  worldgen::WorldConfig world_config;
  {
    std::lock_guard<std::mutex> lock(world_mu_);
    if (options_.world) world_config = options_.world->config;
  }
  if (util::Status request = worldgen::check_study_request(world_config, options);
      !request.ok()) {
    return util::Status::invalid_argument("submit_study: " + request.message());
  }

  // GammaPulse job tracking: register the progress handle BEFORE taking
  // study_mu_, so study_status can see a job that is still waiting its turn
  // behind another study.
  options.progress = std::make_shared<worldgen::StudyProgress>();
  uint64_t job_id;
  {
    std::lock_guard<std::mutex> jobs_lock(jobs_mu_);
    job_id = ++next_job_id_;
    jobs_[job_id] = options.progress;
    while (jobs_.size() > kMaxTrackedJobs) jobs_.erase(jobs_.begin());
  }

  std::lock_guard<std::mutex> study_lock(study_mu_);
  {
    std::lock_guard<std::mutex> lock(world_mu_);
    if (!options_.world) options_.world = worldgen::generate_world({});
  }
  static util::Counter& studies =
      util::MetricsRegistry::instance().counter("serve.studies");
  studies.inc();

  worldgen::StudyResult study;
  try {
    study = worldgen::run_study(*options_.world, options);
  } catch (const std::exception& e) {
    options.progress->finish(false);
    std::string what = e.what();
    // Past check_study_request above, run_study throws exactly two structured
    // failures: a journal held by a concurrent study (retryable) and a
    // failed store write (not).
    if (what.find("locked") != std::string::npos) {
      return util::Status::unavailable(what);
    }
    return util::Status::internal(what);
  }
  options.progress->finish(true);

  util::Json result = util::Json::object();
  result["job"] = static_cast<size_t>(job_id);
  result["countries"] = study.countries();
  result["resumed_countries"] = study.resumed_countries;
  if (!options.shard_dir.empty()) {
    result["shards"] = study.shard_paths.size();
    result["shards_reused"] = study.shards_reused;
  }
  util::Json degraded = util::Json::array();
  for (const std::string& c : study.degraded_countries) degraded.push_back(c);
  result["degraded"] = std::move(degraded);
  if (options.shard_dir.empty()) {
    analysis::PrevalenceReport prev = analysis::compute_prevalence(study.analyses);
    analysis::FlowsReport flows = analysis::compute_flows(study.analyses);
    result["summary"] = analysis::study_summary_json(study.countries(), prev, flows);
  } else if (!options.store_out.empty()) {
    // Shard mode keeps no analyses in memory: summarize the merged store,
    // whose bytes equal the memory-mode store's.
    store::Error error;
    std::unique_ptr<store::Reader> merged = store::Reader::open(options.store_out, &error);
    if (!merged) return util::Status::internal("submit_study: " + error.to_string());
    result["summary"] = store::summary_json(*merged);
  }
  if (!options.store_out.empty()) result["store"] = options.store_out;
  util::log_info("serve", "study done: " + std::to_string(study.countries()) +
                              " countries, " +
                              std::to_string(study.resumed_countries) + " resumed");
  return result;
}

util::StatusOr<util::Json> Service::handle_study_status(const util::Json& params) {
  // Inline-plane: runs on a reactor thread while a study may be holding a
  // worker under study_mu_. Only jobs_mu_ (never held across anything slow)
  // and the progress snapshot's own mutex are touched.
  uint64_t job_id = 0;
  std::shared_ptr<worldgen::StudyProgress> progress;
  std::optional<uint64_t> requested = count_param(params, "job", 0);
  if (!requested) {
    return util::Status::invalid_argument(
        "study_status: \"job\" must be a non-negative integer");
  }
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    if (*requested > 0) {
      auto it = jobs_.find(*requested);
      if (it == jobs_.end()) {
        return util::Status::not_found(
            "study_status: unknown job " + std::to_string(*requested) +
            " (tracked: most recent " + std::to_string(kMaxTrackedJobs) + ")");
      }
      job_id = it->first;
      progress = it->second;
    } else if (!jobs_.empty()) {
      job_id = jobs_.rbegin()->first;
      progress = jobs_.rbegin()->second;
    }
  }
  if (!progress) {
    // No study submitted yet — a structured "nothing to report", not an
    // error, so `gamma top` can poll unconditionally.
    util::Json result = util::Json::object();
    result["state"] = "none";
    result["jobs"] = static_cast<size_t>(0);
    return result;
  }
  util::Json result = progress->status_json();
  result["job"] = static_cast<size_t>(job_id);
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    result["jobs"] = jobs_.size();
  }
  return result;
}

util::StatusOr<util::Json> Service::handle_sleep(const util::Json& params) {
  double ms = params.get_number("ms", 0.0);
  if (ms < 0) return util::Status::invalid_argument("\"ms\" must be >= 0");
  if (ms > kMaxSleepMs) ms = kMaxSleepMs;
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<int64_t>(ms * 1000.0)));
  util::Json result = util::Json::object();
  result["slept_ms"] = ms;
  return result;
}

util::StatusOr<util::Json> Service::handle_stats() {
  util::MetricsSnapshot snap = util::MetricsRegistry::instance().snapshot();
  util::Json result = util::Json::object();
  result["json"] = snap.to_json();
  result["prometheus"] = snap.to_prometheus();
  return result;
}

}  // namespace gam::serve
