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
#include <vector>

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

/// What `value` should have been, when it is not of `key`'s type; "" when
/// it is.
std::string misfit(const RpcKey& key, const util::Json& value) {
  auto all = [&](auto&& pred) {
    return value.is_array() && std::all_of(value.items().begin(), value.items().end(), pred);
  };
  auto is_string = [](const util::Json& s) { return s.is_string(); };
  auto is_pair = [](const util::Json& p) {
    return p.is_array() && p.size() == 2 && p.at(0).is_string() && p.at(1).is_string();
  };
  const double d = value.as_number(-1.0);
  switch (key.type) {
    case KeyType::kString: return value.is_string() ? "" : "a string";
    case KeyType::kCount: return is_count(value) ? "" : "an integer in [0, 2^53)";
    case KeyType::kBool: return value.is_bool() ? "" : "true or false";
    case KeyType::kNumber:
      return d >= 0 && d <= key.max ? "" : "a number in [0, " + util::Json(key.max).dump() + "]";
    case KeyType::kStrings: return all(is_string) ? "" : "an array of strings";
    case KeyType::kPairs: return all(is_pair) ? "" : "an array of [column, value] string pairs";
  }
  return "";
}

/// serve.requests.<kind> for a row of rpcs(): every row's counter is
/// registered once, on first use, so a request takes no registry lock.
util::Counter& kind_requests(const Rpc& rpc) {
  static const std::vector<util::Counter*> counters = [] {
    std::vector<util::Counter*> out;
    for (const Rpc& row : rpcs()) {
      out.push_back(
          &util::MetricsRegistry::instance().counter(std::string("serve.requests.") + row.kind));
    }
    return out;
  }();
  return *counters[static_cast<size_t>(&rpc - rpcs().data())];
}

/// A count key check_request has passed (`fallback` when absent): exact in
/// a double, so the cast loses nothing.
uint64_t count(const util::Json& params, std::string_view key, uint64_t fallback) {
  const util::Json* v = params.find(key);
  return v ? static_cast<uint64_t>(v->as_number()) : fallback;
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

// The request table. What each kind answers:
//   ping          {"pong": true, "session": N}
//   health        drain state, sessions, queue and slow-log settings
//   stats         the metrics registry as JSON and as Prometheus text
//   shutdown      {"draining": true}; the drain starts once it is sent
//   open          opens and shares the GMST store at "path"
//   query         a paper "report", or a scan of "table" that the other
//                 keys shape; bytes identical to `gamma store query`
//   submit_study  a study, journaled to the daemon's checkpoint dir so that
//                 a killed daemon resumes it per country; its "job" id names
//                 it to study_status
//   study_status  per-country progress of that job (default: the latest)
//   sleep         holds a worker for "ms": the backpressure tests' load
// study_status is inline because a running study holds a worker: progress
// must be readable from the reactor precisely then.
std::span<const Rpc> rpcs() {
  using enum KeyType;
  static constexpr RpcKey kOpen[] = {{"path", kString}};
  static constexpr RpcKey kQuery[] = {
      {"store", kString},    {"report", kString}, {"table", kString},
      {"project", kStrings}, {"where", kPairs},   {"group_by", kString},
      {"flows", kBool},      {"limit", kCount}};
  // "jobs" is the worker count, on which no output byte depends (DESIGN §5).
  static constexpr RpcKey kSubmitStudy[] = {
      {"seed", kCount},       {"jobs", kCount, 0, /*knob=*/true}, {"countries", kStrings},
      {"store_out", kString}, {"shard_dir", kString}};
  static constexpr RpcKey kStudyStatus[] = {{"job", kCount}};
  static constexpr RpcKey kSleep[] = {{"ms", kNumber, kMaxSleepMs}};
  static constexpr Rpc kRpcs[] = {
      // kind          handler                        inline idempotent keys
      {"ping",         &Service::handle_ping,         true,  true,  {}},
      {"health",       &Service::handle_health,       true,  true,  {}},
      {"stats",        &Service::handle_stats,        true,  true,  {}},
      {"shutdown",     &Service::handle_shutdown,     true,  false, {}},
      {"open",         &Service::handle_open,         false, true,  kOpen},
      {"query",        &Service::handle_query,        false, true,  kQuery},
      {"submit_study", &Service::handle_submit_study, false, false, kSubmitStudy},
      {"study_status", &Service::handle_study_status, true,  true,  kStudyStatus},
      {"sleep",        &Service::handle_sleep,        false, false, kSleep},
  };
  return kRpcs;
}

bool is_count(const util::Json& value) {
  const double d = value.as_number(-1.0);
  return d >= 0 && d == std::floor(d) && d < 0x1p53;
}

const Rpc* find_rpc(std::string_view kind) {
  for (const Rpc& rpc : rpcs()) {
    if (kind == rpc.kind) return &rpc;
  }
  return nullptr;
}

util::Status check_request(const Rpc& rpc, const util::Json& frame) {
  for (const auto& [name, value] : frame.fields()) {
    if (name == "id" || name == "kind") continue;
    auto key = std::find_if(rpc.keys.begin(), rpc.keys.end(),
                            [&](const RpcKey& k) { return name == k.name; });
    // A dropped key would answer a request nobody sent.
    if (key == rpc.keys.end()) {
      return util::Status::invalid_argument(std::string(rpc.kind) + ": unknown key \"" +
                                            name + "\"");
    }
    if (std::string want = misfit(*key, value); !want.empty()) {
      return util::Status::invalid_argument(std::string(rpc.kind) + ": \"" + name +
                                            "\" must be " + want);
    }
  }
  return util::Status();
}

util::StatusOr<util::Json> Service::handle(Session& session, const std::string& kind,
                                           const util::Json& params) {
  static util::Counter& requests =
      util::MetricsRegistry::instance().counter("serve.requests");
  requests.inc();
  session.requests.fetch_add(1, std::memory_order_relaxed);

  const Rpc* rpc = find_rpc(kind);
  if (!rpc) return util::Status::invalid_argument("unknown request kind '" + kind + "'");
  kind_requests(*rpc).inc();
  if (util::Status checked = check_request(*rpc, params); !checked.ok()) return checked;
  return (this->*rpc->handler)(session, params);
}

util::StatusOr<util::Json> Service::handle_ping(Session& session, const util::Json&) {
  util::Json result = util::Json::object();
  result["pong"] = true;
  result["session"] = static_cast<size_t>(session.id);
  return result;
}

util::StatusOr<util::Json> Service::handle_health(Session&, const util::Json&) {
  util::Json result = health_provider_ ? health_provider_() : util::Json::object();
  result["stores"] = registry_.size();
  return result;
}

util::StatusOr<util::Json> Service::handle_shutdown(Session&, const util::Json&) {
  if (!on_shutdown_) {
    return util::Status::failed_precondition("no shutdown handler installed");
  }
  // The handler is NOT invoked here: the transport triggers it after the
  // reply is on the wire, or the drain would race the client's read.
  util::Json result = util::Json::object();
  result["draining"] = true;
  return result;
}

util::StatusOr<util::Json> Service::handle_open(Session&, const util::Json& params) {
  std::string path = params.get_string("path");
  if (path.empty()) return util::Status::invalid_argument("open: need \"path\"");
  auto reader = registry_.get(path);
  if (!reader.ok()) return reader.status();
  util::Json result = util::Json::object();
  result["path"] = path;
  result["countries"] = (*reader)->num_countries();
  result["sites"] = (*reader)->num_sites();
  result["hits"] = (*reader)->num_hits();
  result["bytes"] = static_cast<size_t>((*reader)->file_size());
  return result;
}

util::StatusOr<util::Json> Service::handle_query(Session&, const util::Json& params) {
  std::string name = params.get_string("store");
  auto reader = registry_.get(name);
  if (!reader.ok() && name.empty()) {
    return util::Status::failed_precondition(
        "no default store — start the daemon with --store, or name one with "
        "\"store\"");
  }
  if (!reader.ok()) return reader.status();
  return answer_query(**reader, params);
}

util::StatusOr<util::Json> answer_query(const store::Reader& reader, const util::Json& frame) {
  if (const util::Json* report = frame.find("report")) {
    // A report is one fixed paper table: a scan key beside it would shape
    // nothing, and answering anyway would drop it.
    for (const char* scan : {"table", "project", "where", "group_by", "flows", "limit"}) {
      if (frame.has(scan)) {
        return util::Status::invalid_argument(std::string("query: \"report\" excludes \"") +
                                              scan + "\"");
      }
    }
    return store::report_json(reader, report->as_string());
  }
  store::QuerySpec spec;
  std::string table = frame.get_string("table", "hits");
  auto table_id = store::table_from_name(table);
  if (!table_id) {
    return util::Status::invalid_argument("unknown table '" + table +
                                          "' (countries|sites|hits)");
  }
  spec.table = *table_id;
  if (const util::Json* project = frame.find("project")) {
    for (const util::Json& col : project->items()) spec.project.push_back(col.as_string());
  }
  if (const util::Json* where = frame.find("where")) {
    for (const util::Json& pred : where->items()) {
      spec.where.emplace_back(pred.at(0).as_string(), pred.at(1).as_string());
    }
  }
  spec.group_by = frame.get_string("group_by");
  spec.flows = frame.get_bool("flows");
  spec.limit = count(frame, "limit", 0);

  store::Error error;
  std::optional<util::Json> result = store::Query(reader).run(spec, &error);
  if (!result) return util::Status::invalid_argument(error.to_string());
  return std::move(*result);
}

util::StatusOr<util::Json> Service::handle_submit_study(Session&, const util::Json& params) {
  worldgen::StudyOptions options;
  options.seed = count(params, "seed", options.seed);
  options.jobs = count(params, "jobs", options.jobs);
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

util::StatusOr<util::Json> Service::handle_study_status(Session&, const util::Json& params) {
  // Inline-plane: runs on a reactor thread while a study may be holding a
  // worker under study_mu_. Only jobs_mu_ (never held across anything slow)
  // and the progress snapshot's own mutex are touched.
  uint64_t job_id = 0;
  std::shared_ptr<worldgen::StudyProgress> progress;
  const uint64_t requested = count(params, "job", 0);
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    if (requested > 0) {
      auto it = jobs_.find(requested);
      if (it == jobs_.end()) {
        return util::Status::not_found(
            "study_status: unknown job " + std::to_string(requested) +
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

util::StatusOr<util::Json> Service::handle_sleep(Session&, const util::Json& params) {
  const double ms = params.get_number("ms", 0.0);
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<int64_t>(ms * 1000.0)));
  util::Json result = util::Json::object();
  result["slept_ms"] = ms;
  return result;
}

util::StatusOr<util::Json> Service::handle_stats(Session&, const util::Json&) {
  util::MetricsSnapshot snap = util::MetricsRegistry::instance().snapshot();
  util::Json result = util::Json::object();
  result["json"] = snap.to_json();
  result["prometheus"] = snap.to_prometheus();
  return result;
}

}  // namespace gam::serve
