// serve::Service — the request handlers behind the GammaServe socket.
//
// The service is transport-agnostic: it maps (session, kind, params) to a
// StatusOr<Json> result and never touches a socket, which is what makes the
// whole request surface drivable from a unit test without a listener.
// Request kinds:
//
//   ping          {}                          -> {"pong": true}
//   health        {}                          -> state/session/queue snapshot
//   stats         {}                          -> util::metrics JSON + Prometheus text
//   open          {"path": P}                 -> open + share a GMST store
//   query         {"store"?, "report"? | "table"/"where"/...} -> store scan;
//                 result bytes identical to `gamma store query` (test-asserted)
//   submit_study  {"seed"?, "countries"?, "jobs"?, "store_out"?, "shard_dir"?}
//                 -> run a study; journaled to the daemon's checkpoint dir,
//                 so a killed daemon resumes per-country on restart. Any
//                 other key is invalid_argument. The reply carries the
//                 tracked "job" id for study_status.
//   study_status  {"job"?: N}                 -> GammaPulse progress for the
//                 given (default: latest) submitted study — per-country
//                 states, counts, elapsed, ETA. Inline: answers while a
//                 study holds a worker, which is the whole point.
//   sleep         {"ms": N (<= 5000)}         -> hold a worker; the load
//                 generator for the backpressure/drain tests and benches
//   shutdown      {}                          -> begin graceful drain
//
// Studies are serialized on one mutex: a study saturates the country pool
// by itself, and two concurrent studies with the same seed would contend
// for the same checkpoint journal (whose single-writer lock would fail the
// loser anyway). Queries run fully parallel.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "serve/session.h"
#include "util/json.h"
#include "util/status.h"
#include "worldgen/study.h"
#include "worldgen/world.h"

namespace gam::serve {

struct ServiceOptions {
  /// Journal directory handed to every submitted study ("" = no journal).
  std::string checkpoint_dir;
  /// Store preloaded at startup and registered as the default ("").
  std::string store_path;
  /// Simulated world studies run against; generated lazily on the first
  /// submit_study when null (generation is expensive — tests share one).
  std::shared_ptr<worldgen::World> world;
  /// Fault plan applied to every submitted study (`gamma serve
  /// --fault-plan`), same deterministic contract as `gamma study
  /// --fault-plan`: for a fixed seed the study output — and therefore the
  /// slow-log's non-timing bytes — is identical at every jobs width.
  std::optional<util::FaultPlan> fault_plan;
};

class Service {
 public:
  explicit Service(ServiceOptions options);

  /// Preload options.store_path into the registry (called by Server::start
  /// so a bad --store path fails startup, not the first query).
  util::Status init();

  /// Dispatch one request. `params` is the whole request object (id/kind
  /// included; handlers read only their own keys).
  util::StatusOr<util::Json> handle(Session& session, const std::string& kind,
                                    const util::Json& params);

  /// True for kinds the connection thread answers inline — the control
  /// plane must respond even when the queue is full or draining.
  static bool is_inline_kind(const std::string& kind);

  StoreRegistry& registry() { return registry_; }

  /// Wired by the Server: shutdown requests, and the live server state the
  /// health handler reports.
  void set_shutdown_handler(std::function<void()> fn) { on_shutdown_ = std::move(fn); }
  void set_health_provider(std::function<util::Json()> fn) {
    health_provider_ = std::move(fn);
  }

 private:
  util::StatusOr<util::Json> handle_open(Session& session, const util::Json& params);
  util::StatusOr<util::Json> handle_query(Session& session, const util::Json& params);
  util::StatusOr<util::Json> handle_submit_study(const util::Json& params);
  util::StatusOr<util::Json> handle_study_status(const util::Json& params);
  util::StatusOr<util::Json> handle_sleep(const util::Json& params);
  util::StatusOr<util::Json> handle_stats();
  util::StatusOr<std::shared_ptr<store::Reader>> resolve_store(Session& session,
                                                               const util::Json& params);

  ServiceOptions options_;
  StoreRegistry registry_;
  std::function<void()> on_shutdown_;
  std::function<util::Json()> health_provider_;
  std::mutex world_mu_;  // guards lazy world generation
  std::mutex study_mu_;  // serializes submitted studies

  /// GammaPulse job tracker: every submit_study gets an id and a shared
  /// StudyProgress the inline study_status handler reads WITHOUT touching
  /// study_mu_ — status answers while a study holds a worker. Bounded to
  /// the most recent jobs (kMaxTrackedJobs).
  std::mutex jobs_mu_;
  uint64_t next_job_id_ = 0;
  std::map<uint64_t, std::shared_ptr<worldgen::StudyProgress>> jobs_;
};

}  // namespace gam::serve
