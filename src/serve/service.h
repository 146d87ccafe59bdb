// serve::Service — the request handlers behind the GammaServe socket.
//
// The service is transport-agnostic: it maps (session, kind, params) to a
// StatusOr<Json> result and never touches a socket, which is what makes the
// whole request surface drivable from a unit test without a listener.
//
// Each request kind is one row of rpcs() (service.cpp): its handler, its
// plane, whether a client may re-send it, and the keys it reads with their
// types. handle() checks every frame against its row first: a key outside
// it (besides the envelope's id and kind) or of the wrong type is
// invalid_argument naming the key. The server, the client's retry rule,
// pulse and `gamma top` read the same rows, so a new kind is one row and
// one handler.
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
#include <span>
#include <string>
#include <string_view>

#include "serve/session.h"
#include "util/json.h"
#include "util/status.h"
#include "worldgen/study.h"
#include "worldgen/world.h"

namespace gam::serve {

class Service;

/// A request handler: the caller's session and a frame its row has checked.
using Handler = util::StatusOr<util::Json>(Session& session, const util::Json& params);

/// What a request key holds; a value of any other type is refused. A count
/// is an integer in [0, 2^53), which a JSON number holds exactly; a number
/// lies in [0, RpcKey::max]; pairs are [column, value] string pairs.
enum class KeyType { kString, kCount, kBool, kNumber, kStrings, kPairs };

struct RpcKey {
  const char* name;
  KeyType type;
  double max = 0;     // kNumber's bound
  bool knob = false;  // a scheduling knob, left out of the slow-log spec
};

/// One request kind, declared once.
struct Rpc {
  const char* kind;
  Handler Service::*handler;
  /// Answered on the reactor thread, never queued or rate-limited: the
  /// control plane must respond while the data plane is saturated or
  /// draining.
  bool inline_plane;
  /// Safe for a self-healing client to re-send after a connection loss:
  /// reads and connection-scoped opens, nothing with a server-side effect.
  bool idempotent;
  std::span<const RpcKey> keys;
};

/// Every request kind the daemon answers, in one immutable table.
std::span<const Rpc> rpcs();

/// True for a count: a JSON number holding an integer in [0, 2^53), which a
/// double holds exactly. The frame envelope's "id" and every kCount key are
/// counts.
bool is_count(const util::Json& value);

/// The row for `kind`, or null for a kind the daemon does not answer.
const Rpc* find_rpc(std::string_view kind);

/// invalid_argument naming the first key of `frame` that `rpc` does not
/// declare, or whose value is not of the declared type; OK otherwise.
util::Status check_request(const Rpc& rpc, const util::Json& frame);

/// The answer to a checked query frame over `reader`: a paper "report", or
/// a scan of "table" shaped by "project", "where", "group_by", "flows" and
/// "limit"; a report beside any scan key is invalid_argument. The daemon's
/// query kind and `gamma store query` both return it.
util::StatusOr<util::Json> answer_query(const store::Reader& reader, const util::Json& frame);

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

  /// Dispatch one request: check `params`, the whole request object (id
  /// and kind included), against the kind's row, then run its handler.
  util::StatusOr<util::Json> handle(Session& session, const std::string& kind,
                                    const util::Json& params);

  StoreRegistry& registry() { return registry_; }

  /// Wired by the Server: shutdown requests, and the live server state the
  /// health handler reports.
  void set_shutdown_handler(std::function<void()> fn) { on_shutdown_ = std::move(fn); }
  void set_health_provider(std::function<util::Json()> fn) {
    health_provider_ = std::move(fn);
  }

 private:
  friend std::span<const Rpc> rpcs();

  // One per row of the table, reached only through handle().
  Handler handle_ping, handle_health, handle_stats, handle_shutdown, handle_open, handle_query,
      handle_submit_study, handle_study_status, handle_sleep;

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
