// serve::pulse — GammaPulse, the per-request observability plane.
//
// Every request the daemon decodes gets a RequestClock stamped at six
// lifecycle points (DESIGN §14):
//
//   decode       frame parsed on the reactor thread
//   enqueue      submitted to the Dispatcher's bounded queue
//   dequeue      picked up by a worker (== enqueue for inline kinds)
//   handle_start Service::handle entered
//   handle_end   Service::handle returned
//   flushed      last reply byte accepted by the kernel (write-buffer drain)
//
// and the deltas land in per-kind RED instruments
// (serve.rpc.<kind>.requests / .errors counters, plus queue_wait_ms /
// handle_ms / flush_ms histograms) through the existing metrics registry —
// the JSON and Prometheus snapshots pick them up with zero new formats.
// A kind the request table (serve::rpcs()) does not declare is counted as
// kUnknownKind, so a hostile client cannot mint unbounded metric families.
//
// Requests whose decode→flushed total exceeds --slow-ms additionally emit
// one structured JSONL record through the SlowLog sink (durable
// util::io::durable_append, per-second emission cap so a flood cannot
// amplify itself). The record's non-timing fields are deterministic
// functions of the request stream — the slow-log determinism tests compare
// them byte-for-byte across --jobs values and kill+resume histories.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

#include "util/json.h"
#include "util/metrics.h"

namespace gam::serve {

using PulseClock = std::chrono::steady_clock;

/// One request's lifecycle stamps plus the reply-shape facts the slow-log
/// record needs. Created at decode on the reactor thread, carried through
/// the dispatcher lambda into execute(), and parked on the session's
/// pending-flush queue until the reply's last byte drains.
struct RequestClock {
  std::string kind;        // a declared kind or kUnknownKind: a safe metric name
  double id = 0.0;
  uint64_t session_id = 0;
  bool inline_kind = false;

  PulseClock::time_point decode{};
  PulseClock::time_point enqueue{};
  PulseClock::time_point dequeue{};
  PulseClock::time_point handle_start{};
  PulseClock::time_point handle_end{};

  bool ok = true;
  std::string error_code;  // status code name when !ok ("" when ok)
  /// Normalized request spec (deterministic compact JSON; see
  /// normalize_spec). Filled only when a slow log is armed.
  std::string spec;
  size_t reply_bytes = 0;
  size_t chunks = 1;
  /// Shed/backpressure flags: the request was refused by the token bucket,
  /// the bounded queue, or the drain gate rather than handled.
  bool rate_limited = false;
  bool backpressure = false;

  double queue_wait_ms() const {
    return std::chrono::duration<double, std::milli>(dequeue - enqueue).count();
  }
  double handle_ms() const {
    return std::chrono::duration<double, std::milli>(handle_end - handle_start).count();
  }
  double flush_ms(PulseClock::time_point flushed) const {
    return std::chrono::duration<double, std::milli>(flushed - handle_end).count();
  }
  double total_ms(PulseClock::time_point flushed) const {
    return std::chrono::duration<double, std::milli>(flushed - decode).count();
  }
};

/// Per-kind RED instruments. References are process-lifetime (registry
/// contract); every declared kind is registered once, so the hot-path
/// lookup is a read-only map find with no lock.
struct KindMetrics {
  util::Counter* requests = nullptr;
  util::Counter* errors = nullptr;
  util::Histogram* queue_wait_ms = nullptr;
  util::Histogram* handle_ms = nullptr;
  util::Histogram* flush_ms = nullptr;
};

/// The metric family of every kind the request table does not declare, so
/// a hostile client cannot mint unbounded metric families.
inline constexpr const char* kUnknownKind = "unknown";

/// The instruments for a declared kind or kUnknownKind; any other string
/// falls back to the kUnknownKind family.
const KindMetrics& kind_metrics(const std::string& kind);

/// Count one per-kind error with an attributable reason: increments both
/// serve.rpc.<kind>.errors and serve.rpc.<kind>.errors.<reason> — shed load
/// (queue_full, slow_reader, rate_limited, draining) shows up per kind
/// instead of vanishing into a global counter.
void count_kind_error(const std::string& kind, const std::string& reason);

/// Deterministic compact-JSON digest of the request's semantic parameters:
/// every key the kind's row declares and the frame carries, in sorted key
/// order, except scheduling knobs (submit_study "jobs") — so the digest is
/// byte-identical across --jobs values. Undeclared kinds digest to "{}".
std::string normalize_spec(const std::string& kind, const util::Json& frame);

/// The slow-query JSONL sink: one durable_append'ed record per request whose
/// decode→flushed latency is >= slow_ms (0 = every request), capped per
/// second. Thread-safe; counters serve.slowlog.emitted / .capped /
/// .write_failures account for every candidate record.
class SlowLog {
 public:
  /// Records not emitted past this many per wall second are counted as
  /// capped instead — a slow flood cannot amplify itself through fsync.
  static constexpr size_t kMaxPerSecond = 256;

  SlowLog(std::string path, double slow_ms);

  double slow_ms() const { return slow_ms_; }
  const std::string& path() const { return path_; }

  /// Account one finished request: below threshold it is ignored; above it
  /// the record is emitted (or counted as capped). `delivered` is false when
  /// the session died before the reply's last byte flushed.
  void observe(const RequestClock& clock, PulseClock::time_point flushed,
               bool delivered);

  /// The normative record (DESIGN §14). Non-timing fields (kind, id,
  /// session, spec, ok, error, reply_bytes, chunks, rate_limited,
  /// backpressure, delivered) are deterministic; *_ms fields are wall time.
  static util::Json record_json(const RequestClock& clock,
                                PulseClock::time_point flushed, bool delivered);

 private:
  std::string path_;
  double slow_ms_;
  std::mutex mu_;              // serializes the cap window + the append
  int64_t window_second_ = -1;  // steady-clock second the cap window covers
  size_t emitted_in_window_ = 0;
};

}  // namespace gam::serve
