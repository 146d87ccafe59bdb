#include "serve/pulse.h"

#include <map>

#include "serve/service.h"
#include "util/io.h"
#include "util/logging.h"

namespace gam::serve {

namespace {

/// The request table's kinds plus the sink every other kind folds into.
std::map<std::string, KindMetrics> build_kind_metrics() {
  util::MetricsRegistry& reg = util::MetricsRegistry::instance();
  std::map<std::string, KindMetrics> out;
  auto add = [&](const std::string& kind) {
    std::string base = "serve.rpc." + kind;
    KindMetrics m;
    m.requests = &reg.counter(base + ".requests");
    m.errors = &reg.counter(base + ".errors");
    m.queue_wait_ms = &reg.histogram(base + ".queue_wait_ms");
    m.handle_ms = &reg.histogram(base + ".handle_ms");
    m.flush_ms = &reg.histogram(base + ".flush_ms");
    out.emplace(kind, m);
  };
  for (const Rpc& rpc : rpcs()) add(rpc.kind);
  add(kUnknownKind);
  return out;
}

/// Immutable after first use: the hot-path lookup is a lock-free map find.
const std::map<std::string, KindMetrics>& kind_metrics_table() {
  static const std::map<std::string, KindMetrics> table = build_kind_metrics();
  return table;
}

}  // namespace

const KindMetrics& kind_metrics(const std::string& kind) {
  const auto& table = kind_metrics_table();
  auto it = table.find(kind);
  if (it == table.end()) it = table.find(kUnknownKind);
  return it->second;
}

void count_kind_error(const std::string& kind, const std::string& reason) {
  kind_metrics(kind).errors->inc();
  // Reason counters are registered on demand (registry mutex) — shed paths
  // are rare by construction, so the cold lookup never sits on the hot path.
  const std::string family = find_rpc(kind) ? kind : kUnknownKind;
  util::MetricsRegistry::instance().counter("serve.rpc." + family + ".errors." + reason).inc();
}

std::string normalize_spec(const std::string& kind, const util::Json& frame) {
  // util::Json objects are std::map-ordered, so copying the declared keys
  // into a fresh object and dumping compact is already canonical.
  util::Json spec = util::Json::object();
  if (const Rpc* rpc = find_rpc(kind)) {
    for (const RpcKey& key : rpc->keys) {
      const util::Json* v = frame.find(key.name);
      if (v && !key.knob) spec[key.name] = *v;
    }
  }
  return spec.dump();
}

SlowLog::SlowLog(std::string path, double slow_ms)
    : path_(std::move(path)), slow_ms_(slow_ms) {}

util::Json SlowLog::record_json(const RequestClock& clock,
                                PulseClock::time_point flushed, bool delivered) {
  util::Json rec = util::Json::object();
  rec["kind"] = clock.kind;
  rec["id"] = clock.id;
  rec["session"] = static_cast<size_t>(clock.session_id);
  rec["spec"] = clock.spec;
  rec["ok"] = clock.ok;
  rec["error"] = clock.error_code;
  rec["inline"] = clock.inline_kind;
  rec["queue_wait_ms"] = clock.queue_wait_ms();
  rec["handle_ms"] = clock.handle_ms();
  rec["flush_ms"] = clock.flush_ms(flushed);
  rec["total_ms"] = clock.total_ms(flushed);
  rec["reply_bytes"] = clock.reply_bytes;
  rec["chunks"] = clock.chunks;
  rec["rate_limited"] = clock.rate_limited;
  rec["backpressure"] = clock.backpressure;
  rec["delivered"] = delivered;
  return rec;
}

void SlowLog::observe(const RequestClock& clock, PulseClock::time_point flushed,
                      bool delivered) {
  if (clock.total_ms(flushed) < slow_ms_) return;
  static util::Counter& emitted =
      util::MetricsRegistry::instance().counter("serve.slowlog.emitted");
  static util::Counter& capped =
      util::MetricsRegistry::instance().counter("serve.slowlog.capped");
  static util::Counter& failures =
      util::MetricsRegistry::instance().counter("serve.slowlog.write_failures");

  std::string line = record_json(clock, flushed, delivered).dump();
  line += '\n';

  std::lock_guard<std::mutex> lock(mu_);
  int64_t second = std::chrono::duration_cast<std::chrono::seconds>(
                       flushed.time_since_epoch())
                       .count();
  if (second != window_second_) {
    window_second_ = second;
    emitted_in_window_ = 0;
  }
  if (emitted_in_window_ >= kMaxPerSecond) {
    // The flood guard: past the cap a slow second only gets cheaper, never
    // an fsync storm. Capped records still count toward the 100%-accounting
    // invariant (emitted + capped == candidates).
    capped.inc();
    return;
  }
  ++emitted_in_window_;
  util::Status status = util::io::durable_append(path_, line);
  if (!status.ok()) {
    failures.inc();
    util::log_warn("pulse", "slow-log append failed: " + status.to_string());
    return;
  }
  emitted.inc();
  util::log_debug("pulse", "slow " + clock.kind + " session=" +
                               std::to_string(clock.session_id) + " total_ms=" +
                               std::to_string(clock.total_ms(flushed)));
}

}  // namespace gam::serve
