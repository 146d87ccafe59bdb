// serve::Server — the GammaServe listener and connection plane.
//
// Phase 2: a multiplexed epoll reactor instead of a thread per connection.
// One accept thread hands sockets to N reactor threads; each reactor owns
// its sessions' nonblocking fds through one epoll set (level-triggered,
// EPOLLIN|EPOLLOUT driven) and is the only thread that reads them or tears
// them down. Request execution still happens on the Dispatcher's bounded
// queue + worker pool, but replies never touch a blocking send(2): they are
// appended to the session's bounded outbound buffer, flushed
// opportunistically with MSG_DONTWAIT, and drained by the reactor when the
// socket turns writable. The consequences the phase-1 plane could not offer:
//
//   - a worker thread can never wedge on a slow-reading peer — at worst it
//     appends to a buffer and moves on;
//   - a peer whose buffer stays at the cap while more replies arrive is a
//     slow reader and is disconnected (serve.slow_reader_disconnects)
//     instead of holding memory and a worker hostage;
//   - a vanished peer surfaces as a counted failure
//     (serve.send_failures) and a torn-down session, never a silently
//     ignored send;
//   - large results stream as chunked frames (see protocol.h), so a
//     multi-MB report never needs one kMaxFrameBytes-sized frame;
//   - per-client token buckets shed abusive request rates at dispatch with
//     a structured `rate_limited` error (serve.rate_limited).
//
// The drain state machine keeps its phase-1 contract:
//
//   Serving -> Draining:  stop accepting (listen socket shut down), new
//                         data-plane requests on live connections answered
//                         `unavailable: draining`, control-plane kinds
//                         (ping/health/stats/shutdown) still answered by
//                         the reactors;
//   Draining -> Drained:  bounded queue runs dry (in-flight studies finish —
//                         checkpointing per country as they always do — and
//                         in-flight queries complete), the reactors flush
//                         every session's outbound buffer (bounded wait),
//                         then sockets shut down and the reactors join.
//
// A SIGKILL instead of drain loses nothing durable: submitted studies
// journal per-country through worldgen::checkpoint, and a restarted daemon
// resumes them byte-identically (test-asserted).
//
// Observability: serve.connections / serve.sessions / serve.requests[.kind]
// / serve.queue_depth / serve.request_ms / serve.rejected /
// serve.protocol_errors / serve.send_failures /
// serve.slow_reader_disconnects / serve.rate_limited /
// serve.chunked_replies, plus `serve.request` and `serve.drain` trace spans.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/dispatcher.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "serve/session.h"
#include "util/status.h"

namespace gam::serve {

struct ServerOptions {
  /// TCP listen address. Port 0 binds an ephemeral port — the
  /// GAMMA_SERVE_PORT=0 convention parallel test runners rely on; read the
  /// bound port back from Server::port().
  std::string host = "127.0.0.1";
  int port = 0;
  /// Non-empty: listen on this AF_UNIX path instead of TCP. A path whose
  /// node answers connect(2) belongs to a live daemon and is refused with
  /// `unavailable`; only a stale node (dead daemon) is reclaimed.
  std::string unix_path;
  size_t workers = 4;
  /// Bounded queue depth; request N+1 is refused with `resource_exhausted`.
  size_t max_queue = 64;
  size_t max_frame_bytes = kMaxFrameBytes;
  /// Reactor (I/O multiplexing) threads. Each session is pinned to one.
  size_t reactors = 2;
  /// Per-session outbound buffer cap. A single reply always enqueues whole,
  /// but a session whose buffer is still at/over the cap when the *next*
  /// reply arrives has stopped reading and is disconnected.
  size_t write_buf_cap = 8u << 20;
  /// Results whose serialized form exceeds this stream as chunked frames
  /// (0 = default). Clamped to max_frame_bytes / 4.
  size_t chunk_bytes = 256u << 10;
  /// Per-client token bucket: data-plane requests per second (0 = no
  /// limit) and bucket size (0 = max(rate, 1)). Control-plane kinds are
  /// exempt — health/shutdown must answer even for a throttled client.
  double rate_limit = 0.0;
  double rate_burst = 0.0;
  /// SO_SNDBUF for accepted sockets (0 = kernel default). Tests and benches
  /// shrink it so the slow-reader path triggers without megabytes of replies.
  int sndbuf_bytes = 0;
  /// GammaPulse slow-query threshold: a request whose decode→last-byte-
  /// flushed total is >= this many milliseconds emits one slow-log record
  /// (0 = log every request). Only consulted when slow_log is set.
  double slow_ms = 50.0;
  /// Slow-query JSONL sink path ("" = slow log disarmed). Records are
  /// durable_append'ed with a per-second emission cap (SlowLog::kMaxPerSecond).
  std::string slow_log;
  ServiceOptions service;
};

class Server {
 public:
  /// Bind, listen, spin up reactors, and start serving. On failure nothing
  /// is left running.
  static util::StatusOr<std::unique_ptr<Server>> start(ServerOptions options);

  /// Drains (if the caller has not already) and joins everything.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bound TCP port (0 when listening on a unix socket).
  uint16_t port() const { return port_; }
  const std::string& unix_path() const { return options_.unix_path; }

  Service& service() { return service_; }

  /// Flag a shutdown request (signal handler, shutdown RPC, or test) and
  /// wake wait_shutdown(). Does not drain — the owning thread does that.
  void request_shutdown();
  bool shutdown_requested() const;
  /// Block until a shutdown is requested or `timeout_ms` elapses; true when
  /// requested. The `gamma serve` main loop's only job.
  bool wait_shutdown(int timeout_ms);

  /// Run the drain state machine to completion. Idempotent, callable from
  /// any thread that is not a worker or reactor thread.
  void drain();
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  size_t active_sessions() const;

 private:
  explicit Server(ServerOptions options);

  util::Status listen_on_socket();
  util::Status start_reactors();
  void accept_loop();

  // Reactor plane. Only the owning reactor thread reads a session or
  // removes it from its epoll set; other threads request teardown through
  // the reactor's queue + eventfd wake.
  void reactor_loop(Reactor& r);
  void handle_readable(const std::shared_ptr<Session>& session);
  void teardown(Reactor& r, const std::shared_ptr<Session>& session);
  static void request_teardown(Session& session);

  void handle_frame(const std::shared_ptr<Session>& session, util::Json frame);
  void execute(const std::shared_ptr<Session>& session, RequestClock clock,
               const std::string& kind, const util::Json& frame);
  /// True when the session's token bucket admits one more data-plane
  /// request. Reactor-thread only.
  bool take_token(Session& session);

  // Write plane. enqueue_bytes appends + opportunistically flushes;
  // flush_locked drains with MSG_DONTWAIT and manages EPOLLOUT arming. All
  // require session.out_mu (the *_locked suffix) and never block.
  // `clock` (nullable) parks the request on the session's pending-flush
  // queue so the last-byte-flushed stamp lands when the kernel accepts it.
  void write_reply(Session& session, const util::Json& reply,
                   RequestClock* clock = nullptr);
  bool enqueue_bytes(Session& session, std::string bytes,
                     RequestClock* clock = nullptr);
  void flush_locked(Session& session);
  void mark_dead_locked(Session& session);
  /// Move every still-pending reply to the flushed list as undelivered —
  /// the session is dying and their last byte will never drain. Requires
  /// out_mu.
  void abandon_pending_locked(Session& session);
  /// Record flush_ms + slow-log for replies whose last byte drained (or
  /// whose session died). Takes out_mu briefly; the recording itself —
  /// including the slow-log fsync — runs outside it.
  void publish_flushed(Session& session);
  void set_interest_locked(Session& session, bool want_write);
  /// Reap a half-closed session once its last reply has flushed.
  void maybe_finish_half_closed(const std::shared_ptr<Session>& session);

  void session_closed(uint64_t id);
  util::Json health_json();

  ServerOptions options_;
  Service service_;
  Dispatcher dispatcher_;
  /// Armed when options_.slow_log is set; shared by every session's
  /// publish_flushed path (internally locked).
  std::unique_ptr<SlowLog> slow_log_;
  /// Server start time, for health's uptime_s.
  std::chrono::steady_clock::time_point started_{};

  int listen_fd_ = -1;
  /// We bound options_.unix_path ourselves. Guards the unlink at drain: a
  /// Server that *refused* to start (live daemon on the path) must not
  /// delete that daemon's socket node on destruction.
  bool unix_bound_ = false;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::atomic<size_t> next_reactor_{0};

  std::atomic<bool> draining_{false};
  bool drained_ = false;       // guarded by drain_mu_
  std::mutex drain_mu_;        // serializes drain()

  mutable std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;

  mutable std::mutex sessions_mu_;
  uint64_t next_session_id_ = 0;
  std::map<uint64_t, std::shared_ptr<Session>> sessions_;
};

}  // namespace gam::serve
