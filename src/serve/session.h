// serve::Session — one connected client's state, and the shared store
// registry every session resolves store names through.
//
// A session is created by the listener at accept time, assigned to exactly
// one reactor, and lives until the connection is torn down. The read side
// (frame decoder, EOF flag) is touched only by the owning reactor thread;
// the write side is a bounded outbound buffer guarded by `out_mu` that
// worker threads append to and the reactor (or an opportunistic
// nonblocking flush at enqueue time) drains — no thread ever blocks in
// send(2) on a session. Store readers themselves are shared process-wide:
// the registry hands out shared_ptr<store::Reader> handles, so 64 clients
// querying the same .gmst map it exactly once.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "serve/pulse.h"
#include "store/reader.h"
#include "util/status.h"

namespace gam::serve {

struct Reactor;  // defined in server.cpp — sessions only carry the handle

/// Process-wide cache of mapped stores, keyed by path. Readers are
/// immutable after open (see store::Reader::open_shared), so one mapping
/// safely serves every session concurrently.
class StoreRegistry {
 public:
  /// Find-or-open. A failed open is NOT cached — a store that is being
  /// rewritten (tmp + rename) becomes visible on the next request.
  util::StatusOr<std::shared_ptr<store::Reader>> get(const std::string& path);

  /// Register `path` under the reserved default name "" as well, so
  /// requests without a "store" param hit the store the daemon was started
  /// with.
  util::Status set_default(const std::string& path);

  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<store::Reader>> stores_;
};

struct Session {
  ~Session();  // closes fd — the last reference (reactor or worker) hangs up

  uint64_t id = 0;
  int fd = -1;

  // --- read side: owned by the session's reactor thread -------------------
  /// Incremental frame decoder; partial frames persist across epoll wakes.
  FrameDecoder decoder;

  // --- write side: guarded by out_mu ---------------------------------------
  /// Serializes the outbound buffer: worker replies, reactor-thread protocol
  /// errors, and the reactor's writability flushes all append/drain through
  /// here. Nothing blocks while holding it — sends are MSG_DONTWAIT.
  std::mutex out_mu;
  /// Bytes accepted from handlers but not yet accepted by the kernel.
  /// `out_off` is the consumed prefix (compacted as it grows). When the
  /// buffered remainder is already >= the server's write_buf_cap and another
  /// reply arrives, the peer is a slow reader and the session is cut loose.
  std::string outbuf;
  size_t out_off = 0;
  /// EPOLLOUT currently armed on the owning reactor (avoid redundant MODs).
  bool epollout = false;
  /// Peer sent EOF, or a fatal protocol error stopped the read side.
  bool read_closed = false;
  /// Flush whatever is buffered, then tear the session down (the
  /// BadLength goodbye: diagnose, flush, hang up).
  bool close_after_flush = false;

  // --- GammaPulse flush tracking: guarded by out_mu -----------------------
  /// Monotonic byte counters (ever enqueued / ever accepted by the kernel).
  /// Absolute watermarks sidestep the outbuf compaction bookkeeping: a
  /// pending reply is flushed exactly when flushed_total reaches the
  /// enqueued_total captured at its enqueue.
  uint64_t enqueued_total = 0;
  uint64_t flushed_total = 0;
  /// A reply whose last byte has not left the outbuf yet. Completed entries
  /// migrate to `flushed_replies` (inside flush_locked / mark_dead_locked)
  /// and are published — flush_ms histogram + slow-log — by
  /// Server::publish_flushed OUTSIDE out_mu, so no fsync ever runs under a
  /// session lock.
  struct PendingReply {
    uint64_t flushed_at_bytes = 0;
    RequestClock clock;
  };
  struct FlushedReply {
    RequestClock clock;
    PulseClock::time_point flushed{};
    bool delivered = true;  // false: session died before the reply drained
  };
  std::deque<PendingReply> pending_replies;
  std::vector<FlushedReply> flushed_replies;

  /// Owning reactor. Set once at accept, before the session is published;
  /// valid for the server's lifetime (reactors are joined only at drain,
  /// after the worker pool).
  Reactor* reactor = nullptr;
  int reactor_epfd = -1;

  /// Torn down (or marked for teardown). A reply enqueued to a dead session
  /// is dropped and counted as serve.send_failures.
  std::atomic<bool> dead{false};
  /// Dispatcher-queued requests not yet replied — a half-closed session is
  /// only reaped once this hits zero and the outbuf has drained.
  std::atomic<int> inflight{0};

  // --- rate limiting: touched only by the owning reactor thread ------------
  double tokens = 0.0;
  bool bucket_primed = false;
  std::chrono::steady_clock::time_point last_refill;

  /// Requests observed on this session (per-client metrics label
  /// `serve.session.requests` is summed from these at health time).
  std::atomic<uint64_t> requests{0};
};

}  // namespace gam::serve
