#include "serve/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "serve/pulse.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace gam::serve {

/// One I/O multiplexing thread's world: an epoll set, an eventfd other
/// threads write to wake it, the sessions it owns, and a queue of teardown
/// requests from worker threads (the reactor is the only thread allowed to
/// remove a session from its epoll set). Registered wake events carry
/// data.u64 == 0; session ids start at 1.
struct Reactor {
  int epfd = -1;
  int wake_fd = -1;
  std::thread thread;
  std::atomic<bool> stop{false};
  std::mutex mu;  // guards sessions + teardowns; never held across out_mu
  std::map<uint64_t, std::shared_ptr<Session>> sessions;
  std::vector<uint64_t> teardowns;

  ~Reactor() {
    if (epfd >= 0) ::close(epfd);
    if (wake_fd >= 0) ::close(wake_fd);
  }

  void wake() const {
    uint64_t one = 1;
    // An EAGAIN here means the counter is already nonzero — the reactor is
    // waking anyway, which is all a wake needs.
    [[maybe_unused]] ssize_t n = ::write(wake_fd, &one, sizeof(one));
  }
};

namespace {

util::Counter& protocol_errors() {
  static util::Counter& c =
      util::MetricsRegistry::instance().counter("serve.protocol_errors");
  return c;
}

util::Counter& send_failures() {
  static util::Counter& c =
      util::MetricsRegistry::instance().counter("serve.send_failures");
  return c;
}

util::Counter& slow_reader_disconnects() {
  static util::Counter& c =
      util::MetricsRegistry::instance().counter("serve.slow_reader_disconnects");
  return c;
}

util::Gauge& sessions_gauge() {
  static util::Gauge& g = util::MetricsRegistry::instance().gauge("serve.sessions");
  return g;
}

bool set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// How long drain waits for the reactors to flush buffered replies before
/// cutting the remaining (necessarily slow or dead) peers loose.
constexpr int kDrainFlushTimeoutMs = 5000;

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      service_(options_.service),
      dispatcher_(options_.workers, options_.max_queue),
      started_(std::chrono::steady_clock::now()) {
  if (!options_.slow_log.empty()) {
    slow_log_ = std::make_unique<SlowLog>(options_.slow_log, options_.slow_ms);
  }
}

util::StatusOr<std::unique_ptr<Server>> Server::start(ServerOptions options) {
  if (options.reactors == 0) options.reactors = 1;
  if (options.chunk_bytes == 0) options.chunk_bytes = 256u << 10;
  // Chunk frames must clear the frame cap with room for envelope + JSON
  // string escaping (worst case 2x for the dump()'d payload we slice).
  options.chunk_bytes = std::min(options.chunk_bytes, options.max_frame_bytes / 4);
  if (options.write_buf_cap == 0) options.write_buf_cap = 8u << 20;

  std::unique_ptr<Server> server(new Server(std::move(options)));
  util::Status status = server->service_.init();
  if (!status.ok()) return status;
  status = server->listen_on_socket();
  if (!status.ok()) return status;
  status = server->start_reactors();
  if (!status.ok()) {
    ::close(server->listen_fd_);
    server->listen_fd_ = -1;
    if (server->unix_bound_) {
      ::unlink(server->options_.unix_path.c_str());
      server->unix_bound_ = false;
    }
    return status;
  }

  Server* raw = server.get();
  server->service_.set_shutdown_handler([raw] { raw->request_shutdown(); });
  server->service_.set_health_provider([raw] { return raw->health_json(); });
  server->accept_thread_ = std::thread([raw] { raw->accept_loop(); });
  util::log_info("serve", "listening on " +
                              (server->options_.unix_path.empty()
                                   ? server->options_.host + ":" +
                                         std::to_string(server->port_)
                                   : server->options_.unix_path) +
                              " (" + std::to_string(server->reactors_.size()) +
                              " reactors)");
  return server;
}

util::Status Server::listen_on_socket() {
  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      return util::Status::invalid_argument("unix socket path too long: " +
                                            options_.unix_path);
    }
    std::strncpy(addr.sun_path, options_.unix_path.c_str(), sizeof(addr.sun_path) - 1);
    // A node that still answers connect(2) belongs to a live daemon;
    // unlinking it would silently steal that daemon's socket. Only a stale
    // node — connect refused (dead listener) or no node at all — is ours to
    // reclaim.
    int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (probe >= 0) {
      bool alive = ::connect(probe, reinterpret_cast<sockaddr*>(&addr),
                             sizeof(addr)) == 0;
      ::close(probe);
      if (alive) {
        return util::Status::unavailable("daemon already running at " +
                                         options_.unix_path);
      }
    }
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      return util::Status::internal(std::string("socket: ") + std::strerror(errno));
    }
    ::unlink(options_.unix_path.c_str());  // stale node from a dead daemon
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      util::Status s = util::Status::unavailable("bind " + options_.unix_path + ": " +
                                                 std::strerror(errno));
      ::close(listen_fd_);
      listen_fd_ = -1;
      return s;
    }
    unix_bound_ = true;
  } else {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(options_.port));
    if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
      return util::Status::invalid_argument("bad listen host: " + options_.host);
    }
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      return util::Status::internal(std::string("socket: ") + std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      util::Status s = util::Status::unavailable(
          "bind " + options_.host + ":" + std::to_string(options_.port) + ": " +
          std::strerror(errno));
      ::close(listen_fd_);
      listen_fd_ = -1;
      return s;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      util::Status s = util::Status::internal(std::string("getsockname: ") +
                                              std::strerror(errno));
      ::close(listen_fd_);
      listen_fd_ = -1;
      return s;
    }
    port_ = ntohs(bound.sin_port);
  }
  if (::listen(listen_fd_, 512) != 0) {
    util::Status s = util::Status::internal(std::string("listen: ") +
                                            std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
    return s;
  }
  return util::Status();
}

util::Status Server::start_reactors() {
  for (size_t i = 0; i < options_.reactors; ++i) {
    auto r = std::make_unique<Reactor>();
    r->epfd = ::epoll_create1(EPOLL_CLOEXEC);
    if (r->epfd < 0) {
      return util::Status::internal(std::string("epoll_create1: ") +
                                    std::strerror(errno));
    }
    r->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (r->wake_fd < 0) {
      return util::Status::internal(std::string("eventfd: ") + std::strerror(errno));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = 0;  // the wake token; session ids start at 1
    if (::epoll_ctl(r->epfd, EPOLL_CTL_ADD, r->wake_fd, &ev) != 0) {
      return util::Status::internal(std::string("epoll_ctl(wake): ") +
                                    std::strerror(errno));
    }
    Reactor* raw = r.get();
    r->thread = std::thread([this, raw] { reactor_loop(*raw); });
    reactors_.push_back(std::move(r));
  }
  return util::Status();
}

void Server::accept_loop() {
  static util::Counter& connections =
      util::MetricsRegistry::instance().counter("serve.connections");
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket shut down: drain started
    }
    if (draining_.load(std::memory_order_acquire) || !set_nonblocking(fd)) {
      ::close(fd);
      continue;
    }
    if (options_.unix_path.empty()) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    if (options_.sndbuf_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
                   sizeof(options_.sndbuf_bytes));
    }
    connections.inc();

    Reactor& r = *reactors_[next_reactor_.fetch_add(1, std::memory_order_relaxed) %
                            reactors_.size()];
    auto session = std::make_shared<Session>();
    session->fd = fd;
    session->decoder = FrameDecoder(options_.max_frame_bytes);
    session->reactor = &r;
    session->reactor_epfd = r.epfd;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      session->id = ++next_session_id_;
      sessions_.emplace(session->id, session);
      sessions_gauge().set(static_cast<double>(sessions_.size()));
    }
    {
      std::lock_guard<std::mutex> lock(r.mu);
      r.sessions.emplace(session->id, session);
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = session->id;
    if (::epoll_ctl(r.epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      {
        std::lock_guard<std::mutex> lock(r.mu);
        r.sessions.erase(session->id);
      }
      session_closed(session->id);
      // The Session destructor closes the fd when the last reference drops.
    }
  }
}

void Server::reactor_loop(Reactor& r) {
  epoll_event events[64];
  while (!r.stop.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(r.epfd, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[i];
      if (ev.data.u64 == 0) {
        uint64_t drainv;
        while (::read(r.wake_fd, &drainv, sizeof(drainv)) > 0) {
        }
        continue;
      }
      std::shared_ptr<Session> session;
      {
        std::lock_guard<std::mutex> lock(r.mu);
        auto it = r.sessions.find(ev.data.u64);
        if (it != r.sessions.end()) session = it->second;
      }
      if (!session) continue;
      if (session->dead.load(std::memory_order_acquire)) {
        teardown(r, session);
        continue;
      }
      if (ev.events & EPOLLOUT) {
        {
          std::lock_guard<std::mutex> lock(session->out_mu);
          flush_locked(*session);
        }
        publish_flushed(*session);
      }
      if (session->dead.load(std::memory_order_acquire)) {
        teardown(r, session);
        continue;
      }
      if (ev.events & (EPOLLERR | EPOLLHUP)) {
        // The transport is gone in at least one direction we need; replies
        // still buffered are undeliverable.
        bool had_pending;
        {
          std::lock_guard<std::mutex> lock(session->out_mu);
          had_pending = session->out_off < session->outbuf.size();
        }
        if (had_pending) send_failures().inc();
        teardown(r, session);
        continue;
      }
      if (ev.events & EPOLLIN) handle_readable(session);
      if (session->dead.load(std::memory_order_acquire)) teardown(r, session);
    }
    // Cross-thread teardown requests (send failures, buffer-cap
    // disconnects, flushed half-closes) land here: only this thread may
    // remove a session from this epoll set.
    std::vector<std::shared_ptr<Session>> doomed;
    {
      std::lock_guard<std::mutex> lock(r.mu);
      for (uint64_t id : r.teardowns) {
        auto it = r.sessions.find(id);
        if (it != r.sessions.end()) doomed.push_back(it->second);
      }
      r.teardowns.clear();
    }
    for (const auto& s : doomed) teardown(r, s);
  }
}

void Server::teardown(Reactor& r, const std::shared_ptr<Session>& session) {
  {
    std::lock_guard<std::mutex> lock(r.mu);
    if (r.sessions.erase(session->id) == 0) return;  // already torn down
  }
  ::epoll_ctl(r.epfd, EPOLL_CTL_DEL, session->fd, nullptr);
  {
    std::lock_guard<std::mutex> lock(session->out_mu);
    session->dead.store(true, std::memory_order_release);
    abandon_pending_locked(*session);
  }
  publish_flushed(*session);
  ::shutdown(session->fd, SHUT_RDWR);
  session_closed(session->id);
  // The fd itself closes when the last Session reference (possibly a queued
  // worker's) drops.
}

void Server::request_teardown(Session& session) {
  Reactor* r = session.reactor;
  if (r == nullptr) return;  // unit-test session with no transport
  {
    std::lock_guard<std::mutex> lock(r->mu);
    r->teardowns.push_back(session.id);
  }
  r->wake();
}

void Server::handle_readable(const std::shared_ptr<Session>& session) {
  char buf[64 * 1024];
  // Level-triggered epoll re-fires while data remains, so the cap here is
  // fairness, not correctness: one chatty session cannot starve the rest of
  // this reactor's sessions for a whole flood.
  for (int round = 0; round < 8; ++round) {
    ssize_t n = ::recv(session->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      session->decoder.feed(buf, static_cast<size_t>(n));
      for (;;) {
        util::Json frame;
        std::string detail;
        FrameDecoder::Result res = session->decoder.next(&frame, &detail);
        if (res == FrameDecoder::Result::NeedMore) break;
        if (res == FrameDecoder::Result::BadLength) {
          // The stream position is garbage from here on; diagnose, flush,
          // and hang up. The flags go up before the reply is enqueued so
          // the flush-completion path sees them.
          protocol_errors().inc();
          {
            std::lock_guard<std::mutex> lock(session->out_mu);
            session->read_closed = true;
            session->close_after_flush = true;
            set_interest_locked(*session, session->epollout);
          }
          enqueue_bytes(*session,
                        encode_frame(error_reply(0, "oversized_frame", detail)));
          publish_flushed(*session);
          return;
        }
        if (res == FrameDecoder::Result::BadJson) {
          // The frame was well-delimited, so framing survives; keep reading.
          protocol_errors().inc();
          write_reply(*session, error_reply(0, "bad_json", detail));
          continue;
        }
        handle_frame(session, std::move(frame));
      }
      if (session->dead.load(std::memory_order_acquire)) return;
      // A short read means the socket is (almost certainly) drained; skip
      // the confirming recv. If more bytes did arrive meanwhile,
      // level-triggered epoll re-fires immediately — correctness never
      // depended on reading to EAGAIN here.
      if (static_cast<size_t>(n) < sizeof(buf)) return;
      continue;
    }
    if (n == 0) {
      // Peer EOF. Replies already in flight (queued work, buffered bytes)
      // still get delivered before the session unwinds; only then is it
      // reaped — the phase-1 plane got the same effect from its per-
      // connection reader refcount.
      std::lock_guard<std::mutex> lock(session->out_mu);
      session->read_closed = true;
      if (session->inflight.load(std::memory_order_acquire) == 0 &&
          session->out_off == session->outbuf.size()) {
        session->dead.store(true, std::memory_order_release);
      } else {
        // Drop EPOLLIN interest or the EOF would re-fire forever.
        set_interest_locked(*session, session->epollout);
      }
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    // Hard transport error (ECONNRESET and friends): whatever we still
    // owed this peer is undeliverable.
    {
      std::lock_guard<std::mutex> lock(session->out_mu);
      if (session->out_off < session->outbuf.size()) send_failures().inc();
      session->dead.store(true, std::memory_order_release);
      abandon_pending_locked(*session);
    }
    publish_flushed(*session);
    return;
  }
}

void Server::handle_frame(const std::shared_ptr<Session>& session, util::Json frame) {
  if (!frame.is_object()) {
    protocol_errors().inc();
    write_reply(*session,
                error_reply(0, "invalid_argument", "request must be a JSON object"));
    return;
  }
  double id = frame.get_number("id", 0.0);
  std::string kind = frame.get_string("kind");
  if (kind.empty()) {
    write_reply(*session,
                error_reply(id, "invalid_argument", "missing request \"kind\""));
    return;
  }

  // GammaPulse: stamp decode and count the request under its kind (every
  // kind the request table does not declare under one sink) before any gate
  // can shed it — RED rate is what arrived, not what survived.
  const Rpc* rpc = find_rpc(kind);
  RequestClock clock;
  clock.kind = rpc ? rpc->kind : kUnknownKind;
  clock.id = id;
  clock.session_id = session->id;
  clock.decode = PulseClock::now();
  kind_metrics(clock.kind).requests->inc();
  if (slow_log_) clock.spec = normalize_spec(clock.kind, frame);
  // A refused request skips execute(): every stage stamp reads decode, so
  // the slow-log breakdown reads queue_wait 0 / handle 0 / flush real, and
  // the refusal is an attributable per-kind error.
  auto refuse = [&](RequestClock& c, const char* code, const char* reason,
                    const char* message) {
    c.ok = false;
    c.enqueue = c.dequeue = c.handle_start = c.handle_end = c.decode;
    c.error_code = code;
    count_kind_error(c.kind, reason);
    write_reply(*session, error_reply(id, code, message), &c);
  };

  // Control plane: answered on the reactor thread, never queued — health
  // and shutdown must work precisely when the data plane is saturated, and
  // they are exempt from the rate limit for the same reason.
  if (rpc && rpc->inline_plane) {
    clock.inline_kind = true;
    clock.enqueue = clock.dequeue = clock.decode;
    execute(session, std::move(clock), kind, frame);
    return;
  }

  if (draining_.load(std::memory_order_acquire)) {
    refuse(clock, "unavailable", "draining", "server is draining");
    return;
  }
  if (options_.rate_limit > 0.0 && !take_token(*session)) {
    static util::Counter& rate_limited =
        util::MetricsRegistry::instance().counter("serve.rate_limited");
    rate_limited.inc();
    clock.rate_limited = true;
    refuse(clock, "rate_limited", "rate_limited", "per-client rate limit exceeded");
    return;
  }
  // A refused submit() destroys the lambda, clock and all: refusals answer
  // on this copy.
  RequestClock refused = clock;
  refused.backpressure = true;
  clock.enqueue = PulseClock::now();
  session->inflight.fetch_add(1, std::memory_order_acq_rel);
  Dispatcher::Submit submitted = dispatcher_.submit(
      [this, session, id, kind, clock = std::move(clock),
       frame = std::move(frame)]() mutable {
        clock.dequeue = PulseClock::now();
        execute(session, std::move(clock), kind, frame);
        session->inflight.fetch_sub(1, std::memory_order_acq_rel);
        maybe_finish_half_closed(session);
      });
  if (submitted == Dispatcher::Submit::Accepted) return;
  session->inflight.fetch_sub(1, std::memory_order_acq_rel);
  if (submitted == Dispatcher::Submit::QueueFull) {
    static util::Counter& rejected =
        util::MetricsRegistry::instance().counter("serve.rejected");
    rejected.inc();
    refuse(refused, "resource_exhausted", "queue_full", "request queue full");
  } else {
    refuse(refused, "unavailable", "draining", "server is draining");
  }
}

bool Server::take_token(Session& session) {
  auto now = std::chrono::steady_clock::now();
  double burst = options_.rate_burst > 0.0 ? options_.rate_burst
                                           : std::max(options_.rate_limit, 1.0);
  if (!session.bucket_primed) {
    session.bucket_primed = true;
    session.tokens = burst;
    session.last_refill = now;
  } else {
    double elapsed = std::chrono::duration<double>(now - session.last_refill).count();
    session.last_refill = now;
    session.tokens = std::min(burst, session.tokens + elapsed * options_.rate_limit);
  }
  if (session.tokens < 1.0) return false;
  session.tokens -= 1.0;
  return true;
}

void Server::execute(const std::shared_ptr<Session>& session, RequestClock clock,
                     const std::string& kind, const util::Json& frame) {
  static util::Histogram& request_ms =
      util::MetricsRegistry::instance().histogram("serve.request_ms");
  util::ScopedTimer timer(request_ms);
  util::trace::ScopedSpan span("serve.request", "serve");
  span.arg("kind", kind);
  span.arg("session", static_cast<uint64_t>(session->id));
  clock.handle_start = PulseClock::now();
  util::StatusOr<util::Json> result = service_.handle(*session, kind, frame);
  clock.handle_end = PulseClock::now();
  const KindMetrics& km = kind_metrics(clock.kind);
  km.queue_wait_ms->observe(clock.queue_wait_ms());
  km.handle_ms->observe(clock.handle_ms());
  double id = clock.id;
  if (result.ok()) {
    write_reply(*session, ok_reply(id, std::move(*result)), &clock);
    // Shutdown triggers only after its reply is buffered — drain flushes
    // every outbound buffer before closing sessions, so the requesting
    // client always reads the acknowledgement.
    if (kind == "shutdown") request_shutdown();
  } else {
    span.arg("error", result.status().code_name());
    km.errors->inc();
    clock.ok = false;
    clock.error_code = result.status().code_name();
    write_reply(*session, error_reply(id, result.status()), &clock);
  }
}

void Server::write_reply(Session& session, const util::Json& reply,
                         RequestClock* clock) {
  // Serialize the envelope once — the overwhelmingly common small-reply
  // path pays exactly what the phase-1 plane paid. Only an envelope already
  // past the chunk threshold is re-serialized as a chunk sequence.
  std::string wire = encode_frame(reply);
  size_t chunks = 1;
  if (wire.size() > options_.chunk_bytes) {
    const util::Json* result = reply.find("result");
    if (result != nullptr && reply.get_bool("ok")) {
      wire = encode_reply_frames(reply.get_number("id", 0.0), *result,
                                 options_.chunk_bytes, &chunks);
      if (chunks > 1) {
        static util::Counter& chunked =
            util::MetricsRegistry::instance().counter("serve.chunked_replies");
        chunked.inc();
      }
    }
  }
  if (clock != nullptr) {
    clock->reply_bytes = wire.size();
    clock->chunks = chunks;
  }
  enqueue_bytes(session, std::move(wire), clock);
  publish_flushed(session);
}

bool Server::enqueue_bytes(Session& session, std::string bytes,
                           RequestClock* clock) {
  std::lock_guard<std::mutex> lock(session.out_mu);
  if (session.dead.load(std::memory_order_acquire)) {
    // The peer died (or was cut loose) before this reply: surfaced, counted,
    // dropped — never silently swallowed into a broken socket.
    send_failures().inc();
    if (clock != nullptr) {
      session.flushed_replies.push_back(
          {std::move(*clock), PulseClock::now(), /*delivered=*/false});
    }
    return false;
  }
  size_t buffered = session.outbuf.size() - session.out_off;
  if (buffered >= options_.write_buf_cap) {
    // The cap is a high-water mark, not a hard allocation bound: any single
    // reply enqueues whole (a multi-MB chunked result must not kill a
    // healthy reader), but a buffer still full when the NEXT reply arrives
    // means the peer has stopped reading. Disconnect it instead of wedging
    // a worker or buffering without bound.
    slow_reader_disconnects().inc();
    if (clock != nullptr) {
      // The shed-load fix: the disconnect is charged to the request's kind
      // (the reply it cost), not just the global slow-reader counter.
      count_kind_error(clock->kind, "slow_reader");
      clock->backpressure = true;
      session.flushed_replies.push_back(
          {std::move(*clock), PulseClock::now(), /*delivered=*/false});
    }
    mark_dead_locked(session);
    return false;
  }
  size_t nbytes = bytes.size();
  if (buffered == 0) {
    session.outbuf = std::move(bytes);
    session.out_off = 0;
  } else {
    session.outbuf += bytes;
  }
  session.enqueued_total += nbytes;
  if (clock != nullptr) {
    // Park before flushing: an immediately-draining flush completes the
    // entry in the same flush_locked call below.
    session.pending_replies.push_back({session.enqueued_total, std::move(*clock)});
  }
  flush_locked(session);
  return !session.dead.load(std::memory_order_acquire);
}

void Server::flush_locked(Session& session) {
  while (session.out_off < session.outbuf.size()) {
    ssize_t n = ::send(session.fd, session.outbuf.data() + session.out_off,
                       session.outbuf.size() - session.out_off,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      session.out_off += static_cast<size_t>(n);
      session.flushed_total += static_cast<uint64_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // EPIPE / ECONNRESET / anything else: the peer is gone mid-reply.
    send_failures().inc();
    mark_dead_locked(session);
    return;
  }
  // Replies whose last byte the kernel just accepted get their flushed
  // stamp here; the recording (histogram + slow-log fsync) happens in
  // publish_flushed, outside out_mu.
  if (!session.pending_replies.empty()) {
    PulseClock::time_point now = PulseClock::now();
    while (!session.pending_replies.empty() &&
           session.pending_replies.front().flushed_at_bytes <=
               session.flushed_total) {
      session.flushed_replies.push_back(
          {std::move(session.pending_replies.front().clock), now,
           /*delivered=*/true});
      session.pending_replies.pop_front();
    }
  }
  if (session.out_off == session.outbuf.size()) {
    session.outbuf.clear();
    session.out_off = 0;
    if (session.epollout) set_interest_locked(session, false);
    if (session.close_after_flush ||
        (session.read_closed &&
         session.inflight.load(std::memory_order_acquire) == 0)) {
      mark_dead_locked(session);
    }
    return;
  }
  // Kernel buffer full: compact the consumed prefix if it dominates, then
  // let the reactor resume when the socket turns writable.
  if (session.out_off > (1u << 16) && session.out_off >= session.outbuf.size() / 2) {
    session.outbuf.erase(0, session.out_off);
    session.out_off = 0;
  }
  if (!session.epollout) set_interest_locked(session, true);
}

void Server::mark_dead_locked(Session& session) {
  if (session.dead.exchange(true, std::memory_order_acq_rel)) return;
  abandon_pending_locked(session);
  // Wake the peer's pending reads, then hand the epoll/bookkeeping removal
  // to the owning reactor — the only thread allowed to do it.
  ::shutdown(session.fd, SHUT_RDWR);
  request_teardown(session);
}

void Server::abandon_pending_locked(Session& session) {
  if (session.pending_replies.empty()) return;
  PulseClock::time_point now = PulseClock::now();
  for (auto& pending : session.pending_replies) {
    session.flushed_replies.push_back(
        {std::move(pending.clock), now, /*delivered=*/false});
  }
  session.pending_replies.clear();
}

void Server::publish_flushed(Session& session) {
  std::vector<Session::FlushedReply> done;
  {
    std::lock_guard<std::mutex> lock(session.out_mu);
    if (session.flushed_replies.empty()) return;
    done.swap(session.flushed_replies);
  }
  for (const Session::FlushedReply& reply : done) {
    kind_metrics(reply.clock.kind)
        .flush_ms->observe(reply.clock.flush_ms(reply.flushed));
    if (slow_log_) slow_log_->observe(reply.clock, reply.flushed, reply.delivered);
  }
}

void Server::set_interest_locked(Session& session, bool want_write) {
  if (session.reactor_epfd < 0) return;
  epoll_event ev{};
  ev.events = (session.read_closed ? 0u : static_cast<uint32_t>(EPOLLIN)) |
              (want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  ev.data.u64 = session.id;
  ::epoll_ctl(session.reactor_epfd, EPOLL_CTL_MOD, session.fd, &ev);
  session.epollout = want_write;
}

void Server::maybe_finish_half_closed(const std::shared_ptr<Session>& session) {
  std::lock_guard<std::mutex> lock(session->out_mu);
  if (session->dead.load(std::memory_order_acquire)) return;
  if (session->read_closed &&
      session->inflight.load(std::memory_order_acquire) == 0 &&
      session->out_off == session->outbuf.size()) {
    mark_dead_locked(*session);
  }
}

void Server::session_closed(uint64_t id) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  sessions_.erase(id);
  sessions_gauge().set(static_cast<double>(sessions_.size()));
}

size_t Server::active_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

util::Json Server::health_json() {
  // Everything `gamma top` and check.sh need for liveness triage in one
  // inline RPC — no stats scrape required: drain state, queue, in-flight
  // work, session census, and uptime.
  util::Json doc = util::Json::object();
  doc["state"] = draining_.load(std::memory_order_acquire) ? "draining" : "serving";
  doc["queue_depth"] = dispatcher_.depth();
  doc["max_queue"] = options_.max_queue;
  doc["workers"] = dispatcher_.workers();
  doc["reactors"] = reactors_.size();
  size_t sessions;
  uint64_t session_requests = 0;
  int in_flight = 0;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions = sessions_.size();
    for (const auto& [id, s] : sessions_) {
      session_requests += s->requests.load(std::memory_order_relaxed);
      in_flight += s->inflight.load(std::memory_order_relaxed);
    }
  }
  doc["sessions"] = sessions;
  doc["active_sessions"] = sessions;
  doc["in_flight"] = static_cast<size_t>(in_flight < 0 ? 0 : in_flight);
  doc["session_requests"] = static_cast<size_t>(session_requests);
  doc["uptime_s"] = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                  started_)
                        .count();
  doc["slow_ms"] = options_.slow_ms;
  doc["slow_log_armed"] = slow_log_ != nullptr;
  return doc;
}

void Server::request_shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

bool Server::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  return shutdown_requested_;
}

bool Server::wait_shutdown(int timeout_ms) {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  return shutdown_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                               [this] { return shutdown_requested_; });
}

void Server::drain() {
  std::lock_guard<std::mutex> drain_lock(drain_mu_);
  if (drained_) return;
  util::trace::ScopedSpan span("serve.drain", "serve");
  draining_.store(true, std::memory_order_release);

  // 1. Stop accepting: shut the listen socket down (wakes accept(2) with
  // EINVAL on Linux), join the accept thread, then release the fd/path.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (unix_bound_) ::unlink(options_.unix_path.c_str());

  // 2. Let the data plane run dry: everything already accepted executes to
  // completion and its reply lands in a session buffer (the reactors are
  // still alive, answering control-plane requests and flushing). In-flight
  // studies finish here — and had the process been killed instead, their
  // journal would carry the completed countries into the next daemon.
  dispatcher_.drain();

  // 3. Flush: wait (bounded) until every live session's outbound buffer has
  // drained. A peer that has stopped reading cannot wedge the drain — after
  // the deadline it simply loses the tail it never read.
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(kDrainFlushTimeoutMs);
  for (;;) {
    std::vector<std::shared_ptr<Session>> snapshot;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      for (const auto& [id, s] : sessions_) snapshot.push_back(s);
    }
    bool pending = false;
    for (const auto& s : snapshot) {
      if (s->dead.load(std::memory_order_acquire)) continue;
      std::lock_guard<std::mutex> lock(s->out_mu);
      if (s->out_off < s->outbuf.size()) {
        pending = true;
        break;
      }
    }
    if (!pending || std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // 4. Unblock every peer and stop the reactors. Sockets are shut down, not
  // closed: the Session destructor closes the fd when the last reference
  // (possibly a live Client's reply in a test) drops.
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& [id, s] : sessions_) ::shutdown(s->fd, SHUT_RDWR);
  }
  for (auto& r : reactors_) {
    r->stop.store(true, std::memory_order_release);
    r->wake();
  }
  for (auto& r : reactors_) {
    if (r->thread.joinable()) r->thread.join();
    std::lock_guard<std::mutex> lock(r->mu);
    r->sessions.clear();
    r->teardowns.clear();
  }
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_.clear();
    sessions_gauge().set(0.0);
  }
  drained_ = true;
  util::log_info("serve", "drained");
}

Server::~Server() { drain(); }

}  // namespace gam::serve
