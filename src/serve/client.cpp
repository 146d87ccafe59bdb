#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "serve/service.h"
#include "util/metrics.h"

namespace gam::serve {

namespace {

util::Status errno_status(const std::string& what) {
  return util::Status::unavailable(what + ": " + std::strerror(errno));
}

util::StatusOr<int> dial_tcp(const std::string& host, uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return util::Status::invalid_argument("bad host address '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    util::Status status = errno_status("connect " + host + ":" + std::to_string(port));
    ::close(fd);
    return status;
  }
  return fd;
}

util::StatusOr<int> dial_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    return util::Status::invalid_argument("unix socket path too long: " + path);
  }
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("socket");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    util::Status status = errno_status("connect " + path);
    ::close(fd);
    return status;
  }
  return fd;
}

/// A reply from a draining daemon ({"ok": false, "error": {"code":
/// "unavailable"}}) — the restart-in-progress signal the retry layer heals.
bool unavailable_reply(const util::Json& reply) {
  if (reply.get_bool("ok", false)) return false;
  const util::Json* err = reply.find("error");
  return err != nullptr && err->get_string("code") == "unavailable";
}

}  // namespace

util::StatusOr<std::unique_ptr<Client>> Client::connect_tcp(const std::string& host,
                                                            uint16_t port) {
  auto fd = dial_tcp(host, port);
  if (!fd.ok()) return fd.status();
  auto client = std::unique_ptr<Client>(new Client(*fd));
  client->endpoint_ = {true, host, port};
  return client;
}

util::StatusOr<std::unique_ptr<Client>> Client::connect_unix(const std::string& path) {
  auto fd = dial_unix(path);
  if (!fd.ok()) return fd.status();
  auto client = std::unique_ptr<Client>(new Client(*fd));
  client->endpoint_ = {false, path, 0};
  return client;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::set_recv_timeout_ms(int ms) {
  recv_timeout_ms_ = ms;
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void Client::set_retry(const util::RetryPolicy& policy) {
  if (policy.max_attempts <= 1) {
    retry_.reset();
    return;
  }
  retry_ = policy;
}

util::Status Client::send_bytes(const std::string& bytes) {
  if (fd_ < 0) return util::Status::unavailable("not connected");
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_status("send");
    }
    sent += static_cast<size_t>(n);
  }
  return util::Status();
}

util::Status Client::send_request(util::Json request, double* id_out) {
  if (!request.find("id")) request["id"] = static_cast<double>(next_id_++);
  if (id_out) *id_out = request.get_number("id");
  return send_bytes(encode_frame(request));
}

util::StatusOr<util::Json> Client::read_reply() {
  if (fd_ < 0) return util::Status::unavailable("not connected");
  char chunk[4096];
  for (;;) {
    util::Json frame;
    std::string detail;
    switch (decoder_.next(&frame, &detail)) {
      case FrameDecoder::Result::Frame:
        return frame;
      case FrameDecoder::Result::BadLength:
        return util::Status::internal("reply frame oversized: " + detail);
      case FrameDecoder::Result::BadJson:
        return util::Status::internal("reply is not JSON: " + detail);
      case FrameDecoder::Result::NeedMore:
        break;
    }
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) return util::Status::unavailable("server closed the connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return util::Status::deadline_exceeded("timed out waiting for a reply");
      }
      return errno_status("recv");
    }
    decoder_.feed(chunk, static_cast<size_t>(n));
  }
}

util::StatusOr<util::Json> Client::absorb_chunk(const util::Json& frame) {
  // Keep a runaway server from ballooning the client: the reassembled
  // result may be big (that is the point of chunking) but not unbounded.
  constexpr size_t kMaxReassembledBytes = 256u << 20;
  double id = frame.get_number("id", -1.0);
  Partial& partial = partials_[id];
  size_t chunk = static_cast<size_t>(frame.get_number("chunk", 0.0));
  if (chunk != partial.next_chunk) {
    partials_.erase(id);
    return util::Status::internal("chunked reply gap: got chunk " +
                                  std::to_string(chunk) + ", expected " +
                                  std::to_string(partial.next_chunk));
  }
  partial.data += frame.get_string("data");
  partial.next_chunk = chunk + 1;
  if (partial.data.size() > kMaxReassembledBytes) {
    partials_.erase(id);
    return util::Status::internal("chunked reply exceeds reassembly cap");
  }
  if (!frame.get_bool("last")) return util::Json();  // more chunks coming
  auto result = util::Json::parse(partial.data);
  partials_.erase(id);
  if (!result) {
    return util::Status::internal("chunked reply reassembly failed to parse");
  }
  return ok_reply(id, std::move(*result));
}

void Client::drop_connection() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  decoder_ = FrameDecoder();
  partials_.clear();
}

util::Status Client::reconnect() {
  drop_connection();
  auto fd = endpoint_.tcp ? dial_tcp(endpoint_.host_or_path, endpoint_.port)
                          : dial_unix(endpoint_.host_or_path);
  if (!fd.ok()) return fd.status();
  fd_ = *fd;
  if (recv_timeout_ms_ > 0) set_recv_timeout_ms(recv_timeout_ms_);
  ++reconnects_;
  util::MetricsRegistry::instance().counter("client.reconnects").inc();
  return util::Status();
}

util::StatusOr<util::Json> Client::round_trip(const util::Json& request, double id) {
  util::Status sent = send_bytes(encode_frame(request));
  if (!sent.ok()) return sent;
  // Pipelined callers may have left replies to other ids in flight; stash
  // rather than drop them so interleaved call()/read_reply() use stays sane.
  auto stashed = stashed_.find(id);
  if (stashed != stashed_.end()) {
    util::Json reply = std::move(stashed->second);
    stashed_.erase(stashed);
    return reply;
  }
  for (;;) {
    auto frame = read_reply();
    if (!frame.ok()) return frame.status();
    util::Json reply;
    if (frame->find("chunk") != nullptr) {
      auto whole = absorb_chunk(*frame);
      if (!whole.ok()) return whole.status();
      if (whole->is_null()) continue;  // mid-reassembly
      reply = std::move(*whole);
    } else {
      reply = std::move(*frame);
    }
    if (reply.get_number("id", -1.0) == id) return reply;
    stashed_[reply.get_number("id", -1.0)] = std::move(reply);
  }
}

util::StatusOr<util::Json> Client::call_raw(util::Json request) {
  // Assign the id once, outside the retry loop: a re-sent request reuses it,
  // so a duplicate reply from a half-dead connection matches and is absorbed
  // instead of poisoning the stash.
  if (!request.find("id")) request["id"] = static_cast<double>(next_id_++);
  const double id = request.get_number("id");
  const std::string kind = request.get_string("kind");
  const Rpc* rpc = find_rpc(kind);
  const bool resend_ok = retry_.has_value() && rpc && rpc->idempotent;
  const int attempts = retry_ ? std::max(1, retry_->max_attempts) : 1;
  double budget_ms = retry_ ? retry_->deadline_ms : 0.0;

  util::Status last = util::Status::unavailable("not connected");
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    if (attempt > 1) {
      // Bounded exponential backoff with full jitter (util::retry
      // semantics) — slept for real: the daemon we are waiting out is a
      // separate process, not simulated time.
      double delay = util::backoff_delay_ms(*retry_, attempt, rng_);
      if (delay > budget_ms) {
        util::retry_count_deadline_hit();
        return util::Status(last.code(),
                            "retry deadline exhausted after " +
                                std::to_string(attempt - 1) + " attempts; last: " +
                                last.message());
      }
      budget_ms -= delay;
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<long long>(delay * 1000.0)));
    }
    if (fd_ < 0) {
      util::Status rs = reconnect();
      if (!rs.ok()) {
        last = rs;
        continue;  // daemon still down; back off and dial again
      }
    }
    auto reply = round_trip(request, id);
    if (reply.ok()) {
      if (resend_ok && unavailable_reply(*reply) && attempt < attempts) {
        // The daemon answered but is draining for shutdown/restart. Drop
        // the connection (it will close on us anyway) and come back after
        // the backoff, when the replacement should be accepting.
        const util::Json* err = reply->find("error");
        last = util::Status::unavailable(err ? err->get_string("message")
                                             : "server draining");
        drop_connection();
        continue;
      }
      return reply;
    }
    util::Status s = reply.status();
    if (s.code() != util::StatusCode::kUnavailable) return s;
    // Transport loss. The connection is dead either way.
    drop_connection();
    if (!retry_) return s;
    if (!resend_ok) {
      if (kind == "submit_study") {
        // The daemon journals a submitted study before replying: losing the
        // connection mid-flight means the study may or may not have been
        // accepted, and re-sending could journal it twice. Structured,
        // non-retryable — the caller owns the resubmit decision.
        return util::Status::aborted(
            "submit_study was in flight when the connection was lost; not "
            "re-sending (a retry could double-journal the study): " + s.message());
      }
      return s;
    }
    last = s;
  }
  return util::Status(last.code(), "retries exhausted after " +
                                       std::to_string(attempts) +
                                       " attempts; last: " + last.message());
}

util::StatusOr<util::Json> Client::call(const std::string& kind, util::Json params) {
  util::Json request = std::move(params);
  request["kind"] = kind;
  return call_raw(std::move(request));
}

}  // namespace gam::serve
