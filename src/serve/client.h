// serve::Client — a blocking client for the GammaServe protocol, with an
// optional self-healing layer.
//
// This is deliberately a *test driver*, not an SDK: `gamma client`, the
// serve test harness, and bench_serve all speak through it. call() is one
// synchronous round trip; the raw send_bytes()/read_reply() surface exists
// so the protocol-fuzzing tests can put arbitrary garbage on the wire and
// pipeline requests without replies.
//
// Self-healing (set_retry): a daemon restart — crash, upgrade, SIGKILL in a
// chaos run — looks to a connected client like a transport failure (ECONNRESET,
// EPIPE, recv()==0) or, during the graceful drain window, an application
// reply with error code "unavailable". With a retry policy armed the client
// treats both the same way: reconnect to the remembered endpoint under
// bounded exponential backoff (util::RetryPolicy semantics, real sleeps, full
// jitter) and transparently re-send the request *if the request table
// (serve::rpcs()) marks its kind idempotent*: reads and connection-scoped
// opens, safe to repeat. `submit_study` is journaled server-side before the
// reply is sent, so a lost in-flight submit is NOT re-sent: the caller gets
// a structured kAborted explaining that a retry could double-journal the
// study, and owns the resubmit decision (the journal header makes a
// duplicate submit detectable, but only the caller knows whether it wants
// one). `shutdown` is likewise never re-sent. Reconnects are counted in
// reconnects() and the `client.reconnects` metric.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "serve/protocol.h"
#include "util/json.h"
#include "util/retry.h"
#include "util/status.h"

namespace gam::serve {

class Client {
 public:
  static util::StatusOr<std::unique_ptr<Client>> connect_tcp(const std::string& host,
                                                             uint16_t port);
  static util::StatusOr<std::unique_ptr<Client>> connect_unix(const std::string& path);

  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Cap every read; 0 = block forever. A hung server then fails a test
  /// with a structured deadline_exceeded instead of wedging the run.
  /// Re-applied automatically after a self-healing reconnect.
  void set_recv_timeout_ms(int ms);

  /// Arm the self-healing layer (see the header comment). `max_attempts`
  /// bounds total tries per call; backoff between tries follows
  /// util::backoff_delay_ms under the policy's deadline budget, slept for
  /// real. Call with a default policy of max_attempts=1 to disarm.
  void set_retry(const util::RetryPolicy& policy);
  bool retry_armed() const { return retry_.has_value(); }

  /// Successful reconnections performed by the self-healing layer.
  uint64_t reconnects() const { return reconnects_; }

  /// Fill in "id" (unless the caller set one), send, and wait for the reply
  /// with the matching id. Returns the full reply envelope
  /// ({"id", "ok", "result"|"error"}); transport failures are a Status.
  /// Replies to other (pipelined) ids are buffered, not dropped. Chunked
  /// replies (see protocol.h) are reassembled transparently: the caller
  /// always sees the plain single-envelope shape, whatever the wire did.
  /// With a retry policy armed, transport failures and "unavailable" replies
  /// are retried across reconnects for idempotent kinds, re-sending the same
  /// id each time.
  util::StatusOr<util::Json> call_raw(util::Json request);

  /// Build-and-call convenience: {"kind": kind, ...params}.
  util::StatusOr<util::Json> call(const std::string& kind,
                                  util::Json params = util::Json::object());

  /// Raw wire access for fuzzing: exactly `bytes`, no framing added.
  util::Status send_bytes(const std::string& bytes);
  /// Send one well-framed request without waiting (pipelining).
  util::Status send_request(util::Json request, double* id_out = nullptr);
  /// Read the next reply frame, whatever its id.
  util::StatusOr<util::Json> read_reply();

  int fd() const { return fd_; }

 private:
  /// Where this client dialed, so the retry layer can dial it again.
  struct Endpoint {
    bool tcp = false;
    std::string host_or_path;
    uint16_t port = 0;
  };

  explicit Client(int fd) : fd_(fd) {}

  /// Fold one chunk frame into its id's partial buffer. Returns the
  /// synthesized complete reply envelope once the last chunk lands, a null
  /// Json while more chunks are expected, or a Status on a malformed
  /// sequence (gapped index, unparseable reassembly, runaway size).
  util::StatusOr<util::Json> absorb_chunk(const util::Json& frame);

  /// Send `request` and wait for the reply matching `id` on the current
  /// connection — one attempt, no healing.
  util::StatusOr<util::Json> round_trip(const util::Json& request, double id);

  /// Close the socket and discard per-connection decode state (the frame
  /// decoder's partial bytes and half-reassembled chunk sequences die with
  /// the connection; complete stashed replies stay usable).
  void drop_connection();

  /// Dial the remembered endpoint again. Counts `client.reconnects` and
  /// re-applies the recv timeout on success.
  util::Status reconnect();

  int fd_ = -1;
  uint64_t next_id_ = 0;
  FrameDecoder decoder_;
  std::map<double, util::Json> stashed_;  // out-of-order replies by id

  struct Partial {
    std::string data;
    size_t next_chunk = 0;
  };
  std::map<double, Partial> partials_;  // chunked replies mid-reassembly

  Endpoint endpoint_;
  std::optional<util::RetryPolicy> retry_;
  util::Rng rng_;  // backoff jitter; per-client stream, seeded at connect
  int recv_timeout_ms_ = 0;
  uint64_t reconnects_ = 0;
};

}  // namespace gam::serve
