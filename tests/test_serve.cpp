// GammaServe: protocol, concurrency, backpressure, drain, and resume tests.
//
// The contracts under test (ISSUE 6):
//  - Protocol safety: any byte sequence a client sends — hostile length
//    prefixes, truncated JSON, raw garbage — produces a structured error or
//    a clean close, never UB (this suite runs under ASan/UBSan and TSan in
//    tools/check.sh).
//  - Determinism: a query answered through the serve plane is byte-identical
//    to `gamma store query` against the same store, for every report and
//    spec, under any interleaving of concurrent clients.
//  - Backpressure: a full bounded queue rejects with `resource_exhausted`;
//    it never deadlocks and never drops a reply.
//  - Drain: in-flight work finishes and its replies flush; new work is
//    refused; a killed-and-restarted daemon resumes journaled studies
//    byte-identically.
//
// Phase 2 (ISSUE 7) adds the reactor-plane contracts:
//  - Dead peers: a reply to a vanished peer is a counted send failure and a
//    torn-down session, never a silent drop.
//  - Slow readers: a peer whose outbound buffer sits at the cap when the
//    next reply arrives is disconnected — and while stalled it must not
//    stall any other client.
//  - Chunked replies: large results stream as consecutive chunk frames the
//    client reassembles to the exact single-frame bytes.
//  - Rate limits: the per-client token bucket sheds with a structured
//    `rate_limited` error; control-plane kinds are exempt.
//  - No per-connection threads: connection churn leaves the process thread
//    count where it started.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/report_json.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/pulse.h"
#include "serve/server.h"
#include "serve/service.h"
#include "store/query.h"
#include "store/reports.h"
#include "store/writer.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/status.h"
#include "worldgen/study.h"
#include "worldgen/world.h"

namespace gam {
namespace {

using serve::Client;
using serve::FrameDecoder;
using serve::Server;
using serve::ServerOptions;

// ---------------------------------------------------------------------------
// Shared fixtures. World generation and the reference study run once per
// test binary; every server shares the same World through ServiceOptions so
// submit_study tests do not regenerate it.

std::shared_ptr<worldgen::World> shared_world() {
  static std::shared_ptr<worldgen::World> world = worldgen::generate_world({});
  return world;
}

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// A small two-country store, built once: the query byte-identity target.
/// One per process, removed at exit: ctest runs each test in a process of
/// its own, in parallel, and two processes publishing one path race on its
/// temp file.
const std::string& shared_store() {
  struct Store {
    std::string path;
    ~Store() { std::remove(path.c_str()); }
  };
  static const Store store = [] {
    std::string p = temp_path("serve_shared-" + std::to_string(::getpid()) + ".gmst");
    worldgen::StudyOptions options;
    options.seed = 23;
    options.countries = {"US", "GB"};
    options.store_out = p;
    worldgen::run_study(*shared_world(), options);
    return Store{p};
  }();
  return store.path;
}

std::unique_ptr<Server> start_server(ServerOptions options = {}) {
  options.service.world = shared_world();
  auto server = Server::start(std::move(options));
  EXPECT_TRUE(server.ok()) << server.status().to_string();
  return std::move(*server);
}

std::unique_ptr<Client> connect(const Server& server) {
  auto client = Client::connect_tcp("127.0.0.1", server.port());
  EXPECT_TRUE(client.ok()) << client.status().to_string();
  (*client)->set_recv_timeout_ms(30000);  // a wedged server fails, not hangs
  return std::move(*client);
}

/// Unwrap an ok reply's result, failing the test on transport or service
/// error.
util::Json must_result(util::StatusOr<util::Json> reply) {
  EXPECT_TRUE(reply.ok()) << reply.status().to_string();
  if (!reply.ok()) return util::Json();
  EXPECT_TRUE(reply->get_bool("ok")) << reply->dump();
  const util::Json* result = reply->find("result");
  return result ? *result : util::Json();
}

/// Unwrap an error reply's code, failing the test if the call succeeded.
std::string must_error_code(util::StatusOr<util::Json> reply) {
  EXPECT_TRUE(reply.ok()) << reply.status().to_string();
  if (!reply.ok()) return "";
  EXPECT_FALSE(reply->get_bool("ok")) << reply->dump();
  const util::Json* error = reply->find("error");
  return error ? error->get_string("code") : "";
}

// ---------------------------------------------------------------------------
// Status plumbing.

TEST(Status, CodeNamesAreTheWireVocabulary) {
  EXPECT_STREQ(util::status_code_name(util::StatusCode::kOk), "ok");
  EXPECT_STREQ(util::status_code_name(util::StatusCode::kInvalidArgument),
               "invalid_argument");
  EXPECT_STREQ(util::status_code_name(util::StatusCode::kResourceExhausted),
               "resource_exhausted");
  EXPECT_STREQ(util::status_code_name(util::StatusCode::kUnavailable), "unavailable");
  util::Status s = util::Status::not_found("no such store");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.to_string(), "not_found: no such store");
  EXPECT_TRUE(util::Status().ok());
  EXPECT_EQ(util::Status().to_string(), "ok");
}

TEST(Status, StatusOrHoldsValueOrStatusNeverBoth) {
  util::StatusOr<int> value(7);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 7);
  EXPECT_TRUE(value.status().ok());

  util::StatusOr<int> error(util::Status::unavailable("later"));
  ASSERT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), util::StatusCode::kUnavailable);

  // Constructing from an OK status without a value is a usage bug that must
  // surface as a structured kInternal, not UB.
  util::StatusOr<int> broken((util::Status()));
  ASSERT_FALSE(broken.ok());
  EXPECT_EQ(broken.status().code(), util::StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// Frame codec.

TEST(Protocol, FrameRoundTripsByteByByte) {
  util::Json doc = util::Json::object();
  doc["kind"] = "ping";
  doc["id"] = 42;
  doc["payload"] = "π ≈ 3.14159";  // multi-byte UTF-8 crosses feed boundaries
  std::string wire = serve::encode_frame(doc);

  FrameDecoder decoder;
  util::Json frame;
  // Worst-case fragmentation: one byte per feed.
  for (size_t i = 0; i < wire.size(); ++i) {
    ASSERT_EQ(decoder.next(&frame), FrameDecoder::Result::NeedMore);
    decoder.feed(wire.data() + i, 1);
  }
  ASSERT_EQ(decoder.next(&frame), FrameDecoder::Result::Frame);
  EXPECT_TRUE(frame == doc);
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

TEST(Protocol, ManyFramesInOneFeed) {
  std::string wire;
  for (int i = 0; i < 5; ++i) {
    util::Json doc = util::Json::object();
    doc["id"] = i;
    wire += serve::encode_frame(doc);
  }
  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size());
  util::Json frame;
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(decoder.next(&frame), FrameDecoder::Result::Frame);
    EXPECT_EQ(frame.get_number("id"), i);
  }
  EXPECT_EQ(decoder.next(&frame), FrameDecoder::Result::NeedMore);
}

TEST(Protocol, OversizedLengthIsRejectedBeforeBuffering) {
  // 0xFFFFFFFF little-endian: a hostile prefix claiming a 4 GB payload.
  const char evil[4] = {'\xff', '\xff', '\xff', '\xff'};
  FrameDecoder decoder;
  decoder.feed(evil, sizeof(evil));
  util::Json frame;
  std::string detail;
  EXPECT_EQ(decoder.next(&frame, &detail), FrameDecoder::Result::BadLength);
  EXPECT_NE(detail.find("4294967295"), std::string::npos) << detail;
}

TEST(Protocol, BadJsonKeepsTheStreamFramed) {
  std::string wire;
  {  // frame 1: well-delimited, unparseable payload
    std::string payload = "{broken";
    uint32_t len = static_cast<uint32_t>(payload.size());
    char prefix[4] = {static_cast<char>(len & 0xff), static_cast<char>((len >> 8) & 0xff),
                      static_cast<char>((len >> 16) & 0xff),
                      static_cast<char>((len >> 24) & 0xff)};
    wire.append(prefix, 4);
    wire += payload;
  }
  util::Json good = util::Json::object();
  good["id"] = 9;
  wire += serve::encode_frame(good);

  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size());
  util::Json frame;
  EXPECT_EQ(decoder.next(&frame), FrameDecoder::Result::BadJson);
  // The bad frame was consumed whole; the next frame decodes normally.
  ASSERT_EQ(decoder.next(&frame), FrameDecoder::Result::Frame);
  EXPECT_EQ(frame.get_number("id"), 9);
}

TEST(Protocol, ReplyEnvelopes) {
  util::Json ok = serve::ok_reply(3, util::Json::object());
  EXPECT_TRUE(ok.get_bool("ok"));
  EXPECT_EQ(ok.get_number("id"), 3);
  util::Json err = serve::error_reply(4, util::Status::not_found("gone"));
  EXPECT_FALSE(err.get_bool("ok"));
  EXPECT_EQ(err.find("error")->get_string("code"), "not_found");
  EXPECT_EQ(err.find("error")->get_string("message"), "gone");
}

// ---------------------------------------------------------------------------
// Service unit tests (no sockets): the dispatch table and its error taxonomy.

TEST(Service, ControlPlaneKindsAreInline) {
  auto is_inline = [](const char* kind) {
    const serve::Rpc* rpc = serve::find_rpc(kind);
    EXPECT_NE(rpc, nullptr) << kind;
    return rpc != nullptr && rpc->inline_plane;
  };
  EXPECT_TRUE(is_inline("ping"));
  EXPECT_TRUE(is_inline("health"));
  EXPECT_TRUE(is_inline("stats"));
  EXPECT_TRUE(is_inline("shutdown"));
  // study_status must answer while a submitted study holds every worker —
  // that is the whole point of the progress RPC.
  EXPECT_TRUE(is_inline("study_status"));
  EXPECT_FALSE(is_inline("query"));
  EXPECT_FALSE(is_inline("submit_study"));
  EXPECT_FALSE(is_inline("sleep"));
}

// The request table, walked: every kind refuses a key its row does not
// declare, and every declared key refuses a value of another type — as
// invalid_argument naming the key, before any handler runs (no study
// starts, no worker sleeps, no shutdown is acknowledged).
TEST(Service, EveryKindRefusesAnUndeclaredKey) {
  serve::Service service({});
  ASSERT_TRUE(service.init().ok());
  serve::Session session;
  ASSERT_FALSE(serve::rpcs().empty());
  for (const serve::Rpc& rpc : serve::rpcs()) {
    util::Json frame = util::Json::object();
    frame["id"] = 1;
    frame["kind"] = rpc.kind;
    frame["undeclared"] = true;
    auto reply = service.handle(session, rpc.kind, frame);
    ASSERT_FALSE(reply.ok()) << rpc.kind;
    EXPECT_EQ(reply.status().code(), util::StatusCode::kInvalidArgument) << rpc.kind;
    EXPECT_NE(reply.status().message().find("\"undeclared\""), std::string::npos)
        << rpc.kind << " -> " << reply.status().message();
  }
}

/// Values of the wrong shape for `key`: every other JSON type, and for the
/// bounded types the first value past each bound.
std::vector<util::Json> mistyped_values(const serve::RpcKey& key) {
  std::vector<const char*> texts;
  switch (key.type) {
    case serve::KeyType::kString: texts = {"7", "true", "null", "[\"a\"]", "{}"}; break;
    case serve::KeyType::kCount:
      texts = {"2.5", "-1", "9007199254740992", "1e30", "\"3\"", "true"};
      break;
    case serve::KeyType::kBool: texts = {"\"yes\"", "1", "null", "[]"}; break;
    case serve::KeyType::kNumber: texts = {"-1", "\"5\"", "false"}; break;
    case serve::KeyType::kStrings: texts = {"\"a\"", "[5]", "[[\"a\"]]", "{}"}; break;
    case serve::KeyType::kPairs:
      texts = {"\"code\"", "{\"code\":\"NZ\"}", "[\"code\",\"NZ\"]",
               "[[\"code\"]]", "[[\"code\",5]]", "[[\"a\",\"b\",\"c\"]]"};
      break;
  }
  std::vector<util::Json> values;
  for (const char* text : texts) values.push_back(*util::Json::parse(text));
  if (key.type == serve::KeyType::kNumber) values.emplace_back(key.max + 0.5);
  return values;
}

/// A value of `key`'s type, at the edge of its range where it has one.
util::Json typed_value(const serve::RpcKey& key) {
  switch (key.type) {
    case serve::KeyType::kString: return util::Json("x");
    case serve::KeyType::kCount: return util::Json(9007199254740991.0);  // 2^53 - 1
    case serve::KeyType::kBool: return util::Json(true);
    case serve::KeyType::kNumber: return util::Json(key.max);
    case serve::KeyType::kStrings: return *util::Json::parse("[\"a\"]");
    case serve::KeyType::kPairs: return *util::Json::parse("[[\"a\",\"b\"]]");
  }
  return util::Json();
}

TEST(Service, EveryDeclaredKeyRefusesAMistypedValue) {
  serve::Service service({});
  ASSERT_TRUE(service.init().ok());
  serve::Session session;
  size_t keys = 0;
  for (const serve::Rpc& rpc : serve::rpcs()) {
    for (const serve::RpcKey& key : rpc.keys) {
      ++keys;
      util::Json frame = util::Json::object();
      frame["kind"] = rpc.kind;
      frame[key.name] = typed_value(key);
      EXPECT_TRUE(serve::check_request(rpc, frame).ok())
          << rpc.kind << " " << frame.dump() << " -> "
          << serve::check_request(rpc, frame).message();
      for (const util::Json& bad : mistyped_values(key)) {
        frame[key.name] = bad;
        auto reply = service.handle(session, rpc.kind, frame);
        ASSERT_FALSE(reply.ok()) << rpc.kind << " " << frame.dump();
        EXPECT_EQ(reply.status().code(), util::StatusCode::kInvalidArgument)
            << rpc.kind << " " << frame.dump();
        EXPECT_NE(reply.status().message().find("\"" + std::string(key.name) + "\""),
                  std::string::npos)
            << frame.dump() << " -> " << reply.status().message();
      }
    }
  }
  EXPECT_EQ(keys, 16u);  // path; 8 query keys; 5 submit_study keys; job; ms
}

TEST(Service, StructuredErrorsForBadRequests) {
  serve::Service service({});
  ASSERT_TRUE(service.init().ok());
  serve::Session session;

  auto unknown = service.handle(session, "explode", util::Json::object());
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), util::StatusCode::kInvalidArgument);

  auto no_store = service.handle(session, "query", util::Json::object());
  ASSERT_FALSE(no_store.ok());
  EXPECT_EQ(no_store.status().code(), util::StatusCode::kFailedPrecondition);

  util::Json bad_country = util::Json::object();
  util::Json countries = util::Json::array();
  countries.push_back("XX");
  bad_country["countries"] = std::move(countries);
  auto submit = service.handle(session, "submit_study", bad_country);
  ASSERT_FALSE(submit.ok());
  EXPECT_EQ(submit.status().code(), util::StatusCode::kInvalidArgument);

  util::Json negative = util::Json::object();
  negative["ms"] = -1;
  auto sleep = service.handle(session, "sleep", negative);
  ASSERT_FALSE(sleep.ok());
  EXPECT_EQ(sleep.status().code(), util::StatusCode::kInvalidArgument);

  auto shutdown = service.handle(session, "shutdown", util::Json::object());
  ASSERT_FALSE(shutdown.ok());  // no transport installed a handler
  EXPECT_EQ(shutdown.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(Service, SubmitStudyRejectsSeedAndJobsThatAreNotCounts) {
  serve::Service service({});
  ASSERT_TRUE(service.init().ok());
  serve::Session session;
  // Each request is refused as invalid_argument naming `key`; none may run
  // a study with the input dropped.
  auto refused = [&](const char* request, const char* key) {
    std::optional<util::Json> params = util::Json::parse(request);
    ASSERT_TRUE(params.has_value()) << request;
    auto reply = service.handle(session, "submit_study", *params);
    ASSERT_FALSE(reply.ok()) << request;
    EXPECT_EQ(reply.status().code(), util::StatusCode::kInvalidArgument) << request;
    EXPECT_NE(reply.status().message().find(key), std::string::npos)
        << request << " -> " << reply.status().message();
  };
  refused(R"({"countries": ["US"], "jobs": 2.5})", "jobs");
  refused(R"({"countries": ["US"], "seed": -1})", "seed");
  // 2^53: the first count a JSON number cannot tell from its neighbour.
  refused(R"({"countries": ["US"], "seed": 9007199254740992})", "seed");
  refused(R"({"countries": "NZ", "jobs": 4})", "countries");
  refused(R"({"countries": ["NZ", 5]})", "countries");
  refused(R"({"countries": ["NZ"], "store_out": 5})", "store_out");
  refused(R"({"countries": ["NZ"], "shard_dir": true})", "shard_dir");
  refused(R"({"countries": ["NZ"], "jobz": 9})", "jobz");
  refused(R"({"countries": ["V00"]})", "V00");  // not in the paper world
}

TEST(Service, MissingStoreIsNotFoundAndNotCached) {
  serve::Service service({});
  ASSERT_TRUE(service.init().ok());
  serve::Session session;
  util::Json params = util::Json::object();
  params["store"] = temp_path("nonexistent.gmst");
  auto reply = service.handle(session, "query", params);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), util::StatusCode::kNotFound);
  EXPECT_EQ(service.registry().size(), 0u);  // failed opens are not cached
}

// ---------------------------------------------------------------------------
// Live server: control plane, query byte-identity, concurrency.

TEST(Serve, PingHealthStats) {
  auto server = start_server();
  auto client = connect(*server);

  util::Json pong = must_result(client->call("ping"));
  EXPECT_TRUE(pong.get_bool("pong"));

  util::Json health = must_result(client->call("health"));
  EXPECT_EQ(health.get_string("state"), "serving");
  EXPECT_EQ(health.get_number("sessions"), 1);
  // GammaPulse liveness fields: everything `gamma top` needs in one RPC.
  EXPECT_EQ(health.get_number("active_sessions"), 1);
  EXPECT_EQ(health.get_number("queue_depth"), 0);
  EXPECT_GT(health.get_number("max_queue"), 0);
  EXPECT_GT(health.get_number("workers"), 0);
  EXPECT_GT(health.get_number("reactors"), 0);
  EXPECT_GE(health.get_number("in_flight"), 0);
  EXPECT_GT(health.get_number("uptime_s"), 0.0);
  ASSERT_TRUE(health.find("slow_ms") != nullptr);
  EXPECT_FALSE(health.get_bool("slow_log_armed", true));

  util::Json stats = must_result(client->call("stats"));
  ASSERT_TRUE(stats.find("json") != nullptr);
  // The Prometheus exposition carries the serve counters.
  EXPECT_NE(stats.get_string("prometheus").find("serve_requests"), std::string::npos);
}

TEST(Serve, QueryMatchesDirectStoreBytes) {
  ServerOptions options;
  options.service.store_path = shared_store();
  auto server = start_server(std::move(options));
  auto client = connect(*server);

  store::Error error;
  auto reader = store::Reader::open(shared_store(), &error);
  ASSERT_TRUE(reader) << error.to_string();

  const char* reports[] = {"summary", "prevalence", "policy",
                           "per-site", "flows",      "coverage", "funnel"};
  for (const char* report : reports) {
    util::Json params = util::Json::object();
    params["report"] = report;
    util::Json served = must_result(client->call("query", std::move(params)));

    util::Json direct;
    std::string name = report;
    if (name == "summary") direct = store::summary_json(*reader);
    else if (name == "prevalence") direct = analysis::to_json(store::prevalence_report(*reader));
    else if (name == "policy") direct = analysis::to_json(store::policy_report(*reader));
    else if (name == "per-site") direct = analysis::to_json(store::per_site_report(*reader));
    else if (name == "flows") direct = analysis::to_json(store::flows_report(*reader));
    else if (name == "coverage") direct = store::coverage_json(*reader);
    else direct = store::funnel_json(*reader);

    // Byte identity, not structural equality: the serve path's serialized
    // report must be indistinguishable from `gamma store query`'s.
    EXPECT_EQ(served.dump(2), direct.dump(2)) << report;
  }
}

TEST(Serve, PolicyOverUnknownCountryCodesIsAnErrorAndTheDaemonServesOn) {
  // A store written for a code no CountryDb knows: the policy report names
  // the code in a structured error, and the same daemon keeps answering.
  analysis::CountryAnalysis zz;
  zz.country = "ZZ";
  const std::string path = temp_path("serve_zz.gmst");
  ASSERT_TRUE(store::Writer().write(path, {zz}).ok());
  ServerOptions options;
  options.service.store_path = path;
  auto server = start_server(std::move(options));
  auto client = connect(*server);

  util::Json params = util::Json::object();
  params["report"] = "policy";
  auto reply = client->call("query", params);
  EXPECT_EQ(must_error_code(reply), "failed_precondition");
  ASSERT_TRUE(reply.ok());
  EXPECT_NE(reply->dump().find("ZZ"), std::string::npos);

  params["report"] = "coverage";
  util::Json coverage = must_result(client->call("query", std::move(params)));
  EXPECT_EQ(coverage.dump(), "{\"rows\":[{\"country\":\"ZZ\",\"loaded\":0,\"pct\":0,\"sites\":0}]}");
  must_result(client->call("ping", util::Json::object()));
}

TEST(Serve, QuerySpecMatchesDirectStoreBytes) {
  ServerOptions options;
  options.service.store_path = shared_store();
  auto server = start_server(std::move(options));
  auto client = connect(*server);

  util::Json params = util::Json::object();
  params["table"] = "hits";
  util::Json where = util::Json::array();
  util::Json pred = util::Json::array();
  pred.push_back("first_party");
  pred.push_back("true");
  where.push_back(std::move(pred));
  params["where"] = std::move(where);
  params["group_by"] = "dest_country";
  util::Json served = must_result(client->call("query", std::move(params)));

  store::Error error;
  auto reader = store::Reader::open(shared_store(), &error);
  ASSERT_TRUE(reader) << error.to_string();
  store::QuerySpec spec;
  spec.table = *store::table_from_name("hits");
  spec.where.emplace_back("first_party", "true");
  spec.group_by = "dest_country";
  auto direct = store::Query(*reader).run(spec, &error);
  ASSERT_TRUE(direct) << error.to_string();
  EXPECT_EQ(served.dump(2), direct->dump(2));
}

TEST(Serve, QueryErrorsAreStructured) {
  ServerOptions options;
  options.service.store_path = shared_store();
  auto server = start_server(std::move(options));
  auto client = connect(*server);

  util::Json bad_report = util::Json::object();
  bad_report["report"] = "nope";
  EXPECT_EQ(must_error_code(client->call("query", std::move(bad_report))),
            "invalid_argument");

  util::Json bad_table = util::Json::object();
  bad_table["table"] = "nope";
  EXPECT_EQ(must_error_code(client->call("query", std::move(bad_table))),
            "invalid_argument");

  // "limit" is a count: a fraction, a sign or a value past 2^64 is refused,
  // never truncated or cast out of range.
  for (double limit : {2.5, -1.0, 1e30}) {
    util::Json bad_limit = util::Json::object();
    bad_limit["table"] = "hits";
    bad_limit["limit"] = limit;
    EXPECT_EQ(must_error_code(client->call("query", std::move(bad_limit))),
              "invalid_argument")
        << limit;
  }
}

// Frames a lenient decoder answers `ok` with a key dropped or misread: a
// where object read as no filter, a typo'd key ignored, a report answered
// beside scan keys, a string "yes" read as false, a project string read as
// every column, an over-long sleep clamped. Each must be refused naming the
// key, and the daemon must serve on.
TEST(Serve, FramesWithUndeclaredOrMistypedKeysAreRefusedNamingTheKey) {
  ServerOptions options;
  options.service.store_path = shared_store();
  auto server = start_server(std::move(options));
  auto client = connect(*server);

  util::Json open = util::Json::object();
  open["kind"] = "open";
  open["path"] = shared_store();
  open["mode"] = "rw";
  const std::pair<util::Json, const char*> cases[] = {
      {*util::Json::parse(R"({"kind":"query","table":"countries","where":{"code":"NZ"}})"),
       "where"},
      {*util::Json::parse(R"({"kind":"query","table":"countries","wher":[["code","NZ"]]})"),
       "wher"},
      {*util::Json::parse(
           R"({"kind":"query","report":"coverage","table":"countries","where":[["code","NZ"]]})"),
       "table"},
      {*util::Json::parse(R"({"kind":"query","table":"hits","flows":"yes"})"), "flows"},
      {*util::Json::parse(R"({"kind":"query","table":"hits","group_by":7})"), "group_by"},
      {*util::Json::parse(R"({"kind":"query","table":"countries","project":"code"})"),
       "project"},
      {*util::Json::parse(R"({"kind":"query","report":7})"), "report"},
      {open, "mode"},
      {*util::Json::parse(R"({"kind":"sleep","ms":60000})"), "ms"},
  };
  for (const auto& [frame, key] : cases) {
    auto reply = client->call_raw(frame);
    EXPECT_EQ(must_error_code(reply), "invalid_argument") << frame.dump();
    ASSERT_TRUE(reply.ok());
    const util::Json* error = reply->find("error");
    ASSERT_NE(error, nullptr) << reply->dump();
    EXPECT_NE(error->get_string("message").find("\"" + std::string(key) + "\""),
              std::string::npos)
        << frame.dump() << " -> " << reply->dump();
  }
  EXPECT_TRUE(must_result(client->call("ping")).get_bool("pong"));
}

TEST(Serve, ConcurrentClientsGetIdenticalBytes) {
  ServerOptions options;
  options.service.store_path = shared_store();
  options.workers = 4;
  auto server = start_server(std::move(options));

  // The single-threaded answer every concurrent client must reproduce.
  std::string reference;
  {
    auto client = connect(*server);
    util::Json params = util::Json::object();
    params["report"] = "prevalence";
    reference = must_result(client->call("query", std::move(params))).dump(2);
  }
  ASSERT_FALSE(reference.empty());

  constexpr int kClients = 8;
  constexpr int kRequests = 25;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      auto client = Client::connect_tcp("127.0.0.1", server->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      (*client)->set_recv_timeout_ms(30000);
      for (int i = 0; i < kRequests; ++i) {
        util::Json params = util::Json::object();
        params["report"] = "prevalence";
        auto reply = (*client)->call("query", std::move(params));
        if (!reply.ok() || !reply->get_bool("ok")) {
          failures.fetch_add(1);
          return;
        }
        if (reply->find("result")->dump(2) != reference) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(Serve, SixtyFourClientStress) {
  ServerOptions options;
  options.service.store_path = shared_store();
  options.workers = 8;
  options.max_queue = 256;
  auto server = start_server(std::move(options));

  constexpr int kClients = 64;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::connect_tcp("127.0.0.1", server->port());
      if (!client.ok()) return;
      (*client)->set_recv_timeout_ms(60000);
      // Mix of kinds so inline and queued paths interleave.
      util::Json params = util::Json::object();
      params["report"] = (t % 2 == 0) ? "summary" : "funnel";
      auto query = (*client)->call("query", std::move(params));
      auto ping = (*client)->call("ping");
      auto health = (*client)->call("health");
      if (query.ok() && query->get_bool("ok") && ping.ok() && ping->get_bool("ok") &&
          health.ok() && health->get_bool("ok")) {
        ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients);
}

// ---------------------------------------------------------------------------
// Protocol fuzzing against the live server: hostile bytes produce structured
// errors or clean closes; the server keeps serving.

TEST(ServeFuzz, OversizedLengthGetsErrorThenClose) {
  auto server = start_server();
  auto client = connect(*server);

  ASSERT_TRUE(client->send_bytes(std::string("\xff\xff\xff\xff", 4)).ok());
  auto reply = client->read_reply();
  ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  EXPECT_FALSE(reply->get_bool("ok"));
  EXPECT_EQ(reply->find("error")->get_string("code"), "oversized_frame");
  // BadLength is unrecoverable: the server hangs up after the error reply.
  auto after = client->read_reply();
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), util::StatusCode::kUnavailable);

  // ...but the *server* is fine: a new connection works.
  auto fresh = connect(*server);
  EXPECT_TRUE(must_result(fresh->call("ping")).get_bool("pong"));
}

TEST(ServeFuzz, TruncatedJsonGetsErrorAndConnectionSurvives) {
  auto server = start_server();
  auto client = connect(*server);

  std::string payload = "{\"kind\": \"ping\", \"id\":";  // cut mid-document
  uint32_t len = static_cast<uint32_t>(payload.size());
  std::string wire;
  wire.push_back(static_cast<char>(len & 0xff));
  wire.push_back(static_cast<char>((len >> 8) & 0xff));
  wire.push_back(static_cast<char>((len >> 16) & 0xff));
  wire.push_back(static_cast<char>((len >> 24) & 0xff));
  wire += payload;
  ASSERT_TRUE(client->send_bytes(wire).ok());

  auto reply = client->read_reply();
  ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  EXPECT_EQ(reply->find("error")->get_string("code"), "bad_json");
  // BadJson is recoverable — the framing held, so the same connection works.
  EXPECT_TRUE(must_result(client->call("ping")).get_bool("pong"));
}

TEST(ServeFuzz, NonObjectAndMissingKindAreInvalidArgument) {
  auto server = start_server();
  auto client = connect(*server);

  ASSERT_TRUE(client->send_bytes(serve::encode_frame(util::Json(42))).ok());
  auto reply = client->read_reply();
  ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  EXPECT_EQ(reply->find("error")->get_string("code"), "invalid_argument");

  EXPECT_EQ(must_error_code(client->call_raw(util::Json::object())), "invalid_argument");
  EXPECT_EQ(must_error_code(client->call("no_such_kind")), "invalid_argument");
}

TEST(ServeFuzz, IdThatIsNotACountIsRefusedWithReplyIdZero) {
  auto server = start_server();
  auto client = connect(*server);
  // Ids no pipelining client could match to its request: each was answered
  // ok, as "id":0 or rounded to 9.007199255e+15.
  const char* refused[] = {
      R"({"id":"abc","kind":"ping"})",
      R"({"id":[1],"kind":"sleep","ms":1})",
      R"({"id":9007199254740993,"kind":"ping"})",
  };
  for (const char* text : refused) {
    ASSERT_TRUE(client->send_bytes(serve::encode_frame(*util::Json::parse(text))).ok());
    auto reply = client->read_reply();
    ASSERT_TRUE(reply.ok()) << reply.status().to_string();
    EXPECT_EQ(must_error_code(reply), "invalid_argument") << text;
    EXPECT_NE(reply->find("error")->get_string("message").find("\"id\""), std::string::npos)
        << text << " -> " << reply->dump();
    EXPECT_EQ(reply->find("id")->dump(), "0") << text;
  }
  // The largest count still comes back exactly.
  ASSERT_TRUE(client
                  ->send_bytes(serve::encode_frame(
                      *util::Json::parse(R"({"id":9007199254740991,"kind":"ping"})")))
                  .ok());
  auto reply = client->read_reply();
  ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  EXPECT_TRUE(reply->get_bool("ok")) << reply->dump();
  EXPECT_EQ(reply->find("id")->dump(), "9007199254740991");
  EXPECT_TRUE(must_result(client->call("ping")).get_bool("pong"));
}

TEST(ServeFuzz, SeededGarbageNeverKillsTheServer) {
  auto server = start_server();
  util::Rng rng = util::Rng::substream(4242, "serve-fuzz");
  for (int round = 0; round < 20; ++round) {
    auto client = Client::connect_tcp("127.0.0.1", server->port());
    ASSERT_TRUE(client.ok()) << client.status().to_string();
    size_t n = 1 + static_cast<size_t>(rng.uniform(64));
    std::string garbage(n, '\0');
    for (char& c : garbage) c = static_cast<char>(rng.uniform(256));
    ASSERT_TRUE((*client)->send_bytes(garbage).ok());
    // Whatever the garbage decoded to — oversized length, bad JSON, an
    // incomplete frame — dropping the connection must leave the server
    // serving. (No read: an incomplete frame would block forever.)
  }
  auto probe = connect(*server);
  EXPECT_TRUE(must_result(probe->call("ping")).get_bool("pong"));
  util::Json health = must_result(probe->call("health"));
  EXPECT_EQ(health.get_string("state"), "serving");
}

// ---------------------------------------------------------------------------
// Backpressure: the bounded queue rejects, bounded and structured, and
// every request — accepted or refused — gets exactly one reply.

TEST(Serve, BackpressureRejectsWithResourceExhausted) {
  ServerOptions options;
  options.workers = 1;
  options.max_queue = 2;
  auto server = start_server(std::move(options));
  auto client = connect(*server);
  auto probe = connect(*server);
  auto queue_full_errors = [&] {
    util::Json stats = must_result(probe->call("stats"));
    const util::Json* counters = stats.find("json")->find("counters");
    return counters->get_number("serve.rpc.sleep.errors.queue_full", 0.0);
  };
  double shed_before = queue_full_errors();

  // Occupy the single worker, then flood the 2-deep queue without reading.
  constexpr int kFlood = 10;
  util::Json sleeper = util::Json::object();
  sleeper["kind"] = "sleep";
  sleeper["ms"] = 300;
  ASSERT_TRUE(client->send_request(std::move(sleeper)).ok());
  for (int i = 0; i < kFlood; ++i) {
    util::Json ping = util::Json::object();
    ping["kind"] = "sleep";
    ping["ms"] = 1;
    ASSERT_TRUE(client->send_request(std::move(ping)).ok());
  }

  int accepted = 0, rejected = 0;
  for (int i = 0; i < kFlood + 1; ++i) {
    auto reply = client->read_reply();
    ASSERT_TRUE(reply.ok()) << "reply " << i << ": " << reply.status().to_string();
    if (reply->get_bool("ok")) {
      ++accepted;
    } else {
      EXPECT_EQ(reply->find("error")->get_string("code"), "resource_exhausted");
      ++rejected;
    }
  }
  // Exactly one reply per request; the queue really was bounded (the flood
  // outran a 1-worker/2-slot server), and rejection is bounded too — the
  // sleeper and everything the queue had room for ran to completion.
  EXPECT_EQ(accepted + rejected, kFlood + 1);
  EXPECT_GE(rejected, 1);
  // The sleeper always fits (the queue was empty), and at least one flood
  // request fits beside or behind it — whether the worker had dequeued the
  // sleeper yet is a scheduling race the bound must not depend on.
  EXPECT_GE(accepted, 2);

  // The control plane answers inline even while the data plane is saturated.
  EXPECT_TRUE(must_result(client->call("ping")).get_bool("pong"));

  // GammaPulse RED accounting: every queue-full rejection is charged to the
  // shed kind with a reason, not lost in a global bucket.
  EXPECT_EQ(queue_full_errors() - shed_before, rejected);
}

// ---------------------------------------------------------------------------
// Graceful drain.

TEST(Serve, DrainFlushesInFlightWorkThenRefusesNew) {
  ServerOptions options;
  options.workers = 2;
  auto server = start_server(std::move(options));
  auto client = connect(*server);

  // Put a request in flight, then drain while it sleeps. The metrics
  // registry is process-global, so earlier tests' sleeps are in the
  // baseline; wait for the *delta* before draining — draining first would
  // (correctly) refuse the request, which is not the path under test.
  auto probe = connect(*server);  // separate connection: keep `client`'s
                                  // reply stream exclusively for the sleeper
  auto sleep_count = [&] {
    util::Json stats = must_result(probe->call("stats"));
    return stats.find("json")->find("counters")->get_number("serve.requests.sleep");
  };
  double before = sleep_count();
  util::Json sleeper = util::Json::object();
  sleeper["kind"] = "sleep";
  sleeper["ms"] = 300;
  double id = 0;
  ASSERT_TRUE(client->send_request(std::move(sleeper), &id).ok());
  while (sleep_count() <= before) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  std::thread drainer([&] { server->drain(); });
  // The in-flight sleep completes and its reply flushes before the drain
  // closes the session.
  auto reply = client->read_reply();
  ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  EXPECT_EQ(reply->get_number("id", -1), id);
  EXPECT_TRUE(reply->get_bool("ok"));
  drainer.join();

  EXPECT_TRUE(server->draining());
  EXPECT_EQ(server->active_sessions(), 0u);
  // The listener is gone: new connections are refused.
  auto late = Client::connect_tcp("127.0.0.1", server->port());
  EXPECT_FALSE(late.ok());
}

TEST(Serve, ShutdownRpcAcknowledgesBeforeDraining) {
  auto server = start_server();
  auto client = connect(*server);
  util::Json ack = must_result(client->call("shutdown"));
  EXPECT_TRUE(ack.get_bool("draining"));
  // The flag is raised *after* the ack reaches the wire (the drain must not
  // race the client's read), so wait rather than asserting immediately.
  ASSERT_TRUE(server->wait_shutdown(1000));
  EXPECT_TRUE(server->shutdown_requested());
  server->drain();
}

// ---------------------------------------------------------------------------
// Kill-during-study + restart: a journaled study resumes byte-identically
// through the serve plane. (The SIGKILL variant of this test — a real child
// process killed mid-study — runs in tools/check.sh's serve arm; here the
// journal is populated in-process so the suite stays fork-free for TSan.)

TEST(Serve, SubmitStudyResumesFromJournalByteIdentically) {
  const uint64_t seed = 39;

  // Reference: the same study through a serve plane with no checkpointing.
  std::string reference;
  {
    auto server = start_server();
    auto client = connect(*server);
    util::Json params = util::Json::object();
    params["seed"] = seed;
    util::Json countries = util::Json::array();
    countries.push_back("US");
    countries.push_back("GB");
    params["countries"] = std::move(countries);
    util::Json result = must_result(client->call("submit_study", std::move(params)));
    EXPECT_EQ(result.get_number("resumed_countries"), 0);
    reference = result.find("summary")->dump(2);
  }
  ASSERT_FALSE(reference.empty());

  // A "killed" earlier run: only US reached the journal.
  std::string ckpt = temp_path("serve_resume_ckpt");
  {
    worldgen::StudyOptions options;
    options.seed = seed;
    options.countries = {"US"};
    options.checkpoint_dir = ckpt;
    worldgen::run_study(*shared_world(), options);
  }

  // The restarted daemon picks the journal up and re-measures only GB.
  ServerOptions options;
  options.service.checkpoint_dir = ckpt;
  auto server = start_server(std::move(options));
  auto client = connect(*server);
  util::Json params = util::Json::object();
  params["seed"] = seed;
  util::Json countries = util::Json::array();
  countries.push_back("US");
  countries.push_back("GB");
  params["countries"] = std::move(countries);
  util::Json result = must_result(client->call("submit_study", std::move(params)));
  EXPECT_EQ(result.get_number("resumed_countries"), 1);
  EXPECT_EQ(result.find("summary")->dump(2), reference);
}

// Both sinks answer submit_study alike: a shard-mode study counts its
// countries and summarizes its merged store, byte-equal to the memory-mode
// reply; without a store_out there is nothing to summarize.
TEST(Serve, ShardModeSubmitStudyCountsAndSummarizesLikeMemoryMode) {
  auto server = start_server();
  auto client = connect(*server);
  auto submit = [&](const std::string& shard_dir, const std::string& store_out) {
    util::Json params = util::Json::object();
    params["seed"] = 41;
    util::Json countries = util::Json::array();
    countries.push_back("US");
    countries.push_back("GB");
    params["countries"] = std::move(countries);
    params["shard_dir"] = shard_dir;
    params["store_out"] = store_out;
    return must_result(client->call("submit_study", std::move(params)));
  };
  util::Json memory = submit("", temp_path("submit_memory.gmst"));
  util::Json sharded = submit(temp_path("submit_shards"), temp_path("submit_merged.gmst"));
  util::Json unmerged = submit(temp_path("submit_shards_only"), "");

  EXPECT_EQ(memory.get_number("countries"), 2);
  EXPECT_EQ(sharded.get_number("countries"), 2);
  EXPECT_EQ(sharded.get_number("shards"), 2);
  EXPECT_EQ(unmerged.get_number("countries"), 2);
  ASSERT_NE(memory.find("summary"), nullptr);
  ASSERT_NE(sharded.find("summary"), nullptr);
  EXPECT_EQ(sharded.find("summary")->dump(2), memory.find("summary")->dump(2));
  EXPECT_EQ(unmerged.find("summary"), nullptr);
}

// ---------------------------------------------------------------------------
// Transport variants and churn.

TEST(Serve, UnixSocketServesTheSameProtocol) {
  ServerOptions options;
  options.unix_path = temp_path("gamma_serve_test.sock");
  options.service.store_path = shared_store();
  auto server = start_server(std::move(options));
  EXPECT_EQ(server->port(), 0u);

  auto client = Client::connect_unix(server->unix_path());
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  (*client)->set_recv_timeout_ms(30000);
  EXPECT_TRUE(must_result((*client)->call("ping")).get_bool("pong"));
  util::Json params = util::Json::object();
  params["report"] = "summary";
  util::Json summary = must_result((*client)->call("query", std::move(params)));
  EXPECT_EQ(summary.get_number("countries"), 2);
}

TEST(Serve, ConnectionChurnLeavesNoSessionsBehind) {
  auto server = start_server();
  for (int i = 0; i < 100; ++i) {
    auto client = connect(*server);
    ASSERT_TRUE(must_result(client->call("ping")).get_bool("pong"));
  }
  // Sessions unwind asynchronously after the client hangs up; poll briefly.
  for (int i = 0; i < 100 && server->active_sessions() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server->active_sessions(), 0u);
}

// ---------------------------------------------------------------------------
// Phase 2: the reactor write plane — dead peers, slow readers, chunked
// replies, rate limits, and the no-thread-per-connection invariant.

/// Read one process-global counter through a live connection's stats RPC.
/// The registry is shared across tests, so callers compare deltas.
double counter_value(Client& probe, const std::string& name) {
  util::Json stats = must_result(probe.call("stats"));
  return stats.find("json")->find("counters")->get_number(name, 0.0);
}

TEST(ServeReactor, KillPeerMidReplyCountsSendFailure) {
  ServerOptions options;
  options.workers = 2;
  auto server = start_server(std::move(options));
  auto probe = connect(*server);
  double failures_before = counter_value(*probe, "serve.send_failures");
  double sleeps_before = counter_value(*probe, "serve.requests.sleep");

  // Put a sleep in flight, then vanish with an RST (SO_LINGER 0) before the
  // reply exists. The worker's reply must surface as a counted send
  // failure, not a silent drop into a dead socket.
  auto victim = connect(*server);
  util::Json sleeper = util::Json::object();
  sleeper["kind"] = "sleep";
  sleeper["ms"] = 300;
  ASSERT_TRUE(victim->send_request(std::move(sleeper)).ok());
  while (counter_value(*probe, "serve.requests.sleep") <= sleeps_before) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  linger hard{};
  hard.l_onoff = 1;
  hard.l_linger = 0;
  ASSERT_EQ(::setsockopt(victim->fd(), SOL_SOCKET, SO_LINGER, &hard, sizeof(hard)),
            0);
  victim.reset();  // close -> RST

  bool counted = false;
  for (int i = 0; i < 500 && !counted; ++i) {
    counted = counter_value(*probe, "serve.send_failures") > failures_before;
    if (!counted) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(counted);
  // The victim's session is torn down, not leaked.
  for (int i = 0; i < 200 && server->active_sessions() > 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server->active_sessions(), 1u);  // just the probe
}

/// Turn `client` into a deliberately slow reader: shrink its kernel receive
/// buffer (so the server's sends clog fast) and pipeline `n` full-table
/// queries — tens of KB per reply — without ever reading one.
void pipeline_unread_queries(Client& client, int n) {
  int rcvbuf = 4096;
  ::setsockopt(client.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  for (int i = 0; i < n; ++i) {
    util::Json params = util::Json::object();
    params["kind"] = "query";
    params["table"] = "hits";
    params["limit"] = 1000000;
    ASSERT_TRUE(client.send_request(std::move(params)).ok());
  }
}

TEST(ServeReactor, SlowReaderIsDisconnectedAtBufferCap) {
  ServerOptions options;
  options.service.store_path = shared_store();
  options.workers = 2;
  options.sndbuf_bytes = 4096;      // tiny kernel buffer: backpressure is real
  options.write_buf_cap = 16u << 10;  // tiny cap: triggers without megabytes
  auto server = start_server(std::move(options));
  auto probe = connect(*server);
  double before = counter_value(*probe, "serve.slow_reader_disconnects");
  double reason_before =
      counter_value(*probe, "serve.rpc.query.errors.slow_reader");

  auto stalled = connect(*server);
  pipeline_unread_queries(*stalled, 50);

  // Replies overflow the kernel buffer, then the session buffer; the next
  // reply after the cap cuts the session loose.
  bool disconnected = false;
  for (int i = 0; i < 1000 && !disconnected; ++i) {
    disconnected =
        counter_value(*probe, "serve.slow_reader_disconnects") > before;
    if (!disconnected) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(disconnected);
  // The disconnect is also charged to the kind whose reply hit the cap,
  // with the slow_reader reason (GammaPulse RED accounting).
  EXPECT_GT(counter_value(*probe, "serve.rpc.query.errors.slow_reader"),
            reason_before);
  for (int i = 0; i < 200 && server->active_sessions() > 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server->active_sessions(), 1u);
}

TEST(ServeReactor, SlowReaderDoesNotStallOtherClients) {
  ServerOptions options;
  options.service.store_path = shared_store();
  options.workers = 4;
  options.max_queue = 256;  // the stalled pipeline must not eat the healthy
                            // clients' queue slots — backpressure is a
                            // different contract, tested elsewhere
  options.sndbuf_bytes = 4096;
  options.write_buf_cap = 64u << 10;
  auto server = start_server(std::move(options));

  // The single-threaded reference bytes every healthy client must see.
  std::string reference;
  {
    auto client = connect(*server);
    util::Json params = util::Json::object();
    params["report"] = "prevalence";
    reference = must_result(client->call("query", std::move(params))).dump(2);
  }
  ASSERT_FALSE(reference.empty());

  auto stalled = connect(*server);
  pipeline_unread_queries(*stalled, 30);

  // Four healthy clients keep querying with a hard timeout. A blocking-send
  // plane would wedge a worker on the stalled peer and starve these.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> healthy;
  for (int c = 0; c < 4; ++c) {
    healthy.emplace_back([&] {
      auto client = connect(*server);
      client->set_recv_timeout_ms(10000);
      for (int i = 0; i < 20; ++i) {
        util::Json params = util::Json::object();
        params["report"] = "prevalence";
        auto reply = client->call("query", std::move(params));
        if (!reply.ok() || !reply->get_bool("ok") ||
            reply->find("result")->dump(2) != reference) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : healthy) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  // The control plane is alive too, and the daemon still reports serving.
  auto probe = connect(*server);
  probe->set_recv_timeout_ms(10000);
  EXPECT_EQ(must_result(probe->call("health")).get_string("state"), "serving");
}

TEST(ServeReactor, ChunkedReplyReassemblesByteIdentically) {
  ServerOptions options;
  options.service.store_path = shared_store();
  options.chunk_bytes = 256;  // every report chunks: exercise reassembly hard
  auto server = start_server(std::move(options));
  auto client = connect(*server);
  double chunked_before = counter_value(*client, "serve.chunked_replies");

  store::Error error;
  auto reader = store::Reader::open(shared_store(), &error);
  ASSERT_TRUE(reader) << error.to_string();
  std::string direct = analysis::to_json(store::flows_report(*reader)).dump(2);

  // Through call(): reassembly is transparent and byte-identical.
  util::Json params = util::Json::object();
  params["report"] = "flows";
  util::Json served = must_result(client->call("query", std::move(params)));
  EXPECT_EQ(served.dump(2), direct);
  EXPECT_GT(counter_value(*client, "serve.chunked_replies"), chunked_before);

  // On the wire: consecutive chunk frames from 0, exactly one final
  // last=true, data concatenating to the serialized result.
  util::Json raw_request = util::Json::object();
  raw_request["kind"] = "query";
  raw_request["report"] = "flows";
  double id = 0;
  ASSERT_TRUE(client->send_request(std::move(raw_request), &id).ok());
  std::string reassembled;
  size_t expect_chunk = 0;
  for (;;) {
    auto frame = client->read_reply();
    ASSERT_TRUE(frame.ok()) << frame.status().to_string();
    ASSERT_TRUE(frame->find("chunk") != nullptr) << frame->dump();
    EXPECT_EQ(frame->get_number("id", -1.0), id);
    EXPECT_TRUE(frame->get_bool("ok"));
    ASSERT_EQ(static_cast<size_t>(frame->get_number("chunk", -1.0)), expect_chunk);
    ++expect_chunk;
    reassembled += frame->get_string("data");
    if (frame->get_bool("last")) break;
  }
  EXPECT_GT(expect_chunk, 1u);
  auto parsed = util::Json::parse(reassembled);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dump(2), direct);
}

TEST(ServeReactor, RateLimitedRequestsCarryRateLimitedCode) {
  ServerOptions options;
  options.service.store_path = shared_store();
  options.rate_limit = 0.05;  // refill is negligible within the test
  options.rate_burst = 3;
  auto server = start_server(std::move(options));
  auto client = connect(*server);
  double limited_before = counter_value(*client, "serve.rate_limited");

  // The bucket admits exactly the burst...
  for (int i = 0; i < 3; ++i) {
    util::Json params = util::Json::object();
    params["report"] = "summary";
    util::Json result = must_result(client->call("query", std::move(params)));
    EXPECT_EQ(result.get_number("countries"), 2) << "request " << i;
  }
  // ...then sheds with the structured code.
  util::Json params = util::Json::object();
  params["report"] = "summary";
  EXPECT_EQ(must_error_code(client->call("query", std::move(params))),
            "rate_limited");
  EXPECT_GT(counter_value(*client, "serve.rate_limited"), limited_before);

  // Control-plane kinds are exempt: a throttled client can still be probed
  // and told to shut down.
  EXPECT_TRUE(must_result(client->call("ping")).get_bool("pong"));
  EXPECT_EQ(must_result(client->call("health")).get_string("state"), "serving");
}

TEST(ServeReactor, SecondDaemonRefusesLiveUnixSocket) {
  ServerOptions first;
  first.unix_path = temp_path("gamma_serve_live.sock");
  auto server = start_server(std::move(first));

  // The node answers connect(2): a second daemon must refuse, not steal it.
  ServerOptions second;
  second.unix_path = server->unix_path();
  second.service.world = shared_world();
  auto refused = Server::start(std::move(second));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), util::StatusCode::kUnavailable);
  EXPECT_NE(refused.status().message().find("already running"), std::string::npos);

  // And the first daemon is unharmed.
  auto client = Client::connect_unix(server->unix_path());
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  (*client)->set_recv_timeout_ms(30000);
  EXPECT_TRUE(must_result((*client)->call("ping")).get_bool("pong"));
}

TEST(ServeReactor, StaleUnixSocketNodeIsReclaimed) {
  std::string path = temp_path("gamma_serve_stale.sock");
  // A dead daemon's leftover: a bound node nobody is listening on.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ::unlink(path.c_str());
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ::close(fd);  // node stays on disk; connect() now gets ECONNREFUSED

  ServerOptions options;
  options.unix_path = path;
  auto server = start_server(std::move(options));
  auto client = Client::connect_unix(path);
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  (*client)->set_recv_timeout_ms(30000);
  EXPECT_TRUE(must_result((*client)->call("ping")).get_bool("pong"));
}

/// Threads in this process, per /proc/self/task.
size_t thread_count() {
  size_t n = 0;
  DIR* dir = ::opendir("/proc/self/task");
  if (!dir) return 0;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++n;
  }
  ::closedir(dir);
  return n;
}

TEST(ServeReactor, ChurnLeavesNoUnjoinedThreads) {
  auto server = start_server();
  // Settle: one round trip, then wait for its session to unwind so the
  // baseline is the steady state (accept + reactors + workers).
  {
    auto client = connect(*server);
    ASSERT_TRUE(must_result(client->call("ping")).get_bool("pong"));
  }
  for (int i = 0; i < 200 && server->active_sessions() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  size_t baseline = thread_count();
  ASSERT_GT(baseline, 0u);

  for (int i = 0; i < 100; ++i) {
    auto client = connect(*server);
    ASSERT_TRUE(must_result(client->call("ping")).get_bool("pong"));
  }
  for (int i = 0; i < 200 && server->active_sessions() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // The reactor plane spawns nothing per connection: 100 accepted-and-gone
  // connections leave the thread count exactly where it started.
  EXPECT_EQ(server->active_sessions(), 0u);
  EXPECT_EQ(thread_count(), baseline);
}

// ---------------------------------------------------------------------------
// Self-healing client (ISSUE 8): a daemon restart is invisible to armed
// clients for idempotent kinds, and structurally fatal for in-flight
// submit_study.

util::RetryPolicy chaos_retry() {
  util::RetryPolicy policy;
  policy.max_attempts = 12;
  policy.base_delay_ms = 25.0;
  policy.max_delay_ms = 400.0;
  policy.deadline_ms = 20000.0;
  return policy;
}

TEST(ServeHeal, IdempotentKindsAreExactlyTheReadSet) {
  // Reads and connection-scoped opens are safe to re-send; anything with
  // server-side effects is not. The client reads this off the request table.
  auto idempotent = [](const char* kind) {
    const serve::Rpc* rpc = serve::find_rpc(kind);
    return rpc != nullptr && rpc->idempotent;
  };
  EXPECT_TRUE(idempotent("ping"));
  EXPECT_TRUE(idempotent("health"));
  EXPECT_TRUE(idempotent("stats"));
  EXPECT_TRUE(idempotent("open"));
  EXPECT_TRUE(idempotent("query"));
  EXPECT_TRUE(idempotent("study_status"));
  EXPECT_FALSE(idempotent("submit_study"));
  EXPECT_FALSE(idempotent("shutdown"));
  EXPECT_FALSE(idempotent(""));
  EXPECT_FALSE(idempotent("nonsense"));
}

TEST(ServeHeal, ClientHealsAcrossServerRestart) {
  ServerOptions options;
  options.service.store_path = shared_store();
  auto server = start_server(std::move(options));
  const uint16_t port = server->port();

  auto client = connect(*server);
  client->set_retry(chaos_retry());
  ASSERT_TRUE(client->retry_armed());

  util::Json params = util::Json::object();
  params["report"] = "prevalence";
  std::string before = must_result(client->call("query", params)).dump(2);
  ASSERT_FALSE(before.empty());
  EXPECT_EQ(client->reconnects(), 0u);

  // Restart on the same port (SO_REUSEADDR makes the rebind immediate). The
  // client's socket is now a corpse; it must notice, reconnect, and re-send
  // without the caller seeing anything but the same bytes.
  server.reset();
  ServerOptions again;
  again.service.store_path = shared_store();
  again.port = port;
  server = start_server(std::move(again));
  ASSERT_NE(server, nullptr);

  std::string after = must_result(client->call("query", params)).dump(2);
  EXPECT_EQ(after, before) << "healed query returned different bytes";
  EXPECT_GE(client->reconnects(), 1u);
}

TEST(ServeHeal, InFlightSubmitStudyIsAbortedNotResent) {
  auto server = start_server();
  auto client = connect(*server);
  client->set_retry(chaos_retry());

  // Kill the server outright: the client's next round trip dies on the
  // wire. submit_study journals server-side before replying, so the client
  // must NOT silently re-send — the caller gets a structured kAborted and
  // owns the resubmit decision.
  server.reset();
  util::Json params = util::Json::object();
  params["seed"] = 1.0;
  auto reply = client->call("submit_study", std::move(params));
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), util::StatusCode::kAborted);
  EXPECT_NE(reply.status().message().find("double-journal"), std::string::npos)
      << reply.status().message();
  EXPECT_EQ(client->reconnects(), 0u) << "aborted submit must not have retried";
}

TEST(ServeChaos, RestartUnderConcurrentLoadIsInvisibleWithRetryArmed) {
  ServerOptions options;
  options.service.store_path = shared_store();
  options.workers = 4;
  auto server = start_server(std::move(options));
  const uint16_t port = server->port();

  // The single-threaded reference every healed reply must reproduce
  // byte-for-byte — the same identity bar `gamma store query` sets.
  std::string reference;
  {
    auto client = connect(*server);
    util::Json params = util::Json::object();
    params["report"] = "prevalence";
    reference = must_result(client->call("query", std::move(params))).dump(2);
  }
  ASSERT_FALSE(reference.empty());

  constexpr int kClients = 8;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  std::atomic<uint64_t> reconnects{0};
  std::atomic<uint64_t> replies{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      auto client = Client::connect_tcp("127.0.0.1", port);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      (*client)->set_recv_timeout_ms(30000);
      (*client)->set_retry(chaos_retry());
      while (!done.load(std::memory_order_relaxed)) {
        util::Json params = util::Json::object();
        params["report"] = "prevalence";
        auto reply = (*client)->call("query", std::move(params));
        if (!reply.ok() || !reply->get_bool("ok")) {
          failures.fetch_add(1);  // with retry armed, any surfaced error fails
          break;
        }
        if (reply->find("result")->dump(2) != reference) mismatches.fetch_add(1);
        replies.fetch_add(1);
      }
      reconnects.fetch_add((*client)->reconnects());
    });
  }

  // Two full kill/restart cycles while the fleet is mid-flight. Each
  // destruction closes every session; each restart reclaims the same port.
  for (int round = 0; round < 2; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    server.reset();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ServerOptions again;
    again.service.world = shared_world();
    again.service.store_path = shared_store();
    again.workers = 4;
    again.port = port;
    auto restarted = Server::start(std::move(again));
    ASSERT_TRUE(restarted.ok()) << restarted.status().to_string();
    server = std::move(*restarted);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  done.store(true);
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0) << "a restart leaked through the healing layer";
  EXPECT_EQ(mismatches.load(), 0) << "healed replies diverged from direct bytes";
  EXPECT_GT(reconnects.load(), 0u) << "no client actually exercised a reconnect";
  EXPECT_GT(replies.load(), 0u);
}

// ---------------------------------------------------------------------------
// GammaPulse (ISSUE 10): per-request RED metrics, the slow-query log, and
// the study progress RPC.

/// Read one histogram's observation count through a live stats RPC.
double histogram_count(Client& probe, const std::string& name) {
  util::Json stats = must_result(probe.call("stats"));
  const util::Json* hist = stats.find("json")->find("histograms")->find(name);
  return hist ? hist->get_number("count", 0.0) : 0.0;
}

TEST(ServePulse, RedMetricsCoverEveryStageByKind) {
  ServerOptions options;
  options.service.store_path = shared_store();
  auto server = start_server(std::move(options));
  auto client = connect(*server);
  auto probe = connect(*server);

  double ping_before = counter_value(*probe, "serve.rpc.ping.requests");
  double query_before = counter_value(*probe, "serve.rpc.query.requests");
  double ping_handle_before = histogram_count(*probe, "serve.rpc.ping.handle_ms");
  double query_wait_before = histogram_count(*probe, "serve.rpc.query.queue_wait_ms");
  double query_flush_before = histogram_count(*probe, "serve.rpc.query.flush_ms");
  double query_errors_before = counter_value(*probe, "serve.rpc.query.errors");

  EXPECT_TRUE(must_result(client->call("ping")).get_bool("pong"));
  util::Json params = util::Json::object();
  params["report"] = "summary";
  must_result(client->call("query", std::move(params)));
  util::Json bad = util::Json::object();
  bad["report"] = "nope";
  EXPECT_EQ(must_error_code(client->call("query", std::move(bad))),
            "invalid_argument");

  // requests/errors move with the calls...
  EXPECT_EQ(counter_value(*probe, "serve.rpc.ping.requests") - ping_before, 1.0);
  EXPECT_EQ(counter_value(*probe, "serve.rpc.query.requests") - query_before, 2.0);
  EXPECT_EQ(counter_value(*probe, "serve.rpc.query.errors") - query_errors_before,
            1.0);
  // ...and every lifecycle stage got a histogram observation. flush_ms is
  // published after the reply hits the wire, so the client seeing the reply
  // does not guarantee the observation landed yet — poll the delta.
  EXPECT_GE(histogram_count(*probe, "serve.rpc.ping.handle_ms") -
                ping_handle_before,
            1.0);
  EXPECT_GE(histogram_count(*probe, "serve.rpc.query.queue_wait_ms") -
                query_wait_before,
            2.0);
  bool flushed = false;
  for (int i = 0; i < 2500 && !flushed; ++i) {
    flushed = histogram_count(*probe, "serve.rpc.query.flush_ms") -
                  query_flush_before >=
              2.0;
    if (!flushed) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(flushed);
}

TEST(ServePulse, SpecIsEveryDeclaredKeyButTheJobsKnob) {
  // A sharded study is a different request from an unsharded one, so its
  // spec differs; the worker count is not, so "jobs" never reaches it.
  auto spec = [](const char* kind, const char* frame) {
    return serve::normalize_spec(kind, *util::Json::parse(frame));
  };
  EXPECT_EQ(spec("submit_study", R"({"id":1,"kind":"submit_study","countries":["NZ"],"jobs":8})"),
            R"({"countries":["NZ"]})");
  EXPECT_EQ(spec("submit_study",
                 R"({"id":2,"kind":"submit_study","countries":["NZ"],"shard_dir":"S"})"),
            R"({"countries":["NZ"],"shard_dir":"S"})");
  // A query's spec is the query without its envelope.
  EXPECT_EQ(spec("query", R"({"id":3,"kind":"query","table":"sites","limit":20,)"
                          R"("where":[["country","NZ"]]})"),
            R"({"limit":20,"table":"sites","where":[["country","NZ"]]})");
  EXPECT_EQ(spec("ping", R"({"id":4,"kind":"ping"})"), "{}");
  EXPECT_EQ(spec("no_such_kind", R"({"id":5,"kind":"no_such_kind","x":1})"), "{}");
}

/// Parse a slow-log file into records, failing the test on any line that is
/// not a JSON object carrying the full DESIGN §14 schema.
std::vector<util::Json> read_slowlog(const std::string& path) {
  static constexpr const char* kSchema[] = {
      "kind",      "id",       "session",      "spec",
      "ok",        "error",    "inline",       "queue_wait_ms",
      "handle_ms", "flush_ms", "total_ms",     "reply_bytes",
      "chunks",    "rate_limited", "backpressure", "delivered"};
  std::vector<util::Json> records;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    auto rec = util::Json::parse(line);
    EXPECT_TRUE(rec.has_value() && rec->is_object())
        << path << ":" << lineno << ": " << line;
    if (!rec || !rec->is_object()) continue;
    for (const char* key : kSchema) {
      EXPECT_TRUE(rec->has(key)) << path << ":" << lineno << " missing " << key;
    }
    records.push_back(std::move(*rec));
  }
  return records;
}

TEST(ServePulse, SlowLogAtThresholdZeroCapturesEveryRequest) {
  std::string log = temp_path("pulse_slowlog_all.jsonl");
  ::unlink(log.c_str());
  {
    ServerOptions options;
    options.service.store_path = shared_store();
    options.slow_ms = 0.0;  // log everything
    options.slow_log = log;
    auto server = start_server(std::move(options));
    auto client = connect(*server);
    EXPECT_TRUE(must_result(client->call("ping")).get_bool("pong"));
    util::Json params = util::Json::object();
    params["report"] = "summary";
    must_result(client->call("query", std::move(params)));
    EXPECT_EQ(must_error_code(client->call("no_such_kind")), "invalid_argument");
    // Server teardown joins every worker and reactor, so all records are
    // durably appended by the time the dtor returns.
  }
  std::vector<util::Json> records = read_slowlog(log);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].get_string("kind"), "ping");
  EXPECT_TRUE(records[0].get_bool("ok"));
  EXPECT_TRUE(records[0].get_bool("inline"));
  EXPECT_TRUE(records[0].get_bool("delivered"));
  EXPECT_EQ(records[1].get_string("kind"), "query");
  EXPECT_FALSE(records[1].get_bool("inline"));
  EXPECT_EQ(records[1].get_string("spec"), "{\"report\":\"summary\"}");
  EXPECT_GT(records[1].get_number("reply_bytes"), 0.0);
  // Hostile kinds normalize to the cardinality sink and carry the error.
  EXPECT_EQ(records[2].get_string("kind"), "unknown");
  EXPECT_FALSE(records[2].get_bool("ok"));
  EXPECT_EQ(records[2].get_string("error"), "invalid_argument");
}

/// One fixed request sequence against a fresh daemon; returns the slow-log
/// records with every timing field stripped — the bytes that must be
/// identical whatever the thread counts were.
std::vector<std::string> slowlog_sequence_stripped(
    const std::string& tag, size_t workers, double jobs, const std::string& ckpt,
    std::optional<util::FaultPlan> faults = std::nullopt) {
  std::string log = temp_path("pulse_det_" + tag + ".jsonl");
  ::unlink(log.c_str());
  {
    ServerOptions options;
    options.service.store_path = shared_store();
    options.service.checkpoint_dir = ckpt;
    options.service.fault_plan = std::move(faults);
    options.workers = workers;
    options.slow_ms = 0.0;
    options.slow_log = log;
    auto server = start_server(std::move(options));
    auto client = connect(*server);
    EXPECT_TRUE(must_result(client->call("ping")).get_bool("pong"));
    util::Json query = util::Json::object();
    query["report"] = "summary";
    must_result(client->call("query", std::move(query)));
    util::Json submit = util::Json::object();
    submit["seed"] = 61;
    util::Json countries = util::Json::array();
    countries.push_back("US");
    submit["countries"] = std::move(countries);
    submit["jobs"] = jobs;
    must_result(client->call("submit_study", std::move(submit)));
    // No study_status here: its *reply* serializes elapsed wall-clock
    // numbers, so that record's reply_bytes is legitimately run-dependent.
  }
  std::vector<std::string> stripped;
  for (const util::Json& rec : read_slowlog(log)) {
    util::Json keep = util::Json::object();
    for (const auto& [key, value] : rec.fields()) {
      if (key.size() > 3 && key.compare(key.size() - 3, 3, "_ms") == 0) continue;
      keep[key] = value;
    }
    stripped.push_back(keep.dump());
  }
  return stripped;
}

TEST(ServePulse, SlowLogNonTimingBytesAreDeterministic) {
  // The same sequence through 1 worker / --jobs 1, through 4 workers /
  // --jobs 4, through 4 workers / --jobs 8, and through a daemon resuming
  // the study from a journal must log byte-identical records once timing is
  // stripped: the spec digest excludes scheduling knobs and the record
  // order is the request order.
  std::vector<std::string> serial =
      slowlog_sequence_stripped("serial", 1, 1.0, "");
  std::vector<std::string> parallel =
      slowlog_sequence_stripped("parallel", 4, 4.0, "");
  std::vector<std::string> wide = slowlog_sequence_stripped("wide", 4, 8.0, "");
  ASSERT_EQ(serial.size(), 3u);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial, wide);

  // With the fault plane armed (`gamma serve --fault-plan`) the submitted
  // study exercises its degraded paths — which changes the submit reply
  // (degraded list), hence reply_bytes — but faults are deterministic in
  // (seed, component, key), so the faulted records must still agree at
  // every jobs width.
  util::FaultPlan plan;
  plan.dns_timeout = 0.10;
  plan.trace_timeout = 0.20;
  plan.trace_hop_loss = 0.10;
  plan.browser_slow = 0.10;
  plan.atlas_unavailable = 0.20;
  std::vector<std::string> faulted_serial =
      slowlog_sequence_stripped("faulted_serial", 1, 1.0, "", plan);
  std::vector<std::string> faulted_wide =
      slowlog_sequence_stripped("faulted_wide", 4, 8.0, "", plan);
  ASSERT_EQ(faulted_serial.size(), 3u);
  EXPECT_EQ(faulted_serial, faulted_wide);

  // Kill+resume: a journal holding the whole study (a "killed" run that got
  // everything done) changes resumed_countries in the reply but must not
  // change one non-timing slow-log byte.
  std::string ckpt = temp_path("pulse_det_ckpt");
  {
    worldgen::StudyOptions options;
    options.seed = 61;
    options.countries = {"US"};
    options.checkpoint_dir = ckpt;
    worldgen::run_study(*shared_world(), options);
  }
  std::vector<std::string> resumed =
      slowlog_sequence_stripped("resumed", 2, 1.0, ckpt);
  EXPECT_EQ(serial, resumed);
}

TEST(ServePulse, StudyStatusReportsNoneThenTracksJobs) {
  auto server = start_server();
  auto client = connect(*server);

  // Before any submit: a structured "none", not an error.
  util::Json none = must_result(client->call("study_status"));
  EXPECT_EQ(none.get_string("state"), "none");
  EXPECT_EQ(none.get_number("jobs"), 0);

  // An unknown job id is not_found, not the latest job's status.
  util::Json bogus = util::Json::object();
  bogus["job"] = 999;
  EXPECT_EQ(must_error_code(client->call("study_status", std::move(bogus))),
            "not_found");
  // A job id is a count: no fraction, sign, or value past 2^64.
  for (double job : {2.5, -1.0, 1e30}) {
    util::Json bad_job = util::Json::object();
    bad_job["job"] = job;
    EXPECT_EQ(must_error_code(client->call("study_status", std::move(bad_job))),
              "invalid_argument")
        << job;
  }

  util::Json submit = util::Json::object();
  submit["seed"] = 67;
  util::Json countries = util::Json::array();
  countries.push_back("US");
  submit["countries"] = std::move(countries);
  util::Json result = must_result(client->call("submit_study", std::move(submit)));
  double job = result.get_number("job");
  EXPECT_GT(job, 0.0);

  // By id and as the latest: the finished study reads done, 1/1 countries.
  util::Json by_id = util::Json::object();
  by_id["job"] = job;
  util::Json status = must_result(client->call("study_status", std::move(by_id)));
  EXPECT_EQ(status.get_string("state"), "done");
  EXPECT_EQ(status.get_number("total"), 1);
  EXPECT_EQ(status.get_number("completed"), 1);
  EXPECT_EQ(status.get_number("job"), job);
  EXPECT_EQ(status.find("countries")->get_string("US"), "done");
  EXPECT_GT(status.get_number("elapsed_ms"), 0.0);
}

// The acceptance bar: study_status for a killed-and-resumed *sharded* study
// reports monotonically non-decreasing completed counts while running, and
// its final per-country states are identical to an uninterrupted run's.
// (The SIGKILL variant — a real child process — runs in tools/check.sh; the
// journal is populated in-process here so the suite stays fork-free for
// TSan, exactly like SubmitStudyResumesFromJournalByteIdentically.)
TEST(ServePulse, StudyStatusAcrossKillAndResumeIsMonotoneAndConverges) {
  const uint64_t seed = 71;
  std::string shard_ref = temp_path("pulse_status_shards_ref");
  std::string shard_dir = temp_path("pulse_status_shards");
  std::string ckpt = temp_path("pulse_status_ckpt");

  auto submit_params = [&](const std::string& dir) {
    util::Json params = util::Json::object();
    params["seed"] = seed;
    util::Json countries = util::Json::array();
    countries.push_back("US");
    countries.push_back("GB");
    params["countries"] = std::move(countries);
    params["shard_dir"] = dir;
    return params;
  };

  // Uninterrupted reference: final per-country states through the daemon.
  std::string reference_states;
  {
    auto server = start_server();
    auto client = connect(*server);
    must_result(client->call("submit_study", submit_params(shard_ref)));
    util::Json status = must_result(client->call("study_status"));
    EXPECT_EQ(status.get_string("state"), "done");
    reference_states = status.find("countries")->dump();
  }
  ASSERT_FALSE(reference_states.empty());

  // A "killed" earlier run: only US reached the journal (shard published).
  {
    worldgen::StudyOptions options;
    options.seed = seed;
    options.countries = {"US"};
    options.checkpoint_dir = ckpt;
    options.shard_dir = shard_dir;
    worldgen::run_study(*shared_world(), options);
  }

  // Restarted daemon resumes; a second connection polls study_status while
  // the study runs. Completed counts must never go backwards.
  ServerOptions options;
  options.service.checkpoint_dir = ckpt;
  auto server = start_server(std::move(options));
  auto watcher = connect(*server);

  std::atomic<bool> submitted_ok{false};
  std::thread submitter([&] {
    auto client = connect(*server);
    util::Json result =
        must_result(client->call("submit_study", submit_params(shard_dir)));
    submitted_ok.store(result.get_number("shards") == 2.0);
  });

  double last_completed = 0.0;
  int regressions = 0;
  std::string final_states;
  for (int i = 0; i < 12000; ++i) {
    util::Json status = must_result(watcher->call("study_status"));
    if (status.get_string("state") == "none") {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;  // submit not registered yet
    }
    double completed = status.get_number("completed");
    if (completed < last_completed) ++regressions;
    last_completed = completed;
    if (status.get_string("state") == "done") {
      final_states = status.find("countries")->dump();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  submitter.join();
  EXPECT_TRUE(submitted_ok.load());
  EXPECT_EQ(regressions, 0) << "completed count went backwards";
  EXPECT_EQ(last_completed, 2.0);
  // The resumed run converges to the same per-country states as the
  // uninterrupted run — the reused shard is still shard_published.
  EXPECT_EQ(final_states, reference_states);
}

}  // namespace
}  // namespace gam
