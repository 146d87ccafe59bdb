// gamma — command-line front end for the measurement suite.
//
//   gamma run --country NZ [--out DIR] [--seed N]
//       Run one volunteer session (C1→C2→C3 + Atlas repair + scrub) and
//       write the volunteer dataset JSON — what a real volunteer would have
//       mailed back to the researchers.
//
//   gamma study [--out DIR] [--seed N] [--country CC ...]
//       Run the full (or restricted) study and write per-country datasets,
//       per-country analysis summaries, and the headline study summary.
//
//   gamma har --site DOMAIN --country CC [--out FILE]
//       Load one site from one country and export the page load as HAR 1.2.
//
//   gamma audit
//       Print the geolocation pipeline's verdict for every injected IPmap
//       error visible from each volunteer (regulator-style evidence trail).
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/flows.h"
#include "analysis/prevalence.h"
#include "analysis/report_json.h"
#include "analysis/study.h"
#include "analysis/trace_report.h"
#include "core/recorder.h"
#include "serve/client.h"
#include "serve/server.h"
#include "store/query.h"
#include "store/reader.h"
#include "store/shard.h"
#include "store/reports.h"
#include "util/fault.h"
#include "util/io.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/retry.h"
#include "util/trace.h"
#include "web/har.h"
#include "worldgen/study.h"
#include "worldgen/world.h"

namespace {

using namespace gam;

struct Args {
  std::string command;
  std::string subcommand;   // store: build | query; client: request kind
  std::vector<std::string> countries;
  std::string site;
  std::string out;
  std::string metrics_out;
  std::string fault_plan;   // JSON file; arms the fault plane
  std::string checkpoint;   // journal directory; "" = no checkpointing
  std::string store_out;    // GMST store file; "" = no store
  bool resume = false;
  uint64_t seed = 7;
  size_t jobs = 1;
  // GammaShard scale + streaming knobs
  size_t scale_countries = 0;  // --countries N: synthetic vantage countries
  size_t scale_sites = 0;      // --sites N: total study site budget
  std::string shard_dir;       // --shard-dir DIR: stream per-country shards
  // tracing / structured logs
  std::string trace_out;    // Chrome trace-event JSON (Perfetto-loadable)
  std::string trace_jsonl;  // deterministic simulated-time span JSONL
  std::string log_json;     // structured JSONL log sink
  std::string trace_file;   // positional FILE for `gamma trace`
  // store query / merge
  std::string store_file;   // first positional FILE.gmst
  std::vector<std::string> store_files;  // all positionals (merge: OUT SHARD...)
  std::string table = "hits";
  std::vector<std::string> wheres;  // "col=value" predicates, ANDed
  std::string group_by;
  std::string report;
  bool flows = false;
  size_t limit = 0;         // 0 = unlimited
  // serve / client
  std::string host = "127.0.0.1";
  int port = -1;            // -1 = unset: GAMMA_SERVE_PORT env, then default
  std::string socket_path;  // AF_UNIX listen/connect path (instead of TCP)
  std::string serve_store;  // serve: default store; client: "store" param
  std::string port_file;    // serve writes the bound port here; client reads it
  size_t workers = 4;
  size_t queue = 64;
  size_t reactors = 2;      // serve: epoll reactor (I/O) threads
  size_t chunk_bytes = 0;   // serve: chunked-reply threshold (0 = default)
  double rate = 0.0;        // serve: per-client requests/sec (0 = unlimited)
  double burst = 0.0;       // serve: token bucket size (0 = max(rate, 1))
  // client self-healing (serve::Client::set_retry)
  int retry = 1;                     // total attempts; 1 = no retries
  double retry_base_ms = 50.0;       // first backoff
  double retry_max_ms = 2000.0;      // per-backoff cap
  double retry_deadline_ms = 30000.0;  // total backoff budget per call
  // GammaPulse observability
  double slow_ms = 50.0;        // serve: slow-query threshold, ms (0 = log all)
  std::string slow_log;         // serve: slow-query JSONL sink ("" = disarmed)
  uint64_t job = 0;             // study_status / top: job id (0 = latest)
  bool progress = false;        // study: live progress line on stderr
  bool once = false;            // top: one sample, then exit
  bool json_out = false;        // top/slowlog: machine-readable JSON output
  double interval_ms = 1000.0;  // top: refresh period
  std::string slowlog_file;     // positional FILE for `gamma slowlog`
};

void usage() {
  std::fprintf(stderr,
               "usage: gamma <command> [options]\n"
               "  run    --country CC [--out DIR] [--seed N]   one volunteer session\n"
               "  study  [--country CC ...] [--out DIR] [--seed N] [--jobs N]\n"
               "         [--fault-plan FILE] [--checkpoint DIR] [--resume]\n"
               "         [--store-out FILE.gmst] [--progress]\n"
               "         [--countries N] [--sites N] [--shard-dir DIR]  the full study\n"
               "         --progress redraws a live per-country progress line on\n"
               "         stderr (done/running/degraded, elapsed, ETA)\n"
               "  store  build --out FILE.gmst [--country CC ...] [--seed N] [--jobs N]\n"
               "             [--countries N] [--sites N] [--shard-dir DIR]\n"
               "             [--checkpoint DIR] [--resume]\n"
               "             run the study once, serialize its analysis substrate\n"
               "  store  merge OUT.gmst SHARD.gmst...\n"
               "             recombine a complete shard set into one store;\n"
               "             deterministic and argv-order-insensitive, every input\n"
               "             CRC re-verified, byte-identical to an unsharded build\n"
               "  store  query FILE.gmst [--report R] [--table T] [--where col=val ...]\n"
               "             [--group-by col] [--flows] [--limit N] [--out FILE]\n"
               "             sub-millisecond scans over the mapped store; reports:\n"
               "             summary|prevalence|policy|per-site|flows|coverage|funnel\n"
               "  serve  [--store FILE.gmst] [--checkpoint DIR] [--host H] [--port P]\n"
               "             [--socket PATH] [--workers N] [--queue N] [--reactors N]\n"
               "             [--rate R] [--burst B] [--chunk-bytes N]\n"
               "             [--port-file FILE] [--slow-ms MS] [--slow-log FILE]\n"
               "             [--fault-plan FILE]\n"
               "             long-lived daemon: studies + store queries over a\n"
               "             length-prefixed JSON socket protocol; --port 0 (or\n"
               "             GAMMA_SERVE_PORT=0) binds an ephemeral port; SIGTERM\n"
               "             drains gracefully (in-flight studies checkpoint);\n"
               "             --rate R throttles each client to R data requests/sec\n"
               "             (burst B), large results stream as chunked frames;\n"
               "             --slow-log FILE arms the GammaPulse slow-query log:\n"
               "             requests slower end-to-end than --slow-ms (default 50,\n"
               "             0 = log every request) append one JSONL record to FILE\n"
               "  client <kind> [--host H] [--port P | --port-file FILE | --socket PATH]\n"
               "             [--retry N [--retry-base-ms MS] [--retry-max-ms MS]\n"
               "              [--retry-deadline-ms MS]]\n"
               "             --retry N arms the self-healing layer: up to N attempts\n"
               "             with jittered exponential backoff, reconnecting to a\n"
               "             restarted daemon; idempotent kinds (ping/health/stats/\n"
               "             query) are re-sent transparently, submit is never\n"
               "             re-sent (a lost in-flight submit exits with `aborted`)\n"
               "             kinds: ping | health | stats | shutdown | submit |\n"
               "             study_status [--job N] |\n"
               "             query [--report R | --table T --where col=val ...\n"
               "                    --group-by col --flows --limit N] [--store NAME]\n"
               "             submit: [--country CC ...] [--seed N] [--jobs N]\n"
               "                     [--store-out FILE.gmst] [--shard-dir DIR]\n"
               "  top    [--host H] [--port P | --port-file FILE | --socket PATH]\n"
               "             [--interval-ms MS] [--once] [--json] [--job N]\n"
               "             live dashboard over a running daemon: qps, per-kind RED\n"
               "             p50/p99, queue depth, in-flight, slow-log counters, and\n"
               "             submitted-study progress, refreshed every --interval-ms\n"
               "             (default 1000); --once prints one sample and exits,\n"
               "             --json makes the sample machine-readable\n"
               "  slowlog FILE [--json]\n"
               "             validate + summarize a --slow-log file: every line must\n"
               "             parse as JSON and carry the full DESIGN §14 record\n"
               "             schema; any malformed line exits non-zero\n"
               "  har    --site DOMAIN --country CC [--out FILE]     HAR export\n"
               "  audit                                              IPmap error audit\n"
               "  trace  FILE [--limit N] [--out FILE]\n"
               "             analyze a recorded trace (either --trace-out or\n"
               "             --trace-jsonl format): per-category self/total time,\n"
               "             per-country critical path, slowest sites, flame stacks\n"
               "study tracing options:\n"
               "  --trace-out FILE     write a Chrome trace-event JSON of the study\n"
               "                       (open in Perfetto / chrome://tracing)\n"
               "  --trace-jsonl FILE   write the deterministic simulated-time span\n"
               "                       stream (byte-identical for any --jobs)\n"
               "study scale options (GammaShard):\n"
               "  --countries N        replace the 23 source countries with N synthetic\n"
               "                       vantage countries (V00, V01, ...), generated\n"
               "                       deterministically from the seed (1..1296)\n"
               "  --sites N            total study site budget, split evenly across the\n"
               "                       countries (requires --countries; 1..5000000)\n"
               "  --shard-dir DIR      stream each finished country's analysis to\n"
               "                       DIR/shard-<index>-<code>.gmst and drop it from\n"
               "                       memory; peak RSS is bounded by --jobs in-flight\n"
               "                       countries, not the world size. With --store-out\n"
               "                       the shards are merged into that single store;\n"
               "                       --out DIR is refused (a sharded study keeps no\n"
               "                       datasets)\n"
               "study resilience options:\n"
               "  --fault-plan FILE    arm the deterministic fault plane with the JSON\n"
               "                       plan in FILE (see DESIGN.md); the study degrades\n"
               "                       to partial coverage instead of failing\n"
               "  --checkpoint DIR     journal each completed country to\n"
               "                       DIR/study-<seed>.jsonl as it finishes\n"
               "  --resume             reuse countries journaled by a killed run with\n"
               "                       the same seed/plan; output is byte-identical to\n"
               "                       an uninterrupted run\n"
               "common options:\n"
               "  --metrics-out FILE   after the command, dump pipeline metrics as\n"
               "                       JSON to FILE and Prometheus text to FILE.prom\n"
               "  --log-json FILE      mirror Info+ log records to FILE as JSONL\n"
               "                       (each record links to the active trace span)\n");
}

// GammaShard scale caps. Synthetic country codes are "V" + two base-36
// digits, so the code space holds exactly 36*36 vantage countries; the site
// budget cap keeps one country's working set addressable (sites are split
// evenly, so the per-slot memory bound scales as sites/countries).
constexpr size_t kMaxScaleCountries = 1296;
constexpr size_t kMaxScaleSites = 5'000'000;

// Strict count parsing for every integer flag and GAMMA_SERVE_PORT: ASCII
// digits only, no sign, no suffix, value inside [min, max]. Anything else —
// "0" below a minimum of 1, "-3", "1e5", "99999999999999999999" — is a usage
// error, never a silent clamp.
std::optional<size_t> parse_count(const char* text, size_t min, size_t max) {
  if (!text || !*text) return std::nullopt;
  for (const char* p = text; *p; ++p) {
    if (*p < '0' || *p > '9') return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0') return std::nullopt;
  if (v < min || v > max) return std::nullopt;
  return static_cast<size_t>(v);
}

// Strict parsing for the real-valued flags (rates, backoffs, thresholds):
// strtod must consume the whole token and yield a finite value >= 0, so
// "nan", "inf", "-1", "5ms" and "" are usage errors.
std::optional<double> parse_nonneg_real(const char* text) {
  if (!text || !*text) return std::nullopt;
  char* end = nullptr;
  double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v < 0) return std::nullopt;
  return v;
}

constexpr size_t kMaxPort = 65535;

// GAMMA_SERVE_PORT, as strict as --port. Unset or empty leaves `port`
// alone; a valid value sets it; anything else is named on stderr and
// returns false.
bool read_env_port(int& port) {
  const char* env = std::getenv("GAMMA_SERVE_PORT");
  if (!env || !*env) return true;
  std::optional<size_t> n = parse_count(env, 0, kMaxPort);
  if (!n) {
    std::fprintf(stderr, "GAMMA_SERVE_PORT expects an integer in [0, %zu], got '%s'\n",
                 kMaxPort, env);
    return false;
  }
  port = static_cast<int>(*n);
  return true;
}

bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.command = argv[1];
  int first = 2;
  if (args.command == "store" || args.command == "client") {
    if (argc < 3 || argv[2][0] == '-') return false;
    args.subcommand = argv[2];
    first = 3;
  }
  for (int i = first; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    // The next argument as a strict count in [min, max]; says why if not.
    auto count = [&](size_t min, size_t max) {
      const char* v = next();
      std::optional<size_t> n = parse_count(v, min, max);
      if (!n) {
        std::fprintf(stderr, "%s expects an integer in [%zu, %zu], got '%s'\n", flag.c_str(),
                     min, max, v ? v : "");
      }
      return n;
    };
    // The next argument as a finite real >= 0; says why if not.
    auto real = [&]() {
      const char* v = next();
      std::optional<double> x = parse_nonneg_real(v);
      if (!x) {
        std::fprintf(stderr, "%s expects a finite number >= 0, got '%s'\n", flag.c_str(),
                     v ? v : "");
      }
      return x;
    };
    if (flag == "--country") {
      const char* v = next();
      if (!v) return false;
      args.countries.push_back(v);
    } else if (flag == "--site") {
      const char* v = next();
      if (!v) return false;
      args.site = v;
    } else if (flag == "--out") {
      const char* v = next();
      if (!v) return false;
      args.out = v;
    } else if (flag == "--seed") {
      auto n = count(0, std::numeric_limits<uint64_t>::max());
      if (!n) return false;
      args.seed = *n;
    } else if (flag == "--metrics-out") {
      const char* v = next();
      if (!v) return false;
      args.metrics_out = v;
    } else if (flag == "--jobs") {
      auto n = count(0, std::numeric_limits<size_t>::max());
      if (!n) return false;
      args.jobs = *n;
    } else if (flag == "--fault-plan") {
      const char* v = next();
      if (!v) return false;
      args.fault_plan = v;
    } else if (flag == "--checkpoint") {
      const char* v = next();
      if (!v) return false;
      args.checkpoint = v;
    } else if (flag == "--store-out") {
      const char* v = next();
      if (!v) return false;
      args.store_out = v;
    } else if (flag == "--countries") {
      auto n = count(1, kMaxScaleCountries);
      if (!n) return false;
      args.scale_countries = *n;
    } else if (flag == "--sites") {
      auto n = count(1, kMaxScaleSites);
      if (!n) return false;
      args.scale_sites = *n;
    } else if (flag == "--shard-dir") {
      const char* v = next();
      if (!v) return false;
      args.shard_dir = v;
    } else if (flag == "--trace-out") {
      const char* v = next();
      if (!v) return false;
      args.trace_out = v;
    } else if (flag == "--trace-jsonl") {
      const char* v = next();
      if (!v) return false;
      args.trace_jsonl = v;
    } else if (flag == "--log-json") {
      const char* v = next();
      if (!v) return false;
      args.log_json = v;
    } else if (flag == "--resume") {
      args.resume = true;
    } else if (flag == "--table") {
      const char* v = next();
      if (!v) return false;
      args.table = v;
    } else if (flag == "--where") {
      const char* v = next();
      if (!v) return false;
      args.wheres.push_back(v);
    } else if (flag == "--group-by") {
      const char* v = next();
      if (!v) return false;
      args.group_by = v;
    } else if (flag == "--report") {
      const char* v = next();
      if (!v) return false;
      args.report = v;
    } else if (flag == "--flows") {
      args.flows = true;
    } else if (flag == "--limit") {
      auto n = count(0, std::numeric_limits<size_t>::max());
      if (!n) return false;
      args.limit = *n;
    } else if (flag == "--host") {
      const char* v = next();
      if (!v) return false;
      args.host = v;
    } else if (flag == "--port") {
      auto n = count(0, kMaxPort);
      if (!n) return false;
      args.port = static_cast<int>(*n);
    } else if (flag == "--socket") {
      const char* v = next();
      if (!v) return false;
      args.socket_path = v;
    } else if (flag == "--store") {
      const char* v = next();
      if (!v) return false;
      args.serve_store = v;
    } else if (flag == "--port-file") {
      const char* v = next();
      if (!v) return false;
      args.port_file = v;
    } else if (flag == "--workers") {
      auto n = count(0, std::numeric_limits<size_t>::max());
      if (!n) return false;
      args.workers = *n;
    } else if (flag == "--queue") {
      auto n = count(0, std::numeric_limits<size_t>::max());
      if (!n) return false;
      args.queue = *n;
    } else if (flag == "--reactors") {
      auto n = count(0, std::numeric_limits<size_t>::max());
      if (!n) return false;
      args.reactors = *n;
    } else if (flag == "--chunk-bytes") {
      auto n = count(0, std::numeric_limits<size_t>::max());
      if (!n) return false;
      args.chunk_bytes = *n;
    } else if (flag == "--rate") {
      auto x = real();
      if (!x) return false;
      args.rate = *x;
    } else if (flag == "--burst") {
      auto x = real();
      if (!x) return false;
      args.burst = *x;
    } else if (flag == "--retry") {
      auto n = count(0, std::numeric_limits<int>::max());
      if (!n) return false;
      args.retry = static_cast<int>(*n);
    } else if (flag == "--retry-base-ms") {
      auto x = real();
      if (!x) return false;
      args.retry_base_ms = *x;
    } else if (flag == "--retry-max-ms") {
      auto x = real();
      if (!x) return false;
      args.retry_max_ms = *x;
    } else if (flag == "--retry-deadline-ms") {
      auto x = real();
      if (!x) return false;
      args.retry_deadline_ms = *x;
    } else if (flag == "--slow-ms") {
      auto x = real();
      if (!x) return false;
      args.slow_ms = *x;
    } else if (flag == "--slow-log") {
      const char* v = next();
      if (!v) return false;
      args.slow_log = v;
    } else if (flag == "--job") {
      auto n = count(0, std::numeric_limits<uint64_t>::max());
      if (!n) return false;
      args.job = *n;
    } else if (flag == "--progress") {
      args.progress = true;
    } else if (flag == "--once") {
      args.once = true;
    } else if (flag == "--json") {
      args.json_out = true;
    } else if (flag == "--interval-ms") {
      auto x = real();
      if (!x) return false;
      args.interval_ms = *x;
    } else if (!flag.empty() && flag[0] != '-' && args.command == "slowlog" &&
               args.slowlog_file.empty()) {
      args.slowlog_file = flag;  // positional FILE for `gamma slowlog`
    } else if (!flag.empty() && flag[0] != '-' && args.command == "store") {
      // Positional FILE.gmst args: `store query FILE`, `store merge OUT SHARD...`.
      if (args.store_file.empty()) args.store_file = flag;
      args.store_files.push_back(flag);
    } else if (!flag.empty() && flag[0] != '-' && args.command == "trace" &&
               args.trace_file.empty()) {
      args.trace_file = flag;  // positional FILE for `gamma trace`
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

// Create the --out directory (and its parents) before any work, so a run
// never generates a world and measures it only to fail on its first write.
bool make_out_dir(const char* cmd, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (!ec && std::filesystem::is_directory(dir, ec)) return true;
  std::fprintf(stderr, "%s: cannot create --out directory %s: %s\n", cmd, dir.c_str(),
               ec ? ec.message().c_str() : "not a directory");
  return false;
}

bool write_file(const std::string& path, const std::string& content) {
  // Durable publish (util::io): checked writes, fsync, rename, dir fsync.
  // The status message already names the failing step and strerror(errno).
  util::Status s = util::io::atomic_write_file(path, content);
  if (!s.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(), s.message().c_str());
    return false;
  }
  return true;
}

util::Json analysis_summary(const analysis::CountryAnalysis& a) {
  util::Json doc = util::Json::object();
  doc["country"] = a.country;
  doc["unique_domains"] = a.unique_domains;
  doc["unique_ips"] = a.unique_ips;
  doc["traceroutes"] = a.traceroutes;
  util::Json funnel = util::Json::object();
  funnel["nonlocal_candidates"] = a.funnel.nonlocal_candidates;
  funnel["after_sol"] = a.funnel.after_sol_constraints;
  funnel["after_rdns"] = a.funnel.after_rdns;
  funnel["dest_traceroutes"] = a.funnel.dest_traceroutes;
  doc["funnel"] = std::move(funnel);
  util::Json sites = util::Json::array();
  for (const auto& s : a.sites) {
    if (s.trackers.empty()) continue;
    util::Json site = util::Json::object();
    site["domain"] = s.site_domain;
    site["kind"] = s.kind == web::SiteKind::Government ? "government" : "regional";
    util::Json trackers = util::Json::array();
    for (const auto& t : s.trackers) {
      util::Json hit = util::Json::object();
      hit["domain"] = t.domain;
      hit["dest"] = t.dest_country;
      hit["org"] = t.org;
      hit["first_party"] = t.first_party;
      trackers.push_back(std::move(hit));
    }
    site["nonlocal_trackers"] = std::move(trackers);
    sites.push_back(std::move(site));
  }
  doc["sites_with_nonlocal_trackers"] = std::move(sites);
  return doc;
}

int cmd_run(const Args& args) {
  if (args.countries.size() != 1 || !world::is_source_country(args.countries[0])) {
    std::fprintf(stderr, "run: need exactly one --country from the 23 measured\n");
    return 1;
  }
  if (!args.out.empty() && !make_out_dir("run", args.out)) return 1;
  auto world = worldgen::generate_world({});
  worldgen::StudyOptions options;
  options.countries = args.countries;
  options.seed = args.seed;
  worldgen::StudyResult study = worldgen::run_study(*world, options);
  const core::VolunteerDataset& ds = study.datasets.front();
  std::string json = core::dataset_to_json(ds).dump(2);
  if (!args.out.empty()) {
    std::string path = args.out + "/dataset-" + ds.country + ".json";
    if (!write_file(path, json)) return 1;
    std::printf("wrote %s (%zu sites, %zu traceroutes)\n", path.c_str(),
                ds.attempted_sites(), ds.traceroutes_launched());
  } else {
    std::printf("%s\n", json.c_str());
  }
  return 0;
}

// Collect the recorded spans and write the requested export files. Each
// failure is reported once (with errno text, via write_file) and taints the
// returned rc; a successful study with a failed trace write exits non-zero.
int export_traces(const Args& args) {
  if (args.trace_out.empty() && args.trace_jsonl.empty()) return 0;
  std::vector<util::trace::Span> spans = util::trace::Tracer::instance().collect();
  uint64_t dropped = util::trace::Tracer::instance().dropped_spans();
  if (dropped > 0) {
    std::fprintf(stderr, "trace: %llu spans dropped (per-thread buffer cap)\n",
                 static_cast<unsigned long long>(dropped));
  }
  int rc = 0;
  if (!args.trace_out.empty()) {
    std::string doc = util::trace::chrome_trace_json(spans).dump(2);
    doc += '\n';
    if (write_file(args.trace_out, doc)) {
      std::printf("wrote trace: %s (%zu spans; open in Perfetto)\n",
                  args.trace_out.c_str(), spans.size());
    } else {
      rc = 1;
    }
  }
  if (!args.trace_jsonl.empty()) {
    if (write_file(args.trace_jsonl, util::trace::spans_to_jsonl(spans))) {
      std::printf("wrote span log: %s (%zu spans, deterministic)\n",
                  args.trace_jsonl.c_str(), spans.size());
    } else {
      rc = 1;
    }
  }
  return rc;
}

// One redrawn stderr line from a StudyProgress snapshot. stderr keeps the
// --out/stdout contract intact; \r + erase-to-EOL redraws in place on a TTY
// and degrades to one line per poll in a captured log.
void print_progress_line(const worldgen::StudyProgress& progress, bool final_line) {
  util::Json s = progress.status_json();
  const util::Json* counts = s.find("counts");
  double done = counts ? counts->get_number("done") +
                             counts->get_number("shard_published")
                       : 0.0;
  double degraded = counts ? counts->get_number("degraded") : 0.0;
  double running = counts ? counts->get_number("running") : 0.0;
  std::string line = "study [" + s.get_string("state", "pending") + "] " +
                     std::to_string(static_cast<size_t>(s.get_number("completed"))) +
                     "/" + std::to_string(static_cast<size_t>(s.get_number("total"))) +
                     " countries";
  char buf[96];
  std::snprintf(buf, sizeof(buf), " (done %zu, degraded %zu, running %zu)",
                static_cast<size_t>(done), static_cast<size_t>(degraded),
                static_cast<size_t>(running));
  line += buf;
  std::snprintf(buf, sizeof(buf), "  %.1fs elapsed", s.get_number("elapsed_ms") / 1000.0);
  line += buf;
  if (const util::Json* eta = s.find("eta_ms")) {
    std::snprintf(buf, sizeof(buf), ", eta %.1fs", eta->as_number() / 1000.0);
    line += buf;
  }
  std::fprintf(stderr, "\r\033[K%s%s", line.c_str(), final_line ? "\n" : "");
  std::fflush(stderr);
}

int cmd_study(const Args& args) {
  if (args.scale_countries > 0 && !args.countries.empty()) {
    std::fprintf(stderr, "study: --countries N (synthetic world) and --country CC "
                         "(source-country selection) are mutually exclusive\n");
    return 1;
  }
  if (args.scale_sites > 0 && args.scale_countries == 0) {
    std::fprintf(stderr, "study: --sites requires --countries N\n");
    return 1;
  }
  if (args.resume && args.checkpoint.empty()) {
    std::fprintf(stderr, "study: --resume requires --checkpoint DIR\n");
    return 1;
  }
  if (!args.out.empty() && !args.shard_dir.empty()) {
    std::fprintf(stderr, "study: --out DIR does not apply with --shard-dir DIR (a sharded "
                         "study keeps no datasets); use --store-out FILE for the merged store\n");
    return 1;
  }
  if (!args.out.empty() && !make_out_dir("study", args.out)) return 1;
  worldgen::StudyOptions options;
  options.countries = args.countries;
  options.seed = args.seed;
  options.jobs = args.jobs;
  options.shard_dir = args.shard_dir;
  if (!args.fault_plan.empty()) {
    auto plan = util::FaultPlan::load_file(args.fault_plan);
    if (!plan) {
      std::fprintf(stderr, "study: cannot load fault plan %s (bad JSON, unknown key,\n"
                           "or probability outside [0,1])\n", args.fault_plan.c_str());
      return 1;
    }
    options.fault_plan = *plan;
  }
  options.checkpoint_dir = args.checkpoint;
  options.resume = args.resume;
  options.store_out = args.store_out;
  worldgen::WorldConfig wcfg;
  wcfg.scale_countries = args.scale_countries;
  wcfg.scale_sites = args.scale_sites;
  auto world = worldgen::generate_world(wcfg);
  // Tracing covers the study itself, not world generation: spans start at
  // the first per-country root, and the files are written right after the
  // run so a later failure in the report path cannot lose them.
  bool tracing = !args.trace_out.empty() || !args.trace_jsonl.empty();
  if (tracing) util::trace::set_enabled(true);
  // --progress: GammaPulse observer + a poll thread that redraws one stderr
  // line. Purely observational — the study's outputs are byte-identical
  // with or without it (the StudyOptions::progress contract).
  std::shared_ptr<worldgen::StudyProgress> progress;
  std::atomic<bool> progress_stop{false};
  std::thread progress_thread;
  if (args.progress) {
    progress = std::make_shared<worldgen::StudyProgress>();
    options.progress = progress;
    progress_thread = std::thread([&] {
      while (!progress_stop.load(std::memory_order_acquire)) {
        print_progress_line(*progress, /*final_line=*/false);
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
      }
    });
  }
  auto finish_progress = [&](bool ok) {
    if (!progress) return;
    progress->finish(ok);
    progress_stop.store(true, std::memory_order_release);
    progress_thread.join();
    print_progress_line(*progress, /*final_line=*/true);
  };
  worldgen::StudyResult study;
  try {
    study = worldgen::run_study(*world, options);
  } catch (...) {
    finish_progress(false);
    throw;
  }
  finish_progress(true);
  int trace_rc = 0;
  if (tracing) {
    util::trace::set_enabled(false);
    trace_rc = export_traces(args);
  }

  if (!options.shard_dir.empty()) {
    // GammaShard mode: per-country results live on disk, not in memory, so
    // the in-memory report path does not apply.
    std::printf("%zu shards published to %s\n", study.countries(), args.shard_dir.c_str());
    if (study.shards_reused > 0) {
      std::printf("reused %zu intact shards from checkpoint\n", study.shards_reused);
    }
    if (!study.degraded_countries.empty()) {
      std::string list;
      for (const auto& c : study.degraded_countries) {
        if (!list.empty()) list += " ";
        list += c;
      }
      std::printf("degraded (partial coverage): %s\n", list.c_str());
    }
    if (!args.store_out.empty()) {
      std::printf("merged store: %s\n", args.store_out.c_str());
    }
    return trace_rc;
  }

  analysis::PrevalenceReport prev = analysis::compute_prevalence(study.analyses);
  analysis::FlowsReport flows = analysis::compute_flows(study.analyses);
  std::printf("%zu countries measured; %zu sites with non-local trackers\n",
              study.countries(), flows.sites_with_nonlocal);
  if (study.resumed_countries > 0) {
    std::printf("resumed %zu countries from checkpoint\n", study.resumed_countries);
  }
  if (!study.degraded_countries.empty()) {
    std::string list;
    for (const auto& c : study.degraded_countries) {
      if (!list.empty()) list += " ";
      list += c;
    }
    std::printf("degraded (partial coverage): %s\n", list.c_str());
  }
  std::printf("prevalence: reg %.1f%% gov %.1f%% (pearson %.2f)\n", prev.mean_reg,
              prev.mean_gov, prev.pearson_reg_gov);
  auto ranked = flows.ranked_destinations();
  if (!ranked.empty()) {
    std::printf("top destination: %s (%.1f%% of tracked sites)\n", ranked[0].first.c_str(),
                ranked[0].second);
  }
  if (args.out.empty()) return trace_rc;

  for (size_t i = 0; i < study.datasets.size(); ++i) {
    const auto& ds = study.datasets[i];
    if (!write_file(args.out + "/dataset-" + ds.country + ".json",
                    core::dataset_to_json(ds).dump(2))) {
      return 1;
    }
    if (!write_file(args.out + "/analysis-" + ds.country + ".json",
                    analysis_summary(study.analyses[i]).dump(2))) {
      return 1;
    }
  }
  util::Json summary = analysis::study_summary_json(study.analyses.size(), prev, flows);
  if (!write_file(args.out + "/study-summary.json", summary.dump(2))) return 1;
  std::printf("wrote %zu datasets + analyses + study-summary.json to %s\n",
              study.datasets.size(), args.out.c_str());
  return trace_rc;
}

// `gamma trace FILE` — parse a recorded trace (either export format) and
// print the aggregate report: per-category self/total time, per-country
// critical path, slowest sites, merged flame stacks.
int cmd_trace(const Args& args) {
  if (args.trace_file.empty()) {
    std::fprintf(stderr, "trace: need a trace FILE (--trace-out or --trace-jsonl output)\n");
    return 1;
  }
  errno = 0;
  std::ifstream in(args.trace_file, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "trace: cannot read %s: %s\n", args.trace_file.c_str(),
                 errno != 0 ? std::strerror(errno) : "stream open failed");
    return 1;
  }
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  auto spans = util::trace::parse_spans(text);
  if (!spans) {
    std::fprintf(stderr, "trace: %s is neither a Chrome trace-event file nor span JSONL\n",
                 args.trace_file.c_str());
    return 1;
  }
  size_t top_n = args.limit == 0 ? 10 : args.limit;
  std::string json = analysis::trace_report_json(*spans, top_n).dump(2);
  if (!args.out.empty()) {
    if (!write_file(args.out, json + "\n")) return 1;
    std::printf("wrote trace report %s (%zu spans)\n", args.out.c_str(), spans->size());
  } else {
    std::printf("%s\n", json.c_str());
  }
  return 0;
}

// `gamma store build` — run the study once and serialize its analysis
// substrate; `gamma store query` — mapped-store scans and paper reports.
// Structured store errors (crc_mismatch, bad_magic, ...) go to stderr and
// exit non-zero; a corrupted store is a diagnosis, never a crash.
int cmd_store(const Args& args) {
  if (args.subcommand == "build") {
    if (args.out.empty()) {
      std::fprintf(stderr, "store build: need --out FILE.gmst\n");
      return 1;
    }
    if (args.scale_sites > 0 && args.scale_countries == 0) {
      std::fprintf(stderr, "store build: --sites requires --countries N\n");
      return 1;
    }
    worldgen::WorldConfig wcfg;
    wcfg.scale_countries = args.scale_countries;
    wcfg.scale_sites = args.scale_sites;
    auto world = worldgen::generate_world(wcfg);
    worldgen::StudyOptions options;
    options.countries = args.countries;
    options.seed = args.seed;
    options.jobs = args.jobs;
    options.store_out = args.out;
    options.shard_dir = args.shard_dir;
    options.checkpoint_dir = args.checkpoint;
    options.resume = args.resume;
    worldgen::StudyResult study = worldgen::run_study(*world, options);
    std::printf("wrote %s (%zu countries)\n", args.out.c_str(), study.countries());
    return 0;
  }
  if (args.subcommand == "merge") {
    // `gamma store merge OUT.gmst SHARD...` — deterministic, order-insensitive
    // merge; every input CRC is re-verified and a torn or foreign file is a
    // structured error, never a corrupt output.
    if (args.store_files.size() < 2) {
      std::fprintf(stderr, "store merge: need OUT.gmst and at least one SHARD.gmst\n");
      return 1;
    }
    std::vector<std::string> shards(args.store_files.begin() + 1,
                                    args.store_files.end());
    store::MergeResult merged = store::merge_shards(args.store_files[0], shards);
    if (!merged.ok()) {
      std::fprintf(stderr, "store merge: %s\n", merged.error.to_string().c_str());
      return 1;
    }
    std::printf("merged %zu shards into %s (%zu bytes)\n", merged.shards,
                args.store_files[0].c_str(),
                static_cast<size_t>(merged.bytes_written));
    return 0;
  }
  if (args.subcommand != "query") {
    std::fprintf(stderr, "store: unknown subcommand '%s' (build|query|merge)\n",
                 args.subcommand.c_str());
    return 1;
  }
  if (args.store_file.empty()) {
    std::fprintf(stderr, "store query: need a FILE.gmst argument\n");
    return 1;
  }
  store::Error error;
  std::unique_ptr<store::Reader> reader = store::Reader::open(args.store_file, &error);
  if (!reader) {
    std::fprintf(stderr, "store query: cannot open %s: %s\n", args.store_file.c_str(),
                 error.to_string().c_str());
    return 1;
  }

  util::Json doc;
  if (!args.report.empty()) {
    util::StatusOr<util::Json> report = store::report_json(*reader, args.report);
    if (!report.ok()) {
      std::fprintf(stderr, "store query: %s\n", report.status().message().c_str());
      return 1;
    }
    doc = std::move(*report);
  } else {
    store::QuerySpec spec;
    auto table = store::table_from_name(args.table);
    if (!table) {
      std::fprintf(stderr, "store query: unknown table '%s' (countries|sites|hits)\n",
                   args.table.c_str());
      return 1;
    }
    spec.table = *table;
    for (const std::string& w : args.wheres) {
      size_t eq = w.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::fprintf(stderr, "store query: --where expects col=value, got '%s'\n",
                     w.c_str());
        return 1;
      }
      spec.where.emplace_back(w.substr(0, eq), w.substr(eq + 1));
    }
    spec.group_by = args.group_by;
    spec.flows = args.flows;
    spec.limit = args.limit;
    std::optional<util::Json> result = store::Query(*reader).run(spec, &error);
    if (!result) {
      std::fprintf(stderr, "store query: %s\n", error.to_string().c_str());
      return 1;
    }
    doc = std::move(*result);
  }

  std::string json = doc.dump(2);
  if (!args.out.empty()) {
    if (!write_file(args.out, json)) return 1;
    std::printf("wrote %s\n", args.out.c_str());
  } else {
    std::printf("%s\n", json.c_str());
  }
  return 0;
}

// `gamma serve` / `gamma client` — the serve plane. The daemon runs until a
// SIGTERM/SIGINT or a `shutdown` RPC, then drains: the listener closes,
// in-flight work finishes (studies checkpoint per-country as they always
// do), replies flush, and the process exits 0.

volatile std::sig_atomic_t g_stop_signal = 0;
void on_stop_signal(int sig) { g_stop_signal = sig; }

int cmd_serve(const Args& args) {
  serve::ServerOptions options;
  options.host = args.host;
  options.unix_path = args.socket_path;
  options.workers = args.workers == 0 ? 1 : args.workers;
  options.max_queue = args.queue;
  options.reactors = args.reactors == 0 ? 1 : args.reactors;
  if (args.chunk_bytes > 0) options.chunk_bytes = args.chunk_bytes;
  options.rate_limit = args.rate;
  options.rate_burst = args.burst;
  options.slow_ms = args.slow_ms;
  options.slow_log = args.slow_log;
  options.service.store_path = args.serve_store;
  options.service.checkpoint_dir = args.checkpoint;
  if (!args.fault_plan.empty()) {
    auto plan = util::FaultPlan::load_file(args.fault_plan);
    if (!plan) {
      std::fprintf(stderr,
                   "serve: cannot load fault plan '%s' (missing, bad JSON, "
                   "or probability outside [0,1])\n", args.fault_plan.c_str());
      return 1;
    }
    options.service.fault_plan = *plan;
  }
  // Only a TCP daemon reads GAMMA_SERVE_PORT; a --socket one has no port.
  if (args.port >= 0) {
    options.port = args.port;
  } else if (args.socket_path.empty() && !read_env_port(options.port)) {
    return 2;
  }  // else ephemeral (0): the GAMMA_SERVE_PORT=0 convention is the default

  auto server = serve::Server::start(std::move(options));
  if (!server.ok()) {
    std::fprintf(stderr, "serve: %s\n", server.status().to_string().c_str());
    return 1;
  }
  if (!args.port_file.empty() &&
      !write_file(args.port_file, std::to_string((*server)->port()) + "\n")) {
    return 1;
  }
  if (!args.socket_path.empty()) {
    std::printf("listening on %s\n", args.socket_path.c_str());
  } else {
    std::printf("listening on %s:%u\n", args.host.c_str(), (*server)->port());
  }
  std::fflush(stdout);

  std::signal(SIGTERM, on_stop_signal);
  std::signal(SIGINT, on_stop_signal);
  // The main thread's only job: sleep until someone — signal handler,
  // shutdown RPC, or nobody — asks us to stop. The handler cannot call into
  // the server (async-signal-safety), so it sets the flag and this loop
  // forwards it.
  while (!(*server)->wait_shutdown(/*timeout_ms=*/200)) {
    if (g_stop_signal != 0) (*server)->request_shutdown();
  }
  std::printf("draining (%zu active sessions)...\n", (*server)->active_sessions());
  std::fflush(stdout);
  (*server)->drain();
  std::printf("drained; exiting\n");
  return 0;
}

// Dial the daemon with the endpoint + self-healing settings shared by
// `gamma client` and `gamma top`. Endpoint resolution order: --socket, else
// --port, else --port-file, else GAMMA_SERVE_PORT. The self-healing layer
// covers calls on an established client; the very first dial can race a
// daemon restart too, so it gets the same bounded backoff when --retry is
// armed. Returns nullptr after printing the failure, with `rc` set to the
// exit code: 2 for a malformed --port-file or GAMMA_SERVE_PORT, 1 for any
// other failure.
std::unique_ptr<serve::Client> dial_client(const Args& args, int& rc) {
  rc = 1;
  util::RetryPolicy retry_policy;
  retry_policy.max_attempts = args.retry;
  retry_policy.base_delay_ms = args.retry_base_ms;
  retry_policy.max_delay_ms = std::max(args.retry_max_ms, args.retry_base_ms);
  retry_policy.deadline_ms = args.retry_deadline_ms;
  const bool healing = args.retry > 1;

  auto dial = [&](auto&& connect) -> std::unique_ptr<serve::Client> {
    util::Rng rng;
    for (int attempt = 1;; ++attempt) {
      auto c = connect();
      if (c.ok()) return std::move(*c);
      if (!healing || attempt >= retry_policy.max_attempts) {
        std::fprintf(stderr, "client: %s\n", c.status().to_string().c_str());
        return nullptr;
      }
      double delay = util::backoff_delay_ms(retry_policy, attempt + 1, rng);
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<long long>(delay * 1000.0)));
    }
  };

  std::unique_ptr<serve::Client> client;
  if (!args.socket_path.empty()) {
    client = dial([&] { return serve::Client::connect_unix(args.socket_path); });
    if (!client) return nullptr;
  } else {
    int port = args.port;
    if (port < 0 && !args.port_file.empty()) {
      // As strict as --port: the file holds one port in [1, 65535], as
      // `gamma serve --port-file` writes it, and at most one trailing newline.
      std::ifstream in(args.port_file, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "client: cannot read a port from %s\n",
                     args.port_file.c_str());
        return nullptr;
      }
      std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
      if (!text.empty() && text.back() == '\n') text.pop_back();
      std::optional<size_t> n = text.find('\0') == std::string::npos
                                    ? parse_count(text.c_str(), 1, kMaxPort)
                                    : std::nullopt;
      if (!n) {
        std::fprintf(stderr, "client: --port-file %s does not hold a port in [1, %zu]\n",
                     args.port_file.c_str(), kMaxPort);
        rc = 2;
        return nullptr;
      }
      port = static_cast<int>(*n);
    }
    if (port < 0 && !read_env_port(port)) {
      rc = 2;
      return nullptr;
    }
    if (port <= 0 || port > 65535) {
      std::fprintf(stderr,
                   "client: need a daemon port (--port, --port-file, or "
                   "GAMMA_SERVE_PORT)\n");
      return nullptr;
    }
    client = dial([&] {
      return serve::Client::connect_tcp(args.host, static_cast<uint16_t>(port));
    });
    if (!client) return nullptr;
  }
  // Studies take seconds, not minutes; anything past this is a hung daemon
  // and the structured deadline_exceeded beats a wedged script.
  client->set_recv_timeout_ms(120000);
  if (healing) client->set_retry(retry_policy);
  return client;
}

int cmd_client(const Args& args) {
  int rc = 1;
  std::unique_ptr<serve::Client> client = dial_client(args, rc);
  if (!client) return rc;

  std::string kind = args.subcommand;
  util::Json params = util::Json::object();
  if (kind == "query") {
    if (!args.serve_store.empty()) params["store"] = args.serve_store;
    if (!args.report.empty()) {
      params["report"] = args.report;
    } else {
      params["table"] = args.table;
      if (!args.wheres.empty()) {
        util::Json where = util::Json::array();
        for (const std::string& w : args.wheres) {
          size_t eq = w.find('=');
          if (eq == std::string::npos || eq == 0) {
            std::fprintf(stderr, "client query: --where expects col=value, got '%s'\n",
                         w.c_str());
            return 1;
          }
          util::Json pred = util::Json::array();
          pred.push_back(w.substr(0, eq));
          pred.push_back(w.substr(eq + 1));
          where.push_back(std::move(pred));
        }
        params["where"] = std::move(where);
      }
      if (!args.group_by.empty()) params["group_by"] = args.group_by;
      if (args.flows) params["flows"] = true;
      if (args.limit > 0) params["limit"] = args.limit;
    }
  } else if (kind == "submit" || kind == "submit_study") {
    kind = "submit_study";
    params["seed"] = args.seed;
    params["jobs"] = args.jobs;
    if (!args.countries.empty()) {
      util::Json countries = util::Json::array();
      for (const std::string& c : args.countries) countries.push_back(c);
      params["countries"] = std::move(countries);
    }
    if (!args.store_out.empty()) params["store_out"] = args.store_out;
    if (!args.shard_dir.empty()) params["shard_dir"] = args.shard_dir;
  } else if (kind == "study_status") {
    if (args.job > 0) params["job"] = static_cast<double>(args.job);
  } else if (kind != "ping" && kind != "health" && kind != "stats" &&
             kind != "shutdown") {
    std::fprintf(stderr,
                 "client: unknown kind '%s' "
                 "(ping|health|stats|shutdown|query|submit|study_status)\n",
                 kind.c_str());
    return 1;
  }

  auto reply = client->call(kind, std::move(params));
  if (!reply.ok()) {
    std::fprintf(stderr, "client: %s\n", reply.status().to_string().c_str());
    return 1;
  }
  if (!reply->get_bool("ok")) {
    const util::Json* error = reply->find("error");
    std::fprintf(stderr, "client: %s: %s\n",
                 error ? error->get_string("code", "internal").c_str() : "internal",
                 error ? error->get_string("message").c_str() : "malformed reply");
    return 1;
  }
  const util::Json* result = reply->find("result");
  // Output semantics mirror `gamma store query` exactly: the serve smoke arm
  // and test harness diff the two paths' --out files byte-for-byte.
  std::string json = result ? result->dump(2) : "{}";
  if (!args.out.empty()) {
    if (!write_file(args.out, json)) return 1;
    std::printf("wrote %s\n", args.out.c_str());
  } else {
    std::printf("%s\n", json.c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// `gamma top` — live RED dashboard over a running daemon. One sample is
// three *inline* RPCs (stats, health, study_status), so the dashboard keeps
// answering while the data-plane queue is full, rate-limited, or draining —
// exactly the moments an operator reaches for it.

// The serve-plane RPC vocabulary (mirrors serve/pulse.cpp kKinds; kinds with
// zero requests are omitted from the dashboard rather than rendered empty).
constexpr const char* kTopKinds[] = {"ping",         "health",       "stats",
                                     "shutdown",     "open",         "query",
                                     "submit_study", "study_status", "sleep",
                                     "unknown"};

// Upper-bound percentile estimate from a util::metrics histogram snapshot
// ({"bounds": [...], "counts": [...len bounds+1], "count": N}): the bound of
// the first bucket whose cumulative count reaches q*N. The overflow bucket
// reports the last finite bound — an understatement, but a stable one.
double histogram_quantile(const util::Json* hist, double q) {
  if (!hist) return 0.0;
  const util::Json* bounds = hist->find("bounds");
  const util::Json* counts = hist->find("counts");
  double total = hist->get_number("count", 0.0);
  if (!bounds || !counts || bounds->size() == 0 || total <= 0.0) return 0.0;
  double rank = q * total;
  double cum = 0.0;
  for (size_t i = 0; i < counts->size(); ++i) {
    cum += counts->at(i).as_number();
    if (cum >= rank) {
      size_t bound = i < bounds->size() ? i : bounds->size() - 1;
      return bounds->at(bound).as_number();
    }
  }
  return bounds->at(bounds->size() - 1).as_number();
}

// Assemble one machine-readable dashboard sample from the three RPC results.
// This is the `--once --json` output contract check.sh round-trips.
util::Json top_sample(const util::Json& metrics, const util::Json& health,
                      const util::Json& study, uint64_t reconnects) {
  const util::Json* counters = metrics.find("counters");
  const util::Json* hists = metrics.find("histograms");
  auto counter = [&](const std::string& name) {
    return counters ? counters->get_number(name, 0.0) : 0.0;
  };
  util::Json rpc = util::Json::object();
  double requests = 0.0;
  for (const char* kind : kTopKinds) {
    std::string base = std::string("serve.rpc.") + kind;
    double n = counter(base + ".requests");
    if (n <= 0.0) continue;
    requests += n;
    util::Json row = util::Json::object();
    row["requests"] = n;
    row["errors"] = counter(base + ".errors");
    const util::Json* handle = hists ? hists->find(base + ".handle_ms") : nullptr;
    row["p50_ms"] = histogram_quantile(handle, 0.50);
    row["p99_ms"] = histogram_quantile(handle, 0.99);
    const util::Json* queued = hists ? hists->find(base + ".queue_wait_ms") : nullptr;
    row["queue_p99_ms"] = histogram_quantile(queued, 0.99);
    rpc[kind] = std::move(row);
  }
  util::Json slowlog = util::Json::object();
  slowlog["emitted"] = counter("serve.slowlog.emitted");
  slowlog["capped"] = counter("serve.slowlog.capped");
  slowlog["write_failures"] = counter("serve.slowlog.write_failures");
  util::Json doc = util::Json::object();
  doc["health"] = health;
  doc["rpc"] = std::move(rpc);
  doc["requests"] = requests;
  doc["slowlog"] = std::move(slowlog);
  doc["study"] = study;
  doc["client_reconnects"] = static_cast<size_t>(reconnects);
  return doc;
}

void render_top(const util::Json& s, bool clear_screen) {
  if (clear_screen) std::printf("\033[H\033[2J");
  const util::Json* health = s.find("health");
  std::printf("gamma top — %s  qps %.1f  queue %zu/%zu  in-flight %zu  "
              "sessions %zu  up %.0fs\n",
              health ? health->get_string("state", "?").c_str() : "?",
              s.get_number("qps"),
              static_cast<size_t>(health ? health->get_number("queue_depth") : 0),
              static_cast<size_t>(health ? health->get_number("max_queue") : 0),
              static_cast<size_t>(health ? health->get_number("in_flight") : 0),
              static_cast<size_t>(health ? health->get_number("sessions") : 0),
              health ? health->get_number("uptime_s") : 0.0);
  const util::Json* slowlog = s.find("slowlog");
  std::printf("slow-log: emitted %.0f  capped %.0f  write-failures %.0f    "
              "reconnects %.0f\n",
              slowlog ? slowlog->get_number("emitted") : 0.0,
              slowlog ? slowlog->get_number("capped") : 0.0,
              slowlog ? slowlog->get_number("write_failures") : 0.0,
              s.get_number("client_reconnects"));
  std::printf("%-14s %10s %8s %10s %10s %10s\n", "kind", "requests", "errors",
              "p50 ms", "p99 ms", "queue p99");
  const util::Json* rpc = s.find("rpc");
  if (rpc) {
    for (const auto& [kind, row] : rpc->fields()) {
      std::printf("%-14s %10.0f %8.0f %10.2f %10.2f %10.2f\n", kind.c_str(),
                  row.get_number("requests"), row.get_number("errors"),
                  row.get_number("p50_ms"), row.get_number("p99_ms"),
                  row.get_number("queue_p99_ms"));
    }
  }
  const util::Json* study = s.find("study");
  if (study && study->get_string("state", "none") != "none") {
    std::printf("study [%s] job %zu: %zu/%zu countries",
                study->get_string("state").c_str(),
                static_cast<size_t>(study->get_number("job")),
                static_cast<size_t>(study->get_number("completed")),
                static_cast<size_t>(study->get_number("total")));
    if (const util::Json* eta = study->find("eta_ms")) {
      std::printf("  eta %.1fs", eta->as_number() / 1000.0);
    }
    std::printf("\n");
  }
}

int cmd_top(const Args& args) {
  int rc = 1;
  std::unique_ptr<serve::Client> client = dial_client(args, rc);
  if (!client) return rc;

  // One failed control RPC fails the sample; the caller decides whether to
  // re-dial (loop mode keeps trying via the client's own retry layer).
  auto fetch = [&](const char* kind, util::Json params,
                   util::Json* out) -> bool {
    auto reply = client->call(kind, std::move(params));
    if (!reply.ok()) {
      std::fprintf(stderr, "top: %s: %s\n", kind,
                   reply.status().to_string().c_str());
      return false;
    }
    if (!reply->get_bool("ok")) {
      const util::Json* error = reply->find("error");
      std::fprintf(stderr, "top: %s: %s\n", kind,
                   error ? error->get_string("message").c_str()
                         : "malformed reply");
      return false;
    }
    const util::Json* result = reply->find("result");
    *out = result ? *result : util::Json::object();
    return true;
  };

  double prev_requests = -1.0;
  auto prev_time = std::chrono::steady_clock::now();
  for (;;) {
    util::Json stats, health, study;
    util::Json status_params = util::Json::object();
    if (args.job > 0) status_params["job"] = static_cast<double>(args.job);
    if (!fetch("stats", util::Json::object(), &stats) ||
        !fetch("health", util::Json::object(), &health) ||
        !fetch("study_status", std::move(status_params), &study)) {
      return 1;
    }
    const util::Json* metrics = stats.find("json");
    util::Json sample = top_sample(metrics ? *metrics : util::Json::object(),
                                   health, study, client->reconnects());
    // qps: delta over the refresh interval once we have two samples; the
    // first sample (and --once) reports the lifetime average instead.
    auto now = std::chrono::steady_clock::now();
    double requests = sample.get_number("requests");
    double qps = 0.0;
    if (prev_requests >= 0.0) {
      double dt = std::chrono::duration<double>(now - prev_time).count();
      if (dt > 0.0) qps = (requests - prev_requests) / dt;
    } else {
      double uptime = health.get_number("uptime_s");
      if (uptime > 0.0) qps = requests / uptime;
    }
    sample["qps"] = qps;
    prev_requests = requests;
    prev_time = now;

    if (args.json_out) {
      std::printf("%s\n", sample.dump(args.once ? 2 : -1).c_str());
    } else {
      render_top(sample, /*clear_screen=*/!args.once);
    }
    std::fflush(stdout);
    if (args.once) return 0;
    double interval = std::max(args.interval_ms, 100.0);
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<long long>(interval * 1000.0)));
  }
}

// `gamma slowlog FILE` — validate and summarize a --slow-log file. Every
// non-empty line must parse as a JSON object carrying the full DESIGN §14
// record schema; any malformed line is reported and exits non-zero. This is
// the assertion tool behind check.sh's observability arm.
int cmd_slowlog(const Args& args) {
  if (args.slowlog_file.empty()) {
    std::fprintf(stderr, "slowlog: need a --slow-log FILE argument\n");
    return 1;
  }
  errno = 0;
  std::ifstream in(args.slowlog_file, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "slowlog: cannot read %s: %s\n", args.slowlog_file.c_str(),
                 errno != 0 ? std::strerror(errno) : "stream open failed");
    return 1;
  }
  // The normative record schema (DESIGN §14). A field may be legitimately
  // zero/false/empty but never absent.
  static constexpr const char* kSchema[] = {
      "kind",      "id",       "session",      "spec",
      "ok",        "error",    "inline",       "queue_wait_ms",
      "handle_ms", "flush_ms", "total_ms",     "reply_bytes",
      "chunks",    "rate_limited", "backpressure", "delivered"};
  std::string line;
  size_t lineno = 0, records = 0, malformed = 0, undelivered = 0;
  std::map<std::string, size_t> by_kind;
  double max_total_ms = 0.0;
  util::Json slowest;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    auto rec = util::Json::parse(line);
    if (!rec || !rec->is_object()) {
      std::fprintf(stderr, "slowlog: line %zu is not a JSON object\n", lineno);
      ++malformed;
      continue;
    }
    bool missing = false;
    for (const char* key : kSchema) {
      if (!rec->has(key)) {
        std::fprintf(stderr, "slowlog: line %zu missing field '%s'\n", lineno, key);
        missing = true;
      }
    }
    if (missing) {
      ++malformed;
      continue;
    }
    ++records;
    ++by_kind[rec->get_string("kind", "?")];
    if (!rec->get_bool("delivered", true)) ++undelivered;
    double total = rec->get_number("total_ms");
    if (records == 1 || total > max_total_ms) {
      max_total_ms = total;
      slowest = *rec;
    }
  }
  util::Json summary = util::Json::object();
  summary["records"] = records;
  summary["malformed"] = malformed;
  summary["undelivered"] = undelivered;
  util::Json kinds = util::Json::object();
  for (const auto& [kind, n] : by_kind) kinds[kind] = n;
  summary["by_kind"] = std::move(kinds);
  summary["max_total_ms"] = max_total_ms;
  if (records > 0) {
    util::Json top = util::Json::object();
    top["kind"] = slowest.get_string("kind");
    top["spec"] = slowest.get_string("spec");
    top["total_ms"] = slowest.get_number("total_ms");
    top["session"] = slowest.get_number("session");
    top["id"] = slowest.get_number("id");
    summary["slowest"] = std::move(top);
  }
  if (args.json_out) {
    std::printf("%s\n", summary.dump(2).c_str());
  } else {
    std::printf("%zu records, %zu malformed, %zu undelivered\n", records,
                malformed, undelivered);
    for (const auto& [kind, n] : by_kind) {
      std::printf("  %-14s %zu\n", kind.c_str(), n);
    }
    if (records > 0) {
      std::printf("slowest: %s %.2f ms  spec %s\n",
                  slowest.get_string("kind").c_str(), max_total_ms,
                  slowest.get_string("spec").c_str());
    }
  }
  return malformed > 0 ? 1 : 0;
}

int cmd_har(const Args& args) {
  if (args.site.empty() || args.countries.size() != 1) {
    std::fprintf(stderr, "har: need --site DOMAIN and exactly one --country CC\n");
    return 1;
  }
  auto world = worldgen::generate_world({});
  const web::Website* site = world->universe.find(args.site);
  if (!site) {
    std::fprintf(stderr, "unknown site: %s\n", args.site.c_str());
    return 1;
  }
  const core::VolunteerProfile& vol = world->volunteer(args.countries[0]);
  web::Browser browser(world->universe, *world->resolver, world->topology,
                       core::GammaConfig::study_defaults().browser);
  util::Rng rng(args.seed);
  web::PageLoadRecord rec = browser.load(*site, vol.node, vol.country, 0.0, rng);
  util::Json har = web::to_har(rec);
  if (!web::har_is_valid(har)) {
    std::fprintf(stderr, "internal error: invalid HAR\n");
    return 1;
  }
  if (!args.out.empty()) {
    if (!write_file(args.out, har.dump(2))) return 1;
    std::printf("wrote %s (%zu entries)\n", args.out.c_str(),
                har.find("log")->find("entries")->size());
  } else {
    std::printf("%s\n", har.dump(2).c_str());
  }
  return 0;
}

int cmd_audit(const Args& args) {
  (void)args;
  auto world = worldgen::generate_world({});
  std::printf("IPmap stand-in: %zu records, %zu injected errors; auditing as seen from\n"
              "each volunteer vantage point...\n\n",
              world->geodb.size(), world->geodb.error_count());
  probe::TracerouteEngine engine(world->topology, *world->resolver);
  geoloc::MultiConstraintGeolocator geolocator(world->geodb, world->reference,
                                               world->atlas, engine);
  util::Rng rng(17);
  size_t caught = 0, survived = 0;
  for (net::IPv4 ip : world->geodb.injected_errors()) {
    auto claim = world->geodb.lookup(ip);
    for (const auto& vol : world->volunteers) {
      geoloc::ServerObservation obs;
      obs.ip = ip;
      obs.volunteer_country = vol.country;
      obs.volunteer_city = vol.city;
      obs.volunteer_coord = world->topology.node(vol.node).coord;
      probe::TracerouteOptions opts;
      probe::TracerouteResult trace = engine.trace(vol.node, ip, opts, rng);
      obs.src_trace_attempted = true;
      obs.src_trace_reached = trace.reached;
      obs.src_first_hop_ms = trace.first_hop_rtt_ms();
      obs.src_last_hop_ms = trace.last_hop_rtt_ms();
      if (auto ptr = world->resolver->reverse(ip)) obs.rdns = *ptr;
      geoloc::GeoVerdict v = geolocator.classify(obs, rng);
      if (v.is_local()) continue;
      if (v.discarded()) {
        ++caught;
      } else {
        ++survived;
      }
      break;  // one vantage point per error is enough for the audit
    }
    (void)claim;
  }
  std::printf("erroneous claims discarded: %zu; survived (no usable evidence): %zu\n",
              caught, survived);
  std::printf("(survivors had no contradicting hostname hint and latency-consistent\n"
              "claims — the residual inaccuracy the paper's Limitations section flags)\n");
  return 0;
}

// Dump the process-wide metrics registry: JSON to `path`, Prometheus text
// exposition to `path`.prom. Runs after the command so the snapshot covers
// the whole pipeline (crawl, DNS, probes, geolocation, identification).
int write_metrics(const std::string& path) {
  util::MetricsSnapshot snap = util::MetricsRegistry::instance().snapshot();
  if (!write_file(path, snap.to_json().dump(2) + "\n")) return 1;
  if (!write_file(path + ".prom", snap.to_prometheus())) return 1;
  std::printf("wrote metrics: %s (JSON), %s.prom (Prometheus)\n", path.c_str(),
              path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    usage();
    return 2;
  }
  gam::util::set_log_level(gam::util::LogLevel::Warn);
  if (!args.log_json.empty()) {
    errno = 0;
    if (!gam::util::set_log_json_file(args.log_json)) {
      std::fprintf(stderr, "cannot open log file %s: %s\n", args.log_json.c_str(),
                   errno != 0 ? std::strerror(errno) : "stream open failed");
      return 2;
    }
  }
  int rc = 2;
  // A command that throws (a refused country, a failed store write, a
  // journal locked by another study) fails with one error line and rc 1.
  try {
    if (args.command == "run") rc = cmd_run(args);
    else if (args.command == "study") rc = cmd_study(args);
    else if (args.command == "store") rc = cmd_store(args);
    else if (args.command == "serve") rc = cmd_serve(args);
    else if (args.command == "client") rc = cmd_client(args);
    else if (args.command == "top") rc = cmd_top(args);
    else if (args.command == "slowlog") rc = cmd_slowlog(args);
    else if (args.command == "har") rc = cmd_har(args);
    else if (args.command == "audit") rc = cmd_audit(args);
    else if (args.command == "trace") rc = cmd_trace(args);
    else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gamma %s: %s\n", args.command.c_str(), e.what());
    rc = 1;
  }
  if (!args.metrics_out.empty()) {
    // A failed metrics dump is reported once (inside write_file, with the
    // failing path and errno) and fails the invocation even when the
    // command itself succeeded.
    int metrics_rc = write_metrics(args.metrics_out);
    if (rc == 0) rc = metrics_rc;
  }
  if (!args.log_json.empty()) {
    gam::util::set_log_json_file("");
    // The sink reported its first failure when it happened; summarize the
    // loss here and fail the invocation, matching --metrics-out semantics.
    uint64_t lost = gam::util::log_json_write_failures();
    if (lost > 0) {
      std::fprintf(stderr, "log: %llu JSONL records lost to sink write failures (%s)\n",
                   static_cast<unsigned long long>(lost), args.log_json.c_str());
      if (rc == 0) rc = 1;
    }
  }
  return rc;
}
