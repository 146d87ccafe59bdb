// gamma — command-line front end for the measurement suite: the study, the
// GMST store, the serve daemon and its clients, and readers for traces and
// slow logs. `gamma` alone prints every command with the flags it reads.
//
// One table (kFlags, at the bottom) declares each flag once: its parser,
// the field it sets and the commands that read it. A flag the command does
// not read is a usage error (exit 2), never silently dropped.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
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
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/flows.h"
#include "analysis/prevalence.h"
#include "analysis/report_json.h"
#include "analysis/study.h"
#include "analysis/trace_report.h"
#include "core/parallel_runner.h"
#include "core/recorder.h"
#include "serve/client.h"
#include "serve/server.h"
#include "store/reader.h"
#include "store/shard.h"
#include "util/fault.h"
#include "util/io.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/retry.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "util/trace.h"
#include "web/har.h"
#include "worldgen/study.h"
#include "worldgen/world.h"

namespace {

using namespace gam;

// --where COL=VAL predicates, ANDed.
using Predicates = std::vector<std::pair<std::string, std::string>>;

// Everything a command line can set. Where a command hands a whole struct
// on (WorldConfig, StudyOptions, ServerOptions), the flags set its fields
// directly, so each default is stated once, in that struct.
struct Args {
  std::string command;     // "study", "store build", "client query", ...
  std::string subcommand;  // store: build|query|merge; client: request kind
  std::vector<std::string> files;  // positional arguments
  worldgen::WorldConfig world;
  worldgen::StudyOptions study;
  serve::ServerOptions server;
  // Client self-healing: one attempt, no retries.
  util::RetryPolicy retry{
      .max_attempts = 1, .base_delay_ms = 50.0, .max_delay_ms = 2000.0, .deadline_ms = 30000.0};
  std::string site;
  std::string out;
  std::string metrics_out;
  std::string log_json;
  std::string fault_plan;
  std::string trace_out;
  std::string trace_jsonl;
  bool progress = false;
  std::string table = "hits";
  Predicates wheres;
  std::string group_by;
  std::string report;
  bool flows = false;
  size_t limit = 0;
  int port = -1;  // -1 = unset: GAMMA_SERVE_PORT, then the server's default
  std::string port_file;
  uint64_t job = 0;
  bool once = false;
  bool json = false;
  double interval_ms = 1000.0;
};

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

// Collect the recorded spans and write the requested export files. Each
// failure is reported once (with errno text, via write_file) and taints the
// returned rc; a successful study with a failed trace write exits non-zero.
int export_traces(const Args& args) {
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

// Loads --fault-plan into `plan`, which an absent flag leaves disarmed;
// false after saying why the file does not hold a plan.
bool load_fault_plan(const Args& args, std::optional<util::FaultPlan>& plan) {
  if (args.fault_plan.empty()) return true;
  plan = util::FaultPlan::load_file(args.fault_plan);
  if (plan) return true;
  std::fprintf(stderr,
               "gamma %s: cannot load fault plan %s (missing, bad JSON, unknown key, or "
               "probability outside [0,1])\n",
               args.command.c_str(), args.fault_plan.c_str());
  return false;
}

// The study setup `run`, `study` and `store build` share. The request is
// checked and its fault plan loaded before `out_dir` is made or the world
// generated, so a refused request does no work and writes nothing; it
// returns nullopt after saying why. Tracing covers the study itself, not
// world generation, and the trace files are written right after the run,
// with `trace_rc` reporting that write, so a later failure in the report
// path cannot lose them.
std::optional<worldgen::StudyResult> run_cli_study(const Args& args,
                                                   worldgen::StudyOptions options,
                                                   const std::string& out_dir, int& trace_rc) {
  const char* cmd = args.command.c_str();
  if (util::Status request = worldgen::check_study_request(args.world, options);
      !request.ok()) {
    std::fprintf(stderr, "gamma %s: %s\n", cmd, request.message().c_str());
    return std::nullopt;
  }
  if (!load_fault_plan(args, options.fault_plan)) return std::nullopt;
  if (!out_dir.empty() && !make_out_dir(cmd, out_dir)) return std::nullopt;
  auto world = worldgen::generate_world(args.world);
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
  if (tracing) {
    util::trace::set_enabled(false);
    trace_rc = export_traces(args);
  }
  return study;
}

int cmd_run(const Args& args) {
  if (args.study.countries.size() != 1) {
    std::fprintf(stderr, "gamma run: need exactly one --country\n");
    return 1;
  }
  int rc = 0;
  std::optional<worldgen::StudyResult> study = run_cli_study(args, args.study, args.out, rc);
  if (!study) return 1;
  const core::VolunteerDataset& ds = study->datasets.front();
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

int cmd_study(const Args& args) {
  if (!args.out.empty() && !args.study.shard_dir.empty()) {
    std::fprintf(stderr, "gamma study: --out DIR does not apply with --shard-dir DIR (a sharded "
                         "study keeps no datasets); use --store-out FILE for the merged store\n");
    return 1;
  }
  int trace_rc = 0;
  std::optional<worldgen::StudyResult> study =
      run_cli_study(args, args.study, args.out, trace_rc);
  if (!study) return 1;
  auto print_degraded = [&] {
    if (study->degraded_countries.empty()) return;
    std::printf("degraded (partial coverage): %s\n",
                util::join(study->degraded_countries, " ").c_str());
  };

  if (!args.study.shard_dir.empty()) {
    // GammaShard mode: per-country results live on disk, not in memory, so
    // the in-memory report path does not apply.
    std::printf("%zu shards published to %s\n", study->countries(),
                args.study.shard_dir.c_str());
    if (study->shards_reused > 0) {
      std::printf("reused %zu intact shards from checkpoint\n", study->shards_reused);
    }
    print_degraded();
    if (!args.study.store_out.empty()) {
      std::printf("merged store: %s\n", args.study.store_out.c_str());
    }
    return trace_rc;
  }

  analysis::PrevalenceReport prev = analysis::compute_prevalence(study->analyses);
  analysis::FlowsReport flows = analysis::compute_flows(study->analyses);
  std::printf("%zu countries measured; %zu sites with non-local trackers\n",
              study->countries(), flows.sites_with_nonlocal);
  if (study->resumed_countries > 0) {
    std::printf("resumed %zu countries from checkpoint\n", study->resumed_countries);
  }
  print_degraded();
  std::printf("prevalence: reg %.1f%% gov %.1f%% (pearson %.2f)\n", prev.mean_reg,
              prev.mean_gov, prev.pearson_reg_gov);
  auto ranked = flows.ranked_destinations();
  if (!ranked.empty()) {
    std::printf("top destination: %s (%.1f%% of tracked sites)\n", ranked[0].first.c_str(),
                ranked[0].second);
  }
  if (args.out.empty()) return trace_rc;

  // Each dataset file renders every trace with its OS tool and builds a
  // DOM, so the country files are written on the study's --jobs workers;
  // the summary goes last, once every country file is in place.
  const size_t n = study->datasets.size();
  util::ThreadPool pool(core::ParallelStudyRunner::workers(args.study.jobs, n));
  std::atomic<bool> published = true;
  util::parallel_for(pool, n, [&](size_t i) {
    const auto& ds = study->datasets[i];
    if (!write_file(args.out + "/dataset-" + ds.country + ".json",
                    core::dataset_to_json(ds).dump(2)) ||
        !write_file(args.out + "/analysis-" + ds.country + ".json",
                    analysis_summary(study->analyses[i]).dump(2))) {
      published = false;
    }
  });
  if (!published) return 1;
  util::Json summary = analysis::study_summary_json(study->analyses.size(), prev, flows);
  if (!write_file(args.out + "/study-summary.json", summary.dump(2))) return 1;
  std::printf("wrote %zu datasets + analyses + study-summary.json to %s\n",
              study->datasets.size(), args.out.c_str());
  return trace_rc;
}

// `gamma trace FILE` — parse a recorded trace (either export format) and
// print the aggregate report: per-category self/total time, per-country
// critical path, slowest sites, merged flame stacks.
int cmd_trace(const Args& args) {
  if (args.files.empty()) {
    std::fprintf(stderr, "trace: need a trace FILE (--trace-out or --trace-jsonl output)\n");
    return 1;
  }
  const std::string& file = args.files[0];
  errno = 0;
  std::ifstream in(file, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "trace: cannot read %s: %s\n", file.c_str(),
                 errno != 0 ? std::strerror(errno) : "stream open failed");
    return 1;
  }
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  auto spans = util::trace::parse_spans(text);
  if (!spans) {
    std::fprintf(stderr, "trace: %s is neither a Chrome trace-event file nor span JSONL\n",
                 file.c_str());
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

// `gamma store build` — the study setup of `gamma study --store-out F`,
// with `--out F` naming the store.
int cmd_store_build(const Args& args) {
  if (args.out.empty()) {
    std::fprintf(stderr, "gamma store build: need --out FILE.gmst\n");
    return 1;
  }
  worldgen::StudyOptions options = args.study;
  options.store_out = args.out;
  int trace_rc = 0;
  std::optional<worldgen::StudyResult> study =
      run_cli_study(args, std::move(options), "", trace_rc);
  if (!study) return 1;
  std::printf("wrote %s (%zu countries)\n", args.out.c_str(), study->countries());
  return trace_rc;
}

// `gamma store merge OUT.gmst SHARD...` — deterministic, order-insensitive
// merge; every input CRC is re-verified and a torn or foreign file is a
// structured error, never a corrupt output.
int cmd_store_merge(const Args& args) {
  if (args.files.size() < 2) {
    std::fprintf(stderr, "store merge: need OUT.gmst and at least one SHARD.gmst\n");
    return 1;
  }
  std::vector<std::string> shards(args.files.begin() + 1, args.files.end());
  store::MergeResult merged = store::merge_shards(args.files[0], shards);
  if (!merged.ok()) {
    std::fprintf(stderr, "store merge: %s\n", merged.error.to_string().c_str());
    return 1;
  }
  std::printf("merged %zu shards into %s (%zu bytes)\n", merged.shards, args.files[0].c_str(),
              static_cast<size_t>(merged.bytes_written));
  return 0;
}

// The query request of `gamma store query` and `gamma client query`: a
// paper report, or a scan of --table shaped by the other query flags.
util::Json query_frame(const Args& args) {
  util::Json frame = util::Json::object();
  if (!args.report.empty()) {
    frame["report"] = args.report;
    return frame;
  }
  frame["table"] = args.table;
  if (!args.wheres.empty()) {
    util::Json where = util::Json::array();
    for (const auto& [column, value] : args.wheres) {
      util::Json pred = util::Json::array();
      pred.push_back(column);
      pred.push_back(value);
      where.push_back(std::move(pred));
    }
    frame["where"] = std::move(where);
  }
  if (!args.group_by.empty()) frame["group_by"] = args.group_by;
  if (args.flows) frame["flows"] = true;
  if (args.limit > 0) frame["limit"] = args.limit;
  return frame;
}

// The daemon's own check on a request the command line built, run before
// any store is opened or daemon dialed: a count a JSON number cannot carry
// exactly (2^53 and up) is a usage error, never a different request.
bool checked_request(const char* command, const std::string& kind, const util::Json& frame) {
  util::Status checked = serve::check_request(*serve::find_rpc(kind), frame);
  if (!checked.ok()) std::fprintf(stderr, "%s: %s\n", command, checked.message().c_str());
  return checked.ok();
}

// Writes `doc` as `store query` and `client` print it: dump(2) to --out, or
// to stdout.
int print_doc(const Args& args, const util::Json& doc) {
  std::string json = doc.dump(2);
  if (!args.out.empty()) {
    if (!write_file(args.out, json)) return 1;
    std::printf("wrote %s\n", args.out.c_str());
  } else {
    std::printf("%s\n", json.c_str());
  }
  return 0;
}

// `gamma store query FILE` — mapped-store scans and paper reports, answered
// by the function behind the daemon's query kind, so the bytes match.
// Structured store errors (crc_mismatch, bad_magic, ...) go to stderr and
// exit non-zero; a corrupted store is a diagnosis, never a crash.
int cmd_store_query(const Args& args) {
  if (args.files.empty()) {
    std::fprintf(stderr, "store query: need a FILE.gmst argument\n");
    return 1;
  }
  const util::Json frame = query_frame(args);
  if (!checked_request("store query", "query", frame)) return 2;
  store::Error error;
  std::unique_ptr<store::Reader> reader = store::Reader::open(args.files[0], &error);
  if (!reader) {
    std::fprintf(stderr, "store query: cannot open %s: %s\n", args.files[0].c_str(),
                 error.to_string().c_str());
    return 1;
  }
  util::StatusOr<util::Json> doc = serve::answer_query(*reader, frame);
  if (!doc.ok()) {
    std::fprintf(stderr, "store query: %s\n", doc.status().message().c_str());
    return 1;
  }
  return print_doc(args, *doc);
}

// `gamma serve` / `gamma client` — the serve plane. The daemon runs until a
// SIGTERM/SIGINT or a `shutdown` RPC, then drains: the listener closes,
// in-flight work finishes (studies checkpoint per-country as they always
// do), replies flush, and the process exits 0.

volatile std::sig_atomic_t g_stop_signal = 0;
void on_stop_signal(int sig) { g_stop_signal = sig; }

int cmd_serve(const Args& args) {
  // --workers 0 and --reactors 0 mean one: the server clamps both.
  serve::ServerOptions options = args.server;
  options.service.checkpoint_dir = args.study.checkpoint_dir;
  if (!load_fault_plan(args, options.service.fault_plan)) return 1;
  // Only a TCP daemon reads GAMMA_SERVE_PORT; a --socket one has no port.
  if (args.port >= 0) {
    options.port = args.port;
  } else if (options.unix_path.empty() && !read_env_port(options.port)) {
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
  if (!args.server.unix_path.empty()) {
    std::printf("listening on %s\n", args.server.unix_path.c_str());
  } else {
    std::printf("listening on %s:%u\n", args.server.host.c_str(), (*server)->port());
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
  util::RetryPolicy retry_policy = args.retry;
  retry_policy.max_delay_ms = std::max(retry_policy.max_delay_ms, retry_policy.base_delay_ms);
  const bool healing = retry_policy.max_attempts > 1;

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
  if (!args.server.unix_path.empty()) {
    client = dial([&] { return serve::Client::connect_unix(args.server.unix_path); });
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
      return serve::Client::connect_tcp(args.server.host, static_cast<uint16_t>(port));
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
  std::string kind = args.subcommand;
  util::Json params = util::Json::object();
  if (kind == "query") {
    params = query_frame(args);
    const std::string& store = args.server.service.store_path;
    if (!store.empty()) params["store"] = store;
  } else if (kind == "submit" || kind == "submit_study") {
    kind = "submit_study";
    params["seed"] = args.study.seed;
    params["jobs"] = args.study.jobs;
    if (!args.study.countries.empty()) {
      util::Json countries = util::Json::array();
      for (const std::string& c : args.study.countries) countries.push_back(c);
      params["countries"] = std::move(countries);
    }
    if (!args.study.store_out.empty()) params["store_out"] = args.study.store_out;
    if (!args.study.shard_dir.empty()) params["shard_dir"] = args.study.shard_dir;
  } else if (kind == "study_status") {
    if (args.job > 0) params["job"] = static_cast<double>(args.job);
  }
  if (!checked_request("client", kind, params)) return 2;

  int rc = 1;
  std::unique_ptr<serve::Client> client = dial_client(args, rc);
  if (!client) return rc;
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
  return print_doc(args, result ? *result : util::Json::object());
}

// ---------------------------------------------------------------------------
// `gamma top` — live RED dashboard over a running daemon. One sample is
// three *inline* RPCs (stats, health, study_status), so the dashboard keeps
// answering while the data-plane queue is full, rate-limited, or draining —
// exactly the moments an operator reaches for it.

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
  // A row per kind of the request table, and one for the kinds it does not
  // declare; kinds with no requests are omitted rather than rendered empty.
  std::vector<std::string> kinds;
  for (const serve::Rpc& row : serve::rpcs()) kinds.emplace_back(row.kind);
  kinds.emplace_back(serve::kUnknownKind);
  for (const std::string& kind : kinds) {
    std::string base = "serve.rpc." + kind;
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

    if (args.json) {
      std::printf("%s\n", sample.dump(args.once ? 2 : -1).c_str());
    } else {
      render_top(sample, /*clear_screen=*/!args.once);
    }
    std::fflush(stdout);
    if (args.once) return 0;
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<long long>(args.interval_ms * 1000.0)));
  }
}

// `gamma slowlog FILE` — validate and summarize a --slow-log file. Every
// non-empty line must parse as a JSON object carrying the full DESIGN §14
// record schema; any malformed line is reported and exits non-zero. This is
// the assertion tool behind check.sh's observability arm.
int cmd_slowlog(const Args& args) {
  if (args.files.empty()) {
    std::fprintf(stderr, "slowlog: need a --slow-log FILE argument\n");
    return 1;
  }
  errno = 0;
  std::ifstream in(args.files[0], std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "slowlog: cannot read %s: %s\n", args.files[0].c_str(),
                 errno != 0 ? std::strerror(errno) : "stream open failed");
    return 1;
  }
  // The normative record schema (DESIGN §14): every field the daemon's
  // SlowLog writes. A field may be zero/false/empty but never absent.
  const util::Json schema = serve::SlowLog::record_json({}, {}, false);
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
    for (const auto& [key, unused] : schema.fields()) {
      if (!rec->has(key)) {
        std::fprintf(stderr, "slowlog: line %zu missing field '%s'\n", lineno, key.c_str());
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
  if (args.json) {
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
  if (args.site.empty() || args.study.countries.size() != 1) {
    std::fprintf(stderr, "har: need --site DOMAIN and exactly one --country CC\n");
    return 1;
  }
  if (util::Status request = worldgen::check_study_request(args.world, args.study);
      !request.ok()) {
    std::fprintf(stderr, "gamma har: %s\n", request.message().c_str());
    return 1;
  }
  auto world = worldgen::generate_world(args.world);
  const web::Website* site = world->universe.find(args.site);
  if (!site) {
    std::fprintf(stderr, "unknown site: %s\n", args.site.c_str());
    return 1;
  }
  const core::VolunteerProfile& vol = world->volunteer(args.study.countries[0]);
  web::Browser browser(world->universe, *world->resolver, world->topology,
                       core::GammaConfig::study_defaults().browser);
  util::Rng rng(args.study.seed);
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

int cmd_audit(const Args&) {
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

// ---------------------------------------------------------------------------
// The command line. Each command is one bit (`store` and `client` split by
// subcommand), so a flag can name the commands that read it.

enum : uint32_t {
  kRun = 1u << 0,
  kStudy = 1u << 1,
  kStoreBuild = 1u << 2,
  kStoreQuery = 1u << 3,
  kStoreMerge = 1u << 4,
  kServe = 1u << 5,
  kClientControl = 1u << 6,
  kClientQuery = 1u << 7,
  kClientSubmit = 1u << 8,
  kClientStatus = 1u << 9,
  kTop = 1u << 10,
  kSlowlog = 1u << 11,
  kHar = 1u << 12,
  kAudit = 1u << 13,
  kTrace = 1u << 14,
  kEvery = (1u << 15) - 1,
};
constexpr uint32_t kStudies = kStudy | kStoreBuild;  // the flags of run_cli_study
constexpr uint32_t kQueries = kStoreQuery | kClientQuery;
constexpr uint32_t kClients = kClientControl | kClientQuery | kClientSubmit | kClientStatus;
constexpr uint32_t kDialers = kClients | kTop;  // the flags of dial_client

struct Command {
  const char* name;   // the command word, then its subcommands joined by '|'
  uint32_t bit;
  int (*run)(const Args&);
  const char* files;  // its positional arguments, for usage ("" = none)
  size_t max_files;
  const char* about;
};

constexpr Command kCommands[] = {
    {"run", kRun, cmd_run, "", 0,
     "one volunteer session (one --country): the dataset JSON it mails back"},
    {"study", kStudy, cmd_study, "", 0,
     "the full study: per-country datasets and analyses, and the summary"},
    {"store build", kStoreBuild, cmd_store_build, "", 0,
     "the study of `study --store-out FILE.gmst`, with --out naming the store"},
    {"store query", kStoreQuery, cmd_store_query, "FILE.gmst", 1,
     "paper reports and ad-hoc scans over the mapped store"},
    {"store merge", kStoreMerge, cmd_store_merge, "OUT.gmst SHARD.gmst...", SIZE_MAX,
     "merge a shard set into the store an unsharded build writes, CRCs re-verified"},
    {"serve", kServe, cmd_serve, "", 0,
     "daemon: studies and store queries over a JSON socket; SIGTERM drains"},
    {"client ping|health|stats|shutdown", kClientControl, cmd_client, "", 0,
     "one control request to a running daemon"},
    {"client query", kClientQuery, cmd_client, "", 0,
     "a `store query` answered by the daemon, byte-identical"},
    {"client submit|submit_study", kClientSubmit, cmd_client, "", 0,
     "a study run by the daemon; --retry never re-sends it"},
    {"client study_status", kClientStatus, cmd_client, "", 0,
     "a submitted study's per-country progress"},
    {"top", kTop, cmd_top, "", 0,
     "live dashboard over a daemon: qps, p50/p99 per kind, queue, study progress"},
    {"slowlog", kSlowlog, cmd_slowlog, "FILE", 1,
     "validate a --slow-log file against the DESIGN §14 schema and summarize it"},
    {"har", kHar, cmd_har, "", 0, "one site loaded from one country, exported as HAR 1.2"},
    {"audit", kAudit, cmd_audit, "", 0,
     "the geolocation verdict on every injected IPmap error"},
    {"trace", kTrace, cmd_trace, "FILE", 1,
     "time per category, critical paths and slowest sites of a recorded trace"},
};

// The field a flag sets. Its type picks the parser: text, repeated text,
// repeated COL=VAL, a strict count in [min, max], a strict non-negative
// real, or a switch.
template <class T>
using FieldOf = T& (*)(Args&);
using Field = std::variant<FieldOf<std::string>, FieldOf<std::vector<std::string>>,
                           FieldOf<Predicates>, FieldOf<size_t>, FieldOf<int>, FieldOf<double>,
                           FieldOf<bool>>;

struct Flag {
  const char* name;
  const char* value;  // the value's name in usage ("" for a switch)
  uint32_t commands;  // the commands that read it
  Field field;
  const char* help;
  size_t min = 0;     // counts and reals
  size_t max = 0;     // counts only
};

constexpr size_t kMaxCount = std::numeric_limits<size_t>::max();

const Flag kFlags[] = {
    // The study request.
    {"--country", "CC", kRun | kStudies | kClientSubmit | kHar,
     [](Args& a) -> auto& { return a.study.countries; },
     "measure this vantage country; repeatable (default: all)"},
    {"--seed", "N", kRun | kStudies | kClientSubmit | kHar,
     [](Args& a) -> auto& { return a.study.seed; }, "study seed", 0, kMaxCount},
    {"--jobs", "N", kStudies | kClientSubmit, [](Args& a) -> auto& { return a.study.jobs; },
     "worker threads, 0 = one per core", 0, kMaxCount},
    {"--countries", "N", kStudies, [](Args& a) -> auto& { return a.world.scale_countries; },
     "use N synthetic countries V00, V01, ..., not the 23", 1, kMaxScaleCountries},
    {"--sites", "N", kStudies, [](Args& a) -> auto& { return a.world.scale_sites; },
     "total site budget of the --countries N world", 1, kMaxScaleSites},
    {"--shard-dir", "DIR", kStudies | kClientSubmit,
     [](Args& a) -> auto& { return a.study.shard_dir; },
     "stream each country to DIR/shard-<i>-<CC>.gmst; a sharded\n"
     "study keeps no datasets, so `study` refuses --out"},
    {"--store-out", "FILE", kStudy | kClientSubmit,
     [](Args& a) -> auto& { return a.study.store_out; },
     "also write the study's GMST store (with --shard-dir:\nthe shards merged)"},
    {"--fault-plan", "FILE", kStudies | kServe, [](Args& a) -> auto& { return a.fault_plan; },
     "arm the fault plane with a JSON plan (DESIGN §8)"},
    {"--checkpoint", "DIR", kStudies | kServe,
     [](Args& a) -> auto& { return a.study.checkpoint_dir; },
     "journal each finished country to DIR/study-<seed>.jsonl"},
    {"--resume", "", kStudies, [](Args& a) -> auto& { return a.study.resume; },
     "reuse what --checkpoint DIR journaled; same output"},
    {"--progress", "", kStudies, [](Args& a) -> auto& { return a.progress; },
     "redraw a per-country progress line on stderr"},
    {"--trace-out", "FILE", kStudies, [](Args& a) -> auto& { return a.trace_out; },
     "the study's Chrome trace-event JSON (open in Perfetto)"},
    {"--trace-jsonl", "FILE", kStudies, [](Args& a) -> auto& { return a.trace_jsonl; },
     "the simulated-time span stream, same for any --jobs"},
    {"--out", "PATH", kRun | kStudies | kQueries | kClients | kHar | kTrace,
     [](Args& a) -> auto& { return a.out; },
     "run, study: the output DIR (made first); store build:\n"
     "the store; otherwise the FILE written instead of stdout"},
    {"--site", "DOMAIN", kHar, [](Args& a) -> auto& { return a.site; }, "the site to load"},
    // Store queries, direct or served.
    {"--report", "R", kQueries, [](Args& a) -> auto& { return a.report; },
     "summary|prevalence|policy|per-site|flows|coverage|funnel"},
    {"--table", "T", kQueries, [](Args& a) -> auto& { return a.table; },
     "countries|sites|hits"},
    {"--where", "COL=VAL", kQueries, [](Args& a) -> auto& { return a.wheres; },
     "keep rows whose COL is VAL; repeatable, ANDed"},
    {"--group-by", "COL", kQueries, [](Args& a) -> auto& { return a.group_by; },
     "count rows per COL value"},
    {"--flows", "", kQueries, [](Args& a) -> auto& { return a.flows; },
     "source -> destination country flows of the matched rows"},
    {"--limit", "N", kQueries | kTrace, [](Args& a) -> auto& { return a.limit; },
     "at most N rows, 0 = all (trace: the N slowest, 0 = 10)", 0, kMaxCount},
    // The daemon and its clients.
    {"--host", "H", kServe | kDialers, [](Args& a) -> auto& { return a.server.host; },
     "listen / dial address"},
    {"--port", "P", kServe | kDialers, [](Args& a) -> auto& { return a.port; },
     "TCP port, 0 = ephemeral; unset: GAMMA_SERVE_PORT", 0, kMaxPort},
    {"--port-file", "FILE", kServe | kDialers, [](Args& a) -> auto& { return a.port_file; },
     "serve writes its bound port there; client and top read it"},
    {"--socket", "PATH", kServe | kDialers, [](Args& a) -> auto& { return a.server.unix_path; },
     "AF_UNIX socket instead of TCP"},
    {"--store", "FILE.gmst", kServe | kClientQuery,
     [](Args& a) -> auto& { return a.server.service.store_path; },
     "serve: the default store; client query: the store to ask"},
    {"--workers", "N", kServe, [](Args& a) -> auto& { return a.server.workers; },
     "worker threads, 0 = 1", 0, kMaxCount},
    {"--queue", "N", kServe, [](Args& a) -> auto& { return a.server.max_queue; },
     "queue bound; past it, resource_exhausted", 0, kMaxCount},
    {"--reactors", "N", kServe, [](Args& a) -> auto& { return a.server.reactors; },
     "epoll I/O threads, 0 = 1", 0, kMaxCount},
    {"--chunk-bytes", "N", kServe, [](Args& a) -> auto& { return a.server.chunk_bytes; },
     "stream replies over N bytes as chunked frames", 0, kMaxCount},
    {"--rate", "R", kServe, [](Args& a) -> auto& { return a.server.rate_limit; },
     "data requests/s per client, 0 = unlimited"},
    {"--burst", "B", kServe, [](Args& a) -> auto& { return a.server.rate_burst; },
     "token bucket size, 0 = max(R, 1)"},
    {"--slow-ms", "MS", kServe, [](Args& a) -> auto& { return a.server.slow_ms; },
     "slow-log threshold, 0 = log every request"},
    {"--slow-log", "FILE", kServe, [](Args& a) -> auto& { return a.server.slow_log; },
     "append each slow request to FILE as one JSONL record"},
    {"--retry", "N", kDialers, [](Args& a) -> auto& { return a.retry.max_attempts; },
     "attempts per call, with jittered backoff and reconnects;\n"
     "idempotent kinds are re-sent, submit never", 0,
     std::numeric_limits<int>::max()},
    {"--retry-base-ms", "MS", kDialers, [](Args& a) -> auto& { return a.retry.base_delay_ms; },
     "first backoff"},
    {"--retry-max-ms", "MS", kDialers, [](Args& a) -> auto& { return a.retry.max_delay_ms; },
     "cap on one backoff"},
    {"--retry-deadline-ms", "MS", kDialers,
     [](Args& a) -> auto& { return a.retry.deadline_ms; }, "total backoff budget per call"},
    {"--job", "N", kClientStatus | kTop, [](Args& a) -> auto& { return a.job; },
     "a submitted study's job id, 0 = the latest", 0, kMaxCount},
    {"--once", "", kTop, [](Args& a) -> auto& { return a.once; }, "print one sample and exit"},
    {"--json", "", kTop | kSlowlog, [](Args& a) -> auto& { return a.json; },
     "machine-readable JSON output"},
    {"--interval-ms", "MS", kTop, [](Args& a) -> auto& { return a.interval_ms; },
     "refresh period", 100},
    // Every command.
    {"--metrics-out", "FILE", kEvery, [](Args& a) -> auto& { return a.metrics_out; },
     "dump metrics after the command: JSON to FILE,\nPrometheus text to FILE.prom"},
    {"--log-json", "FILE", kEvery, [](Args& a) -> auto& { return a.log_json; },
     "mirror log records to FILE as JSONL, linked to spans"},
};

std::string count_range(const Flag& flag) {
  return "[" + std::to_string(flag.min) + ", " + std::to_string(flag.max) + "]";
}

// Sets `flag`'s field from `value` (null for a switch). False after naming
// the flag when the value is malformed.
bool set_flag(const Flag& flag, Args& args, const char* value) {
  std::string expected;  // what a malformed value should have been
  std::visit(
      [&](auto field) {
        auto& target = field(args);
        using T = std::decay_t<decltype(target)>;
        if constexpr (std::is_same_v<T, bool>) {
          target = true;
        } else if constexpr (std::is_same_v<T, std::string>) {
          target = value;
        } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
          target.push_back(value);
        } else if constexpr (std::is_same_v<T, Predicates>) {
          const char* eq = std::strchr(value, '=');
          if (eq && eq != value) target.emplace_back(std::string(value, eq), eq + 1);
          else expected = "COL=VAL";
        } else if constexpr (std::is_same_v<T, double>) {
          std::optional<double> x = parse_nonneg_real(value);
          if (x && *x >= flag.min) target = *x;
          else expected = "a finite number >= " + std::to_string(flag.min);
        } else {
          std::optional<size_t> n = parse_count(value, flag.min, flag.max);
          if (n) target = static_cast<T>(*n);
          else expected = "an integer in " + count_range(flag);
        }
      },
      flag.field);
  if (expected.empty()) return true;
  std::fprintf(stderr, "%s expects %s, got '%s'\n", flag.name, expected.c_str(), value);
  return false;
}

// A count's range when it binds (a maximum below INT_MAX), a real's floor
// when it is above 0, then " (default X)" when a fresh Args holds a
// non-zero, non-empty value.
std::string value_note(const Flag& flag) {
  std::string note;
  if (flag.max != 0 && flag.max < static_cast<size_t>(std::numeric_limits<int>::max())) {
    note = " " + count_range(flag);
  } else if (flag.min > 0) {
    note = ", at least " + std::to_string(flag.min);
  }
  Args fresh;
  std::string shown = std::visit(
      [&](auto field) -> std::string {
        const auto& v = field(fresh);
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>) {
          return v;
        } else if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.10g", static_cast<double>(v));
          return v > 0 ? buf : "";
        } else {
          return "";
        }
      },
      flag.field);
  return shown.empty() ? note : note + " (default " + shown + ")";
}

// Generated from the two tables: each command with the flags it reads, then
// what each flag means.
void usage() {
  std::string text = "usage: gamma <command> [flags]; a flag the command does not read exits 2\n";
  for (const Command& c : kCommands) {
    text += "\n  gamma " + std::string(c.name) + (*c.files ? " " : "") + c.files + "\n      " +
            util::replace_all(c.about, "\n", "\n      ") + "\n";
    std::string line = "     ";
    for (const Flag& f : kFlags) {
      if (!(f.commands & c.bit) || f.commands == kEvery) continue;
      std::string item = std::string(" ") + f.name + (*f.value ? " " : "") + f.value;
      if (line.size() + item.size() > 79) {
        text += line + "\n";
        line = "     ";
      }
      line += item;
    }
    if (line.size() > 5) text += line + "\n";
  }
  text += "\nflags (every command also reads --metrics-out and --log-json):\n";
  for (const Flag& f : kFlags) {
    std::string head = std::string("  ") + f.name + " " + f.value;
    head.resize(std::max<size_t>(head.size() + 1, 26), ' ');
    text += head + util::replace_all(f.help, "\n", "\n" + std::string(26, ' ')) +
            value_note(f) + "\n";
  }
  std::fputs(text.c_str(), stderr);
}

// The command argv names, with its flags and arguments parsed into `args`.
// Null after one line saying what is wrong (the usage when no known command
// is named); main exits 2.
const Command* parse_args(int argc, char** argv, Args& args) {
  std::string_view word = argc > 1 ? argv[1] : "";
  const bool has_sub = word == "store" || word == "client";
  std::string_view sub = has_sub && argc > 2 ? argv[2] : "";
  const Command* command = nullptr;
  for (const Command& c : kCommands) {
    std::vector<std::string_view> name = util::split_view(c.name, ' ');
    std::vector<std::string_view> subs =
        name.size() > 1 ? util::split_view(name[1], '|') : std::vector<std::string_view>{""};
    if (name[0] == word && std::find(subs.begin(), subs.end(), sub) != subs.end()) command = &c;
  }
  args.command = std::string(word) + (sub.empty() ? "" : " ") + std::string(sub);
  args.subcommand = sub;
  if (!command) {
    if (argc > 1) std::fprintf(stderr, "gamma: unknown command '%s'\n", args.command.c_str());
    usage();
    return nullptr;
  }
  std::set<std::string_view> given;  // the flags argv names
  for (int i = has_sub ? 3 : 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (arg[0] != '-') {
      if (args.files.size() == command->max_files) {
        std::fprintf(stderr, "gamma %s: unexpected argument '%s'\n", args.command.c_str(), arg);
        return nullptr;
      }
      args.files.push_back(arg);
      continue;
    }
    const Flag* flag = nullptr;
    for (const Flag& f : kFlags) {
      if (std::strcmp(f.name, arg) == 0) flag = &f;
    }
    if (!flag) {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return nullptr;
    }
    if (!(flag->commands & command->bit)) {
      std::fprintf(stderr, "%s does not apply to gamma %s\n", arg, args.command.c_str());
      return nullptr;
    }
    const char* value = nullptr;
    if (!std::holds_alternative<FieldOf<bool>>(flag->field)) {
      if (i + 1 == argc) {
        std::fprintf(stderr, "%s needs a value\n", arg);
        return nullptr;
      }
      value = argv[++i];
    }
    if (!set_flag(*flag, args, value)) return nullptr;
    given.insert(flag->name);
  }
  // A report is one fixed paper table: a scan flag beside it shapes nothing.
  for (const char* scan : {"--table", "--where", "--group-by", "--flows", "--limit"}) {
    if (given.contains("--report") && given.contains(scan)) {
      std::fprintf(stderr, "--report excludes %s\n", scan);
      return nullptr;
    }
  }
  return command;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  const Command* command = parse_args(argc, argv, args);
  if (!command) return 2;
  gam::util::set_log_level(gam::util::LogLevel::Warn);
  if (!args.log_json.empty()) {
    errno = 0;
    if (!gam::util::set_log_json_file(args.log_json)) {
      std::fprintf(stderr, "cannot open log file %s: %s\n", args.log_json.c_str(),
                   errno != 0 ? std::strerror(errno) : "stream open failed");
      return 2;
    }
  }
  int rc = 1;
  // A command that throws (a failed store write, a journal locked by
  // another study) fails with one error line and rc 1.
  try {
    rc = command->run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gamma %s: %s\n", args.command.c_str(), e.what());
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
