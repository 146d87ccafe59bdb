// Gamma's end-to-end benchmark: one process runs one workload, checks its
// outputs, and prints one JSON result line (README.md has the workloads,
// the metrics and how to run them).
//
//   perfbench --workload paper-study|scale-shard|serve-paper --seed N
//             --seconds S --trace 0|1 --tmp-dir DIR
//
// --trace 0 measures the end-to-end metrics with tracing off and metrics on
// (the CLI default). --trace 1 is the layer run: it repeats the workload
// with util::trace spans on, adds the benchmark's own spans around the
// public calls it makes, and prints the per-layer metrics instead.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/flows.h"
#include "analysis/prevalence.h"
#include "analysis/report_json.h"
#include "harness.h"
#include "serve/client.h"
#include "serve/server.h"
#include "store/query.h"
#include "store/reader.h"
#include "store/reports.h"
#include "store/shard.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "worldgen/study.h"
#include "worldgen/world.h"

namespace {

namespace fs = std::filesystem;
using namespace gam;
using Clock = std::chrono::steady_clock;
using perfbench::Draw;
using perfbench::RequestClass;

constexpr size_t kJobs = 4;  // study workers: nproc of the reference box
// Loop statistics are medians over blocks: kTailBlock consecutive requests
// of one class for a latency percentile (so a block's p99 has >= 10 samples
// beyond it), twice that many completions for throughput. A loop runs until
// each class has at least kTailBlocks blocks.
constexpr size_t kTailBlock = 1000;
constexpr size_t kTailBlocks = 2;
// A study workload serves the store it published for this share of --seconds.
constexpr double kReadbackShare = 0.5;
constexpr size_t kDirectSamples = 400;  // direct calls per class in the reference pass
constexpr int kRenderRounds = 20;
constexpr int kOpenRounds = 5;
constexpr int kRecvTimeoutMs = 30000;
// The closed loop moves to the next core every kCoreSliceMs (see Serving).
constexpr double kCoreSliceMs = 500;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Host steal summed over this machine's vCPUs, in ms: time a vCPU was ready
/// to run while the hypervisor ran another guest (the steal column of the
/// cpu line of /proc/stat). 0 where the kernel does not report it.
double host_steal_ms() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                      &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(v[7]) * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK))
                : 0;
}

/// Times a section on the wall clock with host steal taken out. On a shared
/// VM host the steal share moves from minute to minute and is no part of the
/// program's time. `width` is how many vCPUs the section keeps busy: a vCPU
/// accrues steal only while it has work, so the section lost the machine's
/// steal over it divided by its width (at least 1).
struct Stopwatch {
  Clock::time_point t0 = Clock::now();
  double steal0 = host_steal_ms();

  double ms(size_t width) const {
    double stolen = (host_steal_ms() - steal0) / static_cast<double>(std::max<size_t>(width, 1));
    return std::max(0.0, ms_since(t0) - stolen);
  }
};

/// CPU time of the whole process, in ms. It leaves out host steal: the
/// kernel charges a thread only for time its vCPU really ran.
double core_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

struct Workload {
  std::string name;
  size_t scale_countries = 0;  // 0/0 = the paper's 23-country world
  size_t scale_sites = 0;
  size_t countries = 0;        // countries every study must measure
  bool sharded = false;        // shard_dir + checkpoint_dir, then merge_shards
  bool serve_window = false;   // the closed loop fills the measured window
  // Studies per run: at least this many for the study workloads, exactly
  // this many set-ups for serve-paper (medians of setup_s and study_s).
  size_t min_iterations = 0;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"paper-study", 0, 0, 23, false, false, 5},
      {"scale-shard", 64, 16000, 64, true, false, 3},
      {"serve-paper", 0, 0, 23, false, true, 11},
  };
  return all;
}

/// Operations attempted and failed, and whether every check held. A failed
/// check is printed to stderr when it happens.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  void fail(const std::string& why) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
    correct = false;
  }
};

uint64_t spans_dropped() { return util::trace::Tracer::instance().dropped_spans(); }

// ---------------------------------------------------------------------------
// One study: a fresh world, run_study, and for the sharded path the merge.

/// Section times are Stopwatch times (steal taken out) unless named wall.
struct StudyRun {
  double generate_ms = 0;
  double study_ms = 0;  // run_study, plus merge_shards when sharded
  double merge_ms = 0;
  double run_wall_ms = 0;  // run_study alone
  double wall_ms = 0;      // generate + study + merge
  std::string store;
  uint32_t crc = 0;
  bool traced = false;
  size_t route_trees = 0;
  perfbench::MetricsDelta delta;
  perfbench::SpanTimes spans;  // traced runs only
};

StudyRun run_study_once(const Workload& w, uint64_t seed, size_t jobs, const fs::path& dir,
                        bool traced, Ledger& ledger) {
  fs::create_directories(dir);
  StudyRun run;
  run.store = (dir / "study.gmst").string();
  run.traced = traced;
  worldgen::WorldConfig cfg;
  cfg.seed = seed;
  cfg.scale_countries = w.scale_countries;
  cfg.scale_sites = w.scale_sites;
  worldgen::StudyOptions opts;
  opts.seed = seed;
  opts.jobs = jobs;
  if (w.sharded) {
    opts.shard_dir = (dir / "shards").string();
    opts.checkpoint_dir = (dir / "journal").string();
  } else {
    opts.store_out = run.store;
  }

  util::trace::Tracer& tracer = util::trace::Tracer::instance();
  if (traced) {
    if (spans_dropped() != 0) ledger.fail("trace.dropped_spans != 0");
    tracer.reset();
  }
  util::trace::set_enabled(traced);
  util::MetricsSnapshot before = util::MetricsRegistry::instance().snapshot();

  auto t0 = Clock::now();
  Stopwatch generate;
  std::unique_ptr<worldgen::World> world;
  {
    util::trace::ScopedSpan span("generate_world", "bench");
    world = worldgen::generate_world(cfg);
  }
  run.generate_ms = generate.ms(1);
  auto t1 = Clock::now();
  Stopwatch study;
  worldgen::StudyResult result;
  {
    util::trace::ScopedSpan span("run_study", "bench");
    result = worldgen::run_study(*world, opts);
  }
  run.study_ms = study.ms(std::min<size_t>(jobs, std::thread::hardware_concurrency()));
  run.run_wall_ms = ms_since(t1);
  bool whole_ok = true;
  if (w.sharded) {
    Stopwatch merge;
    store::MergeResult merged;
    {
      util::trace::ScopedSpan span("merge_shards", "bench");
      merged = store::merge_shards(run.store, result.shard_paths);
    }
    run.merge_ms = merge.ms(1);
    run.study_ms += run.merge_ms;
    if (!merged.ok()) {
      ledger.fail("merge_shards: " + merged.error.to_string());
      whole_ok = false;
    }
  }
  run.wall_ms = ms_since(t0);
  run.delta = perfbench::diff(before, util::MetricsRegistry::instance().snapshot());
  run.route_trees = world->topology.route_cache_size();
  if (traced) {
    util::trace::set_enabled(false);
    run.spans = perfbench::span_times(tracer.collect(), "bench");
    if (spans_dropped() != 0) ledger.fail("trace.dropped_spans != 0");
  }
  world.reset();

  // Output checks, outside every timer. One operation per country.
  ledger.attempted += w.countries;
  size_t degraded = result.degraded_countries.size();
  if (degraded != 0) ledger.fail(std::to_string(degraded) + " degraded countries");
  size_t measured = w.sharded ? result.shard_paths.size() : result.analyses.size();
  if (measured != w.countries) {
    ledger.fail("study measured " + std::to_string(measured) + " of " +
                std::to_string(w.countries) + " countries");
    whole_ok = false;
  }
  store::Error error;
  std::unique_ptr<store::Reader> reader = store::Reader::open(run.store, &error);
  if (!reader) {
    ledger.fail("published store does not open: " + error.to_string());
    whole_ok = false;
  } else if (reader->num_countries() != w.countries) {
    ledger.fail("published store holds " + std::to_string(reader->num_countries()) +
                " countries");
    whole_ok = false;
  } else if (!w.sharded) {
    analysis::PrevalenceReport prev = analysis::compute_prevalence(result.analyses);
    analysis::FlowsReport flows = analysis::compute_flows(result.analyses);
    std::string in_memory =
        analysis::study_summary_json(result.analyses.size(), prev, flows).dump();
    if (store::summary_json(*reader).dump() != in_memory) {
      ledger.fail("store summary differs from the in-memory study summary");
      whole_ok = false;
    }
  }
  std::optional<uint32_t> crc = store::file_crc32(run.store);
  if (!crc) {
    ledger.fail("cannot read the published store for its CRC");
    whole_ok = false;
  }
  run.crc = crc.value_or(0);
  ledger.failed += whole_ok ? degraded : w.countries;
  if (w.sharded) {
    std::error_code ec;
    fs::remove_all(dir / "shards", ec);
    fs::remove_all(dir / "journal", ec);
  }
  return run;
}

/// Every study of a run must publish the same bytes: the first study's
/// store CRC is the reference for the rest.
void check_crc(const Workload& w, const StudyRun& r, std::optional<uint32_t>& crc,
               Ledger& ledger) {
  if (!crc) crc = r.crc;
  if (r.crc == *crc) return;
  ledger.fail("published store CRC changed between studies");
  ledger.failed += w.countries;
}

/// Studies on fresh worlds until `seconds` have passed and at least
/// `min_iterations` ran. With `alternate`, every other study is traced, so
/// traced and untraced studies share warm-up and drift. Every published
/// store must carry the same CRC.
std::vector<StudyRun> study_loop(const Workload& w, uint64_t seed, double seconds,
                                 size_t min_iterations, bool alternate, const fs::path& root,
                                 std::optional<uint32_t>& crc, Ledger& ledger) {
  std::vector<StudyRun> runs;
  auto start = Clock::now();
  for (size_t i = 0; i < min_iterations || ms_since(start) < seconds * 1000; ++i) {
    if (!runs.empty()) {
      std::error_code ec;
      fs::remove_all(fs::path(runs.back().store).parent_path(), ec);
    }
    fs::path dir = root / ("study-" + std::to_string(i));
    runs.push_back(run_study_once(w, seed, kJobs, dir, alternate && i % 2 == 1, ledger));
    const StudyRun& r = runs.back();
    std::fprintf(stderr, "perfbench: study %zu%s: generate %.1f ms, study %.1f ms\n", i,
                 r.traced ? " (traced)" : "", r.generate_ms, r.study_ms);
    check_crc(w, r, crc, ledger);
  }
  return runs;
}

// ---------------------------------------------------------------------------
// Serving: the request catalog, the direct reference pass, the daemon and
// the closed loop.

/// Every distinct request the draw can produce, with its direct in-process
/// equivalent and the bytes that equivalent renders.
struct Catalog {
  struct Entry {
    util::Json params;
    std::function<std::optional<util::Json>(const store::Reader&)> direct;
    std::string expected;
  };
  std::vector<Entry> entries;
  size_t countries = 0;

  // Layout: funnel, coverage, countries-by-code x N, sites-by-country x N,
  // then the kAggregateKinds aggregates.
  const Entry& at(const Draw& d) const {
    if (d.cls == RequestClass::kAggregate) return entries[2 + 2 * countries + d.kind];
    switch (d.kind) {
      case 0: return entries[0];
      case 1: return entries[1];
      case 2: return entries[2 + d.country];
      default: return entries[2 + countries + d.country];
    }
  }
};

util::Json where_eq(const std::string& column, const std::string& value) {
  util::Json pred = util::Json::array();
  pred.push_back(column);
  pred.push_back(value);
  util::Json where = util::Json::array();
  where.push_back(std::move(pred));
  return where;
}

Catalog build_catalog(const store::Reader& reader, Ledger& ledger) {
  Catalog cat;
  cat.countries = reader.num_countries();
  auto add = [&cat](util::Json params, auto direct) {
    cat.entries.push_back({std::move(params), std::move(direct), ""});
  };
  auto report = [](const char* name) {
    util::Json p = util::Json::object();
    p["report"] = name;
    return p;
  };
  auto query = [](store::QuerySpec spec) {
    return [spec](const store::Reader& r) { return store::Query(r).run(spec); };
  };
  std::vector<std::string> codes;
  for (size_t c = 0; c < cat.countries; ++c) {
    codes.emplace_back(reader.countries().code.at(c));
  }

  // Entry order is the layout Catalog::at indexes.
  add(report("funnel"),
      [](const store::Reader& r) { return std::optional(store::funnel_json(r)); });
  add(report("coverage"),
      [](const store::Reader& r) { return std::optional(store::coverage_json(r)); });
  for (const std::string& cc : codes) {
    util::Json p = util::Json::object();
    p["table"] = "countries";
    p["where"] = where_eq("code", cc);
    store::QuerySpec spec;
    spec.table = store::TableId::Countries;
    spec.where = {{"code", cc}};
    add(std::move(p), query(spec));
  }
  for (const std::string& cc : codes) {
    util::Json p = util::Json::object();
    p["table"] = "sites";
    p["where"] = where_eq("country", cc);
    p["limit"] = 20;
    store::QuerySpec spec;
    spec.table = store::TableId::Sites;
    spec.where = {{"country", cc}};
    spec.limit = 20;
    add(std::move(p), query(spec));
  }

  add(report("summary"),
      [](const store::Reader& r) { return std::optional(store::summary_json(r)); });
  add(report("prevalence"), [](const store::Reader& r) {
    return std::optional(analysis::to_json(store::prevalence_report(r)));
  });
  add(report("policy"), [](const store::Reader& r) {
    return std::optional(analysis::to_json(store::policy_report(r)));
  });
  add(report("per-site"), [](const store::Reader& r) {
    return std::optional(analysis::to_json(store::per_site_report(r)));
  });
  add(report("flows"), [](const store::Reader& r) {
    return std::optional(analysis::to_json(store::flows_report(r)));
  });
  {
    util::Json p = util::Json::object();
    p["table"] = "hits";
    p["group_by"] = "org";
    store::QuerySpec spec;
    spec.group_by = "org";
    add(std::move(p), query(spec));
  }
  {
    util::Json p = util::Json::object();
    p["table"] = "hits";
    p["flows"] = true;
    store::QuerySpec spec;
    spec.flows = true;
    add(std::move(p), query(spec));
  }

  for (Catalog::Entry& e : cat.entries) {
    std::optional<util::Json> result = e.direct(reader);
    if (!result) {
      ledger.fail("direct call failed: " + e.params.dump());
      continue;
    }
    e.expected = result->dump();
  }
  return cat;
}

/// Direct in-process timings over the published store, outside any window.
struct DirectTimes {
  double open_ms = 0;       // median Reader::open
  double lookup_us = 0;     // median direct call per class
  double aggregate_us = 0;
  double render_us = 0;     // median to_json + dump of the four report structs
};

DirectTimes direct_pass(const std::string& store_path, const store::Reader& reader,
                        const Catalog& cat, uint64_t seed) {
  DirectTimes out;
  std::vector<double> opens;
  for (int i = 0; i < kOpenRounds; ++i) {
    double t0 = core_ms();
    {
      util::trace::ScopedSpan span("reader_open", "bench");
      std::unique_ptr<store::Reader> r = store::Reader::open(store_path);
    }
    opens.push_back(core_ms() - t0);
  }
  out.open_ms = perfbench::median(opens);

  std::vector<double> us[2];
  perfbench::RequestDraw draw(seed, 1000);
  while (us[0].size() < kDirectSamples || us[1].size() < kDirectSamples) {
    Draw d = draw.next(cat.countries);
    std::vector<double>& bucket = us[d.cls == RequestClass::kAggregate];
    if (bucket.size() >= kDirectSamples) continue;
    double t0 = core_ms();
    std::optional<util::Json> result = cat.at(d).direct(reader);
    bucket.push_back((core_ms() - t0) * 1000);
  }
  out.lookup_us = perfbench::median(us[0]);
  out.aggregate_us = perfbench::median(us[1]);

  analysis::PrevalenceReport prev = store::prevalence_report(reader);
  analysis::PolicyReport policy = store::policy_report(reader);
  analysis::PerSiteReport per_site = store::per_site_report(reader);
  analysis::FlowsReport flows = store::flows_report(reader);
  std::vector<double> render;
  for (int i = 0; i < kRenderRounds; ++i) {
    double t0 = core_ms();
    {
      util::trace::ScopedSpan span("render_reports", "bench");
      analysis::to_json(prev).dump();
      analysis::to_json(policy).dump();
      analysis::to_json(per_site).dump();
      analysis::to_json(flows).dump();
    }
    render.push_back((core_ms() - t0) * 1000);
  }
  out.render_us = perfbench::median(render);
  return out;
}

/// An in-process daemon on an ephemeral port with default ServerOptions
/// (4 workers, 2 reactors), and the closed loop's one connection. Every
/// daemon thread and the loop's client share one core at a time: a request
/// is a strict chain of handoffs (client, reactor, worker, reactor, client),
/// so one core costs it no parallelism and spares each handoff a wait for
/// the host to wake another vCPU. The loop moves them all to the next of
/// `cores` every kCoreSliceMs, because on a shared host one core can run at
/// half the speed of another for seconds at a time (README.md, "The closed
/// loop"). Declaration order closes the connection before the daemon drains.
struct Serving {
  std::vector<int> cores;  // the cores the process may run on
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::Client> client;
};

/// Restricts the calling thread to one core; threads it starts inherit that.
bool pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0;
}

/// Moves every thread of the process but the main one to core `cpu`.
bool move_threads_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  std::error_code ec;
  bool ok = true;
  for (const auto& e : fs::directory_iterator("/proc/self/task", ec)) {
    pid_t tid = static_cast<pid_t>(std::stol(e.path().filename().string()));
    // A thread that ended since the listing (ESRCH) needs no move.
    if (tid != ::getpid() && ::sched_setaffinity(tid, sizeof(set), &set) != 0 && errno != ESRCH) {
      ok = false;
    }
  }
  return ok && !ec;
}

std::unique_ptr<Serving> start_serving(const std::string& store_path) {
  auto serving = std::make_unique<Serving>();
  serve::ServerOptions options;
  options.service.store_path = store_path;
  // The daemon's threads are all started by Server::start; they inherit the
  // one-core mask, and the caller gets its own mask back.
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (::sched_getaffinity(0, sizeof(mask), &mask) != 0) {
    throw std::runtime_error("sched_getaffinity: " + std::string(std::strerror(errno)));
  }
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mask)) serving->cores.push_back(c);
  }
  if (!pin_to(std::max(0, ::sched_getcpu()))) {
    throw std::runtime_error("sched_setaffinity: " + std::string(std::strerror(errno)));
  }
  auto server = serve::Server::start(std::move(options));
  if (::sched_setaffinity(0, sizeof(mask), &mask) != 0) {
    throw std::runtime_error("sched_setaffinity: " + std::string(std::strerror(errno)));
  }
  if (!server.ok()) throw std::runtime_error("daemon start: " + server.status().to_string());
  serving->server = std::move(*server);
  auto client = serve::Client::connect_tcp("127.0.0.1", serving->server->port());
  if (!client.ok()) throw std::runtime_error("connect: " + client.status().to_string());
  (*client)->set_recv_timeout_ms(kRecvTimeoutMs);
  serving->client = std::move(*client);
  return serving;
}

bool served_ok(const util::StatusOr<util::Json>& reply, const Catalog::Entry& e) {
  if (!reply.ok() || !reply->get_bool("ok")) return false;
  const util::Json* result = reply->find("result");
  return result != nullptr && result->dump() == e.expected;
}

/// Every catalog entry once: warms the daemon's mapped store and checks
/// served bytes before any timing.
void warm_up(Serving& s, const Catalog& cat, Ledger& ledger) {
  for (const Catalog::Entry& e : cat.entries) {
    ++ledger.attempted;
    if (!served_ok(s.client->call("query", e.params), e)) {
      ++ledger.failed;
      ledger.fail("warm-up reply differs from the direct call: " + e.params.dump());
    }
  }
}

/// Loop latencies and rates are in core time (core_ms): with the chain on
/// one core that never idles, that is wall time with host steal taken out,
/// per request.
struct LoopResult {
  std::vector<double> lookup_ms;  // per class, in completion order
  std::vector<double> aggregate_ms;
  std::vector<double> served_ms;  // running sum of every request's latency
  double wall_s = 0;
  double core_busy = 0;  // core time over steal-free wall time of the loop
  uint64_t attempted = 0;
  uint64_t failed = 0;
  perfbench::MetricsDelta delta;

  /// Requests per second of serving: the client's reply checks between
  /// requests are not counted.
  double qps() const { return perfbench::block_rate(served_ms, 2 * kTailBlock); }
};

/// Median over blocks of kTailBlock consecutive requests of one class.
double p50(const std::vector<double>& ms) {
  return perfbench::block_percentile(ms, 0.5, kTailBlock).value;
}

/// Closed loop: the client keeps exactly one request outstanding and sends
/// its next seeded draw (from `stream`) only when the reply is in. Runs for
/// `seconds` and until each class has kTailBlocks blocks of samples (hard
/// cap 4x + 30 s), on a thread of its own on the daemon's core, moving
/// between requests as the core slices turn.
LoopResult closed_loop(Serving& s, const Catalog& cat, uint64_t seed, uint64_t stream,
                       double seconds) {
  LoopResult out;
  bool moved = true;
  util::MetricsSnapshot before = util::MetricsRegistry::instance().snapshot();
  Stopwatch window;
  double core0 = core_ms();
  std::thread client([&] {
    perfbench::RequestDraw draw(seed, stream);
    const size_t min_class = kTailBlock * kTailBlocks;
    const double cap_s = seconds * 4 + 30;
    double served = 0;
    size_t slice = SIZE_MAX;
    while (true) {
      double elapsed_ms = ms_since(window.t0);
      bool enough = out.lookup_ms.size() >= min_class && out.aggregate_ms.size() >= min_class;
      if (elapsed_ms >= cap_s * 1000 || (elapsed_ms >= seconds * 1000 && enough)) break;
      if (static_cast<size_t>(elapsed_ms / kCoreSliceMs) != slice) {
        slice = static_cast<size_t>(elapsed_ms / kCoreSliceMs);
        moved = move_threads_to(s.cores[slice % s.cores.size()]) && moved;
      }
      Draw d = draw.next(cat.countries);
      const Catalog::Entry& e = cat.at(d);
      double q0 = core_ms();
      util::StatusOr<util::Json> reply = s.client->call("query", e.params);
      double ms = core_ms() - q0;
      (d.cls == RequestClass::kAggregate ? out.aggregate_ms : out.lookup_ms).push_back(ms);
      out.served_ms.push_back(served += ms);
      if (!served_ok(reply, e)) ++out.failed;
    }
  });
  client.join();
  out.wall_s = ms_since(window.t0) / 1000;
  out.core_busy = ratio(core_ms() - core0, window.ms(1));
  out.delta = perfbench::diff(before, util::MetricsRegistry::instance().snapshot());
  if (!moved) throw std::runtime_error("the loop could not move the daemon's threads");
  out.attempted = out.lookup_ms.size() + out.aggregate_ms.size();
  return out;
}

/// Catalog + reference pass + warm-up for the store `serving` serves.
struct ServeReady {
  Catalog catalog;
  DirectTimes direct;
};

ServeReady prepare(Serving& serving, const std::string& store_path, uint64_t seed,
                   Ledger& ledger) {
  store::Error error;
  std::unique_ptr<store::Reader> reader = store::Reader::open(store_path, &error);
  if (!reader) throw std::runtime_error("reference reader: " + error.to_string());
  std::fprintf(stderr, "perfbench: serving %zu countries, %zu sites, %zu hits, %llu bytes\n",
               reader->num_countries(), reader->num_sites(), reader->num_hits(),
               static_cast<unsigned long long>(reader->file_size()));
  ServeReady ready;
  ready.catalog = build_catalog(*reader, ledger);
  ready.direct = direct_pass(store_path, *reader, ready.catalog, seed);
  warm_up(serving, ready.catalog, ledger);
  return ready;
}

void account(const LoopResult& loop, Ledger& ledger) {
  ledger.attempted += loop.attempted;
  ledger.failed += loop.failed;
  if (loop.failed != 0) {
    ledger.fail(std::to_string(loop.failed) + " served replies not ok or not byte-equal");
  }
}

// ---------------------------------------------------------------------------
// Result line.

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void print_result(const Ledger& ledger, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += ledger.correct && ledger.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(ledger.attempted);
  line += ", \"failed\": " + std::to_string(ledger.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

double peak_rss_mib() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// p99 is reported only when at least ten samples lie beyond it.
double p99(const std::vector<double>& samples, const char* what, Ledger& ledger) {
  perfbench::Percentile p = perfbench::block_percentile(samples, 0.99, kTailBlock);
  if (!p.supported) {
    ledger.fail(std::string(what) + " p99 has only " + std::to_string(p.beyond) +
                " samples beyond it");
  }
  return p.value;
}

// ---------------------------------------------------------------------------
// Layer metrics.

using Layers = std::map<std::string, double>;

/// The study layers of one traced study.
Layers study_layers(const StudyRun& r, size_t jobs) {
  const perfbench::MetricsDelta& d = r.delta;
  const perfbench::SpanTimes& t = r.spans;
  auto self_ms = [&t](const char* name) {
    auto it = t.self_us.find(name);
    return it == t.self_us.end() ? 0.0 : it->second / 1000;
  };
  auto total_ms = [&t](const char* name) {
    auto it = t.total_us.find(name);
    return it == t.total_us.end() ? 0.0 : it->second / 1000;
  };
  double wall_sum = d.histogram("study.country_wall_ms").sum;
  double hits = static_cast<double>(d.counter("net.route_cache.hits"));
  double misses = static_cast<double>(d.counter("net.route_cache.misses"));
  Layers m;
  m["worldgen.generate_ms"] = r.generate_ms;
  m["core.site_self_ms"] = self_ms("session") + self_ms("site");
  m["core.atlas_repair_self_ms"] = self_ms("atlas_repair");
  m["core.country_wall_sum_ms"] = wall_sum;
  m["core.slowest_country_ms"] = t.slowest_country_us / 1000;
  m["core.worker_busy_ratio"] = ratio(wall_sum, static_cast<double>(jobs) * r.run_wall_ms);
  m["web.page_load_self_ms"] = self_ms("page_load");
  m["web.requests"] = static_cast<double>(d.counter("web.requests"));
  m["dns.resolve_self_ms"] = self_ms("resolve");
  m["dns.lookups"] = static_cast<double>(d.counter("dns.lookups"));
  m["net.route_cache_misses"] = misses;
  m["net.route_cache_hit_ratio"] = ratio(hits, hits + misses);
  m["net.route_tree_useful_ratio"] = ratio(static_cast<double>(r.route_trees), misses);
  m["probe.traceroute_self_ms"] = self_ms("traceroute");
  m["probe.traceroutes"] = static_cast<double>(d.counter("probe.traceroutes"));
  m["probe.reached_ratio"] =
      ratio(static_cast<double>(d.counter("probe.traceroutes_reached")),
            static_cast<double>(d.counter("probe.traceroutes")));
  m["geoloc.classify_self_ms"] = self_ms("classify");
  m["geoloc.dest_constraint_ms"] = total_ms("dest_constraint");
  m["geoloc.source_constraint_self_ms"] = self_ms("source_constraint");
  m["geoloc.rdns_constraint_self_ms"] = self_ms("rdns_constraint");
  m["geoloc.classified"] = static_cast<double>(d.counter("geoloc.classified"));
  m["trackers.identify_self_ms"] = self_ms("identify");
  m["trackers.pattern_backtracks"] = static_cast<double>(d.counter("trackers.pattern_backtracks"));
  m["analysis.analyze_self_ms"] = self_ms("analyze");
  m["store.write_ms"] = total_ms("store_write") + total_ms("shard_write");
  m["store.bytes_written"] = static_cast<double>(d.counter("store.bytes_written"));
  m["store.merge_ms"] = r.merge_ms;
  m["io.fsyncs"] = static_cast<double>(d.histogram("io.fsync_ms").count);
  m["io.fsync_ms"] = d.histogram("io.fsync_ms").sum;
  m["trace.coverage_ratio"] = ratio(t.covered_us / 1000, r.wall_ms);
  return m;
}

/// Per-key median over several studies' layers.
Layers median_layers(const std::vector<StudyRun>& runs, size_t jobs) {
  std::map<std::string, std::vector<double>> values;
  for (const StudyRun& r : runs) {
    for (const auto& [name, v] : study_layers(r, jobs)) values[name].push_back(v);
  }
  Layers out;
  for (auto& [name, v] : values) out[name] = perfbench::median(std::move(v));
  return out;
}

double median_of(const std::vector<StudyRun>& runs, double StudyRun::*field) {
  std::vector<double> v;
  for (const StudyRun& r : runs) v.push_back(r.*field);
  return perfbench::median(std::move(v));
}

void serve_layers(const LoopResult& loop, const DirectTimes& direct, Layers& m) {
  m["store.open_ms"] = direct.open_ms;
  m["store.lookup_us"] = direct.lookup_us;
  m["store.aggregate_us"] = direct.aggregate_us;
  m["analysis.render_us"] = direct.render_us;
  m["serve.overhead_lookup_us"] = p50(loop.lookup_ms) * 1000 - direct.lookup_us;
  m["serve.overhead_aggregate_us"] = p50(loop.aggregate_ms) * 1000 - direct.aggregate_us;
  m["serve.queue_wait_ms"] = loop.delta.mean("serve.rpc.query.queue_wait_ms");
  m["serve.handle_ms"] = loop.delta.mean("serve.rpc.query.handle_ms");
  m["serve.flush_ms"] = loop.delta.mean("serve.rpc.query.flush_ms");
  m["serve.core_busy_ratio"] = loop.core_busy;
}

const std::vector<Metric>& layer_schema() {
  static const std::vector<Metric> schema = {
      {"worldgen.generate_ms", "ms"},         {"core.site_self_ms", "ms"},
      {"core.atlas_repair_self_ms", "ms"},    {"core.country_wall_sum_ms", "ms"},
      {"core.slowest_country_ms", "ms"},      {"core.worker_busy_ratio", "ratio"},
      {"core.parallel_inflation", "ratio"},   {"web.page_load_self_ms", "ms"},
      {"web.requests", "count"},              {"dns.resolve_self_ms", "ms"},
      {"dns.lookups", "count"},               {"net.route_cache_misses", "count"},
      {"net.route_cache_hit_ratio", "ratio"}, {"net.route_tree_useful_ratio", "ratio"},
      {"probe.traceroute_self_ms", "ms"},     {"probe.traceroutes", "count"},
      {"probe.reached_ratio", "ratio"},       {"geoloc.classify_self_ms", "ms"},
      {"geoloc.dest_constraint_ms", "ms"},    {"geoloc.source_constraint_self_ms", "ms"},
      {"geoloc.rdns_constraint_self_ms", "ms"}, {"geoloc.classified", "count"},
      {"trackers.identify_self_ms", "ms"},    {"trackers.pattern_backtracks", "count"},
      {"analysis.analyze_self_ms", "ms"},     {"analysis.render_us", "us"},
      {"store.write_ms", "ms"},               {"store.bytes_written", "bytes"},
      {"store.merge_ms", "ms"},               {"store.open_ms", "ms"},
      {"store.lookup_us", "us"},              {"store.aggregate_us", "us"},
      {"io.fsyncs", "count"},                 {"io.fsync_ms", "ms"},
      {"serve.overhead_lookup_us", "us"},     {"serve.overhead_aggregate_us", "us"},
      {"serve.queue_wait_ms", "ms"},          {"serve.handle_ms", "ms"},
      {"serve.flush_ms", "ms"},               {"serve.core_busy_ratio", "ratio"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.coverage_ratio", "ratio"},
  };
  return schema;
}

// ---------------------------------------------------------------------------
// Workloads.

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string tmp_dir;
};

/// Untraced run: the end-to-end metrics.
std::vector<Metric> run_end_to_end(const Workload& w, const Args& a, Ledger& ledger) {
  fs::path root(a.tmp_dir);
  std::optional<uint32_t> crc;
  std::vector<double> setup_ms;
  std::vector<double> study_ms;
  std::unique_ptr<Serving> serving;
  std::string store_path;
  double window_s = a.seconds * kReadbackShare;

  if (w.serve_window) {
    // Set-up = worldgen + study + store publish + daemon start + connect,
    // repeated so setup_s is a median; the last daemon serves the window.
    for (size_t s = 0; s < w.min_iterations; ++s) {
      serving.reset();
      if (!store_path.empty()) {
        std::error_code ec;
        fs::remove_all(fs::path(store_path).parent_path(), ec);
      }
      StudyRun r = run_study_once(w, a.seed, kJobs, root / ("setup-" + std::to_string(s)),
                                  false, ledger);
      check_crc(w, r, crc, ledger);
      Stopwatch start;
      serving = start_serving(r.store);
      setup_ms.push_back(r.generate_ms + r.study_ms + start.ms(1));
      study_ms.push_back(r.study_ms);
      store_path = r.store;
    }
    window_s = a.seconds;
  } else {
    std::vector<StudyRun> runs =
        study_loop(w, a.seed, a.seconds, w.min_iterations, false, root, crc, ledger);
    for (const StudyRun& r : runs) {
      setup_ms.push_back(r.generate_ms);
      study_ms.push_back(r.study_ms);
    }
    store_path = runs.back().store;
    serving = start_serving(store_path);
  }

  ServeReady ready = prepare(*serving, store_path, a.seed, ledger);
  LoopResult loop = closed_loop(*serving, ready.catalog, a.seed, 0, window_s);
  account(loop, ledger);
  serving.reset();
  std::fprintf(stderr, "perfbench: %s store crc %08x, %zu studies, %llu requests in %.1f s\n",
               w.name.c_str(), crc.value_or(0), study_ms.size(),
               static_cast<unsigned long long>(loop.attempted), loop.wall_s);

  return {
      {"setup_s", "s", perfbench::median(setup_ms) / 1000},
      {"study_s", "s", perfbench::median(study_ms) / 1000},
      {"peak_rss_mib", "MiB", peak_rss_mib()},
      {"query_qps", "req/s", loop.qps()},
      {"lookup_p50_ms", "ms", p50(loop.lookup_ms)},
      {"lookup_p99_ms", "ms", p99(loop.lookup_ms, "lookup", ledger)},
      {"aggregate_p50_ms", "ms", p50(loop.aggregate_ms)},
      {"aggregate_p99_ms", "ms", p99(loop.aggregate_ms, "aggregate", ledger)},
  };
}

/// Traced run: the per-layer metrics.
std::vector<Metric> run_layers(const Workload& w, const Args& a, Ledger& ledger) {
  fs::path root(a.tmp_dir);
  std::optional<uint32_t> crc;
  Layers m;
  std::vector<StudyRun> traced;
  std::unique_ptr<Serving> serving;
  std::string store_path;

  if (w.serve_window) {
    for (size_t s = 0; s < w.min_iterations; ++s) {
      serving.reset();
      traced.push_back(run_study_once(w, a.seed, kJobs, root / ("setup-" + std::to_string(s)),
                                      true, ledger));
      check_crc(w, traced.back(), crc, ledger);
      store_path = traced.back().store;
      serving = start_serving(store_path);
    }
  } else {
    std::vector<StudyRun> runs = study_loop(w, a.seed, a.seconds, 4, true, root, crc, ledger);
    store_path = runs.back().store;  // the loop keeps only the last study's files
    std::vector<StudyRun> untraced;
    for (StudyRun& r : runs) (r.traced ? traced : untraced).push_back(std::move(r));
    m["trace.overhead_ratio"] = ratio(median_of(traced, &StudyRun::study_ms),
                                      median_of(untraced, &StudyRun::study_ms));
    serving = start_serving(store_path);
  }
  for (const auto& [name, v] : median_layers(traced, kJobs)) m[name] = v;

  // One jobs=1 study on a fresh world, after the jobs=4 ones so both see a
  // warm process: the base of core.parallel_inflation.
  StudyRun serial = run_study_once(w, a.seed, 1, root / "serial", true, ledger);
  check_crc(w, serial, crc, ledger);
  m["core.parallel_inflation"] =
      ratio(m["core.country_wall_sum_ms"], serial.delta.histogram("study.country_wall_ms").sum);

  ServeReady ready = prepare(*serving, store_path, a.seed, ledger);
  double window_s = a.seconds * (w.serve_window ? 0.5 : kReadbackShare);
  LoopResult loop = closed_loop(*serving, ready.catalog, a.seed, 0, window_s);
  account(loop, ledger);
  serve_layers(loop, ready.direct, m);

  if (w.serve_window) {
    // The same loop again with spans on: tracing's cost to the served path,
    // and how much of the window the program's spans cover.
    util::trace::Tracer& tracer = util::trace::Tracer::instance();
    tracer.reset();
    util::trace::set_enabled(true);
    LoopResult traced_loop = closed_loop(*serving, ready.catalog, a.seed, 1, window_s);
    util::trace::set_enabled(false);
    perfbench::SpanTimes spans = perfbench::span_times(tracer.collect(), "bench");
    if (spans_dropped() != 0) ledger.fail("trace.dropped_spans != 0");
    account(traced_loop, ledger);
    m["trace.overhead_ratio"] = ratio(loop.qps(), traced_loop.qps());
    m["trace.coverage_ratio"] = ratio(spans.covered_us / 1e6, traced_loop.wall_s);
  }
  serving.reset();

  std::vector<Metric> out = layer_schema();
  for (Metric& metric : out) metric.value = m[metric.name];
  return out;
}

bool parse_u64(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  const char* end = s + std::strlen(s);
  auto res = std::from_chars(s, end, *out);
  return res.ec == std::errc() && res.ptr == end;
}

bool parse_args(int argc, char** argv, Args* a) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    uint64_t n = 0;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed" && parse_u64(value, &n)) {
      a->seed = n;
      have_seed = true;
    } else if (flag == "--seconds" && parse_u64(value, &n) && n >= 1 && n <= 600) {
      a->seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace" && parse_u64(value, &n) && n <= 1) {
      a->trace = n == 1;
      have_trace = true;
    } else if (flag == "--tmp-dir") {
      a->tmp_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && have_trace && !a->workload.empty() &&
         !a->tmp_dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload paper-study|scale-shard|serve-paper --seed N "
                 "--seconds S --trace 0|1 --tmp-dir DIR\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : workloads()) {
    if (w.name == args.workload) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  try {
    Ledger ledger;
    util::MetricsRegistry::set_enabled(true);
    util::trace::set_enabled(false);
    util::MetricsSnapshot start = util::MetricsRegistry::instance().snapshot();
    std::vector<Metric> metrics = args.trace ? run_layers(*workload, args, ledger)
                                             : run_end_to_end(*workload, args, ledger);
    perfbench::MetricsDelta run =
        perfbench::diff(start, util::MetricsRegistry::instance().snapshot());
    if (run.prefix_sum("geoloc.stage.") != run.counter("geoloc.classified")) {
      ledger.fail("sum of geoloc.stage.* != geoloc.classified");
    }
    if (run.counter("trace.dropped_spans") != 0) ledger.fail("trace.dropped_spans != 0");
    print_result(ledger, metrics);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
