#include "util/metrics.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/thread_pool.h"
#include "worldgen/study.h"
#include "worldgen/world.h"

namespace gam::util {
namespace {

TEST(Metrics, CounterBasics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, GaugeSetAndAdd) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
}

TEST(Metrics, EnableFlagGatesRecording) {
  Counter c;
  MetricsRegistry::set_enabled(false);
  c.inc();
  MetricsRegistry::set_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  EXPECT_EQ(c.value(), 1u);
}

TEST(Metrics, RegistryReturnsStableReferences) {
  auto& reg = MetricsRegistry::instance();
  Counter& a = reg.counter("test.stable");
  Counter& b = reg.counter("test.stable");
  EXPECT_EQ(&a, &b);
  a.inc();
  reg.reset();  // zeroes values but must NOT invalidate references
  EXPECT_EQ(a.value(), 0u);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
}

TEST(Metrics, HistogramBucketBoundaries) {
  Histogram h({1.0, 2.0, 5.0});
  // Edges are inclusive upper bounds: v <= bound lands in that bucket.
  h.observe(0.5);   // bucket 0 (<= 1)
  h.observe(1.0);   // bucket 0 (edge is inclusive)
  h.observe(1.001); // bucket 1 (<= 2)
  h.observe(2.0);   // bucket 1
  h.observe(5.0);   // bucket 2
  h.observe(5.001); // overflow bucket
  h.observe(1e9);   // overflow bucket
  std::vector<uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 edges + overflow
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 2u);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 1.001 + 2.0 + 5.0 + 5.001 + 1e9, 1e-3);
}

TEST(Metrics, HistogramSortsUnsortedBounds) {
  Histogram h({5.0, 1.0, 2.0});
  ASSERT_EQ(h.bounds().size(), 3u);
  EXPECT_DOUBLE_EQ(h.bounds()[0], 1.0);
  EXPECT_DOUBLE_EQ(h.bounds()[2], 5.0);
}

// The whole point of the atomic hot path: hammering one counter and one
// histogram from every pool worker must lose no increments (and must be
// clean under GAMMA_SANITIZE=thread — tools/check.sh runs this suite in
// the TSan build).
TEST(Metrics, ConcurrentIncrementsFromThreadPool) {
  auto& reg = MetricsRegistry::instance();
  Counter& c = reg.counter("test.concurrent_counter");
  Histogram& h = reg.histogram("test.concurrent_hist", {10.0, 100.0});
  Gauge& g = reg.gauge("test.concurrent_gauge");
  c.reset();
  h.reset();
  g.reset();
  constexpr size_t kTasks = 64;
  constexpr size_t kPerTask = 1000;
  ThreadPool pool(8);
  parallel_for(pool, kTasks, [&](size_t i) {
    for (size_t k = 0; k < kPerTask; ++k) {
      c.inc();
      h.observe(static_cast<double>((i + k) % 200));
      g.add(1.0);
    }
  });
  EXPECT_EQ(c.value(), kTasks * kPerTask);
  EXPECT_EQ(h.count(), kTasks * kPerTask);
  std::vector<uint64_t> counts = h.bucket_counts();
  uint64_t total = 0;
  for (uint64_t n : counts) total += n;
  EXPECT_EQ(total, kTasks * kPerTask);
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kTasks * kPerTask));
}

TEST(Metrics, SnapshotJsonRoundTripsAndPrometheusWellFormed) {
  auto& reg = MetricsRegistry::instance();
  reg.counter("test.export_counter").inc(3);
  reg.gauge("test.export_gauge").set(1.5);
  reg.histogram("test.export_hist", {1.0, 10.0}).observe(4.0);
  MetricsSnapshot snap = reg.snapshot();

  std::string json = snap.to_json().dump(2);
  auto parsed = Json::parse(json);
  ASSERT_TRUE(parsed.has_value());
  const Json* counters = parsed->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->get_number("test.export_counter"), 3.0);
  const Json* hist = parsed->find("histograms");
  ASSERT_NE(hist, nullptr);
  const Json* eh = hist->find("test.export_hist");
  ASSERT_NE(eh, nullptr);
  // counts has one overflow slot beyond the bounds.
  EXPECT_EQ(eh->find("counts")->size(), eh->find("bounds")->size() + 1);

  std::string prom = snap.to_prometheus();
  EXPECT_NE(prom.find("# TYPE gamma_test_export_counter counter"), std::string::npos);
  EXPECT_NE(prom.find("gamma_test_export_hist_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("gamma_test_export_hist_count 1"), std::string::npos);
}

// ---- Prometheus exposition conformance (GammaPulse scrape target). ----

/// The documented name transform: "gamma_" prefix, every byte outside
/// [a-zA-Z0-9_] replaced with '_'. Mirrored here so the tests can predict
/// family names and detect sanitize-collisions among registered names.
std::string sanitized(const std::string& name) {
  std::string out = "gamma_";
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

TEST(Metrics, PrometheusNamesAreSanitizedAndPrefixed) {
  auto& reg = MetricsRegistry::instance();
  reg.counter("test.prom/weird-name.1").inc();
  std::string prom = reg.snapshot().to_prometheus();
  EXPECT_NE(prom.find("# TYPE gamma_test_prom_weird_name_1 counter"),
            std::string::npos);
  EXPECT_NE(prom.find("\ngamma_test_prom_weird_name_1 "), std::string::npos);

  // Global conformance: every exposed metric name — TYPE lines and sample
  // lines alike — is gamma_-prefixed and uses only [a-zA-Z0-9_].
  std::istringstream lines(prom);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::string name;
    if (line.rfind("# TYPE ", 0) == 0) {
      name = line.substr(7, line.find(' ', 7) - 7);
    } else {
      name = line.substr(0, line.find_first_of("{ "));
    }
    ASSERT_FALSE(name.empty()) << line;
    EXPECT_EQ(name.rfind("gamma_", 0), 0u) << line;
    for (char c : name) {
      bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '_';
      EXPECT_TRUE(ok) << "bad byte '" << c << "' in " << line;
    }
  }
}

TEST(Metrics, PrometheusHistogramBucketsAreCumulativeEndingPlusInf) {
  auto& reg = MetricsRegistry::instance();
  Histogram& h = reg.histogram("test.prom.conformance_hist", {1.0, 5.0, 10.0});
  h.reset();
  h.observe(0.5);    // le="1"
  h.observe(7.0);    // le="10"
  h.observe(100.0);  // overflow: +Inf only
  std::string prom = reg.snapshot().to_prometheus();

  // Buckets are cumulative, ascend in bound order, and end at the mandatory
  // +Inf bucket whose value equals _count.
  const char* expected[] = {
      "gamma_test_prom_conformance_hist_bucket{le=\"1\"} 1\n",
      "gamma_test_prom_conformance_hist_bucket{le=\"5\"} 1\n",
      "gamma_test_prom_conformance_hist_bucket{le=\"10\"} 2\n",
      "gamma_test_prom_conformance_hist_bucket{le=\"+Inf\"} 3\n",
      "gamma_test_prom_conformance_hist_sum ",
      "gamma_test_prom_conformance_hist_count 3\n"};
  size_t pos = 0;
  for (const char* want : expected) {
    size_t found = prom.find(want, pos);
    ASSERT_NE(found, std::string::npos) << want << "\nafter offset " << pos;
    pos = found;
  }

  // Every histogram family in the exposition obeys the same invariants:
  // nondecreasing cumulative counts with exactly one final +Inf per family.
  std::istringstream lines(prom);
  std::string line;
  std::string family;
  long long prev = -1;
  bool saw_inf = false;
  while (std::getline(lines, line)) {
    size_t brace = line.find("_bucket{le=\"");
    if (brace == std::string::npos) continue;
    std::string base = line.substr(0, brace);
    if (base != family) {
      family = base;
      prev = -1;
      saw_inf = false;
    }
    EXPECT_FALSE(saw_inf) << "bucket after +Inf in " << family;
    size_t close = line.find("\"} ");
    ASSERT_NE(close, std::string::npos) << line;
    if (line.compare(brace, 17, "_bucket{le=\"+Inf\"") == 0) saw_inf = true;
    long long value = std::stoll(line.substr(close + 3));
    EXPECT_GE(value, prev) << "cumulative count regressed: " << line;
    prev = value;
  }
}

TEST(Metrics, PrometheusEmitsOneTypeLinePerUncollidedFamily) {
  auto& reg = MetricsRegistry::instance();
  // Two distinct dotted names that sanitize to the same family name: the
  // exposition legitimately carries one TYPE line per *registered* name, so
  // a collided family shows several. The invariant under test: TYPE lines
  // per family == distinct registered names mapping to it (1 for all real
  // gamma metrics; the collision below is manufactured to pin the rule).
  reg.counter("test.prom.collide_x").inc();
  reg.counter("test.prom/collide_x").inc();
  MetricsSnapshot snap = reg.snapshot();

  std::map<std::string, int> registered;
  for (const auto& [name, v] : snap.counters) ++registered[sanitized(name)];
  for (const auto& [name, v] : snap.gauges) ++registered[sanitized(name)];
  for (const auto& [name, v] : snap.histograms) ++registered[sanitized(name)];

  std::map<std::string, int> type_lines;
  std::istringstream lines(snap.to_prometheus());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    ++type_lines[line.substr(7, line.find(' ', 7) - 7)];
  }
  for (const auto& [family, n] : type_lines) {
    EXPECT_EQ(n, registered[family]) << family;
  }
  EXPECT_EQ(type_lines["gamma_test_prom_collide_x"], 2);
}

// ---- Pipeline-level properties, measured over a real (small) study. ----

class MetricsStudyTest : public ::testing::Test {
 protected:
  static worldgen::World& world() {
    static std::unique_ptr<worldgen::World> w = worldgen::generate_world({});
    return *w;
  }

  static worldgen::StudyOptions study_options(size_t jobs) {
    worldgen::StudyOptions options;
    options.countries = {"NZ", "JP", "EG"};
    options.seed = 11;
    options.jobs = jobs;
    return options;
  }

  // Counters whose values are part of the determinism contract: everything
  // derived from the study's (deterministic) measurement stream, route trees
  // and route queries included. Wall-time histograms are scheduling-dependent
  // and deliberately excluded.
  static bool deterministic_counter(const std::string& name) {
    return name.rfind("test.", 0) != 0;
  }
};

TEST_F(MetricsStudyTest, GeolocFunnelCountersSumConsistently) {
  auto& reg = MetricsRegistry::instance();
  worldgen::World& w = world();
  reg.reset();
  worldgen::StudyResult result = worldgen::run_study(w, study_options(1));
  MetricsSnapshot snap = reg.snapshot();

  uint64_t stage_sum = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("geoloc.stage.", 0) == 0) stage_sum += value;
  }
  // Every classified observation lands in exactly one stage...
  EXPECT_EQ(stage_sum, snap.counters.at("geoloc.classified"));
  // ...and the process-wide totals agree with the per-country funnels.
  size_t funnel_total = 0, funnel_dest = 0;
  for (const auto& a : result.analyses) {
    funnel_total += a.funnel.total;
    funnel_dest += a.funnel.dest_traceroutes;
  }
  EXPECT_EQ(snap.counters.at("geoloc.classified"), funnel_total);
  EXPECT_EQ(snap.counters.at("geoloc.dest_traceroutes"), funnel_dest);
}

TEST_F(MetricsStudyTest, SnapshotCountersDeterministicAcrossJobs) {
  auto& reg = MetricsRegistry::instance();
  worldgen::World& w = world();

  reg.reset();
  worldgen::StudyResult serial = worldgen::run_study(w, study_options(1));
  MetricsSnapshot snap1 = reg.snapshot();

  reg.reset();
  worldgen::StudyResult parallel = worldgen::run_study(w, study_options(4));
  MetricsSnapshot snap4 = reg.snapshot();

  ASSERT_EQ(serial.analyses.size(), parallel.analyses.size());
  for (const auto& [name, value] : snap1.counters) {
    if (!deterministic_counter(name)) continue;
    auto it = snap4.counters.find(name);
    ASSERT_NE(it, snap4.counters.end()) << name;
    EXPECT_EQ(it->second, value) << name;
  }
}

}  // namespace
}  // namespace gam::util
