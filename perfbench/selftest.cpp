// Self-tests for the benchmark's own arithmetic (harness.h). Exit 0 when
// every check holds; otherwise each failure is printed and the exit is 1.
//
//   python3 perfbench/run.py --self-test
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentile_support() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  perfbench::Percentile p99 = perfbench::percentile(v, 0.99);
  check(near(p99.value, 990) && p99.beyond == 10 && p99.supported,
        "p99 of 1..1000 is 990 with exactly 10 samples beyond, supported");

  v.pop_back();  // 999 samples: the rank moves up and only 9 lie beyond
  p99 = perfbench::percentile(v, 0.99);
  check(p99.beyond == 9 && !p99.supported, "p99 of 999 samples is flagged unsupported");

  perfbench::Percentile p50 = perfbench::percentile({5, 1, 3, 2, 4}, 0.5);
  check(near(p50.value, 3) && p50.beyond == 2, "p50 nearest rank of five samples");
  check(!perfbench::percentile({}, 0.99).supported, "empty sample is unsupported");

  // Five blocks of 1000; a stall inflates the tail of one block only.
  std::vector<double> ordered;
  for (int b = 0; b < 5; ++b) {
    for (int i = 1; i <= 1000; ++i) ordered.push_back(b == 2 && i > 900 ? 1000.0 + i : i);
  }
  ordered.push_back(1e9);  // trailing partial block: dropped
  perfbench::Percentile robust = perfbench::block_percentile(ordered, 0.99, 1000);
  check(near(robust.value, 990) && robust.beyond == 10 && robust.supported,
        "block p99 is the median block's p99; one stalled block does not move it");
  check(!perfbench::block_percentile(std::vector<double>(999, 1.0), 0.99, 1000).supported,
        "block p99 without one complete block is unsupported");
  check(!perfbench::block_percentile(ordered, 0.99, 500).supported,
        "block p99 over 500-sample blocks has only 5 beyond: unsupported");
  check(near(perfbench::median({4, 1, 3, 2}), 2.5), "even-count median averages the middle");

  // One completion per ms, except that the third of five blocks stalls.
  std::vector<double> done;
  double t = 0;
  for (int i = 0; i < 500; ++i) done.push_back(t += (i >= 200 && i < 300) ? 10 : 1);
  check(near(perfbench::block_rate(done, 100), 1000),
        "block rate is the median block's rate; one stalled block does not move it");
  check(near(perfbench::block_rate(done, 1000), 0), "no complete block reads 0");
}

gam::util::trace::Span span(uint64_t id, uint64_t parent, const std::string& name,
                            uint64_t start, uint64_t dur,
                            const std::string& category = "test") {
  gam::util::trace::Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.category = category;
  s.wall_start_us = start;
  s.wall_dur_us = dur;
  return s;
}

void test_self_time_uses_union() {
  check(perfbench::union_length({{0, 10}, {5, 15}, {20, 25}}) == 20,
        "union of [0,10) [5,15) [20,25) is 20");
  check(perfbench::union_length({{0, 10}, {2, 3}}) == 10, "nested interval adds nothing");

  // A parent of 100us with two children that overlap (run on two threads):
  // [10,60) and [40,90) cover 80us, not 100us.
  std::vector<gam::util::trace::Span> spans = {
      span(1, 0, "parent", 0, 100, "study"),
      span(2, 1, "child", 10, 50),
      span(3, 1, "child", 40, 50),
      // A child running past its parent's end is clipped to the parent.
      span(4, 0, "other", 200, 10),
      span(5, 4, "late", 205, 20, "bench"),
  };
  perfbench::SpanTimes t = perfbench::span_times(spans, "bench");
  check(near(t.self_us["parent"], 20), "parent self time subtracts the child union (80us)");
  check(near(t.self_us["child"], 100) && near(t.total_us["child"], 100),
        "leaf self time equals its total");
  check(near(t.self_us["other"], 5), "child clipped to the parent's interval");
  check(near(t.covered_us, 110), "coverage excludes the excluded category");
  check(near(t.slowest_country_us, 100), "slowest study root is the longest");
}

void test_counter_deltas_across_iterations() {
  auto& reg = gam::util::MetricsRegistry::instance();
  auto& c = reg.counter("perfbench.selftest.events");
  auto& h = reg.histogram("perfbench.selftest_ms");
  c.inc(3);  // activity before the first window must not leak into it

  gam::util::MetricsSnapshot start = reg.snapshot();
  uint64_t expect[] = {5, 7};
  for (uint64_t n : expect) {
    gam::util::MetricsSnapshot before = reg.snapshot();
    c.inc(n);
    h.observe(static_cast<double>(n));
    perfbench::MetricsDelta d = perfbench::diff(before, reg.snapshot());
    check(d.counter("perfbench.selftest.events") == n,
          "iteration delta is that iteration's increments only");
    check(d.histogram("perfbench.selftest_ms").count == 1 &&
              near(d.mean("perfbench.selftest_ms"), static_cast<double>(n)),
          "histogram delta holds one observation");
  }
  perfbench::MetricsDelta total = perfbench::diff(start, reg.snapshot());
  check(total.counter("perfbench.selftest.events") == 12 &&
            total.histogram("perfbench.selftest_ms").count == 2,
        "a window over both iterations holds both");
  check(total.prefix_sum("perfbench.selftest.") == 12, "prefix sum over counters");
  check(total.counter("absent") == 0 && near(total.mean("absent"), 0),
        "absent names read as zero");
}

void test_request_draw() {
  perfbench::RequestDraw a(42, 0), b(42, 0), other_stream(42, 1), other_seed(43, 0);
  bool same = true, differs_stream = false, differs_seed = false;
  size_t aggregates = 0;
  size_t kinds_seen[perfbench::kAggregateKinds] = {};
  size_t lookup_kinds[perfbench::kLookupKinds] = {};
  const size_t n = 100000;
  for (size_t i = 0; i < n; ++i) {
    perfbench::Draw x = a.next(23), y = b.next(23);
    perfbench::Draw s = other_stream.next(23), t = other_seed.next(23);
    same = same && x.cls == y.cls && x.kind == y.kind && x.country == y.country;
    differs_stream = differs_stream || s.cls != x.cls || s.kind != x.kind;
    differs_seed = differs_seed || t.cls != x.cls || t.kind != x.kind;
    if (x.cls == perfbench::RequestClass::kAggregate) {
      ++aggregates;
      ++kinds_seen[x.kind];
    } else {
      check(x.kind < perfbench::kLookupKinds, "lookup kind in range");
      if (x.kind < perfbench::kLookupKinds) ++lookup_kinds[x.kind];
    }
    check(x.country < 23, "country in range");
  }
  check(same, "same seed and stream give the same sequence");
  check(differs_stream && differs_seed, "another stream or seed gives another sequence");
  double share = static_cast<double>(aggregates) / static_cast<double>(n);
  check(std::fabs(share - 0.5) < 0.01, "class split is 50/50 within 1 point");
  for (size_t k : kinds_seen) check(k > 0, "every aggregate kind is drawn");
  // Lookup slots: a fifth of lookups for each kind, two for the doubled one.
  double lookups = static_cast<double>(n - aggregates);
  for (size_t k = 0; k < perfbench::kLookupKinds; ++k) {
    double want = k == perfbench::kDoubledLookup ? 0.4 : 0.2;
    check(std::fabs(static_cast<double>(lookup_kinds[k]) / lookups - want) < 0.01,
          "lookup kind shares are 1/5, except 2/5 for the doubled kind, within 1 point");
  }
}

}  // namespace

int main() {
  test_percentile_support();
  test_self_time_uses_union();
  test_counter_deltas_across_iterations();
  test_request_draw();
  if (g_failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
