// The benchmark's own arithmetic, kept apart from the workloads so the
// self-tests can pin it down: percentile selection with a sample-support
// rule, span self time over the union of child intervals, metric changes
// between registry snapshots, and the seeded serve request draw.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/metrics.h"
#include "util/trace.h"

namespace perfbench {

/// Median of `v` (mean of the two middle values for an even count);
/// 0 when empty.
double median(std::vector<double> v);

/// A nearest-rank percentile and how many samples lie strictly above its
/// rank. `supported` holds when at least `kMinBeyond` samples lie beyond it:
/// a p99 needs n >= 1000.
struct Percentile {
  double value = 0;
  size_t beyond = 0;
  bool supported = false;
};
inline constexpr size_t kMinBeyond = 10;
Percentile percentile(std::vector<double> samples, double p);

/// Tail percentile robust to a stall that hits a few moments of a run:
/// `ordered` (samples in completion order) is cut into consecutive blocks of
/// `block` samples, a trailing partial block is dropped, and the result is
/// the median of the blocks' nearest-rank percentiles. `beyond` is the
/// fewest samples beyond the rank in any block; `supported` needs at least
/// one block and kMinBeyond beyond in each (a p99 needs blocks of >= 1000).
Percentile block_percentile(const std::vector<double>& ordered, double p, size_t block);

/// Completions per second, as the median over consecutive blocks of `block`
/// completions. `done_ms` holds completion times in increasing order,
/// measured from the start of the loop; a trailing partial block is dropped.
/// 0 without one complete block.
double block_rate(const std::vector<double>& done_ms, size_t block);

/// Half-open interval [start, end) in microseconds.
struct Interval {
  uint64_t start = 0;
  uint64_t end = 0;
};
/// Total length covered by the union of `intervals` (overlaps counted once).
uint64_t union_length(std::vector<Interval> intervals);

/// Wall-clock time per span name, in microseconds, over a set of finished
/// spans. A span's self time is its duration minus the union of its direct
/// children's intervals (clipped to the span), so children that overlap
/// because they ran on several threads are not subtracted twice.
struct SpanTimes {
  std::map<std::string, double> self_us;
  std::map<std::string, double> total_us;
  /// Union of every span's interval whose category is not `exclude_category`
  /// — the wall time the program's own spans cover.
  double covered_us = 0;
  /// Longest root span of category "study": the runner's per-country roots.
  double slowest_country_us = 0;
};
SpanTimes span_times(const std::vector<gam::util::trace::Span>& spans,
                     const std::string& exclude_category);

/// What changed in the metrics registry between two snapshots.
struct MetricsDelta {
  std::map<std::string, uint64_t> counters;
  struct Hist {
    uint64_t count = 0;
    double sum = 0;
  };
  std::map<std::string, Hist> histograms;

  uint64_t counter(const std::string& name) const;
  uint64_t prefix_sum(const std::string& prefix) const;
  Hist histogram(const std::string& name) const;
  /// Mean of a histogram's observations in the window; 0 when none.
  double mean(const std::string& name) const;
};
MetricsDelta diff(const gam::util::MetricsSnapshot& before,
                  const gam::util::MetricsSnapshot& after);

/// One served request's class and shape. Lookups pick one of
/// kLookupKinds (funnel, coverage, countries by code, sites by country) and
/// a country; aggregates pick one of kAggregateKinds, uniformly.
///
/// A lookup draws one of kLookupSlots equally likely slots, countries by
/// code (kind 2, the point lookup) holding two. Each kind's latencies form
/// a tight cluster, so with four equally likely kinds the class median would
/// sit on the boundary between the second and third cluster and jump
/// between them with each block's mix. With five slots the median lies
/// inside one kind's cluster, a tenth of the class or more from either edge
/// (with seven aggregate kinds, a fourteenth).
enum class RequestClass { kLookup, kAggregate };
inline constexpr size_t kLookupKinds = 4;
inline constexpr size_t kLookupSlots = 5;
inline constexpr size_t kDoubledLookup = 2;
inline constexpr size_t kAggregateKinds = 7;
struct Draw {
  RequestClass cls = RequestClass::kLookup;
  size_t kind = 0;
  size_t country = 0;
};

/// Seeded request stream: splitmix64 over (seed, stream), so each loop of a
/// run gets its own reproducible sequence and the class split is 50/50 in
/// expectation.
class RequestDraw {
 public:
  RequestDraw(uint64_t seed, uint64_t stream);
  Draw next(size_t countries);

 private:
  uint64_t next_u64();
  uint64_t uniform(uint64_t n);
  uint64_t state_;
};

}  // namespace perfbench
