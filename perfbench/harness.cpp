#include "harness.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

Percentile percentile(std::vector<double> samples, double p) {
  Percentile out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least p of the samples at or
  // below it.
  size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  out.value = samples[rank - 1];
  out.beyond = n - rank;
  out.supported = out.beyond >= kMinBeyond;
  return out;
}

Percentile block_percentile(const std::vector<double>& ordered, double p, size_t block) {
  Percentile out;
  if (block == 0 || ordered.size() < block) return out;
  std::vector<double> values;
  out.beyond = block;
  for (size_t start = 0; start + block <= ordered.size(); start += block) {
    Percentile b = percentile(
        std::vector<double>(ordered.begin() + start, ordered.begin() + start + block), p);
    values.push_back(b.value);
    out.beyond = std::min(out.beyond, b.beyond);
  }
  out.value = median(std::move(values));
  out.supported = out.beyond >= kMinBeyond;
  return out;
}

double block_rate(const std::vector<double>& done_ms, size_t block) {
  std::vector<double> rates;
  double prev_ms = 0;
  for (size_t end = block; block != 0 && end <= done_ms.size(); end += block) {
    double ms = done_ms[end - 1] - prev_ms;
    rates.push_back(ms > 0 ? static_cast<double>(block) * 1000 / ms : 0);
    prev_ms = done_ms[end - 1];
  }
  return median(std::move(rates));
}

uint64_t union_length(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  uint64_t total = 0;
  uint64_t cur_start = 0;
  uint64_t cur_end = 0;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (iv.end <= iv.start) continue;
    if (!open || iv.start > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = iv.start;
      cur_end = iv.end;
      open = true;
    } else {
      cur_end = std::max(cur_end, iv.end);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

SpanTimes span_times(const std::vector<gam::util::trace::Span>& spans,
                     const std::string& exclude_category) {
  std::unordered_map<uint64_t, std::vector<Interval>> children;
  std::vector<Interval> covered;
  for (const auto& s : spans) {
    Interval iv{s.wall_start_us, s.wall_start_us + s.wall_dur_us};
    if (s.parent != 0) children[s.parent].push_back(iv);
    if (s.category != exclude_category) covered.push_back(iv);
  }
  SpanTimes out;
  for (const auto& s : spans) {
    uint64_t start = s.wall_start_us;
    uint64_t end = s.wall_start_us + s.wall_dur_us;
    uint64_t child_us = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      std::vector<Interval> clipped;
      clipped.reserve(it->second.size());
      for (const Interval& c : it->second) {
        clipped.push_back({std::max(c.start, start), std::min(c.end, end)});
      }
      child_us = union_length(std::move(clipped));
    }
    out.self_us[s.name] += static_cast<double>(s.wall_dur_us - child_us);
    out.total_us[s.name] += static_cast<double>(s.wall_dur_us);
    if (s.parent == 0 && s.category == "study") {
      out.slowest_country_us =
          std::max(out.slowest_country_us, static_cast<double>(s.wall_dur_us));
    }
  }
  out.covered_us = static_cast<double>(union_length(std::move(covered)));
  return out;
}

uint64_t MetricsDelta::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

uint64_t MetricsDelta::prefix_sum(const std::string& prefix) const {
  uint64_t total = 0;
  for (auto it = counters.lower_bound(prefix);
       it != counters.end() && it->first.compare(0, prefix.size(), prefix) == 0; ++it) {
    total += it->second;
  }
  return total;
}

MetricsDelta::Hist MetricsDelta::histogram(const std::string& name) const {
  auto it = histograms.find(name);
  return it == histograms.end() ? Hist{} : it->second;
}

double MetricsDelta::mean(const std::string& name) const {
  Hist h = histogram(name);
  return h.count == 0 ? 0 : h.sum / static_cast<double>(h.count);
}

MetricsDelta diff(const gam::util::MetricsSnapshot& before,
                  const gam::util::MetricsSnapshot& after) {
  MetricsDelta out;
  for (const auto& [name, v] : after.counters) {
    auto it = before.counters.find(name);
    uint64_t base = it == before.counters.end() ? 0 : it->second;
    if (v != base) out.counters[name] = v - base;
  }
  for (const auto& [name, h] : after.histograms) {
    auto it = before.histograms.find(name);
    MetricsDelta::Hist d{h.count, h.sum};
    if (it != before.histograms.end()) {
      d.count -= it->second.count;
      d.sum -= it->second.sum;
    }
    if (d.count != 0) out.histograms[name] = d;
  }
  return out;
}

RequestDraw::RequestDraw(uint64_t seed, uint64_t stream)
    : state_(seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1))) {}

uint64_t RequestDraw::next_u64() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t RequestDraw::uniform(uint64_t n) {
  // Rejection sampling keeps every value exactly equally likely.
  uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  uint64_t x = next_u64();
  while (x >= limit) x = next_u64();
  return x % n;
}

Draw RequestDraw::next(size_t countries) {
  Draw d;
  d.cls = (next_u64() >> 63) == 0 ? RequestClass::kLookup : RequestClass::kAggregate;
  if (d.cls == RequestClass::kLookup) {
    size_t slot = uniform(kLookupSlots);
    d.kind = slot < kLookupKinds ? slot : kDoubledLookup;
  } else {
    d.kind = uniform(kAggregateKinds);
  }
  d.country = countries == 0 ? 0 : uniform(countries);
  return d;
}

}  // namespace perfbench
