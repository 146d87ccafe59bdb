// Trace-plane overhead benchmarks (google-benchmark).
//
// The tracer must be free when it is off: every instrumented call site then
// costs one relaxed atomic load and nothing else. The trace_off arms of
// BM_StudyTrace are the regression gate (<= 5% over the pre-trace study
// baseline); the trace_on arms are not a gate — they show what recording the
// ~5k spans of a 3-country study actually costs. BM_Span{Disabled,Enabled}
// pin down the per-span constants behind those numbers.
//
// Run: build/bench/bench_trace --benchmark_filter=BM_StudyTrace
// Compare trace_off vs trace_on at the same jobs count: the delta is the
// whole price of the span wiring through dns/web/probe/geoloc/core.
#include <benchmark/benchmark.h>

#include <string>

#include "util/trace.h"
#include "worldgen/study.h"
#include "worldgen/world.h"

namespace {

using namespace gam;

const worldgen::World& shared_world() {
  static const std::unique_ptr<worldgen::World> world = worldgen::generate_world({});
  return *world;
}

// Args: {jobs, tracing}. The tracer is reset outside the timed region so the
// trace_on arms measure emission, not the flush of a prior iteration.
void BM_StudyTrace(benchmark::State& state) {
  auto& world = const_cast<worldgen::World&>(shared_world());
  worldgen::StudyOptions options;
  options.jobs = static_cast<size_t>(state.range(0));
  options.countries = {"US", "GB", "IN"};
  const bool tracing = state.range(1) != 0;
  state.SetLabel(std::string(tracing ? "trace_on" : "trace_off") + "/jobs" +
                 std::to_string(state.range(0)));
  // One warm-up study so every arm measures steady state.
  {
    worldgen::StudyResult warmup = worldgen::run_study(world, options);
    benchmark::DoNotOptimize(warmup.analyses.size());
  }
  for (auto _ : state) {
    if (tracing) {
      state.PauseTiming();
      util::trace::Tracer::instance().reset();
      state.ResumeTiming();
      util::trace::set_enabled(true);
    }
    worldgen::StudyResult result = worldgen::run_study(world, options);
    util::trace::set_enabled(false);
    benchmark::DoNotOptimize(result.analyses.size());
  }
  state.counters["spans"] =
      static_cast<double>(util::trace::Tracer::instance().spans_recorded());
  state.counters["dropped"] =
      static_cast<double>(util::trace::Tracer::instance().dropped_spans());
  util::trace::Tracer::instance().reset();
}
BENCHMARK(BM_StudyTrace)
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({4, 0})
    ->Args({4, 1})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// The disabled fast path: one relaxed load, no allocation, no clock read.
void BM_SpanDisabled(benchmark::State& state) {
  util::trace::set_enabled(false);
  for (auto _ : state) {
    util::trace::ScopedSpan span("bench", "micro");
    span.arg("k", uint64_t{1});
    benchmark::DoNotOptimize(span.active());
  }
}
BENCHMARK(BM_SpanDisabled);

// The enabled hot path: open + one arg + record into the thread buffer.
// Reset periodically (outside timing) to stay under the per-thread cap.
void BM_SpanEnabled(benchmark::State& state) {
  util::trace::Tracer::instance().reset();
  util::trace::set_enabled(true);
  size_t emitted = 0;
  for (auto _ : state) {
    {
      util::trace::ScopedSpan span("bench", "micro");
      span.arg("k", uint64_t{1});
      benchmark::DoNotOptimize(span.active());
    }
    if (++emitted == (1u << 20)) {
      state.PauseTiming();
      util::trace::set_enabled(false);
      util::trace::Tracer::instance().reset();
      util::trace::set_enabled(true);
      emitted = 0;
      state.ResumeTiming();
    }
  }
  util::trace::set_enabled(false);
  util::trace::Tracer::instance().reset();
}
BENCHMARK(BM_SpanEnabled);

}  // namespace
