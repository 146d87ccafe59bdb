// Fault-plane overhead benchmarks (google-benchmark).
//
// The resilience layer (ISSUE 3) must be free when it is not in use: a study
// with no FaultInjector armed — and even one armed with an all-zero plan —
// has a retry/fault budget of <= 5% over the pre-fault baseline. The hostile
// arm is not a regression gate; it shows what a realistic failure sweep
// costs (extra retries, atlas repairs skipped, degraded classification).
//
// Run: build/bench/bench_faults --benchmark_filter=BM_StudyFaults
// Compare the `disarmed` and `armed_zero` labels: the delta is the whole
// price of threading the injector through dns/probe/web/core.
#include <benchmark/benchmark.h>

#include "util/fault.h"
#include "util/metrics.h"
#include "worldgen/study.h"
#include "worldgen/world.h"

namespace {

using namespace gam;

const worldgen::World& shared_world() {
  static const std::unique_ptr<worldgen::World> world = worldgen::generate_world({});
  return *world;
}

util::FaultPlan hostile_plan() {
  util::FaultPlan plan;
  plan.dns_timeout = 0.10;
  plan.dns_servfail = 0.05;
  plan.trace_timeout = 0.20;
  plan.trace_hop_loss = 0.10;
  plan.browser_hang = 0.05;
  plan.browser_reset = 0.05;
  plan.browser_slow = 0.10;
  plan.atlas_unavailable = 0.20;
  return plan;
}

// Arms: 0 = disarmed (no FaultInjector at all — the legacy fast path),
// 1 = armed with an all-zero plan (every roll() reached, every one
// short-circuits on prob <= 0), 2 = the hostile plan above.
void BM_StudyFaults(benchmark::State& state) {
  auto& world = const_cast<worldgen::World&>(shared_world());
  worldgen::StudyOptions options;
  options.jobs = 4;
  switch (state.range(0)) {
    case 0:
      state.SetLabel("disarmed");
      break;
    case 1:
      options.fault_plan = util::FaultPlan{};
      state.SetLabel("armed_zero");
      break;
    default:
      options.fault_plan = hostile_plan();
      state.SetLabel("hostile");
      break;
  }
  // One warm-up study so every arm measures steady state.
  {
    worldgen::StudyResult warmup = worldgen::run_study(world, options);
    benchmark::DoNotOptimize(warmup.analyses.size());
  }
  for (auto _ : state) {
    worldgen::StudyResult result = worldgen::run_study(world, options);
    benchmark::DoNotOptimize(result.analyses.size());
  }
  state.counters["retry.attempts"] = static_cast<double>(
      util::MetricsRegistry::instance().counter("retry.attempts").value());
  state.counters["fault.injected"] = static_cast<double>(
      util::MetricsRegistry::instance().counter("fault.injected").value());
}
BENCHMARK(BM_StudyFaults)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace
