// Performance micro-benchmarks (google-benchmark): the hot paths a
// measurement campaign exercises millions of times.
#include <benchmark/benchmark.h>

#include "core/session.h"
#include "dns/resolver.h"
#include "geoloc/pipeline.h"
#include "probe/formats.h"
#include "probe/traceroute.h"
#include "trackers/identify.h"
#include "util/metrics.h"
#include "web/psl.h"
#include "worldgen/study.h"
#include "worldgen/world.h"

namespace {

using namespace gam;

const worldgen::World& shared_world() {
  static const std::unique_ptr<worldgen::World> world = worldgen::generate_world({});
  return *world;
}

void BM_WorldGeneration(benchmark::State& state) {
  for (auto _ : state) {
    auto world = worldgen::generate_world({});
    benchmark::DoNotOptimize(world->topology.node_count());
  }
}
BENCHMARK(BM_WorldGeneration)->Unit(benchmark::kMillisecond);

void BM_FilterMatch(benchmark::State& state) {
  trackers::TrackerIdentifier identifier;
  trackers::RequestContext ctx;
  ctx.url = "https://stats.g.doubleclick.net/js/tag.js";
  ctx.host = "stats.g.doubleclick.net";
  ctx.page_host = "news-0.com.eg";
  ctx.type = web::ResourceType::Script;
  ctx.third_party = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(identifier.easylist().match(ctx));
  }
}
BENCHMARK(BM_FilterMatch);

void BM_FilterMatchMiss(benchmark::State& state) {
  trackers::TrackerIdentifier identifier;
  trackers::RequestContext ctx;
  ctx.url = "https://totally-clean.example/static/app.js";
  ctx.host = "totally-clean.example";
  ctx.page_host = "totally-clean.example";
  ctx.type = web::ResourceType::Script;
  ctx.third_party = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(identifier.easylist().match(ctx));
  }
}
BENCHMARK(BM_FilterMatchMiss);

void BM_TrackerIdentify(benchmark::State& state) {
  trackers::TrackerIdentifier identifier;
  trackers::RequestContext ctx;
  ctx.url = "https://cdn.theozone-project.com/sdk.js";  // falls through to manual
  ctx.host = "cdn.theozone-project.com";
  ctx.page_host = "press-1.co.uk";
  ctx.third_party = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(identifier.identify(ctx, "GB"));
  }
}
BENCHMARK(BM_TrackerIdentify);

void BM_DnsResolveSteered(benchmark::State& state) {
  const worldgen::World& world = shared_world();
  size_t i = 0;
  const char* countries[] = {"PK", "NZ", "EG", "RW", "JP"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        world.resolver->resolve("doubleclick.net", countries[i++ % 5]));
  }
}
BENCHMARK(BM_DnsResolveSteered);

void BM_RegistrableDomain(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(web::registrable_domain("www.news.example.co.uk"));
  }
}
BENCHMARK(BM_RegistrableDomain);

void BM_Traceroute(benchmark::State& state) {
  const worldgen::World& world = shared_world();
  probe::TracerouteEngine engine(world.topology, *world.resolver);
  const core::VolunteerProfile& vol = world.volunteer("PK");
  dns::Answer ans = world.resolver->resolve("doubleclick.net", "PK");
  util::Rng rng(1);
  probe::TracerouteOptions opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.trace(vol.node, ans.primary(), opts, rng));
  }
}
BENCHMARK(BM_Traceroute);

void BM_TracerouteNormalizeLinux(benchmark::State& state) {
  const worldgen::World& world = shared_world();
  probe::TracerouteEngine engine(world.topology, *world.resolver);
  const core::VolunteerProfile& vol = world.volunteer("GB");
  dns::Answer ans = world.resolver->resolve("doubleclick.net", "GB");
  util::Rng rng(2);
  probe::TracerouteOptions opts;
  std::string text = probe::format_linux(engine.trace(vol.node, ans.primary(), opts, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(probe::normalize_traceroute_checked(text, probe::OsKind::Linux));
  }
}
BENCHMARK(BM_TracerouteNormalizeLinux);

void BM_PageLoad(benchmark::State& state) {
  const worldgen::World& world = shared_world();
  web::Browser browser(world.universe, *world.resolver, world.topology,
                       core::GammaConfig::study_defaults().browser);
  const core::VolunteerProfile& vol = world.volunteer("NZ");
  const web::Website* site = world.universe.find("youtube.com");
  util::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(browser.load(*site, vol.node, "NZ", 0.0, rng));
  }
}
BENCHMARK(BM_PageLoad);

void BM_GeolocateClassify(benchmark::State& state) {
  const worldgen::World& world = shared_world();
  probe::TracerouteEngine engine(world.topology, *world.resolver);
  geoloc::MultiConstraintGeolocator geolocator(world.geodb, world.reference, world.atlas,
                                               engine);
  const core::VolunteerProfile& vol = world.volunteer("PK");
  dns::Answer ans = world.resolver->resolve("doubleclick.net", "PK");
  util::Rng rng(4);
  probe::TracerouteOptions opts;
  probe::TracerouteResult trace = engine.trace(vol.node, ans.primary(), opts, rng);
  geoloc::ServerObservation obs;
  obs.ip = ans.primary();
  obs.volunteer_country = "PK";
  obs.volunteer_city = vol.city;
  obs.volunteer_coord = world.topology.node(vol.node).coord;
  obs.src_trace_attempted = true;
  obs.src_trace_reached = trace.reached;
  obs.src_first_hop_ms = trace.first_hop_rtt_ms();
  obs.src_last_hop_ms = trace.last_hop_rtt_ms();
  for (auto _ : state) {
    benchmark::DoNotOptimize(geolocator.classify(obs, rng));
  }
}
BENCHMARK(BM_GeolocateClassify);

void BM_FullCountrySession(benchmark::State& state) {
  const worldgen::World& world = shared_world();
  for (auto _ : state) {
    core::GammaSession session(world.env(), world.volunteer("TW"),
                               world.targets.at("TW"),
                               core::GammaConfig::study_defaults(), 42);
    session.run_all();
    benchmark::DoNotOptimize(session.dataset().attempted_sites());
  }
}
BENCHMARK(BM_FullCountrySession)->Unit(benchmark::kMillisecond);

void BM_FullStudy(benchmark::State& state) {
  for (auto _ : state) {
    auto world = worldgen::generate_world({});
    worldgen::StudyResult result = worldgen::run_study(*world);
    benchmark::DoNotOptimize(result.analyses.size());
  }
}
BENCHMARK(BM_FullStudy)->Unit(benchmark::kMillisecond)->Iterations(3);

// Parallel-vs-serial speedup of the 23-country study on one shared world
// (world generation excluded: it is one-time setup, the campaign is the
// recurring cost). Run with --benchmark_filter=BM_StudyJobs and compare
// jobs=1 to jobs=4; the determinism contract guarantees identical output,
// so this measures pure scheduling win.
void BM_StudyJobs(benchmark::State& state) {
  // Mutable-ref world: run_study only reads it, so sharing it across
  // iterations is safe (both arms see the same world).
  auto& world = const_cast<worldgen::World&>(shared_world());
  worldgen::StudyOptions options;
  options.jobs = static_cast<size_t>(state.range(0));
  // Second arg toggles metrics recording; the metrics_off arms measure the
  // cost of the enabled-flag check alone, so (metrics_on - metrics_off)
  // bounds the instrumentation overhead (budget: <= 5%).
  const bool metrics_on = state.range(1) != 0;
  util::MetricsRegistry::set_enabled(metrics_on);
  state.SetLabel(metrics_on ? "metrics_on" : "metrics_off");
  // One warm-up study so every arm measures steady state rather than the
  // first arm paying every one-time set-up cost.
  {
    worldgen::StudyResult warmup = worldgen::run_study(world, options);
    benchmark::DoNotOptimize(warmup.analyses.size());
  }
  for (auto _ : state) {
    worldgen::StudyResult result = worldgen::run_study(world, options);
    benchmark::DoNotOptimize(result.analyses.size());
  }
  util::MetricsRegistry::set_enabled(true);
}
BENCHMARK(BM_StudyJobs)
    ->Args({1, 1})
    ->Args({1, 0})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Args({4, 0})
    ->Args({8, 1})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace
