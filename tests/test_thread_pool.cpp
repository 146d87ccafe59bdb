// util::ThreadPool unit tests plus the concurrency stress suite for the
// shared substrate. The stress tests are designed to run under
// GAMMA_SANITIZE=thread: they query a frozen net::Topology from many
// threads at once, which is exactly the access pattern a parallel study
// produces and exactly what TSan flags if a query ever writes shared state.
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/topology.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace gam {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SubmitReturnsValues) {
  util::ThreadPool pool(2);
  auto f1 = pool.submit([] { return 6 * 7; });
  auto f2 = pool.submit([] { return std::string("gamma"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "gamma");
}

TEST(ThreadPool, ZeroMeansHardwareThreads) {
  util::ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  EXPECT_EQ(pool.size(), util::ThreadPool::hardware_threads());
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  util::ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The worker survives the throwing task.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, WaitIdleDrainsQueue) {
  util::ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&done] {
      std::this_thread::yield();
      done.fetch_add(1);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPool, QueueDepthDrainsToZeroAndDrivesGauge) {
  util::Gauge& gauge = util::MetricsRegistry::instance().gauge("pool.queue_depth");
  {
    // A single blocked worker: everything behind the gate is measurably
    // queued, so depth (and the gauge) must reach the backlog size.
    util::ThreadPool pool(1);
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    pool.submit([open] { open.wait(); });
    std::vector<std::future<void>> rest;
    for (int i = 0; i < 8; ++i) rest.push_back(pool.submit([open] { open.wait(); }));
    // The worker holds at most one task; at least 7 of the 8 are queued.
    EXPECT_GE(pool.queue_depth(), 7u);
    EXPECT_GE(gauge.value(), 7.0);
    gate.set_value();
    for (auto& f : rest) f.get();
    pool.wait_idle();
    EXPECT_EQ(pool.queue_depth(), 0u);
  }
  EXPECT_EQ(gauge.value(), 0.0);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> done{0};
  {
    util::ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) pool.submit([&done] { done.fetch_add(1); });
  }
  EXPECT_EQ(done.load(), 20);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  util::parallel_for(pool, hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForRethrowsFirstException) {
  util::ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(util::parallel_for(pool, 32,
                                  [&](size_t i) {
                                    if (i % 8 == 3) throw std::runtime_error("task failed");
                                    completed.fetch_add(1);
                                  }),
               std::runtime_error);
  // Non-throwing iterations all ran to completion before the rethrow.
  EXPECT_EQ(completed.load(), 32 - 4);
}

// ---------------------------------------------------------------------------
// Frozen-topology query stress.
// ---------------------------------------------------------------------------

/// Routers on a random connected graph, plus a quarter of the nodes as
/// Client leaves hung off random routers: a generated world's shape, where
/// every Client gets a frozen tree and any other source a one-off tree.
net::Topology make_stress_topology(size_t nodes, uint64_t seed) {
  net::Topology topo;
  util::Rng rng(seed);
  const size_t routers = nodes - nodes / 4;
  for (size_t i = 0; i < nodes; ++i) {
    geo::Coord c{rng.uniform_real(-60.0, 60.0), rng.uniform_real(-180.0, 180.0)};
    topo.add_node(i < routers ? net::NodeKind::Router : net::NodeKind::Client,
                  "n" + std::to_string(i), "XX", "city", c,
                  /*asn=*/65000, /*ip=*/static_cast<net::IPv4>(0x0A000000 + i + 1));
  }
  // A ring guarantees connectivity; chords make path choices non-trivial.
  for (size_t i = 0; i < routers; ++i) {
    topo.add_link(static_cast<net::NodeId>(i), static_cast<net::NodeId>((i + 1) % routers));
  }
  for (size_t i = 0; i < routers * 2; ++i) {
    auto a = static_cast<net::NodeId>(rng.uniform(routers));
    auto b = static_cast<net::NodeId>(rng.uniform(routers));
    if (a != b) topo.add_link(a, b);
  }
  for (size_t i = routers; i < nodes; ++i) {
    topo.add_link(static_cast<net::NodeId>(i), static_cast<net::NodeId>(rng.uniform(routers)));
  }
  topo.freeze();
  return topo;
}

TEST(TopologyConcurrency, ParallelQueriesMatchSerialAnswers) {
  constexpr size_t kNodes = 160;
  const net::Topology topo = make_stress_topology(kNodes, 99);

  // Serial ground truth.
  std::vector<std::vector<double>> expected(kNodes);
  for (size_t from = 0; from < kNodes; ++from) {
    expected[from].resize(kNodes);
    for (size_t to = 0; to < kNodes; ++to) {
      expected[from][to] =
          topo.latency_ms(static_cast<net::NodeId>(from), static_cast<net::NodeId>(to));
    }
  }

  // 8 threads query interleaved sources, so frozen trees (Client sources)
  // and one-off trees (Router sources) are read concurrently.
  constexpr size_t kThreads = 8;
  util::ThreadPool pool(kThreads);
  std::atomic<size_t> mismatches{0};
  util::parallel_for(pool, kThreads, [&](size_t t) {
    util::Rng rng(1000 + t);
    for (int iter = 0; iter < 4000; ++iter) {
      auto from = static_cast<net::NodeId>(rng.uniform(kNodes));
      auto to = static_cast<net::NodeId>(rng.uniform(kNodes));
      if (topo.latency_ms(from, to) != expected[from][to]) mismatches.fetch_add(1);
      if (iter % 16 == 0) {
        auto path = topo.shortest_path(from, to);
        if (!path || path->one_way_ms != expected[from][to]) mismatches.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(topo.route_cache_size(), topo.nodes_of_kind(net::NodeKind::Client).size());
  EXPECT_EQ(topo.route_cache_size(), kNodes / 4);
}

}  // namespace
}  // namespace gam
