// The fault plane's own contracts: plan (de)serialization, the injector's
// order-independence, the retry policy's backoff arithmetic, and the
// runner's circuit breaker.
#include "util/fault.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/parallel_runner.h"
#include "util/json.h"
#include "util/retry.h"

namespace gam {
namespace {

util::FaultPlan sample_plan() {
  util::FaultPlan plan;
  plan.dns_timeout = 0.1;
  plan.dns_servfail = 0.05;
  plan.trace_timeout = 0.2;
  plan.trace_hop_loss = 0.15;
  plan.browser_hang = 0.01;
  plan.browser_reset = 0.02;
  plan.browser_slow = 0.3;
  plan.atlas_unavailable = 0.25;
  plan.session_abort = 0.5;
  return plan;
}

TEST(FaultPlan, JsonRoundTrip) {
  util::FaultPlan plan = sample_plan();
  auto back = util::FaultPlan::from_json(plan.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(plan.to_json(), back->to_json());
  EXPECT_TRUE(back->any());
}

TEST(FaultPlan, DefaultIsInertAndValid) {
  util::FaultPlan plan;
  EXPECT_FALSE(plan.any());
  EXPECT_TRUE(plan.valid());
  auto back = util::FaultPlan::from_json(plan.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(back->any());
}

TEST(FaultPlan, PartialDocumentDefaultsRestToZero) {
  auto doc = util::Json::parse(R"({"dns": {"timeout": 0.4}})");
  ASSERT_TRUE(doc.has_value());
  auto plan = util::FaultPlan::from_json(*doc);
  ASSERT_TRUE(plan.has_value());
  EXPECT_DOUBLE_EQ(plan->dns_timeout, 0.4);
  EXPECT_DOUBLE_EQ(plan->dns_servfail, 0.0);
  EXPECT_DOUBLE_EQ(plan->session_abort, 0.0);
}

TEST(FaultPlan, RejectsUnknownKeysAndBadValues) {
  auto unknown = util::Json::parse(R"({"dns": {"tiemout": 0.4}})");
  ASSERT_TRUE(unknown.has_value());
  EXPECT_FALSE(util::FaultPlan::from_json(*unknown).has_value());

  auto out_of_range = util::Json::parse(R"({"dns": {"timeout": 1.5}})");
  ASSERT_TRUE(out_of_range.has_value());
  EXPECT_FALSE(util::FaultPlan::from_json(*out_of_range).has_value());

  auto not_number = util::Json::parse(R"({"dns": {"timeout": "lots"}})");
  ASSERT_TRUE(not_number.has_value());
  EXPECT_FALSE(util::FaultPlan::from_json(*not_number).has_value());

  EXPECT_FALSE(util::FaultPlan::from_json(util::Json(3)).has_value());
}

TEST(FaultInjector, DisarmedNeverFires) {
  util::FaultInjector injector;
  EXPECT_FALSE(injector.armed());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(injector.roll("dns.timeout", "key" + std::to_string(i), 1.0));
  }
}

TEST(FaultInjector, ArmedZeroPlanNeverFires) {
  util::FaultInjector injector(util::FaultPlan{}, 7);
  EXPECT_TRUE(injector.armed());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(injector.roll("dns.timeout", "key" + std::to_string(i), 0.0));
  }
}

TEST(FaultInjector, DecisionsDependOnlyOnSeedComponentKey) {
  util::FaultInjector a(sample_plan(), 99);
  util::FaultInjector b(sample_plan(), 99);
  // b's rolls happen in a different order and interleaved with extra calls;
  // every decision must still agree with a's.
  std::vector<bool> forward, backward;
  for (int i = 0; i < 200; ++i) {
    forward.push_back(a.roll("traceroute.timeout", "k" + std::to_string(i), 0.3));
  }
  for (int i = 199; i >= 0; --i) {
    b.roll("dns.timeout", "noise" + std::to_string(i), 0.3);  // unrelated site
    backward.push_back(b.roll("traceroute.timeout", "k" + std::to_string(i), 0.3));
  }
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(forward[static_cast<size_t>(i)], backward[static_cast<size_t>(199 - i)])
        << "key k" << i;
  }
}

TEST(FaultInjector, RatesActuallyBiteAtScale) {
  util::FaultInjector injector(sample_plan(), 3);
  int fired = 0;
  for (int i = 0; i < 2000; ++i) {
    if (injector.roll("browser.slow", "site" + std::to_string(i), 0.3)) ++fired;
  }
  // Bernoulli(0.3) over 2000 trials: far from both 0 and 2000.
  EXPECT_GT(fired, 400);
  EXPECT_LT(fired, 800);
}

TEST(FaultInjector, StreamsAreReproducibleAndIndependent) {
  util::FaultInjector injector(sample_plan(), 11);
  util::Rng s1 = injector.stream("traceroute.hoploss", "src/10.0.0.1");
  util::Rng s2 = injector.stream("traceroute.hoploss", "src/10.0.0.1");
  EXPECT_EQ(s1.next(), s2.next());
  EXPECT_EQ(s1.next(), s2.next());
  util::Rng other = injector.stream("traceroute.hoploss", "src/10.0.0.2");
  EXPECT_NE(s1.next(), other.next());
}

TEST(Retry, BackoffGrowsAndStaysBounded) {
  util::RetryPolicy policy;
  policy.base_delay_ms = 100.0;
  policy.max_delay_ms = 400.0;
  util::Rng rng(5);
  // Attempt 2 backs off from d=100; attempt 3 from d=200; attempt 5 would be
  // d=800 but is capped at 400. Full jitter lands in [d/2, d).
  double d2 = util::backoff_delay_ms(policy, 2, rng);
  EXPECT_GE(d2, 50.0);
  EXPECT_LT(d2, 100.0);
  double d3 = util::backoff_delay_ms(policy, 3, rng);
  EXPECT_GE(d3, 100.0);
  EXPECT_LT(d3, 200.0);
  double d5 = util::backoff_delay_ms(policy, 5, rng);
  EXPECT_GE(d5, 200.0);
  EXPECT_LT(d5, 400.0);
  // Huge attempt numbers must not overflow the exponent.
  double dbig = util::backoff_delay_ms(policy, 1000, rng);
  EXPECT_GE(dbig, 200.0);
  EXPECT_LT(dbig, 400.0);
}

TEST(Retry, SucceedsWithoutDrawingJitterOnFirstTry) {
  util::RetryPolicy policy;
  util::Rng rng(42);
  uint64_t before = util::Rng(42).next();
  int calls = 0;
  auto result = util::retry_call(policy, rng, [&] {
    ++calls;
    return true;
  });
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(result.backoff_ms, 0.0);
  EXPECT_EQ(calls, 1);
  // rng untouched: its next draw equals a fresh twin's first draw.
  EXPECT_EQ(rng.next(), before);
}

TEST(Retry, RetriesUntilSuccessAndChargesBackoff) {
  util::RetryPolicy policy;
  policy.max_attempts = 5;
  util::Rng rng(42);
  int calls = 0;
  auto result = util::retry_call(policy, rng, [&] { return ++calls == 3; });
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.attempts, 3);
  EXPECT_GT(result.backoff_ms, 0.0);
}

TEST(Retry, ExhaustsAfterMaxAttempts) {
  util::RetryPolicy policy;
  policy.max_attempts = 4;
  util::Rng rng(42);
  int calls = 0;
  auto result = util::retry_call(policy, rng, [&] {
    ++calls;
    return false;
  });
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.attempts, 4);
  EXPECT_EQ(calls, 4);
}

TEST(Retry, DeadlineBudgetStopsTheSchedule) {
  util::RetryPolicy policy;
  policy.max_attempts = 100;
  policy.base_delay_ms = 50.0;
  policy.max_delay_ms = 1000.0;
  policy.deadline_ms = 120.0;  // room for at most a few backoffs
  util::Rng rng(42);
  int calls = 0;
  auto result = util::retry_call(policy, rng, [&] {
    ++calls;
    return false;
  });
  EXPECT_FALSE(result.success);
  EXPECT_LT(calls, 10);
  EXPECT_LE(result.backoff_ms, policy.deadline_ms);
}

TEST(Breaker, RetriesThenFallsBackPerCountry) {
  std::vector<std::string> countries = {"AA", "BB", "CC"};
  core::ParallelStudyRunner runner(2, countries.size());
  std::vector<std::string> out(countries.size());
  runner.for_each_with_breaker(
      countries,
      [](size_t, const std::string& code, int attempt) -> std::string {
        if (code == "BB") throw std::runtime_error("always down");
        if (code == "CC" && attempt == 1) throw std::runtime_error("transient");
        return code + "#" + std::to_string(attempt);
      },
      [](size_t, const std::string& code, const std::string& error) {
        return "degraded:" + code + ":" + error;
      },
      [&out](size_t i, const std::string&, std::string&& r) { out[i] = std::move(r); },
      /*attempts=*/2);
  EXPECT_EQ(out[0], "AA#1");                       // clean first try
  EXPECT_EQ(out[1], "degraded:BB:always down");    // breaker opened
  EXPECT_EQ(out[2], "CC#2");                       // transient cleared on retry
}

}  // namespace
}  // namespace gam
