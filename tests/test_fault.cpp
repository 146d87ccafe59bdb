// The fault plane's own contracts: plan (de)serialization, the injector's
// order-independence, the retry policy's backoff arithmetic, and the
// runner's circuit breaker.
#include "util/fault.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/parallel_runner.h"
#include "util/json.h"
#include "util/retry.h"
#include "util/rng.h"

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

// ---- The fault-plan loader is a front door (`--fault-plan FILE`): every
// seeded mutation of a valid plan's text is refused (nullopt) or yields a
// valid plan that round-trips, through both entry points, and none aborts.

/// One "group": {"key": value} member of a plan's text. The value is kept
/// as text, so a mutation can write what no double prints: 1e999, a string.
struct PlanEntry {
  std::string group, key, value;
};

std::string render(const std::vector<PlanEntry>& entries) {
  std::string text = "{";
  for (size_t i = 0; i < entries.size(); ++i) {
    const PlanEntry& e = entries[i];
    if (i == 0 || e.group != entries[i - 1].group) {
      text += (i == 0 ? "\"" : ", \"") + e.group + "\": {";
    } else {
      text += ", ";
    }
    text += "\"" + e.key + "\": " + e.value;
    if (i + 1 == entries.size() || entries[i + 1].group != e.group) text += "}";
  }
  return text + "}";
}

/// A near miss of `name`: two letters swapped, one dropped, one added, or
/// the first upper-cased.
std::string misspell(std::string name, util::Rng& rng) {
  if (name.empty()) return "x";
  size_t at = rng.uniform(name.size());
  switch (rng.uniform(4)) {
    case 0:
      if (at + 1 < name.size()) std::swap(name[at], name[at + 1]);
      else name += "_";
      break;
    case 1: name.erase(at, 1); break;
    case 2: name.insert(at, 1, 'x'); break;
    default: name[0] = static_cast<char>(std::toupper(static_cast<unsigned char>(name[0])));
  }
  return name;
}

std::string mutated_plan_text(util::Rng& rng) {
  static const char* kWrongTypes[] = {"\"0.1\"", "[0.1]", "{\"p\": 0.1}", "true", "null", "\"\""};
  static const char* kEdgeValues[] = {"-0.1", "1.0000001", "2",      "1e999", "-1e999",
                                      "1e308", "0",         "1",      "-0",    "1e-400",
                                      "0.5",   "1E0",       "0.9999999999"};
  static const char* kShapes[] = {"[]", "3", "\"plan\"", "null", "{\"dns\": 0.1}",
                                  "{\"dns\": []}", "{}", ""};
  if (rng.chance(0.05)) return kShapes[rng.uniform(std::size(kShapes))];

  std::vector<PlanEntry> entries;
  const util::Json base = sample_plan().to_json();
  for (const auto& [group, members] : base.fields()) {
    for (const auto& [key, value] : members.fields()) {
      entries.push_back({group, key, value.dump()});
    }
  }
  const size_t edits = rng.uniform(4);
  for (size_t n = 0; n < edits; ++n) {
    PlanEntry& e = entries[rng.uniform(entries.size())];
    switch (rng.uniform(6)) {
      case 0: e.key = misspell(e.key, rng); break;
      case 1: e.group = misspell(e.group, rng); break;
      case 2: entries.push_back({e.group, "bogus", "0.1"}); break;
      case 3: e.value = kWrongTypes[rng.uniform(std::size(kWrongTypes))]; break;
      case 4: e.value = kEdgeValues[rng.uniform(std::size(kEdgeValues))]; break;
      default: entries.push_back({"bogus", e.key, e.value}); break;
    }
  }
  std::string text = render(entries);
  if (rng.chance(0.3)) {
    const size_t flips = 1 + rng.uniform(4);
    for (size_t n = 0; n < flips; ++n) {
      text[rng.uniform(text.size())] = static_cast<char>(rng.uniform(256));
    }
  }
  if (rng.chance(0.2)) text.resize(rng.uniform(text.size()));
  return text;
}

TEST(FaultPlanFuzz, EveryInputIsRefusedOrAValidPlanThatRoundTrips) {
  util::Rng rng = util::Rng::substream(2626, "fault-plan-fuzz");
  const std::string path = ::testing::TempDir() + "fuzzed-plan.json";
  size_t accepted = 0, refused = 0;
  for (int round = 0; round < 600; ++round) {
    const std::string text = mutated_plan_text(rng);
    SCOPED_TRACE(::testing::PrintToString(text));
    std::optional<util::FaultPlan> plan;
    if (std::optional<util::Json> doc = util::Json::parse(text)) {
      plan = util::FaultPlan::from_json(*doc);
    }
    if (plan) {
      ++accepted;
      EXPECT_TRUE(plan->valid());
      std::optional<util::FaultPlan> again = util::FaultPlan::from_json(plan->to_json());
      ASSERT_TRUE(again.has_value());
      EXPECT_EQ(again->to_json(), plan->to_json());
    } else {
      ++refused;
    }
    // The file loader reads the same bytes and must reach the same verdict.
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
    std::optional<util::FaultPlan> loaded = util::FaultPlan::load_file(path);
    ASSERT_EQ(loaded.has_value(), plan.has_value());
    if (loaded) {
      EXPECT_EQ(loaded->to_json(), plan->to_json());
    }
  }
  std::remove(path.c_str());
  // The corpus reaches both verdicts, or it tests only one of them.
  EXPECT_GT(accepted, 50u);
  EXPECT_GT(refused, 50u);
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
