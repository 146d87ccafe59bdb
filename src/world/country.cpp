#include "world/country.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <mutex>

#include "util/logging.h"

namespace gam::world {

namespace {

// Synthetic vantage countries live outside the static table so all() — and
// with it every legacy world — is untouched by scale mode. A deque keeps
// references stable across registration; the atomic count lets lock-free
// readers see only fully-constructed entries.
std::mutex g_synthetic_mu;
std::deque<CountryInfo>& synthetic_storage() {
  static std::deque<CountryInfo> storage;
  return storage;
}
std::atomic<size_t> g_synthetic_count{0};

CountryInfo make_synthetic(size_t index) {
  CountryInfo ci;
  ci.code = CountryDb::synthetic_code(index);
  ci.name = "Vantage " + ci.code;
  // Golden-angle spread: successive indices land far apart on the globe, so
  // SOL constraints between synthetic vantages stay geographically
  // interesting at any country count.
  double lat = -54.0 + std::fmod(static_cast<double>(index) * 47.9, 110.0);
  double lon = -180.0 + std::fmod(static_cast<double>(index) * 137.50776, 360.0);
  static constexpr geo::Continent kContinents[] = {
      geo::Continent::Asia,         geo::Continent::Europe, geo::Continent::Africa,
      geo::Continent::NorthAmerica, geo::Continent::SouthAmerica,
      geo::Continent::Oceania,
  };
  ci.continent = kContinents[index % (sizeof kContinents / sizeof kContinents[0])];
  static constexpr PolicyType kPolicies[] = {PolicyType::CS, PolicyType::PA, PolicyType::AC,
                                             PolicyType::TA, PolicyType::NR};
  ci.policy = kPolicies[index % (sizeof kPolicies / sizeof kPolicies[0])];
  ci.policy_enacted = index % 3 != 0;
  ci.cities = {{ci.name + " City", ci.code, {lat, lon}}};
  std::string lower;
  for (char c : ci.code) lower.push_back(static_cast<char>(std::tolower(c)));
  ci.cctld = lower;
  ci.gov_tlds = {"gov." + lower};
  return ci;
}

}  // namespace

int policy_strictness(PolicyType p) {
  switch (p) {
    case PolicyType::CS: return 4;
    case PolicyType::PA: return 3;
    case PolicyType::AC: return 2;
    case PolicyType::TA: return 1;
    case PolicyType::NR: return 0;
    case PolicyType::Unknown: return -1;
  }
  return -1;
}

std::string policy_name(PolicyType p) {
  switch (p) {
    case PolicyType::CS: return "CS";
    case PolicyType::PA: return "PA";
    case PolicyType::AC: return "AC";
    case PolicyType::TA: return "TA";
    case PolicyType::NR: return "NR";
    case PolicyType::Unknown: return "--";
  }
  return "--";
}

const CountryDb& CountryDb::instance() {
  static const CountryDb db;
  return db;
}

const CountryInfo* CountryDb::find(std::string_view code) const {
  for (const auto& c : countries_) {
    if (c.code == code) return &c;
  }
  const size_t n = g_synthetic_count.load(std::memory_order_acquire);
  const std::deque<CountryInfo>& synth = synthetic_storage();
  for (size_t i = 0; i < n; ++i) {
    if (synth[i].code == code) return &synth[i];
  }
  return nullptr;
}

void CountryDb::ensure_synthetic(size_t count) {
  std::lock_guard<std::mutex> lock(g_synthetic_mu);
  std::deque<CountryInfo>& synth = synthetic_storage();
  while (synth.size() < count) synth.push_back(make_synthetic(synth.size()));
  size_t cur = g_synthetic_count.load(std::memory_order_relaxed);
  if (synth.size() > cur) g_synthetic_count.store(synth.size(), std::memory_order_release);
}

std::string CountryDb::synthetic_code(size_t index) {
  static const char kDigits[] = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ";
  std::string code = "V??";
  code[1] = kDigits[(index / 36) % 36];
  code[2] = kDigits[index % 36];
  return code;
}

const CountryInfo& CountryDb::at(std::string_view code) const {
  const CountryInfo* c = find(code);
  if (!c) {
    util::log_error("world", "unknown country code: " + std::string(code));
    std::abort();
  }
  return *c;
}

const std::vector<CountryInfo>& CountryDb::all() const { return countries_; }

std::vector<const CountryInfo*> CountryDb::by_continent(geo::Continent cont) const {
  std::vector<const CountryInfo*> out;
  for (const auto& c : countries_) {
    if (c.continent == cont) out.push_back(&c);
  }
  return out;
}

double CountryDb::distance_km(std::string_view code_a, std::string_view code_b) const {
  return geo::haversine_km(at(code_a).primary_city().coord, at(code_b).primary_city().coord);
}

bool is_source_country(std::string_view code) {
  const auto& s = source_countries();
  return std::find(s.begin(), s.end(), code) != s.end();
}

}  // namespace gam::world
