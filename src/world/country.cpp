#include "world/country.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <optional>

#include "util/logging.h"

namespace gam::world {

namespace {

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

/// Every synthetic country, indexed like its code. It lives outside the
/// static table so all(), and with it every paper world, never sees it.
const std::vector<CountryInfo>& synthetic_table() {
  static const std::vector<CountryInfo> table = [] {
    std::vector<CountryInfo> countries;
    countries.reserve(CountryDb::kSyntheticCountries);
    for (size_t i = 0; i < CountryDb::kSyntheticCountries; ++i) {
      countries.push_back(make_synthetic(i));
    }
    return countries;
  }();
  return table;
}

/// The index a synthetic_code() names: "V" and two digits of [0-9A-Z].
std::optional<size_t> synthetic_index(std::string_view code) {
  if (code.size() != 3 || code[0] != 'V') return std::nullopt;
  size_t index = 0;
  for (char c : code.substr(1)) {
    size_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<size_t>(c - '0');
    } else if (c >= 'A' && c <= 'Z') {
      digit = static_cast<size_t>(c - 'A') + 10;
    } else {
      return std::nullopt;
    }
    index = index * 36 + digit;
  }
  return index;
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
  if (std::optional<size_t> index = synthetic_index(code)) return &synthetic_table()[*index];
  for (const auto& c : countries_) {
    if (c.code == code) return &c;
  }
  return nullptr;
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

}  // namespace gam::world
