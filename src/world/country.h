// Static world knowledge: countries, their cities, and their data-localization
// policy class.
//
// The database covers the paper's 23 measurement ("source") countries in
// Table-1 order plus every destination country its figures mention, and
// enough additional countries that destination traceroutes span the ">60
// destination countries" of §5. Coordinates are capital/major-hub city
// centroids — precise enough for the 133 km/ms SOL math at inter-country
// scales.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "geo/coord.h"

namespace gam::world {

/// Data-localization policy classes of Table 1, in decreasing strictness.
///   CS: consent of subject required for transfer
///   PA: prior government approval / registration
///   AC: transfers allowed to pre-approved countries
///   TA: transfers allowed if comparable protections exist abroad
///   NR: no restrictions
enum class PolicyType { CS, PA, AC, TA, NR, Unknown };

/// Strictness rank: CS=4 (strictest) ... NR=0; Unknown=-1.
int policy_strictness(PolicyType p);
std::string policy_name(PolicyType p);

/// A city that can host vantage points, routers, or server deployments.
struct City {
  std::string name;
  std::string iata;  // airport code, reused as the rDNS geo-hint token
  geo::Coord coord;
};

struct CountryInfo {
  std::string code;  // ISO 3166-1 alpha-2
  std::string name;
  geo::Continent continent;
  std::vector<City> cities;  // cities[0] is the primary vantage/hub city
  PolicyType policy = PolicyType::Unknown;
  bool policy_enacted = false;
  std::vector<std::string> gov_tlds;  // e.g. {"gov.au"}; empty if not modeled
  std::string cctld;                  // e.g. "au"

  const City& primary_city() const { return cities.front(); }
};

/// Read-only registry over the static data. Lookup is by ISO code.
class CountryDb {
 public:
  static const CountryDb& instance();

  const CountryInfo* find(std::string_view code) const;
  /// Lookup that must succeed; terminates on unknown code (programming error).
  const CountryInfo& at(std::string_view code) const;
  /// The static countries only — synthetic registrations never appear here,
  /// so legacy worlds built in the same process stay byte-identical.
  const std::vector<CountryInfo>& all() const;
  std::vector<const CountryInfo*> by_continent(geo::Continent c) const;

  /// Distance in km between the primary cities of two countries.
  double distance_km(std::string_view code_a, std::string_view code_b) const;

  /// Scale mode: make the first `count` synthetic vantage countries
  /// ("V00".."VZZ"; 3-char codes cannot collide with ISO alpha-2)
  /// resolvable through find()/at(). Each country is a pure function of its
  /// index — geography, continent, policy class — independent of the world
  /// seed, so two scaled worlds agree on the map. Idempotent and monotonic;
  /// call before worker threads start (worldgen does, during build).
  static void ensure_synthetic(size_t count);
  static std::string synthetic_code(size_t index);

 private:
  CountryDb();
  std::vector<CountryInfo> countries_;
};

/// The paper's 23 measurement countries, in Table-1 order (top = strictest).
const std::vector<std::string>& source_countries();

/// True if `code` is one of the 23 measurement countries.
bool is_source_country(std::string_view code);

}  // namespace gam::world
