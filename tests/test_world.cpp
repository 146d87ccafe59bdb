#include "world/country.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "worldgen/world.h"

namespace gam::world {
namespace {

TEST(World, TwentyThreeSourceCountries) {
  EXPECT_EQ(source_countries().size(), 23u);
  std::set<std::string> unique(source_countries().begin(), source_countries().end());
  EXPECT_EQ(unique.size(), 23u);
}

TEST(World, SourceCountriesAllExist) {
  // The paper world measures from exactly the source countries.
  const std::vector<std::string> vantage = worldgen::vantage_countries({});
  auto measured = [&](std::string_view code) {
    return std::find(vantage.begin(), vantage.end(), code) != vantage.end();
  };
  for (const auto& code : source_countries()) {
    EXPECT_NE(CountryDb::instance().find(code), nullptr) << code;
    EXPECT_TRUE(measured(code));
  }
  EXPECT_FALSE(measured("FR"));  // destination, not measured
  EXPECT_FALSE(measured("XX"));
}

TEST(World, Table1OrderStartsStrictest) {
  // Table 1 is sorted by decreasing strictness: AZ (CS) first, LB (NR) last.
  EXPECT_EQ(source_countries().front(), "AZ");
  EXPECT_EQ(source_countries().back(), "LB");
}

TEST(World, PolicyAssignmentsMatchTable1) {
  const auto& db = CountryDb::instance();
  EXPECT_EQ(db.at("AZ").policy, PolicyType::CS);
  EXPECT_EQ(db.at("EG").policy, PolicyType::PA);
  EXPECT_EQ(db.at("RU").policy, PolicyType::AC);
  EXPECT_EQ(db.at("US").policy, PolicyType::TA);
  EXPECT_EQ(db.at("LB").policy, PolicyType::NR);
  // Not-yet-enacted laws: India, Pakistan, Thailand (§7).
  EXPECT_FALSE(db.at("IN").policy_enacted);
  EXPECT_FALSE(db.at("PK").policy_enacted);
  EXPECT_FALSE(db.at("TH").policy_enacted);
  EXPECT_TRUE(db.at("JP").policy_enacted);
}

TEST(World, PolicyStrictnessOrdering) {
  EXPECT_GT(policy_strictness(PolicyType::CS), policy_strictness(PolicyType::PA));
  EXPECT_GT(policy_strictness(PolicyType::PA), policy_strictness(PolicyType::AC));
  EXPECT_GT(policy_strictness(PolicyType::AC), policy_strictness(PolicyType::TA));
  EXPECT_GT(policy_strictness(PolicyType::TA), policy_strictness(PolicyType::NR));
  EXPECT_EQ(policy_name(PolicyType::CS), "CS");
  EXPECT_EQ(policy_name(PolicyType::Unknown), "--");
}

TEST(World, DestinationCountriesPresent) {
  const auto& db = CountryDb::instance();
  // Every country the paper's figures name as a destination must exist.
  for (const char* code : {"FR", "DE", "KE", "MY", "SG", "HK", "OM", "IT", "NL",
                           "IL", "IE", "BG", "BR", "FI", "BE", "GH", "TR"}) {
    EXPECT_NE(db.find(code), nullptr) << code;
  }
}

TEST(World, WideEnoughForSixtyDestinationCountries) {
  EXPECT_GE(CountryDb::instance().all().size(), 60u);
}

TEST(World, FindUnknownReturnsNull) {
  EXPECT_EQ(CountryDb::instance().find("ZZ"), nullptr);
}

TEST(World, GovTldsForAllSourceCountries) {
  for (const auto& code : source_countries()) {
    EXPECT_FALSE(CountryDb::instance().at(code).gov_tlds.empty()) << code;
  }
  // Argentina uses both gob.ar and gov.ar (§3.2).
  EXPECT_EQ(CountryDb::instance().at("AR").gov_tlds.size(), 2u);
}

TEST(World, DistancesSane) {
  const auto& db = CountryDb::instance();
  EXPECT_NEAR(db.distance_km("GB", "FR"), 344, 20);
  EXPECT_NEAR(db.distance_km("NZ", "AU"), 2155, 80);
  EXPECT_GT(db.distance_km("US", "AU"), 12000);
  EXPECT_DOUBLE_EQ(db.distance_km("US", "US"), 0.0);
}

TEST(World, EveryCountryWellFormed) {
  for (const auto& c : CountryDb::instance().all()) {
    EXPECT_EQ(c.code.size(), 2u) << c.name;
    EXPECT_FALSE(c.name.empty());
    EXPECT_FALSE(c.cities.empty()) << c.code;
    EXPECT_FALSE(c.cctld.empty()) << c.code;
    for (const auto& city : c.cities) {
      EXPECT_GE(city.coord.lat, -90.0);
      EXPECT_LE(city.coord.lat, 90.0);
      EXPECT_GE(city.coord.lon, -180.0);
      EXPECT_LE(city.coord.lon, 180.0);
      EXPECT_EQ(city.iata.size(), 3u) << c.code << " " << city.name;
    }
  }
}

TEST(World, UniqueCountryCodes) {
  std::set<std::string> codes;
  for (const auto& c : CountryDb::instance().all()) {
    EXPECT_TRUE(codes.insert(c.code).second) << "duplicate: " << c.code;
  }
}

TEST(World, ContinentSpread) {
  const auto& db = CountryDb::instance();
  EXPECT_GE(db.by_continent(geo::Continent::Africa).size(), 4u);
  EXPECT_GE(db.by_continent(geo::Continent::Asia).size(), 11u);
  EXPECT_GE(db.by_continent(geo::Continent::Oceania).size(), 2u);
  EXPECT_GE(db.by_continent(geo::Continent::SouthAmerica).size(), 1u);
}

}  // namespace
}  // namespace gam::world
