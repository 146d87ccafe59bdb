#include "world/country.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <thread>
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

// The first synthetic lookups race from four threads: each gets the same
// 1,296 distinct entries, and TSan sees the table built once.
TEST(World, ConcurrentFirstSyntheticLookupsAgree) {
  std::vector<std::vector<const CountryInfo*>> seen(4);
  std::vector<std::thread> threads;
  for (auto& mine : seen) {
    threads.emplace_back([&mine] {
      for (size_t i = 0; i < CountryDb::kSyntheticCountries; ++i) {
        mine.push_back(CountryDb::instance().find(CountryDb::synthetic_code(i)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& mine : seen) EXPECT_EQ(mine, seen.front());
  std::set<const CountryInfo*> distinct(seen.front().begin(), seen.front().end());
  EXPECT_EQ(distinct.size(), CountryDb::kSyntheticCountries);
  for (size_t i = 0; i < CountryDb::kSyntheticCountries; ++i) {
    ASSERT_NE(seen.front()[i], nullptr) << i;
    EXPECT_EQ(seen.front()[i]->code, CountryDb::synthetic_code(i));
  }
}

// Every process resolves every synthetic "V.." code without building a
// scale world, so a scale study's store reports in any process.
TEST(World, SyntheticCountriesResolveInEveryProcess) {
  const auto& db = CountryDb::instance();
  const CountryInfo* v00 = db.find("V00");
  ASSERT_NE(v00, nullptr);
  EXPECT_EQ(v00->name, "Vantage V00");
  EXPECT_EQ(v00->continent, geo::Continent::Asia);
  EXPECT_EQ(v00->policy, PolicyType::CS);
  EXPECT_FALSE(v00->policy_enacted);
  EXPECT_EQ(v00->cctld, "v00");
  EXPECT_EQ(v00->gov_tlds, std::vector<std::string>{"gov.v00"});
  ASSERT_EQ(v00->cities.size(), 1u);
  EXPECT_EQ(v00->cities[0].name, "Vantage V00 City");
  EXPECT_EQ(v00->cities[0].iata, "V00");
  EXPECT_DOUBLE_EQ(v00->cities[0].coord.lat, -54.0);
  EXPECT_DOUBLE_EQ(v00->cities[0].coord.lon, -180.0);

  const CountryInfo* v05 = db.find("V05");
  ASSERT_NE(v05, nullptr);
  EXPECT_EQ(v05->continent, geo::Continent::Oceania);
  EXPECT_EQ(v05->policy, PolicyType::CS);
  EXPECT_TRUE(v05->policy_enacted);
  EXPECT_EQ(v05->gov_tlds, std::vector<std::string>{"gov.v05"});
  EXPECT_NEAR(v05->primary_city().coord.lat, -34.5, 1e-9);
  EXPECT_NEAR(v05->primary_city().coord.lon, 147.5388, 1e-9);

  const CountryInfo* vzz = db.find("VZZ");  // index 1295, the last code
  ASSERT_NE(vzz, nullptr);
  EXPECT_EQ(vzz->name, "Vantage VZZ");
  EXPECT_EQ(vzz->continent, geo::Continent::Oceania);
  EXPECT_EQ(vzz->policy, PolicyType::CS);
  EXPECT_TRUE(vzz->policy_enacted);
  EXPECT_EQ(vzz->gov_tlds, std::vector<std::string>{"gov.vzz"});
  EXPECT_NEAR(vzz->primary_city().coord.lat, 46.5, 1e-9);
  EXPECT_NEAR(vzz->primary_city().coord.lon, 52.5492, 1e-9);

  EXPECT_EQ(&db.at("V05"), v05);
  for (const char* code : {"V0", "V000", "v00", "V0a", "W00", "V", "", "V-1"}) {
    EXPECT_EQ(db.find(code), nullptr) << code;
  }
  // all() is the static table alone, so paper worlds never see a "V.." code.
  EXPECT_EQ(db.all().size(), 77u);
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
