// Shared state between the world-generation stages. Internal to worldgen.
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "worldgen/calibration.h"
#include "worldgen/world.h"

namespace gam::worldgen::internal {

/// Site-count plan for one country's web stage. Legacy values reproduce the
/// paper's constants; scale mode derives them from --sites/--countries.
struct ScalePlan {
  bool enabled = false;   // true once scale_countries > 0
  size_t reg_sites = 50;  // selector T_reg budget per country
  size_t gov_sites = 50;  // selector T_gov budget per country
  size_t candidates = 70; // regional candidates generated per country
  size_t ranked = 55;     // candidates entering the ranked toplist
};

struct Builder {
  const WorldConfig* cfg = nullptr;
  World* w = nullptr;
  util::Rng rng;
  uint32_t next_asn = 100;

  // Effective vantage set, filled by prepare_scale() before stage 1: the
  // paper's 23 calibration rows in the legacy world, seed-derived synthetic
  // rows in a scaled one. Stages iterate these — never calibration() or
  // source_countries() directly — so one code path serves both worlds.
  ScalePlan scale;
  std::vector<CountryCalibration> cals;
  std::vector<std::string> vantage;  // cals[i].code, study order
  // Every country with routers/ASes in this world: the static CountryDb in
  // both modes, plus the synthetic vantage countries in scale mode.
  std::vector<const world::CountryInfo*> map_countries;

  const CountryCalibration& cal_for(std::string_view code) const;

  // Tracker machinery (filled by build_trackers).
  // registrable domain -> its FQDNs.
  std::map<std::string, std::vector<std::string>> fqdns;
  // One tracker FQDN a source country's sites may embed, as that country's
  // GeoDNS answers it.
  struct PoolEntry {
    const std::string* fqdn = nullptr;  // owned by `fqdns`
    double weight = 1.0;                // embed weight (majors weigh more)
    bool us_hosted = false;             // answered from a US PoP (§6.3)
  };
  // Per source country: tracker FQDNs that steer abroad / stay local.
  std::map<std::string, std::vector<PoolEntry>> foreign_pool;
  std::map<std::string, std::vector<PoolEntry>> local_pool;

  // Addresses whose IPmap record must be overwritten after ground truth is
  // ingested (the planted error cases + random DB noise).
  struct PlannedError {
    net::IPv4 ip = 0;
    std::string claim_country;
    std::string claim_city;
  };
  std::vector<PlannedError> planned_errors;
  // Addresses IPmap simply has no record for (coverage gaps).
  std::set<net::IPv4> coverage_gaps;

  uint32_t fresh_asn() { return next_asn++; }
};

/// Stage 0: resolve the vantage set + per-country site plan (legacy or
/// scaled) and register synthetic countries with the CountryDb.
void prepare_scale(Builder& b);

/// Stage 1: countries' routers and links, ISPs, cloud providers, Atlas fleet.
void build_infrastructure(Builder& b);

/// Stage 2: tracker deployments, GeoDNS steering, planned IPmap errors.
void build_trackers(Builder& b);

/// Stage 3: websites, top lists, Tranco, target selection inputs.
void build_web(Builder& b);

/// Helper: server node + address in `country` on AS `asn`, linked to the
/// country's core router; A record + optional PTR; returns the address.
net::IPv4 add_server(Builder& b, const std::string& fqdn, const std::string& country,
                     uint32_t asn, bool ptr_with_hint, bool ptr_at_all);

}  // namespace gam::worldgen::internal
