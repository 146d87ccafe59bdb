// The generated world: every substrate instantiated and wired together.
//
// A World owns the simulated Internet (topology, AS registry, DNS zones,
// CDN catalog), the simulated web (universe of websites), the measurement
// platforms (Atlas probe fleet), the geolocation knowledge (IPmap-like DB
// with injected errors, published latency tables), plus the study inputs
// (top lists, Tranco, volunteer profiles, per-country target lists).
// generate_world() is deterministic in the seed.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cdn/cdn.h"
#include "core/session.h"
#include "core/target_selection.h"
#include "dns/resolver.h"
#include "dns/zone.h"
#include "geoloc/reference_latency.h"
#include "ipmap/geodb.h"
#include "net/asn.h"
#include "net/topology.h"
#include "probe/atlas.h"
#include "web/website.h"

namespace gam::worldgen {

struct WorldConfig {
  uint64_t seed = 42;

  // GammaShard scale mode (`--countries` / `--sites`). scale_countries > 0
  // replaces the paper's 23 vantage countries with that many synthetic ones
  // ("V00"...), with Zipf-ranked Tranco-style toplists sized so the whole
  // study covers ~scale_sites regional sites (0 = 100 per country). Both
  // knobs are deterministic in the seed; 0/0 is the legacy paper world,
  // byte-identical to before these knobs existed.
  size_t scale_countries = 0;
  size_t scale_sites = 0;
};

struct World {
  WorldConfig config;

  // Substrates.
  net::Topology topology;
  net::AsRegistry registry;
  dns::ZoneStore zones;
  std::unique_ptr<dns::Resolver> resolver;  // views `zones`
  cdn::Catalog cdn;
  web::WebUniverse universe;
  probe::AtlasNetwork atlas;
  ipmap::GeoDatabase geodb;
  geoloc::ReferenceLatency reference;

  // Wiring produced during generation.
  std::map<std::string, net::NodeId> core_router;  // country -> primary core router
  std::map<std::string, uint32_t> hosting_asn;     // country -> local hosting AS
  std::vector<core::VolunteerProfile> volunteers;  // one per source country

  // Study inputs.
  core::TargetSelectionInputs selection;              // universe ptr set
  std::map<std::string, core::TargetList> targets;    // per-country T_web
  size_t targets_before_optout = 0;                   // §5's 2005
  // Measurement countries in study order: the paper's 23 in the legacy
  // world, the synthetic "V.." set in scale mode.
  std::vector<std::string> vantage_countries;

  core::GammaEnv env() const {
    core::GammaEnv e;
    e.universe = &universe;
    e.resolver = resolver.get();
    e.topology = &topology;
    return e;
  }

  const core::VolunteerProfile& volunteer(std::string_view country) const;
};

/// Build the full calibrated world. Deterministic in cfg.seed.
std::unique_ptr<World> generate_world(const WorldConfig& cfg = {});

/// The measurement countries of the world `cfg` builds, in study order: the
/// paper's 23, or cfg.scale_countries synthetic "V.." codes. Builds nothing.
std::vector<std::string> vantage_countries(const WorldConfig& cfg);

}  // namespace gam::worldgen
