// World-generation orchestration: run the three build stages, ingest ground
// truth into the IPmap-like database, apply the planned errors, and assemble
// the study inputs (target lists, opt-outs).
#include "worldgen/world.h"

#include <set>

#include "util/logging.h"
#include "worldgen/internal.h"

namespace gam::worldgen {

using internal::Builder;

const core::VolunteerProfile& World::volunteer(std::string_view country) const {
  for (const auto& v : volunteers) {
    if (v.country == country) return v;
  }
  util::log_error("worldgen", "no volunteer for country: " + std::string(country));
  std::abort();
}

namespace {

geo::Coord city_coord(const world::CountryInfo& info, const std::string& city_name) {
  for (const auto& c : info.cities) {
    if (c.name == city_name) return c.coord;
  }
  return info.primary_city().coord;
}

}  // namespace

std::unique_ptr<World> generate_world(const WorldConfig& cfg) {
  auto w = std::make_unique<World>();
  w->config = cfg;

  Builder b;
  b.cfg = &cfg;
  b.w = w.get();
  b.rng = util::Rng(cfg.seed);

  internal::prepare_scale(b);
  internal::build_infrastructure(b);
  internal::build_trackers(b);
  internal::build_web(b);
  w->topology.freeze();

  // ---- Published latency tables (independent noise stream). ----
  w->reference = geoloc::ReferenceLatency::generate(b.rng.fork("reference"));

  // ---- IPmap ground truth + errors. ----
  for (size_t i = 0; i < w->topology.node_count(); ++i) {
    const net::Node& node = w->topology.node(static_cast<net::NodeId>(i));
    if (node.ip == 0) continue;
    if (b.coverage_gaps.count(node.ip)) continue;
    w->geodb.set_location(node.ip, {node.country, node.city, node.coord});
  }
  const auto& db = world::CountryDb::instance();
  for (const auto& err : b.planned_errors) {
    const world::CountryInfo& info = db.at(err.claim_country);
    std::string city = err.claim_city.empty() ? info.primary_city().name : err.claim_city;
    w->geodb.inject_error(err.ip, {err.claim_country, city, city_coord(info, city)});
  }

  // ---- Resolver over the finished zones. ----
  w->resolver = std::make_unique<dns::Resolver>(w->zones);

  // ---- Target selection (§3.2). ----
  w->selection.universe = &w->universe;
  core::TargetSelector selector(w->selection);
  w->targets_before_optout = 0;
  for (const auto& code : b.vantage) {
    core::TargetList targets = selector.select(code, b.scale.reg_sites, b.scale.gov_sites);
    w->targets_before_optout += targets.all().size();
    w->targets[code] = std::move(targets);
  }

  // ---- Volunteer opt-outs (§5: 0.99% of websites). ----
  util::Rng optout_rng = b.rng.fork("optout");
  for (auto& volunteer : w->volunteers) {
    const core::TargetList& targets = w->targets.at(volunteer.country);
    for (const auto& domain : targets.all()) {
      if (optout_rng.chance(0.01)) volunteer.site_opt_outs.insert(domain);
    }
  }

  return w;
}

}  // namespace gam::worldgen
