// Stage 0: the GammaShard scale plan. Resolves which countries the study
// measures and how many sites each gets.
//
// Legacy mode (scale_countries == 0) mirrors the paper exactly: the 23
// calibration rows, the constants build_web always used, all() as the map.
// Scale mode measures from the CountryDb's first `scale_countries` synthetic
// vantage countries and derives a calibration row for each from the world
// seed —
// destination mixes point at the real transit hubs, so SOL constraints,
// rDNS hints, and the whole geolocation funnel stay meaningful at any
// country count.
#include <algorithm>

#include "util/logging.h"
#include "worldgen/internal.h"

namespace gam::worldgen {

std::vector<std::string> vantage_countries(const WorldConfig& cfg) {
  if (cfg.scale_countries == 0) return world::source_countries();
  std::vector<std::string> codes;
  for (size_t i = 0; i < cfg.scale_countries; ++i) {
    codes.push_back(world::CountryDb::synthetic_code(i));
  }
  return codes;
}

namespace internal {

namespace {

// Hub destinations synthetic calibrations steer to — all members of
// build_infra's transit mesh, so the routes synthetic trackers exercise are
// the same ones the paper's countries use.
const std::vector<std::string>& synthetic_hubs() {
  static const std::vector<std::string> kHubs = {"US", "DE", "GB", "FR", "NL",
                                                 "SG", "JP", "IN", "BR", "KE"};
  return kHubs;
}

CountryCalibration synthetic_calibration(const std::string& code, size_t index,
                                         const ScalePlan& plan, util::Rng& parent) {
  util::Rng rng = parent.fork("cal-" + code);
  const auto& hubs = synthetic_hubs();

  CountryCalibration c;
  c.code = code;
  c.reg_prevalence = rng.uniform_real(35.0, 95.0);
  c.gov_prevalence = rng.uniform_real(15.0, 85.0);
  c.tps_mean = rng.uniform_real(2.0, 8.0);
  c.tps_sigma = rng.uniform_real(0.8, 2.0);
  c.load_failure = rng.uniform_real(0.02, 0.12);
  c.traceroute_opt_out = rng.chance(0.03);
  c.traceroute_blocked = !c.traceroute_opt_out && rng.chance(0.08);
  c.majors_foreign = rng.chance(0.6);
  // Majors concentrate on one primary hub; the long tail spreads over three.
  const std::string& primary = hubs[index % hubs.size()];
  const std::string& second = hubs[(index + 3) % hubs.size()];
  const std::string& third = hubs[(index + 7) % hubs.size()];
  c.hub_mix = {{primary, 0.85}, {second, 0.10}, {third, 0.05}};
  c.tail_foreign_prob = rng.uniform_real(0.4, 0.8);
  c.tail_mix = {{primary, 0.5}, {second, 0.3}, {third, 0.2}};
  c.gov_sites = static_cast<int>(plan.gov_sites);
  c.site_doc_foreign_prob = rng.uniform_real(0.02, 0.10);
  static constexpr probe::OsKind kOses[] = {probe::OsKind::Linux, probe::OsKind::Windows,
                                            probe::OsKind::MacOs};
  c.os = kOses[index % (sizeof kOses / sizeof kOses[0])];
  return c;
}

}  // namespace

const CountryCalibration& Builder::cal_for(std::string_view code) const {
  for (const auto& c : cals) {
    if (c.code == code) return c;
  }
  util::log_error("worldgen", "no calibration for country: " + std::string(code));
  std::abort();
}

void prepare_scale(Builder& b) {
  const WorldConfig& cfg = *b.cfg;
  const auto& db = world::CountryDb::instance();
  for (const auto& c : db.all()) b.map_countries.push_back(&c);
  b.vantage = vantage_countries(cfg);

  if (cfg.scale_countries == 0) {
    b.scale.enabled = false;
    b.cals = calibration();
  } else {
    const size_t countries = cfg.scale_countries;
    const size_t sites = cfg.scale_sites ? cfg.scale_sites : countries * 100;
    b.scale.enabled = true;
    // Per-country budgets: the study totals ~`sites` regional targets.
    b.scale.reg_sites = std::max<size_t>(3, sites / countries);
    b.scale.gov_sites = std::clamp<size_t>(b.scale.reg_sites / 10, 2, 10);
    b.scale.candidates = b.scale.reg_sites + std::max<size_t>(5, b.scale.reg_sites / 5);
    b.scale.ranked = b.scale.reg_sites + 5;

    util::Rng cal_rng = b.rng.fork("scale-cal");
    for (size_t i = 0; i < countries; ++i) {
      b.cals.push_back(synthetic_calibration(b.vantage[i], i, b.scale, cal_rng));
      b.map_countries.push_back(&db.at(b.vantage[i]));
    }
  }
  b.w->vantage_countries = b.vantage;
}

}  // namespace internal
}  // namespace gam::worldgen
