// Stage 2: the tracker hosting fabric — FQDNs, deployments, GeoDNS steering,
// and the planted IPmap errors the constraint pipeline must catch.
#include <algorithm>
#include <set>

#include "trackers/org_db.h"
#include "worldgen/internal.h"

namespace gam::worldgen::internal {

namespace {

/// Steering decision for one tracker registrable domain in one country.
struct Steer {
  std::string dest;        // hosting country ("" = the source country itself)
  std::string claim_dest;  // non-empty: IPmap will *claim* this country instead
  std::string claim_city;  // city for the wrong claim
};

const std::set<std::string>& major_orgs() {
  static const std::set<std::string> kMajors = {"Google",  "Facebook", "Twitter",
                                                "Amazon",  "Yahoo",    "Microsoft"};
  return kMajors;
}

// Organizations whose trackers only appear in one country's data (§6.5).
const std::map<std::string, std::string>& exclusive_orgs() {
  static const std::map<std::string, std::string> kExclusive = {
      {"Jubnaadserve", "JO"}, {"OneTag", "JO"},       {"optAd360", "JO"},
      {"Adzily", "QA"},       {"KigaliMetrics", "RW"}, {"PearlAds", "UG"},
      {"LankaMetrics", "LK"}, {"AdStudio", "LK"},      {"Ozone Project", "GB"},
      {"Captify", "GB"},      {"Adbrain", "GB"},
  };
  return kExclusive;
}

// The §6.5 hosting split: a handful of networks on the Google cloud, most
// mid-tier ad tech on the AWS-like provider, the giants on their own ASes.
std::string provider_for(const std::string& org) {
  if (org == "Google") return "GoogleNet";
  if (org == "Facebook") return "MetaNet";
  if (org == "Amazon") return "AWS-Sim";
  static const std::set<std::string> kOnGcp = {"Hotjar", "Matomo", "Segment", "Amplitude",
                                               "Mixpanel"};
  if (kOnGcp.count(org)) return "GCP-Sim";
  return util::fnv1a(org) % 10 < 6 ? "AWS-Sim" : "EdgeNet";
}

std::string pick_mix(const DestMix& mix, util::Rng& rng) {
  if (mix.empty()) return "FR";
  std::vector<double> weights;
  for (const auto& [dest, wgt] : mix) weights.push_back(wgt);
  size_t idx = rng.weighted(weights);
  return idx < mix.size() ? mix[idx].first : mix.front().first;
}

Steer decide_steer(const CountryCalibration& cal, const std::string& org, util::Rng& rng) {
  for (const auto& [o, dest] : cal.org_overrides) {
    if (o == org) return {dest, "", ""};
  }
  if (exclusive_orgs().count(org)) {
    // Regional trackers are, by the paper's construction, non-local: hosted
    // wherever this country's tail infrastructure sits.
    return {pick_mix(cal.tail_mix.empty() ? cal.hub_mix : cal.tail_mix, rng), "", ""};
  }
  if (major_orgs().count(org)) {
    if (!cal.majors_foreign) return {"", "", ""};  // served in-country
    // Google anchors the country's primary hub (it is on virtually every
    // tracked page, so its PoP choice *defines* the country's dominant flow
    // — Egypt->Germany, NZ->Australia, Rwanda/Uganda->Nairobi, §6.3/§7);
    // the other majors spread across the hub mix.
    if (org == "Google" && !cal.hub_mix.empty()) {
      const auto* best = &cal.hub_mix.front();
      for (const auto& entry : cal.hub_mix) {
        if (entry.second > best->second) best = &entry;
      }
      return {best->first, "", ""};
    }
    return {pick_mix(cal.hub_mix, rng), "", ""};
  }
  if (rng.chance(cal.tail_foreign_prob)) return {pick_mix(cal.tail_mix, rng), "", ""};
  return {"", "", ""};
}

// The documented IPmap error cases (§4.1.3).
void apply_error_cases(std::map<std::string, Steer>& by_country,
                       const std::string& registrable) {
  auto set_error = [&](const std::string& country, const std::string& actual,
                       const std::string& claim, const std::string& claim_city) {
    auto it = by_country.find(country);
    if (it == by_country.end()) return;
    it->second.dest = actual;
    it->second.claim_dest = claim;
    it->second.claim_city = claim_city;
  };
  if (registrable == "googleapis.com" || registrable == "gstatic.com") {
    // Pakistan: answered from Amsterdam, IPmap claimed Al Fujairah (UAE).
    set_error("PK", "NL", "AE", "Al Fujairah");
  }
  if (registrable == "google-analytics.com" || registrable == "googlevideo.com") {
    // Egypt: answered from Zurich, IPmap claimed Germany.
    set_error("EG", "CH", "DE", "Frankfurt");
  }
}

const std::vector<std::string>& subdomain_names() {
  static const std::vector<std::string> kSubs = {
      "www", "ads", "cdn", "static", "pixel", "sync", "track", "api",
      "tags", "collect", "stats", "s", "a", "beacon", "events", "metrics",
  };
  return kSubs;
}

}  // namespace

void build_trackers(Builder& b) {
  World& w = *b.w;
  util::Rng rng = b.rng.fork("trackers");
  const auto& db = world::CountryDb::instance();
  const auto& orgdb = trackers::OrgDb::instance();

  // ---- FQDNs per tracker registrable domain. ----
  std::map<std::string, double> fqdn_weight;  // embed weight per FQDN
  for (const auto& t : orgdb.tracker_domains()) {
    std::vector<std::string>& hosts = b.fqdns[t.domain];
    hosts.push_back(t.domain);  // the bare domain itself is contacted too
    size_t extra = major_orgs().count(t.org) ? 3 + rng.uniform(3) : 1 + rng.uniform(2);
    auto subs = rng.sample_indices(subdomain_names().size(), extra);
    for (size_t idx : subs) hosts.push_back(subdomain_names()[idx] + "." + t.domain);

    // Embed-probability weights, tuned so the Fig-8 organization ranking
    // comes out Google >> Twitter > Facebook > Amazon > Yahoo > the rest.
    double weight = 1.0;
    if (t.org == "Google") weight = 6.0;
    else if (t.org == "Twitter") weight = 4.0;
    else if (t.org == "Facebook") weight = 3.4;
    else if (t.org == "Amazon") weight = 3.2;
    else if (t.org == "Yahoo") weight = 3.0;
    else if (t.org == "Microsoft") weight = 2.0;
    else if (exclusive_orgs().count(t.org)) weight = 0.8;
    else if (!t.in_easylist) weight = 0.7;
    for (const auto& h : hosts) fqdn_weight[h] = weight;
  }
  // Chromedriver's background service endpoints must resolve (the browser
  // contacts them on every load); they ride on googleapis.com hosting.
  for (const char* noise : {"update.googleapis.com", "safebrowsing.googleapis.com",
                            "optimizationguide-pa.googleapis.com"}) {
    b.fqdns["googleapis.com"].push_back(noise);
    fqdn_weight[noise] = 0.05;
  }

  // ---- Steering decisions: one per (organization, country), shared by all
  // of the org's domains — a tracking network serves a whole country from
  // one deployment, which is what keeps a country's flows concentrated on a
  // few destinations (Fig 5). Each registrable domain gets a copy, with the
  // documented per-domain error cases overriding afterwards.
  std::map<std::string, std::map<std::string, Steer>> org_steer;  // org -> country -> steer
  for (const auto& org : orgdb.orgs()) {
    auto exclusive = exclusive_orgs().find(org.name);
    for (const auto& cal : b.cals) {
      if (exclusive != exclusive_orgs().end() && exclusive->second != cal.code) continue;
      org_steer[org.name][cal.code] = decide_steer(cal, org.name, rng);
    }
  }
  std::map<std::string, std::map<std::string, Steer>> steering;  // domain -> country -> steer
  for (const auto& t : orgdb.tracker_domains()) {
    auto& by_country = steering[t.domain];
    by_country = org_steer[t.org];
    apply_error_cases(by_country, t.domain);
  }

  // ---- Deployments + steered DNS records. ----
  // One PoP per (FQDN, hosting country, claimed country), shared by every
  // source country steered there — exactly how a PoP behaves — while a
  // planted error case stands on a PoP of its own. A registrable domain's
  // FQDNs all follow its steering, so the placements and each source
  // country's answer are worked out once per domain; no FQDN belongs to two
  // domains, so each FQDN's PoPs are its own.
  struct HostCountry {  // where a PoP stands, resolved once per country
    const world::CountryInfo* info = nullptr;
    cdn::PopKind kind = cdn::PopKind::Edge;
    net::NodeId core_router = net::kInvalidNode;
  };
  std::map<std::string, HostCountry> host_countries;
  auto host_country = [&](const std::string& code) -> const HostCountry* {
    auto [it, fresh] = host_countries.try_emplace(code);
    if (fresh) {
      static const std::set<std::string> kRegionCountries = {
          "US", "DE", "FR", "GB", "IE", "NL", "SG", "JP", "AU", "IN", "BR"};
      it->second = {&db.at(code),
                    kRegionCountries.count(code) ? cdn::PopKind::Region : cdn::PopKind::Edge,
                    w.core_router.at(code)};
    }
    return &it->second;
  };
  // One (hosting country, claimed country) a domain deploys to. The first
  // source country steered there supplies the steering decision the PoP's
  // draws read.
  struct Placement {
    const Steer* steer = nullptr;
    const HostCountry* host = nullptr;
  };
  auto deploy = [&](const std::string& provider, const Placement& at) -> net::IPv4 {
    const Steer& steer = *at.steer;
    const world::CountryInfo& country = *at.host->info;
    // The documented error cases were caught via their hostnames ("reverse
    // DNS information showed evidence for Amsterdam", §4.1.3) — their PTRs
    // must carry the city hint. Ordinary PoPs have hints ~75% of the time.
    bool with_hint = !steer.claim_dest.empty() || rng.chance(0.75);
    cdn::Deployment& d =
        w.cdn.deploy(provider, country, country.primary_city(), at.host->kind,
                     w.topology, w.registry, w.zones, at.host->core_router, with_hint);

    bool is_local_pop = steer.dest.empty();
    if (!steer.claim_dest.empty()) {
      // Planted database error: IPmap will claim the wrong place.
      b.planned_errors.push_back({d.ip, steer.claim_dest, steer.claim_city});
    } else if (!is_local_pop && rng.chance(0.10)) {
      // Background IPmap noise: claim a same-continent neighbor.
      auto continent_peers = db.by_continent(country.continent);
      if (continent_peers.size() > 1) {
        const world::CountryInfo* wrong;
        do {
          wrong = continent_peers[rng.uniform(continent_peers.size())];
        } while (wrong->code == country.code);
        b.planned_errors.push_back(
            {d.ip, wrong->code, wrong->primary_city().name});
      }
    } else if (rng.chance(0.08)) {
      b.coverage_gaps.insert(d.ip);  // IPmap simply has no record
    }
    return d.ip;
  };

  // One source country's answer for a domain's FQDNs.
  struct Answer {
    const std::string* country = nullptr;
    size_t placement = 0;                             // index into `placements`
    std::vector<Builder::PoolEntry>* pool = nullptr;  // its foreign or local pool
    bool us_hosted = false;
  };
  std::vector<Placement> placements;
  std::vector<Answer> answers;
  std::vector<net::IPv4> placement_ip;
  for (const auto& t : orgdb.tracker_domains()) {
    const std::string provider = provider_for(t.org);
    placements.clear();
    answers.clear();
    for (const auto& [country, steer] : steering[t.domain]) {
      const std::string& dest = steer.dest.empty() ? country : steer.dest;
      auto at = std::find_if(placements.begin(), placements.end(), [&](const Placement& p) {
        return p.host->info->code == dest && p.steer->claim_dest == steer.claim_dest;
      });
      const size_t index = static_cast<size_t>(at - placements.begin());
      if (at == placements.end()) placements.push_back({&steer, host_country(dest)});
      auto& pools = steer.dest.empty() ? b.local_pool : b.foreign_pool;
      answers.push_back({&country, index, &pools[country], dest == "US"});
    }
    if (answers.empty()) continue;
    for (const auto& fqdn : b.fqdns[t.domain]) {
      const double weight = fqdn_weight.at(fqdn);
      placement_ip.assign(placements.size(), 0);
      for (const Answer& a : answers) {
        net::IPv4& ip = placement_ip[a.placement];
        if (ip == 0) ip = deploy(provider, placements[a.placement]);
        w.zones.add_steered(fqdn, *a.country, ip);
        a.pool->push_back({&fqdn, weight, a.us_hosted});
      }
      w.zones.add_steered_default(fqdn, placement_ip[answers.front().placement]);
    }
  }

  // ---- Public (non-tracking) CDNs: foreign, but not trackers. ----
  // These feed the §5 gap between confirmed non-local domains (≈4.7K) and
  // tracker-associated ones (≈2.7K).
  const std::vector<std::string> public_cdns = {"jsdelivr-sim.net", "fonts-sim.net",
                                                "unpkg-sim.net", "jquery-sim.com"};
  const std::vector<std::string> cdn_hubs = {"US", "DE", "GB", "SG"};
  for (const auto& cdn_domain : public_cdns) {
    std::map<std::string, net::IPv4> hub_ip;
    for (const auto& hub : cdn_hubs) {
      const world::CountryInfo& country = db.at(hub);
      cdn::Deployment& d = w.cdn.deploy("EdgeNet", country, country.primary_city(),
                                        cdn::PopKind::Region, w.topology, w.registry,
                                        w.zones, w.core_router.at(hub), true);
      hub_ip[hub] = d.ip;
    }
    for (const auto& cal : b.cals) {
      // Each country fetches from its geographically nearest CDN hub.
      std::string best;
      double best_km = 1e18;
      for (const auto& hub : cdn_hubs) {
        double km = db.distance_km(cal.code, hub);
        if (km < best_km) {
          best_km = km;
          best = hub;
        }
      }
      w.zones.add_steered(cdn_domain, cal.code, hub_ip.at(best));
    }
    w.zones.add_steered_default(cdn_domain, hub_ip.at("US"));
  }
}

}  // namespace gam::worldgen::internal
