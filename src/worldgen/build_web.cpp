// Stage 3: the synthetic web — websites (regional, government, global), the
// resources they embed, top-list providers, and the Tranco-like ranking.
#include <algorithm>
#include <cmath>
#include <set>

#include "trackers/org_db.h"
#include "util/strings.h"
#include "web/psl.h"
#include "worldgen/internal.h"

namespace gam::worldgen::internal {

namespace {

const std::vector<std::string>& topics() {
  static const std::vector<std::string> kTopics = {
      "news",    "shop",   "bank",   "sport",  "tv",      "radio",  "forum",
      "travel",  "food",   "auto",   "music",  "movies",  "health", "jobs",
      "realty",  "tech",   "mail",   "weather", "daily",  "market", "press",
      "stream",  "deals",  "games",  "style",  "wiki",    "blog",   "cars",
      "estate",  "learn",  "kids",   "farm",   "energy",  "law",    "media",
  };
  return kTopics;
}

const std::vector<std::string>& gov_agencies() {
  static const std::vector<std::string> kAgencies = {
      "moi",        "mof",      "moh",       "moe",       "customs",   "tax",
      "parliament", "courts",   "police",    "stats",     "health",    "agriculture",
      "energy",     "transport", "labor",    "interior",  "foreign",   "pm",
      "president",  "municipality", "immigration", "tourism", "environment", "ict",
      "posts",      "water",    "defense",   "justice",   "culture",   "sports",
      "science",    "housing",  "planning",  "elections", "treasury",  "archives",
      "meteo",      "ports",    "railways",  "aviation",  "mining",    "fisheries",
      "forestry",   "youth",    "pensions",  "trade",     "industry",  "standards",
      "landregistry", "census",
  };
  return kAgencies;
}

// Commercial second-level suffix for a country ("com.eg", falling back to
// the bare ccTLD).
std::string commercial_suffix(const world::CountryInfo& info) {
  for (const std::string& candidate :
       {"com." + info.cctld, "co." + info.cctld}) {
    if (web::is_public_suffix(candidate)) return candidate;
  }
  return info.cctld;
}

std::string pick_mix_dest(const DestMix& mix, util::Rng& rng) {
  if (mix.empty()) return "";
  std::vector<double> weights;
  for (const auto& [dest, wgt] : mix) weights.push_back(wgt);
  size_t idx = rng.weighted(weights);
  return idx < mix.size() ? mix[idx].first : mix.front().first;
}

// Per-tracked-site non-local tracker-domain count (Fig 4 distributions).
int sample_tracker_count(const CountryCalibration& cal, util::Rng& rng) {
  if (cal.normal_dist) {
    int n = static_cast<int>(std::lround(rng.normal(cal.tps_mean, cal.tps_sigma)));
    return std::max(1, n);
  }
  double s = std::min(0.9, 0.8 * cal.tps_sigma / std::max(1.0, cal.tps_mean));
  double mu = std::log(std::max(1.0, cal.tps_mean)) - 0.5 * s * s;
  int n = static_cast<int>(std::lround(rng.lognormal(mu, s)));
  return std::max(1, n);
}

// Tracker FQDNs a site may embed, with their embed weights and the in-order
// sum of the positive ones, so a draw neither looks a weight up nor re-sums
// the vector. The FQDNs stay owned by Builder::fqdns, whose vectors
// build_web never modifies.
struct EmbedPool {
  std::vector<const std::string*> fqdns;
  std::vector<double> weights;
  double total = 0.0;  // exactly what Rng::weighted(weights) would sum

  void add(const std::string& fqdn, double w) {
    fqdns.push_back(&fqdn);
    weights.push_back(w);
    total += (w > 0 ? w : 0);
  }
};

// §6.3: government websites do not transmit data to US-hosted trackers
// anywhere except the UAE — public-sector procurement avoids them.
bool government_avoids_us(const std::string& country) { return country != "AE"; }

struct CountryPools {
  EmbedPool foreign;     // trackers steered abroad
  EmbedPool government;  // foreign minus US-hosted; empty where unused
  EmbedPool local;       // trackers served in-country
};

CountryPools country_pools(Builder& b, const std::string& country) {
  CountryPools pools;
  const bool avoid_us = government_avoids_us(country);
  for (const Builder::PoolEntry& e : b.foreign_pool[country]) {
    pools.foreign.add(*e.fqdn, e.weight);
    if (avoid_us && !e.us_hosted) pools.government.add(*e.fqdn, e.weight);
  }
  for (const Builder::PoolEntry& e : b.local_pool[country]) pools.local.add(*e.fqdn, e.weight);
  return pools;
}

std::vector<std::string> sample_weighted_distinct(const EmbedPool& pool, size_t n,
                                                  util::Rng& rng) {
  if (pool.fqdns.empty()) return {};
  std::set<size_t> chosen;
  size_t want = std::min(n, pool.fqdns.size());
  int attempts = 0;
  while (chosen.size() < want && attempts < 400) {
    ++attempts;
    size_t idx = rng.weighted(pool.weights, pool.total);
    if (idx < pool.fqdns.size()) chosen.insert(idx);
  }
  std::vector<std::string> out;
  for (size_t idx : chosen) out.push_back(*pool.fqdns[idx]);
  return out;
}

const std::vector<std::string>& tracker_paths() {
  static const std::vector<std::string> kPaths = {
      "/js/tag.js", "/pixel.gif?id=42", "/collect?v=1&tid=UA-1", "/sdk.js",
      "/beacon/track?e=pv", "/ads.js", "/sync?cb=1", "/events",
  };
  return kPaths;
}

// Paths that no generic EasyList/EasyPrivacy rule matches. Domains outside
// the lists stay outside them in the wild precisely because their URLs avoid
// the generic patterns too; giving them innocuous paths preserves the
// paper's list-vs-manual identification split.
const std::vector<std::string>& unlisted_paths() {
  static const std::vector<std::string> kPaths = {
      "/js/tag.js", "/sdk.js", "/sync?cb=1", "/events", "/v2/data", "/w/loader.js",
  };
  return kPaths;
}

web::Resource tracker_resource(const std::string& fqdn, util::Rng& rng) {
  const trackers::TrackerDomainInfo* info =
      trackers::OrgDb::instance().tracker_of_host(fqdn);
  const auto& paths =
      (info && !info->in_easylist && info->regional_list.empty()) ? unlisted_paths()
                                                                  : tracker_paths();
  const std::string& path = paths[rng.uniform(paths.size())];
  web::ResourceType type = web::ResourceType::Script;
  if (path.find("pixel") != std::string::npos) type = web::ResourceType::Image;
  if (path.find("collect") != std::string::npos || path.find("events") != std::string::npos) {
    type = web::ResourceType::Xhr;
  }
  return {"https://" + fqdn + path, type};
}

}  // namespace

void build_web(Builder& b) {
  World& w = *b.w;
  util::Rng rng = b.rng.fork("web");
  const auto& db = world::CountryDb::instance();
  dns::Resolver resolver(w.zones);  // zones already hold all tracker steering

  // ------------------------------------------------------------------
  // Global sites (present in many countries' top lists).
  // ------------------------------------------------------------------
  struct GlobalSite {
    std::string domain;
    std::string org;            // "" = unaffiliated
    std::string rep_registrable; // tracker registrable whose steering hosts the doc
    std::vector<std::string> embeds;  // tracker registrables it embeds
    double list_coverage;       // fraction of countries listing it
  };
  const std::vector<GlobalSite> globals = {
      {"google.com", "Google", "googleapis.com",
       {"googleapis.com", "gstatic.com", "google-analytics.com", "doubleclick.net"}, 1.0},
      {"wikipedia.org", "", "", {}, 1.0},
      {"youtube.com", "Google", "googlevideo.com",
       {"googleapis.com", "gstatic.com", "doubleclick.net", "googlesyndication.com",
        "googleadservices.com", "google-analytics.com", "googletagmanager.com",
        "googletagservices.com", "googlevideo.com", "admob.com", "googleoptimize.com",
        "app-measurement.com"},
       0.85},
      {"facebook.com", "Facebook", "facebook.net",
       {"facebook.net", "fbcdn.net", "facebook.com"}, 0.85},
      {"instagram.com", "Facebook", "fbcdn.net", {"fbcdn.net", "facebook.net"}, 0.8},
      {"twitter.com", "Twitter", "twitter.com", {"twimg.com", "ads-twitter.com", "t.co"}, 0.8},
      {"whatsapp.com", "Facebook", "fbcdn.net", {"whatsapp.net"}, 0.75},
      {"linkedin.com", "Microsoft", "licdn.com", {"licdn.com", "bing.com", "clarity.ms"}, 0.75},
      {"openai.com", "Microsoft", "bing.com", {"segment.io", "cloudflareinsights.com"}, 0.7},
      {"yahoo.com", "Yahoo", "yahoo.com",
       {"yimg.com", "flurry.com", "btrll.com", "doubleclick.net", "demdex.net",
        "bluekai.com", "taboola.com"},
       0.35},
      {"booking.com", "Booking.com", "booking.com",
       {"bstatic.com", "google-analytics.com", "doubleclick.net"}, 0.3},
  };

  std::map<std::string, std::vector<std::string>> toplist_globals;  // country -> domains
  for (const auto& g : globals) {
    web::Website site;
    site.domain = g.domain;
    site.country = "";  // global
    site.kind = web::SiteKind::Regional;
    // First-party assets.
    site.resources.push_back({"https://" + g.domain + "/app.css",
                              web::ResourceType::Stylesheet});
    site.resources.push_back({"https://" + g.domain + "/main.js", web::ResourceType::Script});
    for (const auto& reg_domain : g.embeds) {
      const auto& hosts = b.fqdns[reg_domain];
      size_t take = std::min<size_t>(hosts.size(), 2 + rng.uniform(2));
      for (size_t i = 0; i < take; ++i) {
        site.resources.push_back(tracker_resource(hosts[i], rng));
      }
    }
    w.universe.add_site(std::move(site));

    // Document hosting: per-country steered records riding on the owning
    // org's infrastructure; unaffiliated sites sit in the US.
    if (!g.rep_registrable.empty()) {
      net::IPv4 default_ip = 0;
      for (const auto& cal : b.cals) {
        dns::Answer ans = resolver.resolve(g.rep_registrable, cal.code);
        if (ans.nxdomain()) continue;
        w.zones.add_steered(g.domain, cal.code, ans.primary());
        if (default_ip == 0) default_ip = ans.primary();
      }
      if (default_ip != 0) w.zones.add_steered_default(g.domain, default_ip);
    } else {
      net::IPv4 ip = add_server(b, g.domain, "US", w.hosting_asn.at("US"), false, true);
      w.zones.add_a(g.domain, ip);
    }

    // Which countries list it.
    for (const auto& cal : b.cals) {
      if (g.list_coverage >= 1.0 || rng.chance(g.list_coverage)) {
        toplist_globals[cal.code].push_back(g.domain);
      }
    }
  }
  // yahoo.com regional presence per the paper's conclusion examples.
  for (const char* code : {"IN", "GB", "AU", "QA", "AE"}) {
    auto& list = toplist_globals[code];
    if (std::find(list.begin(), list.end(), "yahoo.com") == list.end()) {
      list.push_back("yahoo.com");
    }
  }

  // Chromedriver noise endpoints under google.com follow google.com's doc IPs.
  if (const dns::SteeredRecord* sr = w.zones.find_steered("google.com")) {
    for (const char* noise : {"clients2.google.com", "accounts.google.com"}) {
      for (const auto& [country, ips] : sr->per_country) {
        for (net::IPv4 ip : ips) w.zones.add_steered(noise, country, ip);
      }
      for (net::IPv4 ip : sr->default_ips) w.zones.add_steered_default(noise, ip);
    }
  }

  // Google's country-specific properties: the §6.7 first-party cases.
  std::map<std::string, std::string> google_cctld_site;  // country -> domain
  if (const trackers::Organization* google = trackers::OrgDb::instance().find_org("Google")) {
    for (const auto& domain : google->domains) {
      if (domain == "google.com" || !util::starts_with(domain, "google.")) continue;
      // Match the ccTLD suffix to a source country.
      for (const auto& cal : b.cals) {
        const world::CountryInfo& info = db.at(cal.code);
        if (util::ends_with(domain, "." + info.cctld)) {
          google_cctld_site[cal.code] = domain;
          break;
        }
      }
    }
  }
  for (const auto& [country, domain] : google_cctld_site) {
    web::Website site;
    site.domain = domain;
    site.country = country;
    site.kind = web::SiteKind::Regional;
    site.resources.push_back({"https://" + domain + "/logo.png", web::ResourceType::Image});
    for (const auto& reg_domain : {"googleapis.com", "gstatic.com", "google-analytics.com"}) {
      const auto& hosts = b.fqdns[reg_domain];
      if (!hosts.empty()) site.resources.push_back(tracker_resource(hosts[0], rng));
    }
    w.universe.add_site(std::move(site));
    // Hosted like google.com: same steering.
    if (const dns::SteeredRecord* sr = w.zones.find_steered("google.com")) {
      for (const auto& [c, ips] : sr->per_country) {
        for (net::IPv4 ip : ips) w.zones.add_steered(domain, c, ip);
      }
      for (net::IPv4 ip : sr->default_ips) w.zones.add_steered_default(domain, ip);
    }
    toplist_globals[country].push_back(domain);
  }

  // ------------------------------------------------------------------
  // Per-country regional and government sites.
  // ------------------------------------------------------------------
  std::map<std::string, std::vector<std::string>> reg_ranking;  // country -> ranked domains
  std::map<std::string, std::vector<std::string>> extras;       // replacement pool
  std::vector<std::string> tranco_pool;

  auto add_country_site = [&](const std::string& domain, const std::string& country,
                              web::SiteKind kind, bool adult, bool foreign_trackers,
                              const CountryCalibration& cal, const CountryPools& pools) {
    web::Website site;
    site.domain = domain;
    site.country = country;
    site.kind = kind;
    site.adult = adult;

    // First-party assets (same-domain requests only).
    int fp = 2 + static_cast<int>(rng.uniform(3));
    for (int i = 0; i < fp; ++i) {
      site.resources.push_back({util::format("https://%s/static/app%d.js", domain.c_str(), i),
                                web::ResourceType::Script});
    }
    // Public CDN usage (foreign but non-tracking).
    if (rng.chance(0.5)) {
      static const char* kCdns[] = {"jsdelivr-sim.net", "fonts-sim.net", "unpkg-sim.net",
                                    "jquery-sim.com"};
      site.resources.push_back({util::format("https://%s/lib/v4/bundle.min.js",
                                             kCdns[rng.uniform(4)]),
                                web::ResourceType::Script});
    }

    if (foreign_trackers) {
      size_t n = static_cast<size_t>(sample_tracker_count(cal, rng));
      if (!cal.normal_dist && rng.chance(0.05)) n = n * 2 + 8;  // §6.2 outliers
      const EmbedPool& pool =
          kind == web::SiteKind::Government && government_avoids_us(country)
              ? pools.government
              : pools.foreign;
      for (const auto& fqdn : sample_weighted_distinct(pool, n, rng)) {
        site.resources.push_back(tracker_resource(fqdn, rng));
      }
      // Tracked sites often also use locally-served trackers.
      if (rng.chance(0.4)) {
        for (const auto& fqdn : sample_weighted_distinct(pools.local, 1, rng)) {
          site.resources.push_back(tracker_resource(fqdn, rng));
        }
      }
    } else if (rng.chance(0.5)) {
      for (const auto& fqdn : sample_weighted_distinct(pools.local, 1 + rng.uniform(2), rng)) {
        site.resources.push_back(tracker_resource(fqdn, rng));
      }
    }

    // Document hosting: government sites always in-country; regional sites
    // occasionally abroad (site_doc_foreign_prob).
    std::string host_country = country;
    if (kind == web::SiteKind::Regional && rng.chance(cal.site_doc_foreign_prob)) {
      std::string dest = pick_mix_dest(cal.tail_mix.empty() ? cal.hub_mix : cal.tail_mix, rng);
      if (!dest.empty()) host_country = dest;
    }
    net::IPv4 ip = add_server(b, domain, host_country, w.hosting_asn.at(host_country),
                              rng.chance(0.3), rng.chance(0.6));
    w.zones.add_a(domain, ip);
    w.universe.add_site(std::move(site));
  };

  for (const auto& cal : b.cals) {
    const world::CountryInfo& info = db.at(cal.code);
    std::string csuffix = commercial_suffix(info);
    std::vector<std::string> ranked;
    // Built once per country and dropped with it, so only one country's
    // pools are alive at a time.
    const CountryPools pools = country_pools(b, cal.code);

    // Candidate regional sites (legacy: 70 = 50 for the list + replacement
    // pool; scale mode sizes this from --sites).
    std::vector<std::string> names;
    for (size_t i = 0; i < b.scale.candidates; ++i) {
      const std::string& topic = topics()[i % topics().size()];
      std::string domain;
      switch (i % 3) {
        case 0: domain = util::format("%s-%zu.%s", topic.c_str(), i / 3, csuffix.c_str()); break;
        case 1:
          // The plain form repeats once i wraps the topic pool (period
          // 3*|topics|); suffix the wrap count past the first cycle. Legacy
          // worlds (70 candidates) never reach the wrap, bytes unchanged.
          if (i < 3 * topics().size()) {
            domain = util::format("%s-%s.com", topic.c_str(), info.cctld.c_str());
          } else {
            domain = util::format("%s-%s-%zu.com", topic.c_str(), info.cctld.c_str(),
                                  i / (3 * topics().size()));
          }
          break;
        default: domain = util::format("%s%zu.%s", topic.c_str(), i / 3, info.cctld.c_str());
      }
      names.push_back(domain);
    }
    // Two adult sites in the raw ranking (§3.2 removes them). Tiny scaled
    // countries may not have room for both.
    if (names.size() > 10) names[10] = util::format("adult-tube.%s", csuffix.c_str());
    if (names.size() > 27) names[27] = util::format("adult-cams-%s.com", info.cctld.c_str());

    // Named special sites from the paper.
    if (cal.code == "QA") names[5] = "manoramaonline.com";
    if (cal.code == "UG") names[4] = "koora.com";

    for (size_t i = 0; i < names.size(); ++i) {
      bool adult = util::starts_with(names[i], "adult-");
      bool special_diverse =
          names[i] == "manoramaonline.com" || names[i] == "koora.com";
      bool foreign = rng.chance(cal.reg_prevalence / 100.0) || special_diverse;
      // The special outlier sites get a wide third-party portfolio.
      if (special_diverse) {
        web::Website site;
        site.domain = names[i];
        site.country = cal.code;
        site.kind = web::SiteKind::Regional;
        site.resources.push_back({"https://" + names[i] + "/index.js",
                                  web::ResourceType::Script});
        for (const auto& fqdn : sample_weighted_distinct(pools.foreign, 14, rng)) {
          site.resources.push_back(tracker_resource(fqdn, rng));
        }
        net::IPv4 ip = add_server(b, names[i], cal.code, w.hosting_asn.at(cal.code),
                                  false, true);
        w.zones.add_a(names[i], ip);
        w.universe.add_site(std::move(site));
      } else {
        add_country_site(names[i], cal.code, web::SiteKind::Regional, adult, foreign, cal,
                         pools);
      }
    }

    // Ranking: globals interleaved near the top, then country sites.
    ranked = toplist_globals[cal.code];
    const size_t n_ranked = std::min(b.scale.ranked, names.size());
    for (size_t i = 0; i < n_ranked; ++i) ranked.push_back(names[i]);
    // Light shuffle of the body (keep google/wikipedia near the top).
    for (size_t i = 2; i + 1 < ranked.size(); ++i) {
      size_t j = i + rng.uniform(std::min<size_t>(5, ranked.size() - i));
      std::swap(ranked[i], ranked[j]);
    }
    reg_ranking[cal.code] = ranked;
    extras[cal.code].assign(names.begin() + static_cast<long>(n_ranked), names.end());
    for (const auto& n : names) tranco_pool.push_back(n);

    // Government sites.
    std::string gov_tld = info.gov_tlds.empty() ? ("gov." + info.cctld) : info.gov_tlds[0];
    for (int i = 0; i < cal.gov_sites; ++i) {
      const std::string& agency = gov_agencies()[i % gov_agencies().size()];
      // Countries with several government TLDs alternate between them (§3.2).
      const std::string& tld = info.gov_tlds.size() > 1
                                   ? info.gov_tlds[i % info.gov_tlds.size()]
                                   : gov_tld;
      std::string domain = agency + "." + tld;
      bool foreign = rng.chance(cal.gov_prevalence / 100.0);
      add_country_site(domain, cal.code, web::SiteKind::Government, false, foreign, cal, pools);
      tranco_pool.push_back(domain);
    }
  }

  // ------------------------------------------------------------------
  // Top-list providers (§3.2) and the Tranco-like list.
  // ------------------------------------------------------------------
  w.selection.similarweb.provider = "similarweb";
  w.selection.semrush.provider = "semrush";
  w.selection.ahrefs.provider = "ahrefs";
  const std::set<std::string> similarweb_missing = {"RW", "UG", "DZ"};
  for (const auto& cal : b.cals) {
    const auto& ranked = reg_ranking[cal.code];
    if (!similarweb_missing.count(cal.code)) {
      w.selection.similarweb.by_country[cal.code] = ranked;
    }
    auto perturb = [&](double keep_prob) {
      std::vector<std::string> out = ranked;
      size_t extra_idx = 0;
      const auto& pool = extras[cal.code];
      for (auto& entry : out) {
        // google.com and wikipedia.org rank top everywhere — every provider
        // agrees on them (they are in all 23 T_web lists, §3.2).
        if (entry == "google.com" || entry == "wikipedia.org") continue;
        if (rng.chance(keep_prob) || pool.empty()) continue;
        entry = pool[extra_idx++ % pool.size()];  // swap in a replacement
      }
      return out;
    };
    w.selection.semrush.by_country[cal.code] = perturb(0.65);
    w.selection.ahrefs.by_country[cal.code] = perturb(0.48);
  }

  // Tranco: global ranking over country sites + globals; a slice of some
  // countries' government sites is withheld so the search-scrape fallback
  // path is exercised (§3.2).
  for (const auto& g : globals) tranco_pool.push_back(g.domain);
  if (!b.scale.enabled) {
    std::sort(tranco_pool.begin(), tranco_pool.end(),
              [](const std::string& a, const std::string& x) {
                return util::fnv1a(a) < util::fnv1a(x);
              });
  } else {
    // Zipf-ranked Tranco: a domain's global popularity is the sum of 1/rank
    // over every per-country toplist carrying it — the harmonic weights of a
    // Zipf(1) traffic model — so domains near the top of many countries'
    // lists rank globally first, exactly how the real Tranco aggregates.
    std::map<std::string, double> score;
    for (const auto& cal : b.cals) {
      const auto& ranked = reg_ranking[cal.code];
      for (size_t r = 0; r < ranked.size(); ++r) score[ranked[r]] += 1.0 / double(r + 1);
    }
    // Each domain's score is looked up once and sorted with it. The order
    // is strict and total (score descending, then domain), so the result is
    // the one sorting the domains themselves would give.
    std::vector<std::pair<double, std::string>> by_score;
    by_score.reserve(tranco_pool.size());
    for (std::string& domain : tranco_pool) {
      auto it = score.find(domain);
      by_score.emplace_back(it == score.end() ? 0.0 : it->second, std::move(domain));
    }
    std::sort(by_score.begin(), by_score.end(), [](const auto& a, const auto& x) {
      if (a.first != x.first) return a.first > x.first;
      return a.second < x.second;  // deterministic tie-break (unlisted gov sites)
    });
    for (size_t i = 0; i < by_score.size(); ++i) tranco_pool[i] = std::move(by_score[i].second);
  }
  const std::set<std::string> tranco_gov_holdout = {"RW", "QA"};
  for (const auto& domain : tranco_pool) {
    const web::Website* site = w.universe.find(domain);
    if (site && site->kind == web::SiteKind::Government &&
        tranco_gov_holdout.count(site->country) && rng.chance(0.4)) {
      continue;  // withheld from Tranco; the fallback must find it
    }
    w.selection.tranco.domains.push_back(domain);
  }

  // Country-level site bans.
  w.selection.banned["PK"] = {"twitter.com"};
  w.selection.banned["RU"] = {"linkedin.com"};

  // Expansion rules: tag managers pull further trackers when loaded.
  for (const auto& fqdn : b.fqdns["googletagmanager.com"]) {
    for (const auto& target : {"google-analytics.com", "doubleclick.net"}) {
      const auto& hosts = b.fqdns[target];
      if (!hosts.empty()) {
        w.universe.add_expansion(fqdn, tracker_resource(hosts[0], rng));
      }
    }
  }
}

}  // namespace gam::worldgen::internal
