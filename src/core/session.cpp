#include "core/session.h"

#include <algorithm>
#include <set>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "world/country.h"

namespace gam::core {

namespace {

/// One attempted trace as a session or repair pass stores it: the typed hops
/// and the values the analysis reads. Nothing is rendered here.
TracerouteRecord attempted_trace(net::IPv4 ip, std::string os, std::string source,
                                 probe::TracerouteResult trace) {
  TracerouteRecord rec;
  rec.ip = ip;
  rec.attempted = true;
  rec.os = std::move(os);
  rec.source = std::move(source);
  rec.fault_injected = trace.fault_injected;
  rec.reached = trace.reached;
  rec.first_hop_ms = trace.first_hop_rtt_ms();
  rec.last_hop_ms = trace.last_hop_rtt_ms();
  rec.measured = std::move(trace);
  return rec;
}

}  // namespace

size_t VolunteerDataset::loaded_sites() const {
  size_t n = 0;
  for (const auto& s : sites) {
    if (s.page.loaded) ++n;
  }
  return n;
}

size_t VolunteerDataset::traceroutes_launched() const {
  size_t n = 0;
  for (const auto& [ip, t] : traces) {
    if (t.attempted) ++n;
  }
  return n;
}

GammaSession::GammaSession(GammaEnv env, VolunteerProfile profile, TargetList targets,
                           GammaConfig config, uint64_t seed)
    : env_(env),
      profile_(std::move(profile)),
      targets_(std::move(targets)),
      config_(std::move(config)),
      browser_(*env.universe, *env.resolver, *env.topology, config_.browser),
      traceroute_(*env.topology, *env.resolver),
      rng_(seed) {
  browser_.set_resilience(env_.faults, config_.retry);
  ordered_targets_ = targets_.all();
  dataset_.volunteer_id = profile_.id;
  dataset_.country = profile_.country;
  dataset_.disclosed_city = profile_.city;
  dataset_.volunteer_ip = net::ip_to_string(profile_.ip);
  dataset_.os = probe::os_kind_name(profile_.os);
}

bool GammaSession::finished() const { return next_index_ >= ordered_targets_.size(); }

bool GammaSession::step() {
  static util::Counter& measured =
      util::MetricsRegistry::instance().counter("core.sites_measured");
  static util::Counter& optout =
      util::MetricsRegistry::instance().counter("core.sites_optout");
  while (next_index_ < ordered_targets_.size()) {
    const std::string& domain = ordered_targets_[next_index_++];
    if (profile_.site_opt_outs.count(domain)) {
      util::log_debug("gamma", "volunteer opted out of " + domain);
      optout.inc();
      continue;  // respected silently; not attempted
    }
    measure_site(domain);
    measured.inc();
    return true;
  }
  return false;
}

void GammaSession::run_all() {
  while (step()) {
  }
}

void GammaSession::measure_site(const std::string& domain) {
  util::trace::ScopedSpan span("site", "session");
  span.arg("domain", domain);
  const web::Website* site = env_.universe->find(domain);
  SiteMeasurement m;
  if (!site) {
    span.arg("unknown_site", true);
    // Target list entry that no longer resolves to a site: record the
    // failure, exactly what the tool would see as an unloadable page.
    m.page.site_domain = domain;
    m.page.url = "https://" + domain + "/";
    m.page.client_country = profile_.country;
    m.page.set_failure(web::LoadFailure::Dns);
    dataset_.sites.push_back(std::move(m));
    return;
  }

  // --- C1: isolated browser instance. ---
  m.page = browser_.load(*site, profile_.node, profile_.country,
                         profile_.load_failure_rate, rng_);

  // --- C2: DNS (already in the requests) + reverse DNS. ---
  if (config_.enable_network_info) {
    for (const auto& req : m.page.requests) {
      if (req.ip == 0) continue;
      m.domain_ips[req.domain].push_back(req.ip);
      if (!m.rdns.count(req.ip)) {
        auto ptr = env_.resolver->reverse(req.ip);
        m.rdns[req.ip] = ptr.value_or("");
      }
    }
    // Deduplicate per-domain address lists.
    for (auto& [d, ips] : m.domain_ips) {
      std::sort(ips.begin(), ips.end());
      ips.erase(std::unique(ips.begin(), ips.end()), ips.end());
    }
  }

  // --- C3: traceroute every new address. ---
  if (config_.enable_probes && !profile_.traceroute_opt_out) {
    for (const auto& [d, ips] : m.domain_ips) {
      for (net::IPv4 ip : ips) {
        if (dataset_.traces.count(ip)) continue;  // session-level dedup
        static util::Counter& launched =
            util::MetricsRegistry::instance().counter("core.traceroutes_launched");
        launched.inc();
        probe::TracerouteOptions opts = config_.traceroute;
        opts.blocked_prob = profile_.traceroute_blocked_prob;
        probe::TracerouteResult trace;
        if (env_.faults && env_.faults->armed()) {
          // Injected whole-trace timeouts are transient: retry within the
          // shared budget, keying each attempt so a fault can clear. A trace
          // killed by the fault plane consumes no measurement rng draws, so
          // the retried run sees the same draws a fault-free run would.
          util::Rng jitter =
              env_.faults->stream("retry.trace", profile_.country + "/" + net::ip_to_string(ip));
          int attempt = 0;
          util::retry_call(config_.retry, jitter, [&] {
            ++attempt;
            trace = traceroute_.trace(profile_.node, ip, opts, rng_, env_.faults,
                                      "src#" + std::to_string(attempt));
            return !trace.fault_injected;
          });
        } else {
          trace = traceroute_.trace(profile_.node, ip, opts, rng_);
        }
        dataset_.traces.emplace(ip, attempted_trace(ip, probe::os_kind_name(profile_.os),
                                                    "volunteer", std::move(trace)));
      }
    }
  }

  span.arg("loaded", m.page.loaded);
  dataset_.sites.push_back(std::move(m));
}

size_t augment_with_atlas_traceroutes(VolunteerDataset& dataset, const GammaEnv& env,
                                      const probe::AtlasNetwork& atlas,
                                      const probe::TracerouteOptions& opts,
                                      util::Rng& rng) {
  // Collect every address the dataset should have a usable trace for.
  std::set<net::IPv4> wanted;
  for (const auto& site : dataset.sites) {
    for (const auto& [domain, ips] : site.domain_ips) {
      wanted.insert(ips.begin(), ips.end());
    }
  }

  const world::CountryInfo& country = world::CountryDb::instance().at(dataset.country);
  geo::Coord near = country.primary_city().coord;
  for (const auto& c : country.cities) {
    if (c.name == dataset.disclosed_city) near = c.coord;
  }
  // Fault plane: the probe fleet for this country may be injected as
  // unavailable — the repair pass is skipped outright and the datasets keep
  // their unusable traces (the geolocator degrades instead of discarding).
  if (env.faults && env.faults->armed() &&
      env.faults->roll("atlas.unavailable", "repair/" + dataset.country,
                       env.faults->plan().atlas_unavailable)) {
    return 0;
  }

  auto probe = atlas.select_probe(dataset.country, dataset.disclosed_city, 0, near);
  if (!probe) return 0;

  probe::TracerouteEngine engine(*env.topology, *env.resolver);
  size_t repaired = 0;
  for (net::IPv4 ip : wanted) {
    auto it = dataset.traces.find(ip);
    if (it != dataset.traces.end() && it->second.reached) continue;  // already usable
    // Atlas probes report a uniform format: Linux traceroute's.
    dataset.traces[ip] = attempted_trace(
        ip, probe::os_kind_name(probe::OsKind::Linux), "atlas:" + std::to_string(probe->id),
        engine.trace(probe->node, ip, opts, rng, env.faults, "repair/" + dataset.country));
    ++repaired;
  }
  return repaired;
}

}  // namespace gam::core
