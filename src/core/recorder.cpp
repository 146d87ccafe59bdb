#include "core/recorder.h"

#include <algorithm>

#include "util/rng.h"
#include "util/strings.h"
#include "web/browser.h"

namespace gam::core {

namespace {

util::Json request_to_json(const web::NetworkRequest& r) {
  util::Json j = util::Json::object();
  j["url"] = r.url;
  j["domain"] = r.domain;
  j["type"] = web::resource_type_name(r.type);
  j["ip"] = r.ip == 0 ? util::Json(nullptr) : util::Json(net::ip_to_string(r.ip));
  j["rtt_ms"] = r.rtt_ms;
  j["completed"] = r.completed;
  j["background"] = r.background;
  if (!r.cname_chain.empty()) {
    util::Json chain = util::Json::array();
    for (const auto& c : r.cname_chain) chain.push_back(c);
    j["cname_chain"] = std::move(chain);
  }
  return j;
}

std::optional<web::NetworkRequest> request_from_json(const util::Json& j) {
  if (!j.is_object()) return std::nullopt;
  web::NetworkRequest r;
  r.url = j.get_string("url");
  r.domain = j.get_string("domain");
  std::string type = j.get_string("type", "script");
  if (type == "document") r.type = web::ResourceType::Document;
  else if (type == "script") r.type = web::ResourceType::Script;
  else if (type == "image") r.type = web::ResourceType::Image;
  else if (type == "stylesheet") r.type = web::ResourceType::Stylesheet;
  else if (type == "xhr") r.type = web::ResourceType::Xhr;
  else if (type == "iframe") r.type = web::ResourceType::Iframe;
  if (const util::Json* ip = j.find("ip"); ip && ip->is_string()) {
    if (auto parsed = net::parse_ip(ip->as_string())) r.ip = *parsed;
  }
  r.rtt_ms = j.get_number("rtt_ms");
  r.completed = j.get_bool("completed");
  r.background = j.get_bool("background");
  if (const util::Json* chain = j.find("cname_chain"); chain && chain->is_array()) {
    for (const auto& c : chain->items()) r.cname_chain.push_back(c.as_string());
  }
  return r;
}

}  // namespace

std::string trace_text(const TracerouteRecord& trace) {
  std::optional<probe::OsKind> os = probe::os_kind_from_name(trace.os);
  return os ? probe::format_for(trace.measured, *os) : std::string();
}

util::Json dataset_to_json(const VolunteerDataset& dataset) {
  util::Json doc = util::Json::object();
  doc["volunteer_id"] = dataset.volunteer_id;
  doc["country"] = dataset.country;
  doc["disclosed_city"] = dataset.disclosed_city;
  doc["volunteer_ip"] = dataset.volunteer_ip;
  doc["os"] = dataset.os;

  util::Json sites = util::Json::array();
  for (const auto& site : dataset.sites) {
    util::Json s = util::Json::object();
    s["site_domain"] = site.page.site_domain;
    s["url"] = site.page.url;
    s["loaded"] = site.page.loaded;
    s["failure_reason"] = site.page.failure_reason;
    s["total_time_s"] = site.page.total_time_s;
    util::Json reqs = util::Json::array();
    for (const auto& r : site.page.requests) reqs.push_back(request_to_json(r));
    s["requests"] = std::move(reqs);

    util::Json domains = util::Json::object();
    for (const auto& [domain, ips] : site.domain_ips) {
      util::Json arr = util::Json::array();
      for (net::IPv4 ip : ips) arr.push_back(net::ip_to_string(ip));
      domains[domain] = std::move(arr);
    }
    s["domain_ips"] = std::move(domains);

    util::Json rdns = util::Json::object();
    for (const auto& [ip, name] : site.rdns) {
      rdns[net::ip_to_string(ip)] = name.empty() ? util::Json(nullptr) : util::Json(name);
    }
    s["rdns"] = std::move(rdns);
    sites.push_back(std::move(s));
  }
  doc["sites"] = std::move(sites);

  util::Json traces = util::Json::object();
  for (const auto& [ip, t] : dataset.traces) {
    util::Json tr = util::Json::object();
    tr["attempted"] = t.attempted;
    tr["os"] = t.os;
    tr["source"] = t.source;
    tr["reached"] = t.reached;
    tr["first_hop_ms"] = t.first_hop_ms;
    tr["last_hop_ms"] = t.last_hop_ms;
    // C3's published form: the OS tool's text, normalized. A restored record
    // republishes the document it was read with.
    probe::NormalizedTrace norm =
        t.published ? *t.published
                    : probe::normalize_traceroute_checked(
                          trace_text(t),
                          probe::os_kind_from_name(t.os).value_or(probe::OsKind::Linux));
    tr["normalized"] = std::move(norm.doc);
    // Only-when-set: fault-free datasets serialize byte-identically to
    // builds without the fault plane. `fault_injected` feeds back into
    // analysis (degradation decisions), so it must round-trip through the
    // checkpoint journal.
    if (t.fault_injected) tr["fault_injected"] = true;
    if (!norm.error.empty()) tr["normalize_error"] = std::move(norm.error);
    traces[net::ip_to_string(ip)] = std::move(tr);
  }
  doc["traces"] = std::move(traces);
  return doc;
}

std::optional<VolunteerDataset> dataset_from_json(const util::Json& doc) {
  if (!doc.is_object()) return std::nullopt;
  VolunteerDataset ds;
  ds.volunteer_id = doc.get_string("volunteer_id");
  ds.country = doc.get_string("country");
  ds.disclosed_city = doc.get_string("disclosed_city");
  ds.volunteer_ip = doc.get_string("volunteer_ip");
  ds.os = doc.get_string("os");
  if (ds.volunteer_id.empty() || ds.country.empty()) return std::nullopt;

  const util::Json* sites = doc.find("sites");
  if (!sites || !sites->is_array()) return std::nullopt;
  for (const auto& s : sites->items()) {
    SiteMeasurement m;
    m.page.site_domain = s.get_string("site_domain");
    m.page.url = s.get_string("url");
    m.page.client_country = ds.country;
    m.page.loaded = s.get_bool("loaded");
    m.page.failure_reason = s.get_string("failure_reason");
    // Direct assignment, not set_failure(): deserialization must not bump
    // the web.failure.* counters a second time.
    m.page.failure = web::load_failure_from_name(m.page.failure_reason);
    m.page.total_time_s = s.get_number("total_time_s");
    if (const util::Json* reqs = s.find("requests"); reqs && reqs->is_array()) {
      for (const auto& r : reqs->items()) {
        auto parsed = request_from_json(r);
        if (!parsed) return std::nullopt;
        m.page.requests.push_back(std::move(*parsed));
      }
    }
    if (const util::Json* domains = s.find("domain_ips"); domains && domains->is_object()) {
      for (const auto& [domain, arr] : domains->fields()) {
        std::vector<net::IPv4> ips;
        for (const auto& ip : arr.items()) {
          if (auto parsed = net::parse_ip(ip.as_string())) ips.push_back(*parsed);
        }
        m.domain_ips[domain] = std::move(ips);
      }
    }
    if (const util::Json* rdns = s.find("rdns"); rdns && rdns->is_object()) {
      for (const auto& [ip_str, name] : rdns->fields()) {
        if (auto ip = net::parse_ip(ip_str)) {
          m.rdns[*ip] = name.is_string() ? name.as_string() : "";
        }
      }
    }
    ds.sites.push_back(std::move(m));
  }

  if (const util::Json* traces = doc.find("traces"); traces && traces->is_object()) {
    for (const auto& [ip_str, tr] : traces->fields()) {
      auto ip = net::parse_ip(ip_str);
      if (!ip) return std::nullopt;
      TracerouteRecord rec;
      rec.ip = *ip;
      rec.attempted = tr.get_bool("attempted");
      rec.os = tr.get_string("os");
      rec.source = tr.get_string("source");
      rec.reached = tr.get_bool("reached");
      rec.first_hop_ms = tr.get_number("first_hop_ms");
      rec.last_hop_ms = tr.get_number("last_hop_ms");
      rec.fault_injected = tr.get_bool("fault_injected");
      probe::NormalizedTrace& published = rec.published.emplace();
      if (const util::Json* norm = tr.find("normalized")) published.doc = *norm;
      published.error = tr.get_string("normalize_error");
      ds.traces[*ip] = std::move(rec);
    }
  }
  return ds;
}

size_t scrub_webdriver_noise(VolunteerDataset& dataset) {
  const auto& noise = web::webdriver_noise_domains();
  auto is_noise = [&](const web::NetworkRequest& r) {
    if (r.background) return true;
    return std::find(noise.begin(), noise.end(), r.domain) != noise.end();
  };
  size_t removed = 0;
  for (auto& site : dataset.sites) {
    auto& reqs = site.page.requests;
    size_t before = reqs.size();
    reqs.erase(std::remove_if(reqs.begin(), reqs.end(), is_noise), reqs.end());
    removed += before - reqs.size();
    for (const auto& d : noise) {
      removed += site.domain_ips.erase(d);
    }
  }
  return removed;
}

void anonymize(VolunteerDataset& dataset) {
  dataset.volunteer_ip = util::format("anon-%016llx",
                                      static_cast<unsigned long long>(
                                          util::fnv1a(dataset.volunteer_ip +
                                                      dataset.volunteer_id)));
}

}  // namespace gam::core
