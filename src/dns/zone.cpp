#include "dns/zone.h"

namespace gam::dns {

void ZoneStore::add_a(std::string_view name, net::IPv4 ip) {
  a_[std::string(name)].push_back(ip);
}

void ZoneStore::add_cname(std::string_view name, std::string_view target) {
  cname_[std::string(name)] = std::string(target);
}

void ZoneStore::add_ptr(net::IPv4 ip, std::string_view hostname) {
  ptr_[ip] = std::string(hostname);
}

SteeredRecord& ZoneStore::steered_record(std::string_view name) {
  // Look the name up before building a key: worldgen extends each steered
  // name once per client country, and only its first record needs a copy.
  auto it = steered_.find(name);
  if (it == steered_.end()) it = steered_.emplace(std::string(name), SteeredRecord{}).first;
  return it->second;
}

void ZoneStore::add_steered(std::string_view name, std::string_view client_country,
                            net::IPv4 ip) {
  steered_record(name).per_country[std::string(client_country)].push_back(ip);
}

void ZoneStore::add_steered_default(std::string_view name, net::IPv4 ip) {
  steered_record(name).default_ips.push_back(ip);
}

const std::vector<net::IPv4>* ZoneStore::find_a(std::string_view name) const {
  auto it = a_.find(name);
  return it == a_.end() ? nullptr : &it->second;
}

const std::string* ZoneStore::find_cname(std::string_view name) const {
  auto it = cname_.find(name);
  return it == cname_.end() ? nullptr : &it->second;
}

const SteeredRecord* ZoneStore::find_steered(std::string_view name) const {
  auto it = steered_.find(name);
  return it == steered_.end() ? nullptr : &it->second;
}

std::optional<std::string> ZoneStore::find_ptr(net::IPv4 ip) const {
  auto it = ptr_.find(ip);
  if (it == ptr_.end()) return std::nullopt;
  return it->second;
}

bool ZoneStore::has_name(std::string_view name) const {
  return a_.find(name) != a_.end() || cname_.find(name) != cname_.end() ||
         steered_.find(name) != steered_.end();
}

}  // namespace gam::dns
