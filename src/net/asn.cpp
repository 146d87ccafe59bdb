#include "net/asn.h"

#include <algorithm>
#include <cstdlib>

#include "util/logging.h"

namespace gam::net {

uint32_t AsRegistry::add(AsInfo info) {
  if (info.asn == 0 || as_.count(info.asn)) {
    util::log_error("net", "duplicate or zero ASN: " + std::to_string(info.asn));
    std::abort();
  }
  uint32_t asn = info.asn;
  as_.emplace(asn, std::move(info));
  return asn;
}

void AsRegistry::announce(uint32_t asn, Prefix prefix) {
  auto pos = std::lower_bound(routes_.begin(), routes_.end(), prefix,
                              [](const auto& a, const Prefix& p) {
                                return a.first.base < p.base ||
                                       (a.first.base == p.base && a.first.len < p.len);
                              });
  routes_.insert(pos, {prefix, asn});
  by_as_[asn].push_back(prefix);
}

Prefix AsRegistry::allocate_prefix(uint32_t asn, int len) {
  // Supernets are carved sequentially on /16 boundaries from 10.0.0.0/8,
  // then 11.0.0.0/8 etc.; plenty for a simulated Internet.
  Prefix p{next_supernet_, len};
  uint32_t step = len <= 16 ? (1u << (32 - len)) : (1u << 16);
  next_supernet_ += step;
  announce(asn, p);
  return p;
}

IPv4 AsRegistry::allocate_address(uint32_t asn) {
  auto it = by_as_.find(asn);
  if (it == by_as_.end() || it->second.empty()) {
    util::log_error("net", "AS has no announced prefixes: " + std::to_string(asn));
    std::abort();
  }
  uint64_t& cursor = next_host_[asn];
  uint64_t offset = cursor++;
  for (const Prefix& p : it->second) {
    uint64_t usable = p.size() > 2 ? p.size() - 2 : p.size();
    if (offset < usable) {
      // +1 skips the network address.
      return p.base + static_cast<IPv4>(offset) + (p.size() > 2 ? 1 : 0);
    }
    offset -= usable;
  }
  util::log_error("net", "AS address space exhausted: " + std::to_string(asn));
  std::abort();
}

const AsInfo* AsRegistry::lookup_ip(IPv4 ip) const {
  const AsInfo* best = nullptr;
  int best_len = -1;
  for (const auto& [prefix, asn] : routes_) {
    if (prefix.base > ip) break;  // sorted by base; nothing later can contain ip
    if (prefix.contains(ip) && prefix.len > best_len) {
      best_len = prefix.len;
      auto it = as_.find(asn);
      best = it == as_.end() ? nullptr : &it->second;
    }
  }
  return best;
}

uint32_t AsRegistry::asn_of(IPv4 ip) const {
  const AsInfo* info = lookup_ip(ip);
  return info ? info->asn : 0;
}

const AsInfo* AsRegistry::find(uint32_t asn) const {
  auto it = as_.find(asn);
  return it == as_.end() ? nullptr : &it->second;
}

}  // namespace gam::net
