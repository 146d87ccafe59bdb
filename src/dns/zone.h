// Authoritative DNS state for the simulated Internet.
//
// Two behaviours from the paper's §1 motivate this module being more than a
// hash map: GeoDNS and CDNs answer *differently depending on where the
// client asks from*, which is exactly why Gamma must measure from inside
// each country. A domain can therefore carry either a plain record set or a
// geo-steered record set keyed by client country.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/ip.h"

namespace gam::dns {

/// A geo-steered A record: the answer depends on the querying country.
struct SteeredRecord {
  /// Client ISO country code -> candidate server IPs for that client.
  std::map<std::string, std::vector<net::IPv4>> per_country;
  /// Fallback answers for countries with no explicit entry.
  std::vector<net::IPv4> default_ips;
};

/// Authoritative store: A, CNAME and PTR records plus geo steering.
class ZoneStore {
 public:
  /// Plain A record(s); appends to any existing answers for `name`.
  void add_a(std::string_view name, net::IPv4 ip);

  /// CNAME alias; `name` resolves by restarting at `target`.
  void add_cname(std::string_view name, std::string_view target);

  /// PTR record for reverse DNS.
  void add_ptr(net::IPv4 ip, std::string_view hostname);

  /// Install (or extend) geo steering for `name`.
  void add_steered(std::string_view name, std::string_view client_country, net::IPv4 ip);
  void add_steered_default(std::string_view name, net::IPv4 ip);

  /// Raw lookups used by the resolver.
  const std::vector<net::IPv4>* find_a(std::string_view name) const;
  const std::string* find_cname(std::string_view name) const;
  const SteeredRecord* find_steered(std::string_view name) const;
  std::optional<std::string> find_ptr(net::IPv4 ip) const;

  /// True if any record type exists for `name`.
  bool has_name(std::string_view name) const;

 private:
  /// The steered record for `name`, created empty on first use.
  SteeredRecord& steered_record(std::string_view name);

  std::map<std::string, std::vector<net::IPv4>, std::less<>> a_;
  std::map<std::string, std::string, std::less<>> cname_;
  std::map<std::string, SteeredRecord, std::less<>> steered_;
  std::map<net::IPv4, std::string> ptr_;
};

}  // namespace gam::dns
