// Autonomous-system registry and IPv4 prefix allocation.
//
// Every simulated network — residential ISPs, transit carriers, cloud
// providers, content networks — is an AS with one or more prefixes. The
// registry provides the two lookups the paper's pipeline needs:
//   * IP -> AS (longest-prefix match), used by the IPinfo-like annotator
//     (§3 C2) and the AS-level hosting analysis (§6.5), and
//   * sequential address allocation inside an AS, used by world generation.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/ip.h"

namespace gam::net {

enum class AsKind { ResidentialIsp, Transit, Cloud, Content, Government, Ixp };

struct AsInfo {
  uint32_t asn = 0;
  std::string name;     // "AS-EXAMPLENET"
  std::string org;      // owning organization, e.g. "Amazon.com, Inc."
  std::string country;  // ISO code of registration
  AsKind kind = AsKind::ResidentialIsp;
};

class AsRegistry {
 public:
  AsRegistry() = default;

  /// Register an AS; the asn field must be unique and non-zero.
  /// Returns the asn for convenience.
  uint32_t add(AsInfo info);

  /// Attach a prefix to an AS. Prefixes must not overlap across ASes.
  void announce(uint32_t asn, Prefix prefix);

  /// Carve the next unused /`len` from the registry's private supernet and
  /// announce it for `asn`. This is how world generation hands out space.
  Prefix allocate_prefix(uint32_t asn, int len);

  /// Sequentially allocate one address inside an AS's announced space
  /// (skips network/broadcast addresses). Aborts if the AS has no space left.
  IPv4 allocate_address(uint32_t asn);

  /// Longest-prefix match. nullptr if unrouted.
  const AsInfo* lookup_ip(IPv4 ip) const;

  /// The asn owning `ip`, or 0 if unrouted.
  uint32_t asn_of(IPv4 ip) const;

  const AsInfo* find(uint32_t asn) const;
  const std::map<uint32_t, AsInfo>& all() const { return as_; }

 private:
  std::map<uint32_t, AsInfo> as_;
  std::vector<std::pair<Prefix, uint32_t>> routes_;  // sorted by (base, len)
  std::map<uint32_t, std::vector<Prefix>> by_as_;
  std::map<uint32_t, uint64_t> next_host_;  // per-AS allocation cursor
  uint32_t next_supernet_ = (10u << 24);    // carve from 10.0.0.0/8 upward
};

}  // namespace gam::net
