// A Gamma measurement session on one volunteer's machine — Figure 1, Box 1.
//
// For every website in T_web the session runs the three components in order:
//   C1  load the page in an isolated browser instance, recording all network
//       requests;
//   C2  resolve forward DNS (already part of each request) and reverse DNS
//       for every responding address;
//   C3  traceroute every *new* resolved address (deduplicated across the
//       whole session). The session keeps each trace's typed hops; the text
//       the volunteer's native OS tool prints, normalized into the canonical
//       JSON schema, is rendered only where a dataset is published
//       (core::dataset_to_json), since the analysis reads only the typed
//       reached / first-hop / last-hop values.
// Operational behaviours from §3.3/§3.5 are first-class: sessions are
// resumable (step() measures one site; a re-created session continues from
// a completed-site count), volunteers can opt out of individual sites or of
// traceroutes entirely (the Egypt volunteer), and some networks silently
// block traceroutes (Australia, India, Qatar, Jordan) — those datasets are
// later repaired from RIPE-Atlas probes via augment_with_atlas_traceroutes.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/target_selection.h"
#include "dns/resolver.h"
#include "net/topology.h"
#include "probe/atlas.h"
#include "probe/formats.h"
#include "probe/traceroute.h"
#include "util/fault.h"
#include "util/json.h"
#include "util/rng.h"
#include "web/browser.h"

namespace gam::core {

/// Everything the suite needs from the outside world; non-owning.
struct GammaEnv {
  const web::WebUniverse* universe = nullptr;
  const dns::Resolver* resolver = nullptr;
  const net::Topology* topology = nullptr;
  /// Fault plane (nullptr or disarmed = fault-free). Borrowed; must outlive
  /// every session and repair pass that sees this env.
  const util::FaultInjector* faults = nullptr;
};

struct VolunteerProfile {
  std::string id;       // "vol-EG"
  std::string country;  // ISO code
  std::string city;
  net::NodeId node = net::kInvalidNode;  // the volunteer's machine
  net::IPv4 ip = 0;                      // logged by the tool (§4, Box 1)
  uint32_t asn = 0;                      // access network
  probe::OsKind os = probe::OsKind::Linux;
  double load_failure_rate = 0.05;       // connectivity-quality model (Fig 2b)
  bool traceroute_opt_out = false;       // the Egypt case
  double traceroute_blocked_prob = 0.0;  // ~1.0 for AU/IN/QA/JO networks
  std::set<std::string> site_opt_outs;   // specific T_web entries declined
};

/// One traceroute as stored: the measured hops and the values the analysis
/// reads. Its published form (the OS tool's text, normalized) is rendered
/// by core::dataset_to_json.
struct TracerouteRecord {
  net::IPv4 ip = 0;
  bool attempted = false;
  std::string os;        // the tool that prints `measured`: "linux", "windows", "macos"
  probe::TracerouteResult measured;  // typed hops; empty on a restored record
  bool reached = false;
  double first_hop_ms = 0.0;
  double last_hop_ms = 0.0;
  std::string source;    // "volunteer" or "atlas:<probe-id>"
  /// The run was killed by the fault plane even after the retry budget —
  /// downstream treats this as missing infrastructure, not path evidence.
  bool fault_injected = false;
  /// Set only on a record restored by core::dataset_from_json (journal
  /// resume): the `normalized` document and `normalize_error` it was read
  /// with, published verbatim. The text round trip already rounded their
  /// RTTs, and a failed normalization has no hops to render again.
  std::optional<probe::NormalizedTrace> published;
};

/// Per-site record: the page load plus C2 results for its domains.
struct SiteMeasurement {
  web::PageLoadRecord page;
  // Unique request domains on this page -> resolved addresses.
  std::map<std::string, std::vector<net::IPv4>> domain_ips;
  // Reverse DNS for every address seen on this page ("" = no PTR).
  std::map<net::IPv4, std::string> rdns;
};

/// Everything one volunteer ships back to the researchers.
struct VolunteerDataset {
  std::string volunteer_id;
  std::string country;
  std::string disclosed_city;  // volunteers disclose their city (§4)
  std::string volunteer_ip;    // anonymized after analysis (§3.5)
  std::string os;
  std::vector<SiteMeasurement> sites;
  // Session-level traceroute store, deduplicated by destination address.
  std::map<net::IPv4, TracerouteRecord> traces;

  size_t loaded_sites() const;
  size_t attempted_sites() const { return sites.size(); }
  size_t traceroutes_launched() const;
};

class GammaSession {
 public:
  GammaSession(GammaEnv env, VolunteerProfile profile, TargetList targets,
               GammaConfig config, uint64_t seed);

  /// Measure the next not-yet-measured site. Returns false when T_web is
  /// exhausted. Sites the volunteer opted out of are skipped (not counted
  /// as attempted).
  bool step();

  /// Run to completion (volunteers typically run in one sitting, §3.3).
  void run_all();

  /// Resume support: how far the session has progressed.
  size_t next_site_index() const { return next_index_; }
  size_t total_sites() const { return targets_.all().size(); }
  bool finished() const;

  const VolunteerDataset& dataset() const { return dataset_; }
  VolunteerDataset take_dataset() { return std::move(dataset_); }
  const VolunteerProfile& profile() const { return profile_; }

 private:
  void measure_site(const std::string& domain);

  GammaEnv env_;
  VolunteerProfile profile_;
  TargetList targets_;
  std::vector<std::string> ordered_targets_;
  GammaConfig config_;
  web::Browser browser_;
  probe::TracerouteEngine traceroute_;
  util::Rng rng_;
  size_t next_index_ = 0;
  VolunteerDataset dataset_;
};

/// Box-2 repair step (§4.1.1): for datasets whose source traceroutes are
/// missing or blocked, launch replacements from the nearest suitable
/// RIPE-Atlas probe (same country/city/network when possible; a neighboring
/// country otherwise). Returns the number of traces (re)filled.
size_t augment_with_atlas_traceroutes(VolunteerDataset& dataset, const GammaEnv& env,
                                      const probe::AtlasNetwork& atlas,
                                      const probe::TracerouteOptions& opts, util::Rng& rng);

}  // namespace gam::core
