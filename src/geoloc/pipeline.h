// The multi-constraint geolocation pipeline — §4.1 end to end.
//
// Input: one "server observation": an IP contacted from a volunteer machine,
// with the source traceroute results (possibly from a RIPE-Atlas fallback
// probe) and the server's reverse DNS. The pipeline:
//   1. looks the IP up in the IPmap-like database; unknown IPs are discarded,
//      and claims matching the volunteer's country are Local (done);
//   2. applies the source-based constraint: traceroute must have reached the
//      destination, and the effective latency must satisfy SOL and the 80%-
//      of-published-statistics rule against the claimed location;
//   3. applies the destination-based constraint: a fresh traceroute from an
//      Atlas probe in the claimed country (same city when available) must
//      reach the server without violating SOL w.r.t. the claimed spot;
//   4. applies the reverse-DNS constraint.
// Only observations surviving all four are *confirmed non-local* — the set
// every analysis in §6 is computed over. The per-stage discard counters
// reproduce the paper's §5 funnel (≈14K non-local → ≈6.1K after SOL-based
// constraints → ≈4.7K after reverse DNS).
#pragma once

#include <optional>
#include <string>

#include "geoloc/constraints.h"
#include "geoloc/reference_latency.h"
#include "ipmap/geodb.h"
#include "probe/atlas.h"
#include "probe/traceroute.h"

namespace gam::geoloc {

/// One (volunteer, server IP) measurement bundle, pipeline input.
struct ServerObservation {
  net::IPv4 ip = 0;
  std::string volunteer_country;
  std::string volunteer_city;
  geo::Coord volunteer_coord;

  bool src_trace_attempted = false;
  bool src_trace_reached = false;
  /// The source trace was killed by the fault plane (not by the network):
  /// grounds for degrading the source constraint rather than discarding.
  bool src_trace_fault = false;
  double src_first_hop_ms = 0.0;
  double src_last_hop_ms = 0.0;

  std::string rdns;  // "" when no PTR exists
};

/// Where in the funnel an observation ended up.
enum class GeoStage {
  UnknownIp,        // IPmap has no record
  Local,            // claimed inside the volunteer's country
  SourceUnreached,  // source traceroute missing or didn't reach
  SourceSol,        // SOL violated against claimed location
  SourceReference,  // below 80% of published statistics
  DestUnreached,    // destination probe couldn't confirm reachability
  DestSol,          // destination-side SOL violated
  RdnsMismatch,     // hostname hints contradict the claim
  ConfirmedNonLocal,
};

std::string geo_stage_name(GeoStage s);

/// Structured discard taxonomy: every non-confirming verdict carries exactly
/// one code, and Degraded verdicts keep the code of the fault that forced a
/// constraint skip even when they ultimately confirm. The free-text `reason`
/// stays as human-readable detail (it embeds distances and RTTs), but
/// programmatic consumers — metrics, degradation accounting, the fault-sweep
/// harness — key on this enum.
enum class GeoErrorCode {
  None,                      // local or confirmed non-local
  NoIpmapRecord,             // database has no claim for the address
  SourceTraceMissing,        // no source traceroute was ever attempted
  SourceTraceUnreached,      // attempted but never reached the destination
  SourceSolViolation,        // claimed spot unreachable at light speed
  SourceReferenceViolation,  // below 80% of published statistics
  NoAtlasProbe,              // platform has no probe anywhere
  AtlasProbeUnavailable,     // fault plane: probe fleet did not answer
  DestTraceFault,            // fault plane: destination probe run killed
  DestTraceUnreached,        // destination traceroute didn't reach
  DestSolViolation,          // destination-side SOL violated
  RdnsMismatch,              // hostname hints contradict the claim
};

std::string geo_error_name(GeoErrorCode e);

/// How much of the multi-constraint battery actually ran. Full means every
/// enabled constraint was applied; Degraded means an infrastructure fault
/// (not measurement evidence!) forced the pipeline to skip a constraint and
/// classify on whatever survived — the paper's partial-coverage mode.
enum class GeoConfidence { Full, Degraded };

struct GeoVerdict {
  GeoStage stage = GeoStage::UnknownIp;
  bool is_local() const { return stage == GeoStage::Local; }
  bool confirmed_nonlocal() const { return stage == GeoStage::ConfirmedNonLocal; }
  bool discarded() const { return !is_local() && !confirmed_nonlocal(); }

  ipmap::GeoRecord claim;        // what IPmap said (when known)
  double effective_rtt_ms = 0.0; // source-side effective latency
  GeoErrorCode error = GeoErrorCode::None;  // structured discard code
  GeoConfidence confidence = GeoConfidence::Full;
  std::string reason;            // failure detail for discards
  int dest_probe_id = 0;         // Atlas probe used (0 = none)
  std::string dest_probe_country;
  bool dest_trace_launched = false;  // a destination traceroute was issued
};

/// Totals for the §5 funnel. The pipeline itself is stateless (classify is
/// pure, so any number of threads can share one geolocator); each caller
/// accumulates its own counters by absorbing the verdicts it receives.
struct FunnelCounters {
  size_t total = 0;
  size_t unknown_ip = 0;
  size_t local = 0;
  size_t nonlocal_candidates = 0;
  size_t after_sol_constraints = 0;  // survived source+destination checks
  size_t after_rdns = 0;             // survived everything
  size_t dest_traceroutes = 0;       // destination traces launched

  /// Record where one classified observation landed in the funnel.
  void absorb(const GeoVerdict& v);
  /// Merge another set of totals (per-country -> study-wide aggregation).
  void merge(const FunnelCounters& other);
};

/// Which constraints the pipeline applies — all on for the paper's method.
/// Selectively disabling stages supports the ablation study
/// (bench_ablation): how much does each §4.1 constraint contribute to
/// filtering bad geolocations?
struct ConstraintConfig {
  bool source_constraint = true;  // §4.1.1: reachability + SOL + 80% rule
  bool reference_rule = true;     // the 80%-of-published-statistics part
  bool dest_constraint = true;    // §4.1.2: Atlas probe verification
  bool rdns_constraint = true;    // §4.1.3: hostname hints

  static ConstraintConfig all() { return {}; }
  static ConstraintConfig none() { return {false, false, false, false}; }
};

class MultiConstraintGeolocator {
 public:
  MultiConstraintGeolocator(const ipmap::GeoDatabase& geodb,
                            const ReferenceLatency& reference,
                            const probe::AtlasNetwork& atlas,
                            const probe::TracerouteEngine& engine,
                            ConstraintConfig config = ConstraintConfig::all());

  /// Classify one observation. Destination traceroutes are launched lazily
  /// inside (flagged on the verdict), using `rng` for probe-path jitter.
  /// Pure: no object state is mutated (only process-wide atomic
  /// `geoloc.*` metrics are bumped), so concurrent calls are safe as long
  /// as each thread brings its own Rng. Track funnel totals by absorbing
  /// verdicts into a caller-owned FunnelCounters.
  GeoVerdict classify(const ServerObservation& obs, util::Rng& rng) const;

  /// Arm the fault plane (Atlas unavailability, destination-trace kills).
  /// Graceful degradation: when an injected infrastructure fault blocks a
  /// constraint, classify() skips that constraint, downgrades the verdict's
  /// confidence to Degraded, and continues with whatever evidence remains —
  /// instead of discarding the observation outright. Must be called before
  /// any concurrent classify() use; the pointer is borrowed.
  void set_faults(const util::FaultInjector* faults) { faults_ = faults; }

  const ConstraintConfig& config() const { return config_; }

 private:
  GeoVerdict classify_impl(const ServerObservation& obs, util::Rng& rng) const;

  const ipmap::GeoDatabase& geodb_;
  const ReferenceLatency& reference_;
  const probe::AtlasNetwork& atlas_;
  const probe::TracerouteEngine& engine_;
  ConstraintConfig config_;
  const util::FaultInjector* faults_ = nullptr;
};

}  // namespace gam::geoloc
