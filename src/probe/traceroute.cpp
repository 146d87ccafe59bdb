#include "probe/traceroute.h"

#include <algorithm>
#include <optional>

#include "util/metrics.h"
#include "util/stats.h"
#include "util/trace.h"

namespace gam::probe {

double TracerouteHop::avg_rtt_ms() const { return util::mean(rtts_ms); }

double TracerouteResult::last_hop_rtt_ms() const {
  if (!reached || hops.empty()) return 0.0;
  return hops.back().avg_rtt_ms();
}

double TracerouteResult::first_hop_rtt_ms() const {
  for (const auto& h : hops) {
    if (h.ip != 0 && !h.rtts_ms.empty()) return h.avg_rtt_ms();
  }
  return 0.0;
}

TracerouteResult TracerouteEngine::trace(net::NodeId from, net::IPv4 dest,
                                         const TracerouteOptions& opts,
                                         util::Rng& rng, const util::FaultInjector* faults,
                                         std::string_view fault_scope) const {
  util::trace::ScopedSpan span("traceroute", "probe");
  TracerouteResult result = trace_impl(from, dest, opts, rng, faults, fault_scope);
  // Simulated cost of the probe run: the deepest responding hop's RTT (the
  // per-TTL probes overlap in the real tool, so the deepest response bounds
  // the run). Deterministic — derived only from the seeded samples.
  double deepest_ms = 0.0;
  for (const auto& h : result.hops) {
    if (h.ip != 0 && !h.rtts_ms.empty()) deepest_ms = std::max(deepest_ms, h.avg_rtt_ms());
  }
  util::trace::advance_sim_ms(deepest_ms);
  if (span.active()) {
    span.arg("dest", result.target);
    span.arg("reached", result.reached);
    span.arg("hops", result.hops.size());
    if (result.fault_injected) span.arg("fault_injected", true);
  }
  return result;
}

TracerouteResult TracerouteEngine::trace_impl(net::NodeId from, net::IPv4 dest,
                                              const TracerouteOptions& opts,
                                              util::Rng& rng,
                                              const util::FaultInjector* faults,
                                              std::string_view fault_scope) const {
  static util::Counter& traces =
      util::MetricsRegistry::instance().counter("probe.traceroutes");
  static util::Counter& reached_total =
      util::MetricsRegistry::instance().counter("probe.traceroutes_reached");
  static util::Histogram& hop_hist = util::MetricsRegistry::instance().histogram(
      "probe.hops_per_trace", {2, 4, 6, 8, 12, 16, 24, 32});
  static util::Histogram& last_hop_hist =
      util::MetricsRegistry::instance().histogram("probe.last_hop_rtt_ms");
  traces.inc();
  TracerouteResult result;
  result.target = net::ip_to_string(dest);
  result.dest_ip = dest;
  result.max_ttl = opts.max_ttl;

  // Fault plane: a killed probe run produces no hop rows at all, exactly
  // what a volunteer's firewalled `traceroute` that never prints looks like.
  // Hop-loss draws come from a dedicated (scope, dest) substream so the
  // measurement rng sees an identical draw sequence with faults on or off.
  bool fault_armed = faults && faults->armed();
  std::string fault_key;
  std::optional<util::Rng> loss_rng;
  if (fault_armed) {
    fault_key = std::string(fault_scope) + "/" + result.target;
    if (faults->roll("traceroute.timeout", fault_key, faults->plan().trace_timeout)) {
      result.fault_injected = true;
      hop_hist.observe(0.0);
      return result;
    }
    if (faults->plan().trace_hop_loss > 0.0) {
      loss_rng = faults->stream("traceroute.hoploss", fault_key);
    }
  }

  net::NodeId dest_node = topology_.find_by_ip(dest);
  if (dest_node == net::kInvalidNode) return result;  // unrouted: nothing answers
  auto path = topology_.shortest_path(from, dest_node);
  if (!path) return result;

  // A firewalled path stops answering at a random interior router; the OS
  // tool then prints '*' rows until max_ttl (we keep three for brevity, as
  // interrupted runs are usually cut short by the operator or a timeout).
  size_t cutoff = path->nodes.size();
  if (rng.chance(opts.blocked_prob) && path->nodes.size() > 2) {
    cutoff = 1 + rng.uniform(path->nodes.size() - 2);
  }
  bool dest_silent = rng.chance(opts.dest_noresponse_prob);

  // Hop 0 is the source itself; TTL probing starts at the first router.
  // Cumulative latency is read off the source's frozen tree (path->cum_ms);
  // querying latency_ms(prev, hop) here would build a one-off Dijkstra tree
  // rooted at every interior router on the path.
  double cumulative_ms = 0.0;
  for (size_t i = 1; i < path->nodes.size(); ++i) {
    net::NodeId hop_node = path->nodes[i];
    cumulative_ms = path->cum_ms[i];
    int ttl = static_cast<int>(i);
    if (ttl > opts.max_ttl) break;

    TracerouteHop hop;
    hop.ttl = ttl;
    bool is_dest = (i + 1 == path->nodes.size());
    bool responds = true;
    if (i >= cutoff) {
      responds = false;  // firewalled
    } else if (is_dest) {
      responds = !dest_silent;
    } else if (rng.chance(opts.hop_noresponse_prob)) {
      responds = false;  // ICMP-silent router
    }
    if (responds && !is_dest && loss_rng &&
        loss_rng->chance(faults->plan().trace_hop_loss)) {
      responds = false;  // injected probe loss
    }
    // Unnumbered nodes cannot source TTL-exceeded replies.
    if (responds && topology_.node(hop_node).ip == 0) responds = false;
    if (responds) {
      const net::Node& n = topology_.node(hop_node);
      hop.ip = n.ip;
      if (auto ptr = resolver_.reverse(n.ip)) hop.hostname = *ptr;
      for (int q = 0; q < opts.queries_per_hop; ++q) {
        double rtt = 2.0 * cumulative_ms * rng.uniform_real(1.0, 1.08) +
                     rng.exponential(3.0);
        hop.rtts_ms.push_back(rtt);
      }
      if (is_dest) result.reached = true;
    }
    result.hops.push_back(std::move(hop));
    if (i >= cutoff && result.hops.size() >= cutoff + 2) break;  // give up after a few '*'
  }
  hop_hist.observe(static_cast<double>(result.hops.size()));
  if (result.reached) {
    reached_total.inc();
    last_hop_hist.observe(result.last_hop_rtt_ms());
  }
  return result;
}

}  // namespace gam::probe
