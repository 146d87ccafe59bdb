#include "probe/formats.h"

#include <cmath>
#include <cstdlib>

#include "util/metrics.h"
#include "util/strings.h"

namespace gam::probe {

std::string os_kind_name(OsKind os) {
  switch (os) {
    case OsKind::Linux: return "linux";
    case OsKind::Windows: return "windows";
    case OsKind::MacOs: return "macos";
  }
  return "?";
}

std::optional<OsKind> os_kind_from_name(std::string_view name) {
  for (OsKind os : {OsKind::Linux, OsKind::Windows, OsKind::MacOs}) {
    if (name == os_kind_name(os)) return os;
  }
  return std::nullopt;
}

std::string format_linux(const TracerouteResult& result) {
  std::string out = util::format("traceroute to %s (%s), %d hops max, 60 byte packets\n",
                                 result.target.c_str(), result.target.c_str(),
                                 result.max_ttl);
  for (const auto& hop : result.hops) {
    if (hop.ip == 0) {
      out += util::format("%2d  * * *\n", hop.ttl);
      continue;
    }
    std::string ip = net::ip_to_string(hop.ip);
    const std::string& name = hop.hostname.empty() ? ip : hop.hostname;
    out += util::format("%2d  %s (%s)", hop.ttl, name.c_str(), ip.c_str());
    for (double rtt : hop.rtts_ms) out += util::format("  %.3f ms", rtt);
    out += "\n";
  }
  return out;
}

std::string format_macos(const TracerouteResult& result) {
  // Same traceroute family; only the header differs slightly.
  std::string out =
      util::format("traceroute to %s (%s), %d hops max, 52 byte packets\n",
                   result.target.c_str(), result.target.c_str(), result.max_ttl);
  std::string linux_text = format_linux(result);
  size_t first_newline = linux_text.find('\n');
  out += linux_text.substr(first_newline + 1);
  return out;
}

std::string format_windows(const TracerouteResult& result) {
  std::string out = util::format("Tracing route to %s over a maximum of %d hops\n\n",
                                 result.target.c_str(), result.max_ttl);
  for (const auto& hop : result.hops) {
    if (hop.ip == 0) {
      out += util::format("%3d     *        *        *     Request timed out.\n", hop.ttl);
      continue;
    }
    out += util::format("%3d  ", hop.ttl);
    for (double rtt : hop.rtts_ms) {
      if (rtt < 1.0) {
        out += "   <1 ms";
      } else {
        out += util::format("%5.0f ms", rtt);
      }
    }
    std::string ip = net::ip_to_string(hop.ip);
    if (hop.hostname.empty()) {
      out += util::format("  %s\n", ip.c_str());
    } else {
      out += util::format("  %s [%s]\n", hop.hostname.c_str(), ip.c_str());
    }
  }
  out += "\nTrace complete.\n";
  return out;
}

std::string format_for(const TracerouteResult& result, OsKind os) {
  switch (os) {
    case OsKind::Linux: return format_linux(result);
    case OsKind::Windows: return format_windows(result);
    case OsKind::MacOs: return format_macos(result);
  }
  return {};
}

util::Json traceroute_to_json(const TracerouteResult& result) {
  util::Json doc = util::Json::object();
  doc["target"] = result.target;
  doc["max_ttl"] = result.max_ttl;
  doc["reached"] = result.reached;
  util::Json hops = util::Json::array();
  for (const auto& hop : result.hops) {
    util::Json h = util::Json::object();
    h["ttl"] = hop.ttl;
    h["ip"] = hop.ip == 0 ? util::Json(nullptr) : util::Json(net::ip_to_string(hop.ip));
    h["hostname"] = hop.hostname.empty() ? util::Json(nullptr) : util::Json(hop.hostname);
    util::Json rtts = util::Json::array();
    for (double r : hop.rtts_ms) rtts.push_back(r);
    h["rtt_ms"] = std::move(rtts);
    hops.push_back(std::move(h));
  }
  doc["hops"] = std::move(hops);
  return doc;
}

namespace {

struct ParsedHop {
  int ttl = 0;
  std::string ip;        // empty = timeout
  std::string hostname;  // empty = none
  std::vector<double> rtts;
};

// Strict RTT token parse: the full token must be a finite, non-negative
// number. Garbled tool output ("4.x2", "-1e999") must fail the line, not
// silently truncate to whatever strtod salvages.
bool parse_rtt(std::string_view token, double& out) {
  std::string buf(token);
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  if (!std::isfinite(v) || v < 0.0) return false;
  out = v;
  return true;
}

// " 3  core.fra.net (10.0.0.3)  4.2 ms  4.3 ms  4.1 ms"  |  " 2  * * *"
std::optional<ParsedHop> parse_linux_hop(std::string_view line) {
  auto tokens = util::split_ws(line);
  if (tokens.size() < 2) return std::nullopt;
  long ttl = util::parse_long(tokens[0]);
  if (ttl <= 0) return std::nullopt;
  ParsedHop hop;
  hop.ttl = static_cast<int>(ttl);
  if (tokens[1] == "*") return hop;  // timeout row
  std::string_view name = tokens[1];
  if (tokens.size() < 3 || tokens[2].size() < 3 || tokens[2].front() != '(') {
    return std::nullopt;
  }
  if (tokens[2].back() != ')') return std::nullopt;
  hop.ip = std::string(tokens[2].substr(1, tokens[2].size() - 2));
  if (name != hop.ip) hop.hostname = std::string(name);
  for (size_t i = 3; i + 1 < tokens.size(); i += 2) {
    if (tokens[i + 1] != "ms") break;
    double rtt = 0.0;
    if (!parse_rtt(tokens[i], rtt)) return std::nullopt;
    hop.rtts.push_back(rtt);
  }
  return hop;
}

// "  3     4 ms     4 ms     4 ms  core.fra.net [10.0.0.3]"
// "  2     *        *        *     Request timed out."
std::optional<ParsedHop> parse_windows_hop(std::string_view line) {
  auto tokens = util::split_ws(line);
  if (tokens.size() < 2) return std::nullopt;
  long ttl = util::parse_long(tokens[0]);
  if (ttl <= 0) return std::nullopt;
  ParsedHop hop;
  hop.ttl = static_cast<int>(ttl);
  size_t i = 1;
  int rtt_fields = 0;
  while (i < tokens.size() && rtt_fields < 3) {
    if (tokens[i] == "*") {
      ++i;
      ++rtt_fields;
      continue;
    }
    if (tokens[i] == "<1" && i + 1 < tokens.size() && tokens[i + 1] == "ms") {
      hop.rtts.push_back(0.5);
      i += 2;
      ++rtt_fields;
      continue;
    }
    if (i + 1 < tokens.size() && tokens[i + 1] == "ms") {
      double rtt = 0.0;
      if (!parse_rtt(tokens[i], rtt)) return std::nullopt;
      hop.rtts.push_back(rtt);
      i += 2;
      ++rtt_fields;
      continue;
    }
    break;
  }
  if (i >= tokens.size()) return hop;
  if (tokens[i] == "Request") return hop;  // "Request timed out."
  // "hostname [ip]" or bare "ip".
  if (i + 1 < tokens.size() && tokens[i + 1].size() > 2 && tokens[i + 1].front() == '[') {
    hop.hostname = std::string(tokens[i]);
    hop.ip = std::string(tokens[i + 1].substr(1, tokens[i + 1].size() - 2));
  } else {
    hop.ip = std::string(tokens[i]);
  }
  return hop;
}

}  // namespace

NormalizedTrace normalize_traceroute_checked(std::string_view text, OsKind os) {
  static util::Counter& failures = [] () -> util::Counter& {
    return util::MetricsRegistry::instance().counter("probe.normalize_failures");
  }();
  bool windows = os == OsKind::Windows;
  NormalizedTrace out;
  auto fail = [&](std::string message, int line) -> NormalizedTrace& {
    out.doc = util::Json(nullptr);
    out.error = std::move(message);
    out.error_line = line;
    failures.inc();
    return out;
  };

  std::string target;
  int max_ttl = 0;
  util::Json hops = util::Json::array();
  std::string last_ip;
  int line_no = 0;
  bool saw_content = false;

  for (auto line : util::split_view(text, '\n')) {
    ++line_no;
    auto trimmed = util::trim(line);
    if (trimmed.empty()) continue;
    saw_content = true;
    if (util::starts_with(trimmed, "traceroute to ")) {
      auto tokens = util::split_ws(trimmed);
      if (tokens.size() >= 3) target = std::string(tokens[2]);
      for (size_t i = 0; i + 2 < tokens.size(); ++i) {
        if (tokens[i + 1] == "hops" && tokens[i + 2] == "max,") {
          max_ttl = static_cast<int>(util::parse_long(tokens[i]));
        }
      }
      continue;
    }
    if (util::starts_with(trimmed, "Tracing route to ")) {
      auto tokens = util::split_ws(trimmed);
      if (tokens.size() >= 4) target = std::string(tokens[3]);
      if (!tokens.empty()) {
        long v = util::parse_long(tokens[tokens.size() - 2]);
        if (v > 0) max_ttl = static_cast<int>(v);
      }
      continue;
    }
    if (util::starts_with(trimmed, "Trace complete")) continue;

    auto hop = windows ? parse_windows_hop(trimmed) : parse_linux_hop(trimmed);
    if (!hop) return fail("malformed hop line", line_no);

    util::Json h = util::Json::object();
    h["ttl"] = hop->ttl;
    h["ip"] = hop->ip.empty() ? util::Json(nullptr) : util::Json(hop->ip);
    h["hostname"] = hop->hostname.empty() ? util::Json(nullptr) : util::Json(hop->hostname);
    util::Json rtts = util::Json::array();
    for (double r : hop->rtts) rtts.push_back(r);
    h["rtt_ms"] = std::move(rtts);
    hops.push_back(std::move(h));
    if (!hop->ip.empty()) last_ip = hop->ip;
  }

  if (!saw_content) return fail("empty traceroute output", 0);
  if (target.empty()) return fail("missing or malformed header (no target)", 1);
  util::Json doc = util::Json::object();
  doc["target"] = target;
  doc["max_ttl"] = max_ttl;
  doc["reached"] = (!last_ip.empty() && last_ip == target);
  doc["hops"] = std::move(hops);
  out.doc = std::move(doc);
  return out;
}

util::Json normalize_traceroute(std::string_view text, OsKind os) {
  return normalize_traceroute_checked(text, os).doc;
}

}  // namespace gam::probe
