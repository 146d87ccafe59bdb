// OS-specific traceroute text emulation and the normalizer back to one JSON
// schema.
//
// This is Gamma's portability layer (§3): Scapy is unavailable on Windows,
// so the real tool shells out to `traceroute` on Linux/macOS and `tracert`
// on Windows — tools whose outputs differ in layout, RTT precision
// (tracert rounds to whole milliseconds and prints "<1 ms"), hostname
// placement, and terminal lines. Gamma's fix is a normalizer that parses
// either format into "an identical structure JSON file with hop and RTT
// information". We reproduce both emitters and the parser, and test that
// normalize(format_linux(r)) and normalize(format_windows(r)) agree on
// structure, addresses and hostnames, with RTTs equal to within tracert's
// rounding.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "probe/traceroute.h"
#include "util/json.h"

namespace gam::probe {

enum class OsKind { Linux, Windows, MacOs };

std::string os_kind_name(OsKind os);

/// Inverse of os_kind_name; nullopt for any other name.
std::optional<OsKind> os_kind_from_name(std::string_view name);

/// GNU traceroute-style text ("traceroute to 10.1.2.3 ..., 30 hops max").
std::string format_linux(const TracerouteResult& result);

/// Windows tracert-style text ("Tracing route to 10.1.2.3 over a maximum
/// of 30 hops"); RTTs rounded to ms, "<1 ms" for sub-millisecond values.
std::string format_windows(const TracerouteResult& result);

/// macOS traceroute output (same family as GNU traceroute).
std::string format_macos(const TracerouteResult& result);

/// Render with the tool native to `os`.
std::string format_for(const TracerouteResult& result, OsKind os);

/// Outcome of normalizing native tool output. On failure `doc` is null and
/// `error`/`error_line` carry a structured diagnostic — volunteer machines
/// ship truncated and garbled text (killed tools, locale quirks), and the
/// pipeline must account for every discarded trace rather than deref a null.
struct NormalizedTrace {
  util::Json doc;        // canonical schema; null iff !ok()
  std::string error;     // "" iff ok()
  int error_line = 0;    // 1-based line of the first malformed row (0 = none)
  bool ok() const { return error.empty(); }
};

/// Parse tool output back into the canonical JSON schema:
///   {"target": "...", "reached": bool, "max_ttl": n,
///    "hops": [{"ttl": n, "ip": "..."|null, "hostname": "..."|null,
///              "rtt_ms": [..]}]}
/// Never throws; every failure mode yields a structured error. Counts
/// `probe.normalize_failures` on failure.
NormalizedTrace normalize_traceroute_checked(std::string_view text, OsKind os);

/// Canonical JSON directly from the in-memory result (bypasses text); the
/// normalizer's output must match this in structure.
util::Json traceroute_to_json(const TracerouteResult& result);

}  // namespace gam::probe
