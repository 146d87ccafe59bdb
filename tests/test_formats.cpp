// Gamma's portability promise (§3): traceroute and tracert text normalizes
// into "an identical structure JSON file".
#include "probe/formats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string_view>

#include "util/strings.h"

#include "util/rng.h"

namespace gam::probe {
namespace {

TracerouteResult sample_result() {
  TracerouteResult r;
  r.target = "10.2.3.4";
  r.dest_ip = 0x0A020304;
  r.max_ttl = 30;
  r.reached = true;
  TracerouteHop h1;
  h1.ttl = 1;
  h1.ip = 0x0A000001;
  h1.hostname = "gw.local.example";
  h1.rtts_ms = {1.52, 1.33, 2.1};
  TracerouteHop h2;
  h2.ttl = 2;  // timeout row
  TracerouteHop h3;
  h3.ttl = 3;
  h3.ip = 0x0A020304;
  h3.rtts_ms = {43.8, 44.2, 43.1};  // no hostname
  r.hops = {h1, h2, h3};
  return r;
}

/// Text the normalizer refuses: a structured error and a null document.
void expect_refused(std::string_view text, OsKind os) {
  NormalizedTrace out = normalize_traceroute_checked(text, os);
  EXPECT_FALSE(out.ok()) << text;
  EXPECT_TRUE(out.doc.is_null()) << text;
}

TEST(Formats, LinuxTextShape) {
  std::string text = format_linux(sample_result());
  EXPECT_NE(text.find("traceroute to 10.2.3.4 (10.2.3.4), 30 hops max"), std::string::npos);
  EXPECT_NE(text.find("gw.local.example (10.0.0.1)"), std::string::npos);
  EXPECT_NE(text.find("1.520 ms"), std::string::npos);
  EXPECT_NE(text.find("* * *"), std::string::npos);
  // Hostless hop prints "ip (ip)".
  EXPECT_NE(text.find("10.2.3.4 (10.2.3.4)"), std::string::npos);
}

TEST(Formats, WindowsTextShape) {
  std::string text = format_windows(sample_result());
  EXPECT_NE(text.find("Tracing route to 10.2.3.4 over a maximum of 30 hops"),
            std::string::npos);
  EXPECT_NE(text.find("Request timed out."), std::string::npos);
  EXPECT_NE(text.find("gw.local.example [10.0.0.1]"), std::string::npos);
  EXPECT_NE(text.find("Trace complete."), std::string::npos);
}

TEST(Formats, WindowsSubMillisecond) {
  TracerouteResult r = sample_result();
  r.hops[0].rtts_ms = {0.4, 0.6, 0.2};
  std::string text = format_windows(r);
  EXPECT_NE(text.find("<1 ms"), std::string::npos);
}

TEST(Formats, MacOsIsTracerouteFamily) {
  std::string text = format_macos(sample_result());
  EXPECT_NE(text.find("traceroute to 10.2.3.4"), std::string::npos);
  EXPECT_NE(text.find("52 byte packets"), std::string::npos);
}

TEST(Normalize, LinuxRoundTripMatchesDirectJson) {
  TracerouteResult r = sample_result();
  util::Json direct = traceroute_to_json(r);
  util::Json normalized = normalize_traceroute_checked(format_linux(r), OsKind::Linux).doc;
  ASSERT_TRUE(normalized.is_object());
  EXPECT_EQ(normalized.get_string("target"), direct.get_string("target"));
  EXPECT_EQ(normalized.get_bool("reached"), direct.get_bool("reached"));
  EXPECT_EQ(normalized.get_number("max_ttl"), direct.get_number("max_ttl"));
  ASSERT_EQ(normalized.find("hops")->size(), direct.find("hops")->size());
  for (size_t i = 0; i < direct.find("hops")->size(); ++i) {
    const util::Json& a = normalized.find("hops")->at(i);
    const util::Json& b = direct.find("hops")->at(i);
    EXPECT_EQ(a.get_number("ttl"), b.get_number("ttl"));
    EXPECT_EQ(a.get_string("ip", "-"), b.get_string("ip", "-"));
    EXPECT_EQ(a.get_string("hostname", "-"), b.get_string("hostname", "-"));
    // Linux prints 3 decimals: RTTs round-trip to within 1e-3.
    ASSERT_EQ(a.find("rtt_ms")->size(), b.find("rtt_ms")->size());
    for (size_t k = 0; k < a.find("rtt_ms")->size(); ++k) {
      EXPECT_NEAR(a.find("rtt_ms")->at(k).as_number(), b.find("rtt_ms")->at(k).as_number(),
                  1e-3);
    }
  }
}

TEST(Normalize, WindowsAndLinuxAgreeOnStructure) {
  // The §3 guarantee: identical structure regardless of the OS tool.
  TracerouteResult r = sample_result();
  util::Json lin = normalize_traceroute_checked(format_linux(r), OsKind::Linux).doc;
  util::Json win = normalize_traceroute_checked(format_windows(r), OsKind::Windows).doc;
  ASSERT_TRUE(lin.is_object());
  ASSERT_TRUE(win.is_object());
  EXPECT_EQ(lin.get_string("target"), win.get_string("target"));
  EXPECT_EQ(lin.get_bool("reached"), win.get_bool("reached"));
  ASSERT_EQ(lin.find("hops")->size(), win.find("hops")->size());
  for (size_t i = 0; i < lin.find("hops")->size(); ++i) {
    const util::Json& a = lin.find("hops")->at(i);
    const util::Json& b = win.find("hops")->at(i);
    EXPECT_EQ(a.get_number("ttl"), b.get_number("ttl"));
    EXPECT_EQ(a.get_string("ip", "-"), b.get_string("ip", "-"));
    EXPECT_EQ(a.get_string("hostname", "-"), b.get_string("hostname", "-"));
    // tracert rounds to whole ms: values agree to within 1 ms.
    ASSERT_EQ(a.find("rtt_ms")->size(), b.find("rtt_ms")->size());
    for (size_t k = 0; k < a.find("rtt_ms")->size(); ++k) {
      EXPECT_NEAR(a.find("rtt_ms")->at(k).as_number(), b.find("rtt_ms")->at(k).as_number(),
                  1.0);
    }
  }
}

TEST(Normalize, UnreachedTraceIsNotReached) {
  TracerouteResult r = sample_result();
  r.reached = false;
  r.hops.pop_back();  // destination never answered
  util::Json lin = normalize_traceroute_checked(format_linux(r), OsKind::Linux).doc;
  util::Json win = normalize_traceroute_checked(format_windows(r), OsKind::Windows).doc;
  EXPECT_FALSE(lin.get_bool("reached", true));
  EXPECT_FALSE(win.get_bool("reached", true));
}

TEST(Normalize, MalformedTextReturnsNull) {
  expect_refused("not a traceroute at all", OsKind::Linux);
  expect_refused("", OsKind::Windows);
  expect_refused("traceroute to 1.2.3.4 (1.2.3.4), 30 hops max\ngarbage line", OsKind::Linux);
}

TEST(Normalize, OsKindNames) {
  EXPECT_EQ(os_kind_name(OsKind::Linux), "linux");
  EXPECT_EQ(os_kind_name(OsKind::Windows), "windows");
  EXPECT_EQ(os_kind_name(OsKind::MacOs), "macos");
}

// Property sweep: random traces normalize identically from both tools.
class NormalizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(NormalizeSweep, CrossOsAgreement) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 977 + 5);
  TracerouteResult r;
  r.target = net::ip_to_string(static_cast<net::IPv4>(rng.next()));
  r.max_ttl = 30;
  int hops = 1 + static_cast<int>(rng.uniform(12));
  for (int i = 1; i <= hops; ++i) {
    TracerouteHop hop;
    hop.ttl = i;
    if (!rng.chance(0.2)) {
      hop.ip = static_cast<net::IPv4>(rng.next() | 1);
      if (rng.chance(0.5)) hop.hostname = util::format("host%d.example.net", i);
      for (int q = 0; q < 3; ++q) hop.rtts_ms.push_back(rng.uniform_real(0.2, 250.0));
    }
    r.hops.push_back(hop);
  }
  // Make the last hop the destination when it responded.
  if (r.hops.back().ip != 0) {
    r.target = net::ip_to_string(r.hops.back().ip);
    r.reached = true;
  }
  util::Json lin = normalize_traceroute_checked(format_linux(r), OsKind::Linux).doc;
  util::Json win = normalize_traceroute_checked(format_windows(r), OsKind::Windows).doc;
  ASSERT_TRUE(lin.is_object());
  ASSERT_TRUE(win.is_object());
  EXPECT_EQ(lin.get_bool("reached"), win.get_bool("reached"));
  ASSERT_EQ(lin.find("hops")->size(), win.find("hops")->size());
  for (size_t i = 0; i < lin.find("hops")->size(); ++i) {
    EXPECT_EQ(lin.find("hops")->at(i).get_string("ip", "-"),
              win.find("hops")->at(i).get_string("ip", "-"));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormalizeSweep, ::testing::Range(0, 20));

// ---- Hardening: volunteer machines ship truncated and garbled text. The
// checked normalizer must never deref a null and must say what went wrong
// and where. ----

TEST(NormalizeChecked, CleanTextParses) {
  NormalizedTrace out =
      normalize_traceroute_checked(format_linux(sample_result()), OsKind::Linux);
  EXPECT_TRUE(out.ok());
  EXPECT_TRUE(out.error.empty());
  EXPECT_EQ(out.error_line, 0);
  ASSERT_TRUE(out.doc.is_object());
  EXPECT_EQ(out.doc.get_string("target"), "10.2.3.4");
}

TEST(NormalizeChecked, EmptyInputIsStructuredError) {
  NormalizedTrace out = normalize_traceroute_checked("", OsKind::Linux);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.error, "empty traceroute output");
  EXPECT_TRUE(out.doc.is_null());
  // Whitespace-only counts as empty of content: no header, so no target.
  NormalizedTrace blank = normalize_traceroute_checked("\n\n  \n", OsKind::Linux);
  EXPECT_FALSE(blank.ok());
}

TEST(NormalizeChecked, MissingHeaderReported) {
  // A killed tool can flush hop lines without the header ever appearing.
  NormalizedTrace out = normalize_traceroute_checked(
      " 1  gw (10.0.0.1)  1.0 ms\n", OsKind::Linux);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.error, "missing or malformed header (no target)");
  EXPECT_TRUE(out.doc.is_null());
}

TEST(NormalizeChecked, TruncatedHopLineReportsLineNumber) {
  // Simulate a mid-write kill: the last line stops inside the "(ip)" token.
  std::string text =
      "traceroute to 10.2.3.4 (10.2.3.4), 30 hops max, 60 byte packets\n"
      " 1  gw (10.0.0.1)  1.0 ms  1.1 ms\n"
      " 2  core.fra.net (10.0.0\n";
  NormalizedTrace out = normalize_traceroute_checked(text, OsKind::Linux);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.error, "malformed hop line");
  EXPECT_EQ(out.error_line, 3);
  EXPECT_TRUE(out.doc.is_null());
}

TEST(NormalizeChecked, TruncationInsideTrailingRttsStillParses) {
  // Losing only trailing RTT tokens is survivable — the hop keeps the
  // measurements that made it to disk.
  std::string text = format_linux(sample_result());
  text.resize(text.size() - 8);  // chops into hop 3's last "43.100 ms"
  NormalizedTrace out = normalize_traceroute_checked(text, OsKind::Linux);
  EXPECT_TRUE(out.ok());
  ASSERT_TRUE(out.doc.is_object());
  EXPECT_EQ(out.doc.find("hops")->at(2).find("rtt_ms")->size(), 2u);
}

TEST(NormalizeChecked, GarbledRttRejectedNotSalvaged) {
  std::string text =
      "traceroute to 10.2.3.4 (10.2.3.4), 30 hops max, 60 byte packets\n"
      " 1  gw (10.0.0.1)  4.x2 ms\n";
  NormalizedTrace out = normalize_traceroute_checked(text, OsKind::Linux);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.error_line, 2);
}

TEST(NormalizeChecked, GarbledWindowsRttRejected) {
  std::string text =
      "Tracing route to 10.2.3.4 over a maximum of 30 hops\n\n"
      "  1    4x99 ms     4 ms     4 ms  10.0.0.1\n";
  NormalizedTrace out = normalize_traceroute_checked(text, OsKind::Windows);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.error, "malformed hop line");
}

TEST(NormalizeChecked, NegativeAndInfiniteRttsRejected) {
  std::string neg =
      "traceroute to 10.2.3.4 (10.2.3.4), 30 hops max, 60 byte packets\n"
      " 1  gw (10.0.0.1)  -3.0 ms\n";
  EXPECT_FALSE(normalize_traceroute_checked(neg, OsKind::Linux).ok());
  std::string inf =
      "traceroute to 10.2.3.4 (10.2.3.4), 30 hops max, 60 byte packets\n"
      " 1  gw (10.0.0.1)  1e999 ms\n";
  EXPECT_FALSE(normalize_traceroute_checked(inf, OsKind::Linux).ok());
}

TEST(NormalizeChecked, UnterminatedParenIpRejected) {
  std::string text =
      "traceroute to 10.2.3.4 (10.2.3.4), 30 hops max, 60 byte packets\n"
      " 1  gw (10.0.0.1\n";
  EXPECT_FALSE(normalize_traceroute_checked(text, OsKind::Linux).ok());
}

TEST(NormalizeChecked, GarbageYieldsAnErrorAndANullDoc) {
  expect_refused("complete garbage", OsKind::Linux);
}

}  // namespace
}  // namespace gam::probe
