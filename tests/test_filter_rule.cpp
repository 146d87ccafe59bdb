#include "trackers/filter_rule.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "web/url.h"

namespace gam::trackers {
namespace {

RequestContext ctx(std::string url, std::string page_host = "news.example",
                   web::ResourceType type = web::ResourceType::Script,
                   bool third_party = true) {
  RequestContext c;
  c.url = std::move(url);
  c.host = web::host_of(c.url);
  c.page_host = std::move(page_host);
  c.type = type;
  c.third_party = third_party;
  return c;
}

// ---------------------------------------------------------------- parsing

TEST(FilterParse, SkipsCommentsHeadersCosmetics) {
  EXPECT_FALSE(FilterRule::parse("! a comment").has_value());
  EXPECT_FALSE(FilterRule::parse("[Adblock Plus 2.0]").has_value());
  EXPECT_FALSE(FilterRule::parse("").has_value());
  EXPECT_FALSE(FilterRule::parse("   ").has_value());
  EXPECT_FALSE(FilterRule::parse("example.com##.ad-banner").has_value());
  EXPECT_FALSE(FilterRule::parse("example.com#@#.ok").has_value());
}

TEST(FilterParse, HostAnchored) {
  auto rule = FilterRule::parse("||doubleclick.net^");
  ASSERT_TRUE(rule.has_value());
  EXPECT_TRUE(rule->host_anchored);
  EXPECT_EQ(rule->anchor_host, "doubleclick.net");
  EXPECT_EQ(rule->pattern, "^");
  EXPECT_FALSE(rule->exception);
}

TEST(FilterParse, HostAnchoredWithPath) {
  auto rule = FilterRule::parse("||example.com/ads/*");
  ASSERT_TRUE(rule.has_value());
  EXPECT_EQ(rule->anchor_host, "example.com");
  EXPECT_EQ(rule->pattern, "/ads/*");
}

TEST(FilterParse, Exception) {
  auto rule = FilterRule::parse("@@||gstatic.com/recaptcha^");
  ASSERT_TRUE(rule.has_value());
  EXPECT_TRUE(rule->exception);
  EXPECT_EQ(rule->anchor_host, "gstatic.com");
}

TEST(FilterParse, StartAndEndAnchors) {
  auto rule = FilterRule::parse("|https://exact.example/x|");
  ASSERT_TRUE(rule.has_value());
  EXPECT_TRUE(rule->start_anchored);
  EXPECT_TRUE(rule->end_anchored);
  EXPECT_EQ(rule->pattern, "https://exact.example/x");
}

TEST(FilterParse, Options) {
  auto rule = FilterRule::parse("||social.example^$third-party,script");
  ASSERT_TRUE(rule.has_value());
  EXPECT_EQ(rule->party, 1);
  EXPECT_EQ(rule->type_mask, kTypeScript);
}

TEST(FilterParse, NegatedTypeOptions) {
  auto rule = FilterRule::parse("||x.example^$~image");
  ASSERT_TRUE(rule.has_value());
  EXPECT_EQ(rule->type_mask & kTypeImage, 0u);
  EXPECT_NE(rule->type_mask & kTypeScript, 0u);
}

TEST(FilterParse, DomainOption) {
  auto rule = FilterRule::parse("/banner.js$domain=a.example|~b.a.example");
  ASSERT_TRUE(rule.has_value());
  ASSERT_EQ(rule->include_domains.size(), 1u);
  EXPECT_EQ(rule->include_domains[0], "a.example");
  ASSERT_EQ(rule->exclude_domains.size(), 1u);
  EXPECT_EQ(rule->exclude_domains[0], "b.a.example");
}

TEST(FilterParse, UnsupportedOptionRejectsRule) {
  EXPECT_FALSE(FilterRule::parse("||x.example^$websocket").has_value());
  EXPECT_FALSE(FilterRule::parse("||x.example^$redirect=noop").has_value());
}

TEST(FilterParse, EmptyHostAnchorRejected) {
  EXPECT_FALSE(FilterRule::parse("||").has_value());
  EXPECT_FALSE(FilterRule::parse("||^").has_value());
}

// ---------------------------------------------------------- pattern match

TEST(PatternMatch, PlainSubstring) {
  EXPECT_TRUE(pattern_match("/ads/", "https://x.example/ads/banner.png"));
  EXPECT_FALSE(pattern_match("/ads/", "https://x.example/news/"));
  EXPECT_TRUE(pattern_match("", "anything"));
}

TEST(PatternMatch, Wildcard) {
  EXPECT_TRUE(pattern_match("/banner/*/ad", "https://x/banner/123/ad.png"));
  EXPECT_FALSE(pattern_match("/banner/*/ad", "https://x/banner/ad"));  // * needs a segment? no: * matches empty
}

TEST(PatternMatch, WildcardMatchesEmpty) {
  EXPECT_TRUE(pattern_match("a*b", "ab"));
  EXPECT_TRUE(pattern_match("a*b", "aXXXb"));
  EXPECT_FALSE(pattern_match("a*b", "a"));
}

TEST(PatternMatch, SeparatorCaret) {
  EXPECT_TRUE(pattern_match("track^", "https://x/track?x=1"));
  EXPECT_TRUE(pattern_match("track^", "https://x/track/"));
  EXPECT_TRUE(pattern_match("track^", "https://x/track"));  // end of input
  EXPECT_FALSE(pattern_match("track^", "https://x/tracker"));  // 'e' not a separator
}

TEST(PatternMatch, CaseInsensitive) {
  EXPECT_TRUE(pattern_match("/ADS/", "https://x.example/ads/a.js"));
}

TEST(PatternMatch, ConsecutiveAndEdgeWildcards) {
  EXPECT_TRUE(pattern_match("a**b", "aXb"));
  EXPECT_TRUE(pattern_match("a**b", "ab"));
  EXPECT_TRUE(pattern_match("*ads*", "https://x/ads/i.png"));
  EXPECT_TRUE(pattern_match("*", "anything"));
  EXPECT_TRUE(pattern_match("*", ""));
  EXPECT_FALSE(pattern_match("a*b*c", "acb"));
}

TEST(PatternMatch, CaretAfterWildcard) {
  // '*' must be able to hand off to a '^' mid-text and at end of text.
  EXPECT_TRUE(pattern_match("track*^id", "https://x/track/abc?id"));
  EXPECT_TRUE(pattern_match("track*^", "https://x/track123"));  // '^' at end
  EXPECT_FALSE(pattern_match("track*^id", "https://x/trackabcid"));
}

// Regression: the old matcher recursed once per '*' and retried every start
// offset, so a star-heavy pattern against a long URL was exponential — a
// 21-char pattern vs. a 2k-char URL would effectively never return. The
// iterative two-pointer rewrite is O(|pattern| * |url|); even a generous
// CI box finishes this in well under 100 ms (typically microseconds).
TEST(PatternMatch, PathologicalStarPatternIsFast) {
  const std::string pattern = "a*a*a*a*a*a*a*a*a*a*b";  // 10 '*'s, no match
  std::string url = "https://x.example/";
  url.append(2000, 'a');  // 2k-char URL of near-matches
  auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(pattern_match(pattern, url));
  url.back() = 'b';  // now it matches; exercise the accepting path too
  EXPECT_TRUE(pattern_match(pattern, url));
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  EXPECT_LT(elapsed_ms, 100.0);
}

TEST(RuleMatch, PathologicalEndAnchoredIsFast) {
  // End-anchored rules used to retry match_at from every offset on top of
  // the recursive stars — the same blowup through a different entry point.
  auto rule = *FilterRule::parse("a*a*a*a*a*a*a*a*a*a*b|");
  std::string url = "https://x.example/" + std::string(2000, 'a');
  auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(rule_matches(rule, ctx(url)));
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  EXPECT_LT(elapsed_ms, 100.0);
}

// -------------------------------------------------------------- matching

TEST(RuleMatch, HostAnchorCoversSubdomains) {
  auto rule = *FilterRule::parse("||doubleclick.net^");
  EXPECT_TRUE(rule_matches(rule, ctx("https://stats.g.doubleclick.net/collect")));
  EXPECT_TRUE(rule_matches(rule, ctx("https://doubleclick.net/x")));
  EXPECT_FALSE(rule_matches(rule, ctx("https://notdoubleclick.net/x")));
  EXPECT_FALSE(rule_matches(rule, ctx("https://doubleclick.net.evil.example/x")));
}

TEST(RuleMatch, HostAnchorPathPattern) {
  auto rule = *FilterRule::parse("||example.com/ads/*");
  EXPECT_TRUE(rule_matches(rule, ctx("https://example.com/ads/banner.png")));
  EXPECT_TRUE(rule_matches(rule, ctx("https://sub.example.com/ads/x")));
  EXPECT_FALSE(rule_matches(rule, ctx("https://example.com/news/")));
}

TEST(RuleMatch, ThirdPartyOption) {
  auto rule = *FilterRule::parse("||social.example^$third-party");
  EXPECT_TRUE(rule_matches(
      rule, ctx("https://social.example/w.js", "news.example", web::ResourceType::Script, true)));
  EXPECT_FALSE(rule_matches(
      rule,
      ctx("https://social.example/w.js", "social.example", web::ResourceType::Script, false)));
}

TEST(RuleMatch, FirstPartyOnlyOption) {
  auto rule = *FilterRule::parse("||x.example^$~third-party");
  EXPECT_FALSE(rule_matches(
      rule, ctx("https://x.example/a.js", "news.example", web::ResourceType::Script, true)));
  EXPECT_TRUE(rule_matches(
      rule, ctx("https://x.example/a.js", "x.example", web::ResourceType::Script, false)));
}

TEST(RuleMatch, TypeOption) {
  auto rule = *FilterRule::parse("||pix.example^$image");
  EXPECT_TRUE(rule_matches(
      rule, ctx("https://pix.example/p.gif", "n.example", web::ResourceType::Image, true)));
  EXPECT_FALSE(rule_matches(
      rule, ctx("https://pix.example/p.js", "n.example", web::ResourceType::Script, true)));
}

TEST(RuleMatch, DomainOptionScopesToPages) {
  auto rule = *FilterRule::parse("/w.js$domain=target.example");
  EXPECT_TRUE(rule_matches(rule, ctx("https://t.example/w.js", "target.example")));
  EXPECT_TRUE(rule_matches(rule, ctx("https://t.example/w.js", "sub.target.example")));
  EXPECT_FALSE(rule_matches(rule, ctx("https://t.example/w.js", "other.example")));
}

TEST(RuleMatch, StartAnchored) {
  auto rule = *FilterRule::parse("|https://exact.example/");
  EXPECT_TRUE(rule_matches(rule, ctx("https://exact.example/x")));
  EXPECT_FALSE(rule_matches(rule, ctx("https://a.example/?u=https://exact.example/")));
}

TEST(RuleMatch, EndAnchored) {
  auto rule = *FilterRule::parse("/pixel.gif|");
  EXPECT_TRUE(rule_matches(rule, ctx("https://x.example/pixel.gif")));
  EXPECT_FALSE(rule_matches(rule, ctx("https://x.example/pixel.gif?x=1")));
}

TEST(RuleMatch, HostAnchorWithSeparatorAfterHost) {
  auto rule = *FilterRule::parse("||ads.example^");
  // '^' must match the char right after the host (':' or '/' or end).
  EXPECT_TRUE(rule_matches(rule, ctx("https://ads.example/x")));
  EXPECT_TRUE(rule_matches(rule, ctx("https://ads.example:8443/x")));
}

// Property sweep: the dominant rule form in real lists.
struct HostAnchorCase {
  const char* rule;
  const char* url;
  bool expect;
};

// Prints a case by its content, so the case's test name is the same in every
// build (by default gtest prints the struct's bytes, i.e. its pointers).
void PrintTo(const HostAnchorCase& c, std::ostream* os) {
  *os << c.rule << (c.expect ? " =~ " : " !~ ") << c.url;
}

class HostAnchorSweep : public ::testing::TestWithParam<HostAnchorCase> {};

TEST_P(HostAnchorSweep, Matches) {
  auto rule = FilterRule::parse(GetParam().rule);
  ASSERT_TRUE(rule.has_value());
  EXPECT_EQ(rule_matches(*rule, ctx(GetParam().url)), GetParam().expect)
      << GetParam().rule << " vs " << GetParam().url;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, HostAnchorSweep,
    ::testing::Values(
        HostAnchorCase{"||googletagmanager.com^", "https://www.googletagmanager.com/gtm.js", true},
        HostAnchorCase{"||google-analytics.com^", "https://ssl.google-analytics.com/ga.js", true},
        HostAnchorCase{"||yandex.ru^", "https://mc.yandex.ru/metrika/watch.js", true},
        HostAnchorCase{"||yandex.ru^", "https://yandex.ruby.example/x", false},
        HostAnchorCase{"||t.co^", "https://t.co/i/adsct", true},
        HostAnchorCase{"||t.co^", "https://tt.co/x", false},
        HostAnchorCase{"||smaato.net^", "https://ads.smaato.net/sdk.js", true},
        HostAnchorCase{"||example.com/collect?", "https://example.com/collect?v=1", true},
        HostAnchorCase{"||example.com/collect?", "https://example.com/collected", false}));

}  // namespace
}  // namespace gam::trackers
