// GammaStore (.gmst) round-trip, determinism, corruption, and query tests.
//
// The two contracts under test (ISSUE 4):
//  - Fidelity: every paper report computed from a mapped store is
//    byte-identical to the same report computed from the in-memory analyses
//    the store was written from.
//  - Safety: a truncated, corrupted, or foreign file produces a structured
//    store::Error — never a crash, never UB (this suite runs under
//    ASan/UBSan in tools/check.sh).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/flows.h"
#include "analysis/per_site.h"
#include "analysis/policy.h"
#include "analysis/prevalence.h"
#include "analysis/report_json.h"
#include "analysis_fixture.h"
#include "store/format.h"
#include "store/query.h"
#include "store/reader.h"
#include "store/reports.h"
#include "store/writer.h"
#include "util/rng.h"
#include "world/country.h"
#include "worldgen/study.h"
#include "worldgen/world.h"

namespace gam {
namespace {

/// One shared two-country study: enough structure (both site kinds, several
/// destination countries, funnel activity) to exercise every column, small
/// enough to run once per test binary.
const worldgen::StudyResult& shared_study() {
  static const worldgen::StudyResult study = [] {
    auto world = worldgen::generate_world({});
    worldgen::StudyOptions options;
    options.seed = 23;
    options.countries = {"US", "GB"};
    return worldgen::run_study(*world, options);
  }();
  return study;
}

std::string store_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// Write the shared study's store once and cache the path. One per process,
/// removed at exit: ctest runs each test in a process of its own, in
/// parallel, and two processes publishing one path race on its temp file.
const std::string& shared_store() {
  struct Store {
    std::string path;
    ~Store() { std::remove(path.c_str()); }
  };
  static const Store store = [] {
    std::string p = store_path("shared-" + std::to_string(::getpid()) + ".gmst");
    store::StudyMeta meta;
    meta.seed = 23;
    store::WriteResult written = store::Writer(meta).write(p, shared_study().analyses);
    EXPECT_TRUE(written.ok()) << written.error.to_string();
    return Store{p};
  }();
  return store.path;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Open `bytes` as a store and expect a structured failure with `code`.
void expect_open_fails(const std::string& name, const std::string& bytes,
                       store::ErrorCode code) {
  std::string path = store_path(name);
  write_bytes(path, bytes);
  store::Error error;
  std::unique_ptr<store::Reader> reader = store::Reader::open(path, &error);
  EXPECT_EQ(reader, nullptr);
  EXPECT_EQ(error.code, code) << error.to_string();
  EXPECT_FALSE(error.to_string().empty());
}

TEST(StoreWriter, IsDeterministic) {
  std::string a = store_path("det-a.gmst"), b = store_path("det-b.gmst");
  ASSERT_TRUE(store::Writer().write(a, shared_study().analyses).ok());
  ASSERT_TRUE(store::Writer().write(b, shared_study().analyses).ok());
  std::string bytes_a = read_bytes(a), bytes_b = read_bytes(b);
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST(StoreWriter, BytesAreJobsInvariant) {
  // The determinism contract's store half: the serialized bytes are a pure
  // function of the study, and the study is jobs-invariant, so the store
  // written by a parallel run must equal the serial one bit for bit.
  auto world = worldgen::generate_world({});
  worldgen::StudyOptions options;
  options.seed = 23;
  options.countries = {"US", "GB"};
  options.store_out = store_path("jobs1.gmst");
  worldgen::run_study(*world, options);
  options.jobs = 4;
  options.store_out = store_path("jobs4.gmst");
  worldgen::run_study(*world, options);
  std::string serial = read_bytes(store_path("jobs1.gmst"));
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, read_bytes(store_path("jobs4.gmst")));
}

TEST(StoreWriter, ReportsWriteFailureAsError) {
  store::WriteResult written =
      store::Writer().write("/nonexistent-dir/x.gmst", shared_study().analyses);
  EXPECT_FALSE(written.ok());
  EXPECT_EQ(written.error.code, store::ErrorCode::Io);
}

TEST(StoreReader, MetaAndCountsSurviveRoundTrip) {
  store::Error error;
  auto reader = store::Reader::open(shared_store(), &error);
  ASSERT_NE(reader, nullptr) << error.to_string();

  const auto& analyses = shared_study().analyses;
  size_t sites = 0, hits = 0;
  for (const auto& c : analyses) {
    sites += c.sites.size();
    for (const auto& s : c.sites) hits += s.trackers.size();
  }
  EXPECT_EQ(reader->num_countries(), analyses.size());
  EXPECT_EQ(reader->num_sites(), sites);
  EXPECT_EQ(reader->num_hits(), hits);
  EXPECT_EQ(reader->meta().get_string("seed"), "23");
  EXPECT_EQ(reader->meta().get_string("format"), "gmst");

  const store::CountriesView& c = reader->countries();
  for (size_t i = 0; i < analyses.size(); ++i) {
    EXPECT_EQ(c.code.at(i), analyses[i].country);
    EXPECT_EQ(c.unique_domains.at(i), analyses[i].unique_domains);
    EXPECT_EQ(c.traceroutes.at(i), analyses[i].traceroutes);
    EXPECT_EQ(c.funnel_total.at(i), analyses[i].funnel.total);
  }
}

/// Every report and the summary, rendered from the mapped store and from the
/// in-memory analyses it was written from, must be the same bytes.
void expect_views_agree(const store::Reader& reader,
                        const std::vector<analysis::CountryAnalysis>& analyses) {
  EXPECT_EQ(analysis::to_json(store::prevalence_report(reader)).dump(2),
            analysis::to_json(analysis::compute_prevalence(analyses)).dump(2));
  EXPECT_EQ(analysis::to_json(store::policy_report(reader)).dump(2),
            analysis::to_json(analysis::compute_policy(analyses)).dump(2));
  EXPECT_EQ(analysis::to_json(store::per_site_report(reader)).dump(2),
            analysis::to_json(analysis::compute_per_site(analyses)).dump(2));
  EXPECT_EQ(analysis::to_json(store::flows_report(reader)).dump(2),
            analysis::to_json(analysis::compute_flows(analyses)).dump(2));
  EXPECT_EQ(store::coverage_json(reader).dump(2), analysis::coverage_json(analyses).dump(2));
  EXPECT_EQ(store::funnel_json(reader).dump(2), analysis::funnel_json(analyses).dump(2));
  EXPECT_EQ(store::summary_json(reader).dump(2),
            analysis::study_summary_json(analyses.size(),
                                         analysis::compute_prevalence(analyses),
                                         analysis::compute_flows(analyses))
                .dump(2));
}

TEST(StoreReports, AreByteIdenticalToInMemoryAnalysis) {
  // The golden round-trip: study -> store -> report == analyses -> report,
  // compared as rendered JSON bytes through the shared emitters.
  store::Error error;
  auto reader = store::Reader::open(shared_store(), &error);
  ASSERT_NE(reader, nullptr) << error.to_string();
  expect_views_agree(*reader, shared_study().analyses);
}

TEST(StoreReports, ReportNamesResolveToTheirReports) {
  // The report-name table both front doors share: each name must answer
  // with its own report, built here straight from the report functions.
  store::Error error;
  auto reader = store::Reader::open(shared_store(), &error);
  ASSERT_NE(reader, nullptr) << error.to_string();
  const std::vector<std::pair<std::string, util::Json>> expected = {
      {"summary", store::summary_json(*reader)},
      {"prevalence", analysis::to_json(store::prevalence_report(*reader))},
      {"policy", analysis::to_json(store::policy_report(*reader))},
      {"per-site", analysis::to_json(store::per_site_report(*reader))},
      {"flows", analysis::to_json(store::flows_report(*reader))},
      {"coverage", store::coverage_json(*reader)},
      {"funnel", store::funnel_json(*reader)},
  };
  for (const auto& [name, json] : expected) {
    util::StatusOr<util::Json> resolved = store::report_json(*reader, name);
    ASSERT_TRUE(resolved.ok()) << name << ": " << resolved.status().message();
    EXPECT_EQ(resolved->dump(2), json.dump(2)) << name;
  }
}

TEST(StoreReports, EdgeFixtureRoundTripsByteIdentically) {
  // test_analysis's hand-checked NZ/CA fixture (an unloaded site, tracker-
  // free sites, a country with no trackers at all) plus a degraded country
  // with zero sites, which no real one- or two-country study produces.
  std::vector<analysis::CountryAnalysis> analyses = analysis::fixture();
  analysis::CountryAnalysis degraded;
  degraded.country = "JP";
  analyses.push_back(degraded);
  store::StudyMeta meta;
  meta.degraded_countries = {"JP"};
  const std::string path = store_path("edge.gmst");
  store::WriteResult written = store::Writer(meta).write(path, analyses);
  ASSERT_TRUE(written.ok()) << written.error.to_string();
  store::Error error;
  auto reader = store::Reader::open(path, &error);
  ASSERT_NE(reader, nullptr) << error.to_string();
  ASSERT_EQ(reader->num_countries(), 3u);
  expect_views_agree(*reader, analyses);
}

TEST(StoreReports, PolicyOverAnUnknownCountryCodeIsFailedPrecondition) {
  // A store written for a code this process's CountryDb does not know (a
  // synthetic code from another process's scale world, say) must get a
  // structured error naming the code from the report-name table, not abort.
  analysis::CountryAnalysis zz;
  zz.country = "ZZ";
  zz.sites = {analysis::site("news.zz", "ZZ", web::SiteKind::Regional, {})};
  const std::string path = store_path("zz.gmst");
  ASSERT_TRUE(store::Writer().write(path, {zz}).ok());
  store::Error error;
  auto reader = store::Reader::open(path, &error);
  ASSERT_NE(reader, nullptr) << error.to_string();

  util::StatusOr<util::Json> policy = store::report_json(*reader, "policy");
  ASSERT_FALSE(policy.ok());
  EXPECT_EQ(policy.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(policy.status().message().find("'ZZ'"), std::string::npos);
  for (const char* name : {"summary", "prevalence", "per-site", "flows", "coverage", "funnel"}) {
    EXPECT_TRUE(store::report_json(*reader, name).ok()) << name;
  }
  util::StatusOr<util::Json> unknown = store::report_json(*reader, "nope");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(unknown.status().message(),
            "unknown report 'nope' (summary|prevalence|policy|per-site|flows|coverage|funnel)");
}

TEST(StoreCorruption, StructuredErrorsNeverCrashes) {
  const std::string good = read_bytes(shared_store());
  ASSERT_GT(good.size(), 200u);

  expect_open_fails("missing.gmst.unwritten", "", store::ErrorCode::TooSmall);
  {
    store::Error error;
    EXPECT_EQ(store::Reader::open(store_path("never-written.gmst"), &error), nullptr);
    EXPECT_EQ(error.code, store::ErrorCode::Io);
  }

  // Wrong magic: a foreign file is rejected before anything is parsed.
  std::string bad = good;
  bad[0] = 'X';
  expect_open_fails("magic.gmst", bad, store::ErrorCode::BadMagic);

  // Unsupported version (bytes 4..7, little-endian u32).
  bad = good;
  bad[4] = '\x7f';
  expect_open_fails("version.gmst", bad, store::ErrorCode::BadVersion);

  // Truncations: shorter than a header+trailer, and mid-footer.
  expect_open_fails("tiny.gmst", good.substr(0, 10), store::ErrorCode::TooSmall);
  expect_open_fails("trunc.gmst", good.substr(0, good.size() - 17),
                    store::ErrorCode::BadTrailer);

  // A flipped data byte (inside the first block, past the 16-byte header)
  // must fail that block's CRC.
  bad = good;
  bad[100] ^= '\x40';
  expect_open_fails("flip.gmst", bad, store::ErrorCode::CrcMismatch);

  // A flipped footer byte must fail the footer CRC stored in the trailer.
  uint64_t footer_offset = 0;
  for (int i = 7; i >= 0; --i) {
    footer_offset = (footer_offset << 8) |
                    static_cast<uint8_t>(good[good.size() - 16 + i]);
  }
  ASSERT_LT(footer_offset, good.size());
  bad = good;
  bad[footer_offset + 2] ^= '\x01';
  expect_open_fails("footer.gmst", bad, store::ErrorCode::BadFooter);
}

TEST(StoreQuery, SelectGroupAndFlowsMatchTheAnalyses) {
  store::Error error;
  auto reader = store::Reader::open(shared_store(), &error);
  ASSERT_NE(reader, nullptr) << error.to_string();
  store::Query query(*reader);
  const auto& analyses = shared_study().analyses;

  // select over hits: matched == total hit rows; limit caps emitted rows only.
  store::QuerySpec spec;
  spec.table = store::TableId::Hits;
  spec.limit = 3;
  auto result = query.run(spec, &error);
  ASSERT_TRUE(result.has_value()) << error.to_string();
  EXPECT_EQ(static_cast<size_t>(result->get_number("matched")), reader->num_hits());
  EXPECT_LE(result->find("result")->size(), 3u);

  // group-by source country == per-country tracker-hit totals.
  spec = {};
  spec.table = store::TableId::Hits;
  spec.group_by = "source_country";
  result = query.run(spec, &error);
  ASSERT_TRUE(result.has_value()) << error.to_string();
  for (const auto& c : analyses) {
    size_t hits = 0;
    for (const auto& s : c.sites) hits += s.trackers.size();
    const util::Json* count = result->find("result")->find(c.country);
    if (hits == 0) {
      EXPECT_EQ(count, nullptr) << c.country;
    } else {
      ASSERT_NE(count, nullptr) << c.country;
      EXPECT_EQ(static_cast<size_t>(count->as_number()), hits) << c.country;
    }
  }

  // where org=Google over sites' hits, counted by hand from the analyses.
  spec = {};
  spec.table = store::TableId::Hits;
  spec.where.emplace_back("org", "Google");
  result = query.run(spec, &error);
  ASSERT_TRUE(result.has_value()) << error.to_string();
  size_t google = 0;
  for (const auto& c : analyses) {
    for (const auto& s : c.sites) {
      for (const auto& t : s.trackers) google += t.org == "Google" ? 1 : 0;
    }
  }
  EXPECT_EQ(static_cast<size_t>(result->get_number("matched")), google);

  // A where-value absent from the dictionary matches nothing (and does not
  // error: it is a valid query with an empty result).
  spec.where = {{"org", "NoSuchOrg"}};
  result = query.run(spec, &error);
  ASSERT_TRUE(result.has_value()) << error.to_string();
  EXPECT_EQ(result->get_number("matched"), 0.0);

  // flows == the distinct-site source->dest matrix from compute_flows input.
  spec = {};
  spec.table = store::TableId::Hits;
  spec.flows = true;
  result = query.run(spec, &error);
  ASSERT_TRUE(result.has_value()) << error.to_string();
  std::map<std::string, std::map<std::string, std::set<std::string>>> expected;
  for (const auto& c : analyses) {
    for (const auto& s : c.sites) {
      for (const auto& t : s.trackers) {
        expected[c.country][t.dest_country].insert(s.site_domain);
      }
    }
  }
  const util::Json* matrix = result->find("result");
  ASSERT_NE(matrix, nullptr);
  EXPECT_EQ(matrix->size(), expected.size());
  for (const auto& [src, dests] : expected) {
    const util::Json* row = matrix->find(src);
    ASSERT_NE(row, nullptr) << src;
    for (const auto& [dest, sites] : dests) {
      ASSERT_NE(row->find(dest), nullptr) << src << "->" << dest;
      EXPECT_EQ(static_cast<size_t>(row->find(dest)->as_number()), sites.size());
    }
  }
}

TEST(StoreQuery, RejectsUnknownColumnsWithBadQuery) {
  store::Error error;
  auto reader = store::Reader::open(shared_store(), &error);
  ASSERT_NE(reader, nullptr) << error.to_string();
  store::Query query(*reader);

  store::QuerySpec spec;
  spec.table = store::TableId::Sites;
  spec.where.emplace_back("no_such_column", "x");
  EXPECT_FALSE(query.run(spec, &error).has_value());
  EXPECT_EQ(error.code, store::ErrorCode::BadQuery);

  spec = {};
  spec.table = store::TableId::Countries;
  spec.group_by = "no_such_column";
  EXPECT_FALSE(query.run(spec, &error).has_value());
  EXPECT_EQ(error.code, store::ErrorCode::BadQuery);

  // flows only makes sense over hits.
  spec = {};
  spec.table = store::TableId::Sites;
  spec.flows = true;
  EXPECT_FALSE(query.run(spec, &error).has_value());
  EXPECT_EQ(error.code, store::ErrorCode::BadQuery);

  EXPECT_FALSE(store::table_from_name("no_such_table").has_value());
}

// Property fuzz over a randomized family of small studies (ISSUE 6): the
// write→read→report round-trip must hold for *any* study the pipeline can
// produce, not just the one shared fixture. Seeds and country subsets come
// from a dedicated Rng substream, so a failure reproduces exactly.
TEST(StoreFuzz, RandomizedStudiesRoundTripByteIdentically) {
  auto world = worldgen::generate_world({});
  util::Rng rng = util::Rng::substream(99, "store-fuzz");
  const std::vector<std::string>& pool = world::source_countries();
  constexpr int kStudies = 5;
  for (int round = 0; round < kStudies; ++round) {
    worldgen::StudyOptions options;
    options.seed = rng.uniform(100000);
    size_t n_countries = 1 + rng.uniform(2);  // 1 or 2
    std::set<std::string> picked;
    while (picked.size() < n_countries) picked.insert(pool[rng.uniform(pool.size())]);
    options.countries.assign(picked.begin(), picked.end());
    SCOPED_TRACE("seed=" + std::to_string(options.seed) + " countries=" +
                 options.countries[0] +
                 (options.countries.size() > 1 ? "," + options.countries[1] : ""));
    worldgen::StudyResult study = worldgen::run_study(*world, options);

    // Writer determinism: the same analyses serialize to the same bytes.
    store::StudyMeta meta;
    meta.seed = options.seed;
    std::string a = store_path("fuzz-a.gmst"), b = store_path("fuzz-b.gmst");
    ASSERT_TRUE(store::Writer(meta).write(a, study.analyses).ok());
    ASSERT_TRUE(store::Writer(meta).write(b, study.analyses).ok());
    EXPECT_EQ(read_bytes(a), read_bytes(b));

    // Round-trip fidelity: every report from the mapped store is
    // byte-identical to the same report computed from the in-memory
    // analyses the store was written from.
    store::Error error;
    auto reader = store::Reader::open(a, &error);
    ASSERT_NE(reader, nullptr) << error.to_string();
    EXPECT_EQ(reader->num_countries(), study.analyses.size());
    expect_views_agree(*reader, study.analyses);
  }
}

}  // namespace
}  // namespace gam
