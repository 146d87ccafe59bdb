#include "store/shard.h"

#include <cstdio>
#include <cstdlib>

#include "store/reader.h"
#include "util/crc32.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace gam::store {

std::string shard_path(const std::string& dir, size_t index, const std::string& country) {
  return dir + "/shard-" + std::to_string(index) + "-" + country + ".gmst";
}

std::optional<uint32_t> file_crc32(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return std::nullopt;
  uint32_t crc = 0;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) crc = util::crc32(buf, n, crc);
  bool ok = std::feof(f) && !std::ferror(f);
  std::fclose(f);
  if (!ok) return std::nullopt;
  return crc;
}

ShardWriteResult ShardWriter::write(size_t index, const analysis::CountryAnalysis& analysis,
                                    size_t atlas_repaired, bool degraded) const {
  util::trace::ScopedSpan span("shard_write", "store");
  span.arg("country", analysis.country);
  span.arg("index", static_cast<uint64_t>(index));

  StudyMeta meta;
  meta.seed = meta_.seed;
  meta.targets_before_optout = meta_.targets_before_optout;
  meta.atlas_repaired_traces = atlas_repaired;
  if (degraded) meta.degraded_countries.push_back(analysis.country);
  meta.shard = ShardInfo{index, meta_.total_shards, analysis.country};

  Writer writer(std::move(meta));
  writer.set_faults(faults_);
  writer.set_fault_key("shard");

  ShardWriteResult result;
  result.path = shard_path(dir_, index, analysis.country);
  WriteResult w = writer.write(result.path, {analysis});
  result.error = w.error;
  result.crc = w.content_crc;
  result.bytes = w.bytes_written;
  if (result.ok()) util::MetricsRegistry::instance().counter("store.shards_written").inc();
  return result;
}

analysis::CountryAnalysis reconstruct_country(const Reader& r) {
  const CountriesView& cv = r.countries();
  analysis::CountryAnalysis c;
  c.country = std::string(cv.code.at(0));
  c.unique_domains = cv.unique_domains.at(0);
  c.unique_ips = cv.unique_ips.at(0);
  c.traceroutes = cv.traceroutes.at(0);
  c.funnel.total = cv.funnel_total.at(0);
  c.funnel.unknown_ip = cv.funnel_unknown_ip.at(0);
  c.funnel.local = cv.funnel_local.at(0);
  c.funnel.nonlocal_candidates = cv.funnel_nonlocal.at(0);
  c.funnel.after_sol_constraints = cv.funnel_after_sol.at(0);
  c.funnel.after_rdns = cv.funnel_after_rdns.at(0);
  c.funnel.dest_traceroutes = cv.funnel_dest_traces.at(0);
  for (uint64_t i = cv.dest_probe_offsets[0]; i < cv.dest_probe_offsets[1]; ++i)
    c.dest_probe_countries.insert(std::string(cv.dest_probe_values.at(i)));

  const SitesView& sv = r.sites();
  const HitsView& hv = r.hits();
  c.sites.reserve(r.num_sites());
  for (size_t s = cv.site_offsets[0]; s < cv.site_offsets[1]; ++s) {
    analysis::SiteAnalysis site;
    site.site_domain = std::string(sv.domain.at(s));
    site.country = std::string(sv.country.at(s));
    site.kind = sv.kind.at(s) == 1 ? web::SiteKind::Government : web::SiteKind::Regional;
    site.loaded = sv.loaded.at(s) != 0;
    site.total_domains = sv.total_domains.at(s);
    site.nonlocal_domains = sv.nonlocal_domains.at(s);
    site.trackers.reserve(sv.hit_offsets[s + 1] - sv.hit_offsets[s]);
    for (uint64_t h = sv.hit_offsets[s]; h < sv.hit_offsets[s + 1]; ++h) {
      analysis::TrackerHit t;
      t.domain = std::string(hv.domain.at(h));
      t.reg_domain = std::string(hv.reg_domain.at(h));
      t.ip = hv.ip.at(h);
      t.dest_country = std::string(hv.dest_country.at(h));
      t.dest_city = std::string(hv.dest_city.at(h));
      t.org = std::string(hv.org.at(h));
      t.method = static_cast<trackers::IdMethod>(hv.method.at(h));
      t.first_party = hv.first_party.at(h) != 0;
      site.trackers.push_back(std::move(t));
    }
    c.sites.push_back(std::move(site));
  }
  return c;
}

namespace {

/// One opened, validated shard plus the study metadata it claims.
struct LoadedShard {
  std::string path;
  size_t index = 0;
  std::string seed;
  size_t total = 0;
  size_t targets = 0;
  size_t atlas_repaired = 0;
  std::vector<std::string> degraded;
  analysis::CountryAnalysis analysis;
};

}  // namespace

MergeResult merge_shards(const std::string& out_path,
                         const std::vector<std::string>& shard_paths,
                         const util::FaultInjector* faults) {
  util::trace::ScopedSpan span("store_merge", "store");
  span.arg("shards", static_cast<uint64_t>(shard_paths.size()));
  MergeResult result;
  auto fail = [&](ErrorCode code, std::string detail) {
    util::MetricsRegistry::instance().counter("store.merge_failures").inc();
    result.error = {code, std::move(detail)};
    return result;
  };
  if (shard_paths.empty()) return fail(ErrorCode::Malformed, "merge: no input shards");

  std::vector<LoadedShard> loaded;
  loaded.reserve(shard_paths.size());
  for (const auto& path : shard_paths) {
    Error err;
    // Reader::open re-verifies the whole file (trailer, footer CRC, every
    // block CRC) — a torn or bit-flipped shard is rejected here with the
    // path in the message (reader.cpp prefixes it).
    std::unique_ptr<Reader> r = Reader::open(path, &err);
    if (!r) {
      result.error = err;
      util::MetricsRegistry::instance().counter("store.merge_failures").inc();
      return result;
    }
    const util::Json& meta = r->meta();
    const util::Json* shard = meta.find("shard");
    if (!shard || !shard->is_object())
      return fail(ErrorCode::Malformed, path + ": not a shard (no shard metadata; "
                                               "refusing to merge a whole-study store)");
    if (r->num_countries() != 1)
      return fail(ErrorCode::Malformed,
                  path + ": shard holds " + std::to_string(r->num_countries()) +
                      " countries, expected exactly 1");
    LoadedShard s;
    s.path = path;
    s.index = static_cast<size_t>(shard->get_number("index", 0));
    s.total = static_cast<size_t>(shard->get_number("total", 0));
    s.seed = meta.get_string("seed");
    s.targets = static_cast<size_t>(meta.get_number("targets_before_optout", 0));
    s.atlas_repaired = static_cast<size_t>(meta.get_number("atlas_repaired_traces", 0));
    if (const util::Json* deg = meta.find("degraded_countries"); deg && deg->is_array())
      for (const auto& d : deg->items()) s.degraded.push_back(d.as_string());
    s.analysis = reconstruct_country(*r);
    if (shard->get_string("country") != s.analysis.country)
      return fail(ErrorCode::Malformed, path + ": shard metadata names country '" +
                                            shard->get_string("country") +
                                            "' but the data row is '" + s.analysis.country +
                                            "'");
    if (s.total == 0 || s.index >= s.total)
      return fail(ErrorCode::Malformed,
                  path + ": shard index " + std::to_string(s.index) +
                      " out of range for total " + std::to_string(s.total));
    loaded.push_back(std::move(s));
  }

  // Study-wide consistency: every shard must agree on seed/total/targets.
  for (const auto& s : loaded) {
    if (s.seed != loaded[0].seed || s.total != loaded[0].total ||
        s.targets != loaded[0].targets)
      return fail(ErrorCode::Malformed,
                  s.path + ": shard from a different study (seed " + s.seed + ", total " +
                      std::to_string(s.total) + ") than " + loaded[0].path + " (seed " +
                      loaded[0].seed + ", total " + std::to_string(loaded[0].total) + ")");
  }

  // Coverage: exactly one shard per index 0..total-1. The merged bytes are a
  // function of the input set, so sort by embedded index — argv order and
  // completion order are irrelevant.
  const size_t total = loaded[0].total;
  if (loaded.size() != total)
    return fail(ErrorCode::Malformed, "merge: got " + std::to_string(loaded.size()) +
                                          " shards, study has " + std::to_string(total));
  std::vector<const LoadedShard*> by_index(total, nullptr);
  for (const auto& s : loaded) {
    if (by_index[s.index])
      return fail(ErrorCode::Malformed, s.path + ": duplicate shard index " +
                                            std::to_string(s.index) + " (also " +
                                            by_index[s.index]->path + ")");
    by_index[s.index] = &s;
  }

  StudyMeta meta;
  meta.seed = std::strtoull(loaded[0].seed.c_str(), nullptr, 10);
  meta.targets_before_optout = loaded[0].targets;
  std::vector<analysis::CountryAnalysis> analyses;
  analyses.reserve(total);
  for (const LoadedShard* s : by_index) {
    meta.atlas_repaired_traces += s->atlas_repaired;
    for (const auto& d : s->degraded) meta.degraded_countries.push_back(d);
    analyses.push_back(s->analysis);
  }

  Writer writer(std::move(meta));
  writer.set_faults(faults);
  WriteResult w = writer.write(out_path, analyses);
  if (!w.ok()) {
    result.error = w.error;
    util::MetricsRegistry::instance().counter("store.merge_failures").inc();
    return result;
  }
  result.bytes_written = w.bytes_written;
  result.shards = total;
  util::MetricsRegistry::instance().counter("store.shards_merged").inc(total);
  return result;
}

}  // namespace gam::store
