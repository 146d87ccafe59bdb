#include "store/writer.h"

#include <cstdio>
#include <deque>
#include <map>
#include <set>

#include "util/crc32.h"
#include "util/io.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace gam::store {

namespace {

// Explicit little-endian byte emission: the store's determinism contract is
// "same study -> same bytes" on any host, so the writer never memcpy's
// host-order integers.
void put_u8(std::string& out, uint8_t v) { out.push_back(static_cast<char>(v)); }

void put_u16(std::string& out, uint16_t v) {
  for (int i = 0; i < 2; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_varint(std::string& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

/// rows+1 monotone offsets, first absolute then LEB128 deltas.
std::string encode_offsets(const std::vector<uint64_t>& offsets) {
  std::string out;
  uint64_t prev = 0;
  for (size_t i = 0; i < offsets.size(); ++i) {
    put_varint(out, i == 0 ? offsets[0] : offsets[i] - prev);
    prev = offsets[i];
  }
  return out;
}

struct Block {
  std::string name;
  std::string bytes;
  uint64_t rows = 0;
};

/// The shared string pool: sorted unique strings, id = rank.
class Dict {
 public:
  explicit Dict(std::set<std::string> strings) {
    for (auto& s : strings) ids_.emplace(s, static_cast<uint32_t>(ids_.size()));
  }

  uint32_t id(const std::string& s) const { return ids_.at(s); }

  Block offsets_block() const {
    Block b{blocks::kDictOffsets, {}, ids_.size() + 1};
    uint32_t off = 0;
    put_u32(b.bytes, 0);
    // std::map iterates in sorted (= id) order.
    for (const auto& [s, id] : ids_) {
      (void)id;
      off += static_cast<uint32_t>(s.size());
      put_u32(b.bytes, off);
    }
    return b;
  }

  Block bytes_block() const {
    Block b{blocks::kDictBytes, {}, 0};
    for (const auto& [s, id] : ids_) {
      (void)id;
      b.bytes += s;
    }
    b.rows = b.bytes.size();
    return b;
  }

 private:
  std::map<std::string, uint32_t> ids_;
};

uint8_t kind_code(web::SiteKind k) { return k == web::SiteKind::Government ? 1 : 0; }

util::Json meta_json(const StudyMeta& meta, size_t countries, size_t sites, size_t hits) {
  util::Json doc = util::Json::object();
  doc["format"] = "gmst";
  doc["version"] = static_cast<uint64_t>(kFormatVersion);
  doc["seed"] = std::to_string(meta.seed);  // seeds may exceed double range
  doc["targets_before_optout"] = meta.targets_before_optout;
  doc["atlas_repaired_traces"] = meta.atlas_repaired_traces;
  // Always 0: a resumed study's store equals the uninterrupted one. The key
  // stays until the next format version so existing store bytes don't move.
  doc["resumed_countries"] = 0;
  util::Json degraded = util::Json::array();
  for (const auto& c : meta.degraded_countries) degraded.push_back(c);
  doc["degraded_countries"] = std::move(degraded);
  if (meta.shard) {
    util::Json shard = util::Json::object();
    shard["index"] = meta.shard->index;
    shard["total"] = meta.shard->total;
    shard["country"] = meta.shard->country;
    doc["shard"] = std::move(shard);
  }
  doc["countries"] = countries;
  doc["sites"] = sites;
  doc["hits"] = hits;
  return doc;
}

}  // namespace

WriteResult Writer::write(const std::string& path,
                          const std::vector<analysis::CountryAnalysis>& analyses) const {
  util::trace::ScopedSpan span("store_write", "store");
  span.arg("path", path);
  WriteResult result;
  auto fail = [&](ErrorCode code, std::string detail) {
    util::MetricsRegistry::instance().counter("store.write_failures").inc();
    result.error = {code, std::move(detail)};
    return result;
  };

  // Pass 1: the dictionary — every string any column will reference.
  std::set<std::string> strings;
  size_t n_sites = 0, n_hits = 0;
  for (const auto& c : analyses) {
    strings.insert(c.country);
    for (const auto& d : c.dest_probe_countries) strings.insert(d);
    for (const auto& s : c.sites) {
      ++n_sites;
      strings.insert(s.site_domain);
      strings.insert(s.country);
      for (const auto& t : s.trackers) {
        ++n_hits;
        strings.insert(t.domain);
        strings.insert(t.reg_domain);
        strings.insert(t.dest_country);
        strings.insert(t.dest_city);
        strings.insert(t.org);
      }
    }
  }
  Dict dict(std::move(strings));

  // Pass 2: the columns, rows in input (country -> site -> hit) order.
  // A deque, not a vector: col() hands out references into elements that
  // must survive every later push_back.
  std::deque<Block> cols;
  auto col = [&](const char* name) -> std::string& {
    cols.push_back({name, {}, 0});
    return cols.back().bytes;
  };

  {
    util::Json meta = meta_json(meta_, analyses.size(), n_sites, n_hits);
    cols.push_back({blocks::kMetaJson, meta.dump(), 1});
  }
  cols.push_back(dict.offsets_block());
  cols.push_back(dict.bytes_block());

  std::string &c_code = col(blocks::kCountryCode), &c_ud = col(blocks::kCountryUniqueDomains),
              &c_ui = col(blocks::kCountryUniqueIps), &c_tr = col(blocks::kCountryTraceroutes),
              &c_ft = col(blocks::kCountryFunnelTotal),
              &c_fu = col(blocks::kCountryFunnelUnknownIp),
              &c_fl = col(blocks::kCountryFunnelLocal),
              &c_fn = col(blocks::kCountryFunnelNonlocal),
              &c_fs = col(blocks::kCountryFunnelAfterSol),
              &c_fr = col(blocks::kCountryFunnelAfterRdns),
              &c_fd = col(blocks::kCountryFunnelDestTraces),
              &c_dpv = col(blocks::kCountryDestProbeValues);
  std::string &s_country = col(blocks::kSiteCountry), &s_domain = col(blocks::kSiteDomain),
              &s_kind = col(blocks::kSiteKind), &s_loaded = col(blocks::kSiteLoaded),
              &s_total = col(blocks::kSiteTotalDomains),
              &s_nonlocal = col(blocks::kSiteNonlocalDomains);
  std::string &h_site = col(blocks::kHitSite), &h_domain = col(blocks::kHitDomain),
              &h_reg = col(blocks::kHitRegDomain), &h_ip = col(blocks::kHitIp),
              &h_dest = col(blocks::kHitDestCountry), &h_city = col(blocks::kHitDestCity),
              &h_org = col(blocks::kHitOrg), &h_method = col(blocks::kHitMethod),
              &h_fp = col(blocks::kHitFirstParty);

  std::vector<uint64_t> site_offsets{0}, dest_probe_offsets{0}, hit_offsets{0};
  size_t site_row = 0, hit_row = 0, dest_probe_rows = 0;
  for (const auto& c : analyses) {
    put_u32(c_code, dict.id(c.country));
    put_u64(c_ud, c.unique_domains);
    put_u64(c_ui, c.unique_ips);
    put_u64(c_tr, c.traceroutes);
    put_u64(c_ft, c.funnel.total);
    put_u64(c_fu, c.funnel.unknown_ip);
    put_u64(c_fl, c.funnel.local);
    put_u64(c_fn, c.funnel.nonlocal_candidates);
    put_u64(c_fs, c.funnel.after_sol_constraints);
    put_u64(c_fr, c.funnel.after_rdns);
    put_u64(c_fd, c.funnel.dest_traceroutes);
    for (const auto& d : c.dest_probe_countries) {
      put_u32(c_dpv, dict.id(d));
      ++dest_probe_rows;
    }
    dest_probe_offsets.push_back(dest_probe_rows);

    for (const auto& s : c.sites) {
      put_u32(s_country, dict.id(s.country));
      put_u32(s_domain, dict.id(s.site_domain));
      put_u8(s_kind, kind_code(s.kind));
      put_u8(s_loaded, s.loaded ? 1 : 0);
      put_u32(s_total, static_cast<uint32_t>(s.total_domains));
      put_u32(s_nonlocal, static_cast<uint32_t>(s.nonlocal_domains));
      for (const auto& t : s.trackers) {
        put_u32(h_site, static_cast<uint32_t>(site_row));
        put_u32(h_domain, dict.id(t.domain));
        put_u32(h_reg, dict.id(t.reg_domain));
        put_u32(h_ip, t.ip);
        put_u32(h_dest, dict.id(t.dest_country));
        put_u32(h_city, dict.id(t.dest_city));
        put_u32(h_org, dict.id(t.org));
        put_u8(h_method, static_cast<uint8_t>(t.method));
        put_u8(h_fp, t.first_party ? 1 : 0);
        ++hit_row;
      }
      hit_offsets.push_back(hit_row);
      ++site_row;
    }
    site_offsets.push_back(site_row);
  }

  // Fill in logical row counts for the per-row columns; dest_probe_values is
  // child-row sized, not country-row sized.
  for (auto& b : cols) {
    if (b.name.rfind("countries.", 0) == 0) b.rows = analyses.size();
    if (b.name.rfind("sites.", 0) == 0) b.rows = n_sites;
    if (b.name.rfind("hits.", 0) == 0) b.rows = n_hits;
    if (b.name == blocks::kCountryDestProbeValues) b.rows = dest_probe_rows;
  }
  cols.push_back({blocks::kCountrySiteOffsets, encode_offsets(site_offsets),
                  site_offsets.size()});
  cols.push_back({blocks::kCountryDestProbeOffsets, encode_offsets(dest_probe_offsets),
                  dest_probe_offsets.size()});
  cols.push_back({blocks::kSiteHitOffsets, encode_offsets(hit_offsets),
                  hit_offsets.size()});

  // Assemble: header, 8-byte-aligned blocks, footer, trailer.
  std::string file;
  file.append(kMagic, sizeof kMagic);
  put_u32(file, kFormatVersion);
  put_u64(file, 0);  // reserved

  struct Entry {
    std::string name;
    uint64_t offset, length, rows;
    uint32_t crc;
  };
  std::vector<Entry> entries;
  entries.reserve(cols.size());
  for (const auto& b : cols) {
    while (file.size() % kBlockAlign != 0) file.push_back('\0');
    entries.push_back({b.name, file.size(), b.bytes.size(), b.rows,
                       util::crc32(b.bytes.data(), b.bytes.size())});
    file += b.bytes;
  }

  const uint64_t footer_offset = file.size();
  std::string footer;
  put_u32(footer, static_cast<uint32_t>(entries.size()));
  for (const auto& e : entries) {
    put_u16(footer, static_cast<uint16_t>(e.name.size()));
    footer += e.name;
    put_u64(footer, e.offset);
    put_u64(footer, e.length);
    put_u64(footer, e.rows);
    put_u32(footer, e.crc);
  }
  file += footer;
  put_u64(file, footer_offset);
  put_u32(file, util::crc32(footer.data(), footer.size()));
  file.append(kEndMagic, sizeof kEndMagic);

  // Crash-atomic durable publish (DESIGN.md §12): checked writes, fsync,
  // rename, parent-dir fsync. On any failure util::io has already unlinked
  // the tmp file and the structured message carries strerror(errno).
  util::io::WriteOptions wopts;
  wopts.sync = sync_;
  wopts.faults = faults_;
  wopts.fault_key = fault_key_;
  if (util::Status s = util::io::atomic_write_file(path, file, wopts); !s.ok()) {
    return fail(ErrorCode::Io, s.message());
  }

  result.content_crc = util::crc32(file.data(), file.size());
  result.bytes_written = file.size();
  result.blocks = entries.size();
  span.arg("bytes", result.bytes_written);
  span.arg("blocks", result.blocks);
  util::MetricsRegistry::instance().counter("store.bytes_written").inc(result.bytes_written);
  util::MetricsRegistry::instance().counter("store.blocks_written").inc(result.blocks);
  return result;
}

}  // namespace gam::store
