// store::Reader — mmap-backed zero-copy access to a GMST study store.
//
// open() validates everything up front: magic, version, trailer, footer
// CRC, every block's CRC32, block bounds/alignment/width, dictionary
// offsets, dictionary ids, parent->child offset monotonicity, and enum
// ranges. After a successful open, every accessor is bounds-safe by
// construction — a truncated, bit-flipped, or hostile file yields a
// structured Error (never UB, never a crash; exercised under ASan/UBSan in
// test_store). Column accessors read the mapped bytes in place; strings are
// std::string_views into the mapped dictionary pool.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "store/format.h"
#include "util/json.h"

namespace gam::store {

class Reader;

/// Fixed-width column views over the mapped file. at() reads via memcpy —
/// one load after optimization, safe for any alignment, no aliasing UB.
struct U8Col {
  const unsigned char* p = nullptr;
  size_t n = 0;
  uint8_t at(size_t i) const { return p[i]; }
};

struct U32Col {
  const unsigned char* p = nullptr;
  size_t n = 0;
  uint32_t at(size_t i) const {
    uint32_t v;
    std::memcpy(&v, p + i * 4, 4);
    return v;
  }
};

struct U64Col {
  const unsigned char* p = nullptr;
  size_t n = 0;
  uint64_t at(size_t i) const {
    uint64_t v;
    std::memcpy(&v, p + i * 8, 8);
    return v;
  }
};

/// Dictionary-encoded string column: u32 ids resolved against the shared
/// pool. All ids were validated at open, so at() cannot go out of bounds.
struct StrCol {
  U32Col ids;
  const Reader* reader = nullptr;
  size_t n = 0;
  std::string_view at(size_t i) const;
  uint32_t id_at(size_t i) const { return ids.at(i); }
};

struct CountriesView {
  StrCol code;
  U64Col unique_domains, unique_ips, traceroutes;
  U64Col funnel_total, funnel_unknown_ip, funnel_local, funnel_nonlocal;
  U64Col funnel_after_sol, funnel_after_rdns, funnel_dest_traces;
  /// site_offsets[c] .. site_offsets[c+1]: this country's rows in sites.
  std::vector<uint64_t> site_offsets;
  std::vector<uint64_t> dest_probe_offsets;
  StrCol dest_probe_values;
};

struct SitesView {
  StrCol country, domain;
  U8Col kind, loaded;  // kind: 0 = regional, 1 = government
  U32Col total_domains, nonlocal_domains;
  /// hit_offsets[s] .. hit_offsets[s+1]: this site's rows in hits.
  std::vector<uint64_t> hit_offsets;
};

struct HitsView {
  U32Col site;  // owning row in sites
  StrCol domain, reg_domain, dest_country, dest_city, org;
  U32Col ip;
  U8Col method, first_party;
};

class Reader {
 public:
  /// Map and validate `path`. On failure returns nullptr and fills *error
  /// (if non-null) with a structured code + detail. Counts
  /// `store.blocks_mapped` on success, `store.crc_failures` on CRC errors,
  /// and observes `store.open_ms`.
  static std::unique_ptr<Reader> open(const std::string& path, Error* error = nullptr);

  /// open() wrapped for shared ownership — the serve plane's sessions hold
  /// one mapped Reader per store across many concurrent clients. Safe to
  /// share: after open() the Reader is immutable (every accessor is a const
  /// read of the mapped bytes; the only mutation queries perform is to the
  /// process-wide atomic metrics), so concurrent Query::run calls need no
  /// external locking.
  static std::shared_ptr<Reader> open_shared(const std::string& path,
                                             Error* error = nullptr) {
    return std::shared_ptr<Reader>(open(path, error));
  }

  ~Reader();
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  size_t num_countries() const { return countries_.code.n; }
  size_t num_sites() const { return sites_.country.n; }
  size_t num_hits() const { return hits_.site.n; }

  const CountriesView& countries() const { return countries_; }
  const SitesView& sites() const { return sites_; }
  const HitsView& hits() const { return hits_; }

  /// Study-level provenance (the meta.json block, already parsed).
  const util::Json& meta() const { return meta_; }

  std::string_view dict_at(uint32_t id) const;
  /// Binary search in the sorted pool; nullopt if the string never occurs
  /// anywhere in the store (useful to fail predicates fast).
  std::optional<uint32_t> dict_find(std::string_view s) const;

  uint64_t file_size() const { return size_; }

 private:
  Reader() = default;
  Error validate_and_index();

  std::string path_;
  const unsigned char* map_ = nullptr;
  uint64_t size_ = 0;

  U32Col dict_offsets_;
  const unsigned char* dict_bytes_ = nullptr;
  uint64_t dict_bytes_len_ = 0;
  size_t dict_count_ = 0;

  util::Json meta_;
  CountriesView countries_;
  SitesView sites_;
  HitsView hits_;

  struct BlockEntry {
    uint64_t offset = 0, length = 0, rows = 0;
    uint32_t crc = 0;
  };
  std::vector<std::pair<std::string, BlockEntry>> blocks_;  // footer order
  const BlockEntry* find_block(std::string_view name) const;
};

inline std::string_view StrCol::at(size_t i) const { return reader->dict_at(ids.at(i)); }

}  // namespace gam::store
