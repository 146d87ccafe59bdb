// store::Writer — serialize a completed study's analysis substrate into one
// GMST file (see format.h / DESIGN.md §9).
//
// Determinism contract: the output is a pure function of the analyses and
// meta — rows in input (country) order, one shared string dictionary in
// sorted order, no timestamps — so the same study produces the same store
// bytes regardless of --jobs, and two writes of the same study are
// byte-identical (tested in test_store).
//
// Crash safety: the file is assembled in memory, then published through
// util::io::atomic_write_file — checked write(2) loop, fsync(fd), rename,
// fsync(parent dir) — so a reader never sees a half-written store and a
// crash at any instant leaves either the old file or the new one, durably
// (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/dataset.h"
#include "store/format.h"

namespace gam::util {
class FaultInjector;
}

namespace gam::store {

/// Marks a store as one shard of a sharded study: this file holds exactly one
/// country (`country`, shard `index` of `total`). Absent from legacy
/// whole-study stores — their bytes are unchanged by the shard feature.
struct ShardInfo {
  size_t index = 0;
  size_t total = 0;
  std::string country;
};

/// Study-level provenance carried in the store's meta.json block.
struct StudyMeta {
  uint64_t seed = 0;
  size_t targets_before_optout = 0;
  size_t atlas_repaired_traces = 0;
  std::vector<std::string> degraded_countries;
  std::optional<ShardInfo> shard;
};

struct WriteResult {
  Error error;
  uint64_t bytes_written = 0;  // final file size
  size_t blocks = 0;
  uint32_t content_crc = 0;  // crc32 of the whole assembled file

  bool ok() const { return error.ok(); }
};

class Writer {
 public:
  explicit Writer(StudyMeta meta = {}) : meta_(std::move(meta)) {}

  /// Inject faults into the publish path (io fault family, key "store").
  /// nullptr (default) falls back to the process-global injector.
  void set_faults(const util::FaultInjector* faults) { faults_ = faults; }
  /// Skip the fsync steps — the bench's no-sync arm. Output bytes are
  /// identical either way; only the durability of the publish changes.
  void set_sync(bool sync) { sync_ = sync; }
  /// Fault key for the io fault family ("store" for whole-study stores,
  /// "shard" for per-country shards).
  void set_fault_key(std::string key) { fault_key_ = std::move(key); }

  /// Serialize `analyses` (plus the meta) to `path`. Counts
  /// `store.bytes_written` / `store.blocks_written` on success and
  /// `store.write_failures` on error.
  WriteResult write(const std::string& path,
                    const std::vector<analysis::CountryAnalysis>& analyses) const;

 private:
  StudyMeta meta_;
  const util::FaultInjector* faults_ = nullptr;
  bool sync_ = true;
  std::string fault_key_ = "store";
};

}  // namespace gam::store
