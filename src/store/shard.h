// store::ShardWriter + merge_shards — the GammaShard streaming-results plane.
//
// A sharded study publishes each country's analysis as its own one-country
// GMST file ("shard") the moment that country completes, then drops the
// dataset from memory: peak RSS is bounded by the in-flight countries
// (~--jobs), not the world size. Each shard is a fully valid GMST store
// (individually queryable, every reader check applies) whose meta.json
// carries a "shard" object {index, total, country} marking its place in the
// study. Publishes go through util::io's atomic-rename plane under fault key
// "shard", so a SIGKILL at any crash point leaves the old shard bytes or the
// new ones — never a hybrid (swept in test_shard).
//
// merge_shards() recombines a complete shard set into one whole-study store.
// Determinism contract: the merged bytes are a pure function of the input
// *set* — shards are re-ordered by their embedded index, the shared string
// dictionary is re-ranked over the union, and the block table is rebuilt by
// the ordinary Writer — so any completion order, any --jobs, and any
// argv order produce the same file, byte-identical to the legacy in-memory
// path (and therefore to every `gamma store query` report over it). Every
// input is re-verified end to end (Reader::open re-checks all CRCs); torn,
// foreign (non-shard), duplicate, or missing shards are rejected with a
// structured store::Error naming the offending file.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/dataset.h"
#include "store/format.h"
#include "store/writer.h"

namespace gam::util {
class FaultInjector;
}

namespace gam::store {

/// Canonical shard filename: `<dir>/shard-<index>-<country>.gmst`.
std::string shard_path(const std::string& dir, size_t index, const std::string& country);

/// CRC32 of a whole file's bytes — how `--resume` decides a journal-recorded
/// shard is intact enough to reuse. nullopt if the file can't be read.
std::optional<uint32_t> file_crc32(const std::string& path);

/// Study-wide provenance every shard of one study must agree on.
struct ShardStudyMeta {
  uint64_t seed = 0;
  size_t total_shards = 0;  // countries in the study
  size_t targets_before_optout = 0;
};

struct ShardWriteResult {
  Error error;
  std::string path;   // published shard path
  uint32_t crc = 0;   // crc32 of the published file (journaled for --resume)
  uint64_t bytes = 0;

  bool ok() const { return error.ok(); }
};

/// Writes one country per call. Immutable after construction — write() is
/// const and touches no shared state, so the study runner calls it from
/// worker threads without locking.
class ShardWriter {
 public:
  ShardWriter(std::string dir, ShardStudyMeta meta) : dir_(std::move(dir)), meta_(meta) {}

  /// Inject faults into the publish path (io fault family, key "shard").
  void set_faults(const util::FaultInjector* faults) { faults_ = faults; }

  /// Publish `analysis` as shard `index` of the study. `atlas_repaired` is
  /// this country's repaired-trace count; `degraded` marks a circuit-breaker
  /// fallback outcome.
  ShardWriteResult write(size_t index, const analysis::CountryAnalysis& analysis,
                         size_t atlas_repaired, bool degraded) const;

 private:
  std::string dir_;
  ShardStudyMeta meta_;
  const util::FaultInjector* faults_ = nullptr;
};

struct MergeResult {
  Error error;
  uint64_t bytes_written = 0;
  size_t shards = 0;  // inputs merged

  bool ok() const { return error.ok(); }
};

/// Reconstruct one shard's single CountryAnalysis from its mapped columns.
/// Exposed for tests: Writer(meta).write(reconstruct(shards...)) is the
/// whole merge, and round-tripping is what makes merged bytes identical to
/// the legacy path.
analysis::CountryAnalysis reconstruct_country(const class Reader& reader);

/// Merge a complete shard set into one whole-study store at `out_path`.
/// Order-insensitive in `shard_paths`; rejects torn/foreign/duplicate
/// shards, inconsistent study metadata, and incomplete coverage of
/// 0..total-1. The output is published under fault key "store" like any
/// whole-study write.
MergeResult merge_shards(const std::string& out_path,
                         const std::vector<std::string>& shard_paths,
                         const util::FaultInjector* faults = nullptr);

}  // namespace gam::store
