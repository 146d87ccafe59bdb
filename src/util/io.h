// util::io — the durable, checked, fault-injectable filesystem write plane.
//
// Every durable artifact the suite produces — GMST stores, the checkpoint
// journal, metrics/trace/log sinks, bench result files — used to go through
// an unchecked std::ofstream with tmp+rename but no fsync. That publish is
// atomic against readers but not against power loss or SIGKILL: a crash
// after rename() but before the data reaches the platters can surface a
// zero-length or partial file on the next boot, and nothing in the fault
// plane (PR 3) could prove otherwise because no `io` fault family existed.
//
// This module is the single place those problems are solved:
//
//   AtomicFileWriter  open <path>.tmp -> checked write(2) loop -> fsync(fd)
//                     -> close -> rename(tmp, path) -> fsync(parent dir).
//                     Every step returns a structured util::Status; any
//                     failure unlinks the tmp file so nothing leaks. After
//                     commit() returns OK the *new* file is durable; before
//                     the rename a crash leaves the *old* file intact. There
//                     is no instant at which a reader (or a reboot) can see
//                     a hybrid.
//
//   durable_append    open(O_APPEND) -> full write(2) -> fsync(fd) -> close.
//                     The checkpoint journal's per-record publish: once it
//                     returns OK the record is durable; a torn tail from a
//                     mid-write crash is dropped by the journal loader.
//
// Fault family `io` (FaultPlan, consulted through a util::FaultInjector):
//
//   short_write   the write loop stops early and fails      -> partial tmp,
//                 structured error, tmp unlinked
//   enospc        write(2) fails with ENOSPC mid-file       -> ditto
//   eio           fsync(fd) fails with EIO                  -> ditto
//   crash_before_rename / crash_after_rename / crash_before_dir_sync
//                 named crash points: when armed, the process raises
//                 SIGKILL at exactly that step — no destructors, no
//                 flushes — so tests can prove the old-or-new contract by
//                 actually dying there (see test_io's crash-point sweep).
//
// A write draws io faults only from the injector it is handed
// (WriteOptions::faults): the checkpoint journal passes its own (plan, seed)
// injector, and store::Writer, store::ShardWriter and store::merge_shards
// pass the study's. There is no process-global injector, so a faulted study
// never reaches a write that another thread makes. No injector is the
// production configuration and costs one pointer test per fault point.
//
// Determinism: fault decisions draw from FaultInjector::roll("io",
// <fault_key>/<fault>, p) — a pure function of (plan, seed, key) — so a
// crash-point sweep arms exactly the write it targets and nothing else.
#pragma once

#include <string>
#include <string_view>

#include "util/status.h"

namespace gam::util {
class FaultInjector;
}

namespace gam::util::io {

/// Named crash points, in the order commit() passes them.
inline constexpr const char* kCrashBeforeRename = "crash_before_rename";
inline constexpr const char* kCrashAfterRename = "crash_after_rename";
inline constexpr const char* kCrashBeforeDirSync = "crash_before_dir_sync";

struct WriteOptions {
  /// fsync the file before rename and the parent directory after it. Off,
  /// the write is still checked and atomic against readers, just not
  /// durable against power loss — the bench's no-sync arm.
  bool sync = true;
  /// Substream key for fault decisions; defaults to the target path's
  /// filename so a sweep can arm one artifact without touching others.
  std::string fault_key;
  /// The only source of this write's io faults; nullptr draws none.
  const FaultInjector* faults = nullptr;
};

/// fsync the directory containing `path`, making a just-renamed entry
/// durable. A no-op for paths with no directory component is an fsync of ".".
Status fsync_parent_dir(const std::string& path);

/// Crash-atomic durable publish of one complete artifact. The workhorse for
/// every "write the whole file" call site. Counts io.bytes_written /
/// io.files_committed on success, io.write_failures on error.
Status atomic_write_file(const std::string& path, std::string_view bytes,
                         const WriteOptions& options = {});

/// Durable append of one complete record to an existing (or new) file:
/// open(O_APPEND) -> full checked write -> fsync(fd) -> close. Returns OK
/// only once the record is durable. The record must be one write()'s worth
/// of bytes (the journal's line-at-a-time contract); a crash mid-call can
/// tear the tail, which the reader must tolerate.
Status durable_append(const std::string& path, std::string_view bytes,
                      const WriteOptions& options = {});

/// Streaming flavor of atomic_write_file for call sites that assemble the
/// artifact piece by piece (the checkpoint journal rewrite). Usage:
///   AtomicFileWriter w(path, opts);
///   if (auto s = w.open(); !s.ok()) ...
///   w.append(line1); w.append(line2);
///   if (auto s = w.commit(); !s.ok()) ...
/// Destruction before a successful commit unlinks the tmp file. After the
/// first failure every later call returns that same status.
class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(std::string path, WriteOptions options = {});
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  /// Create/truncate `<path>.tmp`.
  Status open();
  /// Checked write(2) loop; fault point for short_write / enospc.
  Status append(std::string_view bytes);
  /// fsync(fd) [eio fault] -> close -> [crash_before_rename] -> rename ->
  /// [crash_after_rename] -> [crash_before_dir_sync] -> fsync(parent dir).
  Status commit();

  /// First error observed (OK while healthy). After commit(): OK iff the
  /// new file is durably published.
  const Status& status() const { return status_; }
  const std::string& tmp_path() const { return tmp_; }

 private:
  Status fail(StatusCode code, std::string message);
  bool roll_fault(const char* fault, double probability) const;
  void maybe_crash(const char* point, double probability) const;

  std::string path_;
  std::string tmp_;
  WriteOptions options_;
  int fd_ = -1;
  bool committed_ = false;
  uint64_t bytes_ = 0;
  Status status_;
};

}  // namespace gam::util::io
