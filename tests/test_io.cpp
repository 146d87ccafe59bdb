// util::io durability tests (ISSUE 8): checked writes, injected io faults,
// and the crash-point sweep.
//
// The contract under proof: for every named crash point in the durable
// publish sequence (crash_before_rename, crash_after_rename,
// crash_before_dir_sync), a process killed at exactly that instant leaves
// the artifact on disk as either the complete old version or the complete
// new version — never a hybrid, never a truncation. The sweep runs the real
// code path: a fork()ed child arms exactly one crash point at probability
// 1.0, performs the write, and dies by SIGKILL inside util::io; the parent
// reaps it, verifies the termination signal, and byte-compares the artifact.
//
// Fork safety: this binary must stay thread-free (no worldgen studies, no
// servers) so the children are safe under TSan/ASan — tools/check.sh runs
// this suite under both. All fixtures are synthetic analyses built by hand.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <cerrno>
#include <cstring>

#include "analysis/dataset.h"
#include "store/reader.h"
#include "store/writer.h"
#include "util/fault.h"
#include "util/io.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/status.h"
#include "worldgen/checkpoint.h"

namespace gam {
namespace {

std::string tmp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

bool exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

uint64_t counter(const char* name) {
  return util::MetricsRegistry::instance().counter(name).value();
}

/// A one-country analysis whose bytes depend on `tag`, so "old" and "new"
/// store versions are distinguishable byte-for-byte.
std::vector<analysis::CountryAnalysis> make_analyses(const std::string& tag) {
  analysis::CountryAnalysis ca;
  ca.country = "US";
  analysis::SiteAnalysis site;
  site.site_domain = tag + ".example.com";
  site.country = "US";
  site.loaded = true;
  site.total_domains = 3;
  site.nonlocal_domains = 1;
  analysis::TrackerHit hit;
  hit.domain = "collect." + tag + ".net";
  hit.reg_domain = tag + ".net";
  hit.dest_country = "US";
  hit.org = "Org-" + tag;
  site.trackers.push_back(hit);
  ca.sites.push_back(site);
  ca.unique_domains = 3;
  ca.unique_ips = 2;
  return {ca};
}

util::FaultPlan plan_with(double util::FaultPlan::* field) {
  util::FaultPlan plan;
  plan.*field = 1.0;
  return plan;
}

// ---------------------------------------------------------------------------
// Plain durable-write behavior.

TEST(AtomicWrite, RoundTripAndOverwrite) {
  std::string path = tmp_path("roundtrip.bin");
  ASSERT_TRUE(util::io::atomic_write_file(path, "first version\n").ok());
  EXPECT_EQ(read_bytes(path), "first version\n");
  ASSERT_TRUE(util::io::atomic_write_file(path, "second, longer version\n").ok());
  EXPECT_EQ(read_bytes(path), "second, longer version\n");
  EXPECT_FALSE(exists(path + ".tmp")) << "tmp file leaked after publish";
}

TEST(AtomicWrite, StreamingWriterConcatenates) {
  std::string path = tmp_path("streamed.txt");
  util::io::AtomicFileWriter w(path);
  ASSERT_TRUE(w.open().ok());
  ASSERT_TRUE(w.append("alpha ").ok());
  ASSERT_TRUE(w.append("beta ").ok());
  ASSERT_TRUE(w.append("gamma\n").ok());
  ASSERT_TRUE(w.commit().ok());
  EXPECT_EQ(read_bytes(path), "alpha beta gamma\n");
  EXPECT_FALSE(exists(w.tmp_path()));
}

TEST(AtomicWrite, AbandonedWriterUnlinksTmp) {
  std::string path = tmp_path("abandoned.txt");
  {
    util::io::AtomicFileWriter w(path);
    ASSERT_TRUE(w.open().ok());
    ASSERT_TRUE(w.append("never committed").ok());
    EXPECT_TRUE(exists(w.tmp_path()));
  }
  EXPECT_FALSE(exists(path));
  EXPECT_FALSE(exists(path + ".tmp")) << "destructor must clean up the tmp";
}

TEST(AtomicWrite, FsyncParentDirOk) {
  EXPECT_TRUE(util::io::fsync_parent_dir(tmp_path("any.file")).ok());
}

// ---------------------------------------------------------------------------
// Injected io faults: structured status, no artifact, no tmp leak.

TEST(IoFaults, InjectedShortWriteFailsStructured) {
  util::FaultPlan plan = plan_with(&util::FaultPlan::io_short_write);
  util::FaultInjector inj(plan, 7);
  util::io::WriteOptions opts;
  opts.faults = &inj;
  std::string path = tmp_path("short_write.bin");
  uint64_t failures_before = counter("io.write_failures");
  util::Status s = util::io::atomic_write_file(path, "payload payload payload", opts);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), util::StatusCode::kInternal);
  EXPECT_NE(s.message().find("short write"), std::string::npos) << s.message();
  EXPECT_FALSE(exists(path)) << "failed write must not publish";
  EXPECT_FALSE(exists(path + ".tmp")) << "failed write must not leak its tmp";
  EXPECT_GT(counter("io.write_failures"), failures_before);
}

TEST(IoFaults, InjectedEnospcIsResourceExhausted) {
  util::FaultPlan plan = plan_with(&util::FaultPlan::io_enospc);
  util::FaultInjector inj(plan, 7);
  util::io::WriteOptions opts;
  opts.faults = &inj;
  std::string path = tmp_path("enospc.bin");
  util::Status s = util::io::atomic_write_file(path, "does not fit", opts);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), util::StatusCode::kResourceExhausted);
  EXPECT_FALSE(exists(path));
  EXPECT_FALSE(exists(path + ".tmp"));
}

TEST(IoFaults, InjectedEioAtFsyncFails) {
  util::FaultPlan plan = plan_with(&util::FaultPlan::io_eio);
  util::FaultInjector inj(plan, 7);
  util::io::WriteOptions opts;
  opts.faults = &inj;
  std::string path = tmp_path("eio.bin");
  util::Status s = util::io::atomic_write_file(path, "bytes", opts);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), util::StatusCode::kInternal);
  EXPECT_NE(s.message().find("fsync"), std::string::npos) << s.message();
  EXPECT_FALSE(exists(path));
  EXPECT_FALSE(exists(path + ".tmp"));
}

TEST(IoFaults, NoSyncSkipsFsyncFault) {
  // The eio fault models an fsync failure; with sync off there is no fsync
  // to fail, so the write goes through.
  util::FaultPlan plan = plan_with(&util::FaultPlan::io_eio);
  util::FaultInjector inj(plan, 7);
  util::io::WriteOptions opts;
  opts.faults = &inj;
  opts.sync = false;
  std::string path = tmp_path("nosync_eio.bin");
  EXPECT_TRUE(util::io::atomic_write_file(path, "bytes", opts).ok());
  EXPECT_EQ(read_bytes(path), "bytes");
}

TEST(IoFaults, DurableAppendAccumulatesAndEnospcLeavesFileUntouched) {
  std::string path = tmp_path("append.log");
  ::unlink(path.c_str());  // gtest's TempDir persists across runs
  ASSERT_TRUE(util::io::durable_append(path, "line one\n").ok());
  ASSERT_TRUE(util::io::durable_append(path, "line two\n").ok());
  EXPECT_EQ(read_bytes(path), "line one\nline two\n");

  util::FaultPlan plan = plan_with(&util::FaultPlan::io_enospc);
  util::FaultInjector inj(plan, 7);
  util::io::WriteOptions opts;
  opts.faults = &inj;
  util::Status s = util::io::durable_append(path, "line three\n", opts);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(read_bytes(path), "line one\nline two\n")
      << "an injected-ENOSPC append must not tear the file";
}

TEST(IoFaults, RenameOntoDirectoryReportsErrnoAndCleansTmp) {
  // The satellite-1 regression: a failed rename must surface strerror and
  // remove the orphaned tmp instead of leaking it. A directory at the target
  // path makes rename(file, dir) fail deterministically.
  std::string path = tmp_path("rename_blocked");
  ASSERT_EQ(::mkdir(path.c_str(), 0755), 0);
  util::Status s = util::io::atomic_write_file(path, "cannot land");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("rename"), std::string::npos) << s.message();
  EXPECT_FALSE(exists(path + ".tmp")) << "failed rename leaked the tmp file";
  ::rmdir(path.c_str());
}

TEST(IoFaults, FaultPlanJsonRoundTripsIoFamily) {
  util::FaultPlan plan;
  plan.io_short_write = 0.25;
  plan.io_enospc = 0.5;
  plan.io_eio = 0.125;
  plan.io_crash_before_rename = 1.0;
  plan.io_crash_after_rename = 0.75;
  plan.io_crash_before_dir_sync = 0.0625;
  auto restored = util::FaultPlan::from_json(plan.to_json());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->io_short_write, plan.io_short_write);
  EXPECT_EQ(restored->io_enospc, plan.io_enospc);
  EXPECT_EQ(restored->io_eio, plan.io_eio);
  EXPECT_EQ(restored->io_crash_before_rename, plan.io_crash_before_rename);
  EXPECT_EQ(restored->io_crash_after_rename, plan.io_crash_after_rename);
  EXPECT_EQ(restored->io_crash_before_dir_sync, plan.io_crash_before_dir_sync);

  util::Json bogus = util::Json::object();
  util::Json io = util::Json::object();
  io["melts"] = 0.5;
  bogus["io"] = std::move(io);
  EXPECT_FALSE(util::FaultPlan::from_json(bogus).has_value())
      << "unknown io fault keys must be rejected";
}

// ---------------------------------------------------------------------------
// JSONL log sink failure (satellite 3): /dev/full accepts the open and fails
// every flush with ENOSPC — the first failure is reported once to stderr
// with path + strerror, later ones only count.

TEST(LogSink, WriteFailureReportedOnceWithPathAndCountedThereafter) {
  uint64_t failures_before = util::log_json_write_failures();
  ASSERT_TRUE(util::set_log_json_file("/dev/full"));
  ::testing::internal::CaptureStderr();
  util::log_info("io-test", "first record hits the full disk");
  util::log_info("io-test", "second record is counted quietly");
  std::string err = ::testing::internal::GetCapturedStderr();
  util::set_log_json_file("");

  EXPECT_EQ(util::log_json_write_failures(), failures_before + 2)
      << "every lost record must be counted";
  EXPECT_NE(err.find("/dev/full"), std::string::npos)
      << "report must name the sink path: " << err;
  EXPECT_NE(err.find(std::strerror(ENOSPC)), std::string::npos)
      << "report must carry strerror(errno): " << err;
  const std::string marker = "cannot write JSONL sink";
  size_t first = err.find(marker);
  ASSERT_NE(first, std::string::npos) << err;
  EXPECT_EQ(err.find(marker, first + 1), std::string::npos)
      << "the failure must be reported exactly once: " << err;
}

TEST(LogSink, HealthySinkWritesOneJsonRecordPerLine) {
  std::string path = tmp_path("log_sink.jsonl");
  uint64_t failures_before = util::log_json_write_failures();
  ASSERT_TRUE(util::set_log_json_file(path));
  util::log_info("io-test", "hello sink");
  util::set_log_json_file("");
  std::string contents = read_bytes(path);
  auto doc = util::Json::parse(contents.substr(0, contents.find('\n')));
  ASSERT_TRUE(doc.has_value()) << contents;
  EXPECT_EQ(doc->get_string("component"), "io-test");
  EXPECT_EQ(doc->get_string("message"), "hello sink");
  EXPECT_EQ(util::log_json_write_failures(), failures_before);
}

// ---------------------------------------------------------------------------
// store::Writer through the durable plane.

TEST(StoreDurability, SyncAndNoSyncWritesAreByteIdentical) {
  auto analyses = make_analyses("identity");
  std::string durable = tmp_path("identity_sync.gmst");
  std::string nosync = tmp_path("identity_nosync.gmst");
  ASSERT_TRUE(store::Writer().write(durable, analyses).ok());
  store::Writer w;
  w.set_sync(false);
  ASSERT_TRUE(w.write(nosync, analyses).ok());
  EXPECT_EQ(read_bytes(durable), read_bytes(nosync))
      << "durability mechanics must not change store bytes";
}

TEST(StoreDurability, InjectedFsyncFailureKeepsOldStoreIntact) {
  std::string path = tmp_path("old_intact.gmst");
  ASSERT_TRUE(store::Writer().write(path, make_analyses("old")).ok());
  std::string old_bytes = read_bytes(path);

  util::FaultPlan plan = plan_with(&util::FaultPlan::io_eio);
  util::FaultInjector inj(plan, 7);
  store::Writer writer;
  writer.set_faults(&inj);
  store::WriteResult result = writer.write(path, make_analyses("new"));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.to_string().find("fsync"), std::string::npos)
      << result.error.to_string();
  EXPECT_EQ(read_bytes(path), old_bytes) << "failed publish corrupted the old store";
  EXPECT_FALSE(exists(path + ".tmp"));
}

// ---------------------------------------------------------------------------
// Crash-point sweep: fork, arm exactly one point at p=1.0, die by SIGKILL,
// assert the artifact is bit-exact old or bit-exact new — never a hybrid.

/// Child exit codes (anything but death-by-SIGKILL is a sweep failure).
constexpr int kChildReturnedFromWrite = 42;

void arm(util::FaultPlan* plan, const std::string& point) {
  if (point == util::io::kCrashBeforeRename) plan->io_crash_before_rename = 1.0;
  if (point == util::io::kCrashAfterRename) plan->io_crash_after_rename = 1.0;
  if (point == util::io::kCrashBeforeDirSync) plan->io_crash_before_dir_sync = 1.0;
}

/// Fork `child`, reap it, and require it died by SIGKILL (the crash point
/// fired inside util::io, with no destructors or flushes in between).
template <typename Fn>
void expect_sigkill(Fn child) {
  pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    child();
    _exit(kChildReturnedFromWrite);  // the armed crash point did not fire
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus))
      << "child exited instead of crashing (exit code "
      << (WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1) << ")";
  EXPECT_EQ(WTERMSIG(wstatus), SIGKILL);
}

void run_store_crash_sweep(const std::string& point, bool expect_new) {
  std::string path = tmp_path("sweep_" + point + ".gmst");
  ASSERT_TRUE(store::Writer().write(path, make_analyses("old")).ok());
  std::string old_bytes = read_bytes(path);

  // Clean "new" bytes from an uninterrupted write elsewhere: store bytes are
  // a pure function of the analyses, so this is exactly what the crashed
  // write would have published.
  std::string clean = tmp_path("sweep_clean_" + point + ".gmst");
  ASSERT_TRUE(store::Writer().write(clean, make_analyses("new")).ok());
  std::string new_bytes = read_bytes(clean);
  ASSERT_NE(old_bytes, new_bytes);

  expect_sigkill([&] {
    util::FaultPlan plan;
    arm(&plan, point);
    util::FaultInjector inj(plan, 7);
    store::Writer writer;
    writer.set_faults(&inj);
    (void)writer.write(path, make_analyses("new"));
  });

  std::string after = read_bytes(path);
  if (expect_new) {
    EXPECT_EQ(after, new_bytes) << point << ": artifact is not the complete new file";
  } else {
    EXPECT_EQ(after, old_bytes) << point << ": artifact is not the untouched old file";
  }
  // Whichever version survived, it must be a fully valid store — openable,
  // CRC-clean. (A leftover .tmp after a crash is acceptable, like a real
  // power loss; a corrupt published file is not.)
  store::Error err;
  EXPECT_NE(store::Reader::open(path, &err), nullptr)
      << point << ": surviving store failed to open: " << err.to_string();
}

TEST(CrashSweep, StoreCrashBeforeRenameLeavesOldFile) {
  run_store_crash_sweep(util::io::kCrashBeforeRename, /*expect_new=*/false);
}

TEST(CrashSweep, StoreCrashAfterRenameLeavesNewFile) {
  run_store_crash_sweep(util::io::kCrashAfterRename, /*expect_new=*/true);
}

TEST(CrashSweep, StoreCrashBeforeDirSyncLeavesNewFile) {
  run_store_crash_sweep(util::io::kCrashBeforeDirSync, /*expect_new=*/true);
}

/// Journal sweep fixture: a benign journal with one completed country, plus
/// a truncated garbage tail (as if a previous run died mid-append). The
/// child then opens the journal for resume with a *crash plan*: the header
/// no longer matches (the plan is part of the header), so the journal
/// discards the stale records and rewrites a fresh header-only file — and
/// that rewrite runs through AtomicFileWriter, where the armed crash point
/// fires. p=1.0 means the roll fires for any seed, which is also why the
/// parent must build the fixture with a benign plan.
struct JournalSweep {
  std::string dir;
  std::string path;
  std::string old_bytes;
  uint64_t seed = 99;
  util::FaultPlan benign;

  /// Builds the fixture; a void function (not the constructor) so gtest's
  /// ASSERT macros can bail out of it.
  void setup(const std::string& point) {
    dir = tmp_path("journal_sweep_" + point);
    {
      worldgen::StudyJournal journal(dir, seed, benign, /*resume=*/false);
      ASSERT_TRUE(journal.status().ok()) << journal.status().to_string();
      worldgen::CheckpointRecord rec;
      rec.country = "US";
      rec.dataset.volunteer_id = "volunteer-US";
      rec.dataset.country = "US";
      rec.dataset.disclosed_city = "Chicago";
      ASSERT_TRUE(journal.append(rec).ok());
      path = journal.path();
    }  // destructor releases the flock so the child can take it
    {
      std::ofstream tail(path, std::ios::app | std::ios::binary);
      tail << "{\"country\":\"GB\",\"trunc";  // torn mid-append
    }
    old_bytes = read_bytes(path);
    ASSERT_FALSE(old_bytes.empty());
  }
};

void run_journal_crash_sweep(const std::string& point, bool expect_new) {
  JournalSweep fx;
  fx.setup(point);
  if (::testing::Test::HasFatalFailure()) return;

  expect_sigkill([&] {
    util::FaultPlan crash_plan;
    arm(&crash_plan, point);
    worldgen::StudyJournal journal(fx.dir, fx.seed, crash_plan, /*resume=*/true);
    (void)journal;  // the rewrite in the constructor crashes first
  });

  std::string after = read_bytes(fx.path);
  if (!expect_new) {
    EXPECT_EQ(after, fx.old_bytes)
        << point << ": journal is not byte-identical to the pre-crash file";
    // The intact old journal must still resume under its own plan: the
    // completed country survives the crashed stranger's attempt.
    worldgen::StudyJournal resumed(fx.dir, fx.seed, fx.benign, /*resume=*/true);
    ASSERT_TRUE(resumed.status().ok()) << resumed.status().to_string();
    EXPECT_EQ(resumed.completed().count("US"), 1u)
        << point << ": completed country lost";
  } else {
    // The rewrite landed: a complete header-only journal for the new plan
    // (the old records were correctly discarded on header mismatch), with
    // the truncated tail gone.
    EXPECT_NE(after, fx.old_bytes);
    ASSERT_FALSE(after.empty());
    ASSERT_EQ(after.back(), '\n') << point << ": rewritten journal has a torn tail";
    EXPECT_EQ(after.find('\n'), after.size() - 1)
        << point << ": rewritten journal should be header-only";
    auto header = util::Json::parse(after.substr(0, after.size() - 1));
    ASSERT_TRUE(header.has_value()) << point << ": header line does not parse";
    EXPECT_EQ(header->get_string("checkpoint"), "gamma-study");
  }
}

TEST(CrashSweep, JournalCrashBeforeRenameLeavesOldJournal) {
  run_journal_crash_sweep(util::io::kCrashBeforeRename, /*expect_new=*/false);
}

TEST(CrashSweep, JournalCrashAfterRenameLeavesNewJournal) {
  run_journal_crash_sweep(util::io::kCrashAfterRename, /*expect_new=*/true);
}

TEST(CrashSweep, JournalCrashBeforeDirSyncLeavesNewJournal) {
  run_journal_crash_sweep(util::io::kCrashBeforeDirSync, /*expect_new=*/true);
}

// ---------------------------------------------------------------------------
// Real ENOSPC (satellite 4): RLIMIT_FSIZE makes write(2) genuinely fail with
// EFBIG (same kResourceExhausted family as ENOSPC) — no injection involved.

/// Child-side checks exit with distinct codes so a failure names its step.
enum RlimitChildCode {
  kRlimitOk = 0,
  kRlimitSetrlimitFailed = 20,
  kRlimitWriteSucceeded,      // the limit did not bite
  kRlimitWrongStatusCode,     // not kResourceExhausted
  kRlimitArtifactPublished,   // corrupt/partial file left at the target
  kRlimitTmpLeaked,
  kRlimitJournalCtorFailed,
  kRlimitAppendSucceeded,
  kRlimitFailureNotCounted,
  kRlimitNotLatched,          // second append did not return the latched error
  kRlimitResumeFailed,
  kRlimitTornRecordResumed,   // the non-durable record came back on resume
};

void clamp_file_size(rlim_t bytes) {
  struct rlimit lim;
  lim.rlim_cur = bytes;
  lim.rlim_max = bytes;
  if (::setrlimit(RLIMIT_FSIZE, &lim) != 0) _exit(kRlimitSetrlimitFailed);
  // Without this the kernel delivers SIGXFSZ and kills the child before
  // write(2) can fail with EFBIG — the error path under test.
  ::signal(SIGXFSZ, SIG_IGN);
}

template <typename Fn>
void expect_child_ok(Fn child) {
  pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    child();
    _exit(kRlimitOk);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus)) << "child died by signal "
                                  << (WIFSIGNALED(wstatus) ? WTERMSIG(wstatus) : -1);
  EXPECT_EQ(WEXITSTATUS(wstatus), kRlimitOk) << "child failed at step "
                                             << WEXITSTATUS(wstatus);
}

TEST(RealEnospc, AtomicWriteFailsCleanlyUnderRlimitFsize) {
  std::string path = tmp_path("rlimit_atomic.bin");
  expect_child_ok([&] {
    clamp_file_size(4096);
    std::string big(64 * 1024, 'x');
    util::Status s = util::io::atomic_write_file(path, big);
    if (s.ok()) _exit(kRlimitWriteSucceeded);
    if (s.code() != util::StatusCode::kResourceExhausted)
      _exit(kRlimitWrongStatusCode);
    if (exists(path)) _exit(kRlimitArtifactPublished);
    if (exists(path + ".tmp")) _exit(kRlimitTmpLeaked);
  });
  // The parent's view agrees: nothing at the target, nothing leaked.
  EXPECT_FALSE(exists(path));
  EXPECT_FALSE(exists(path + ".tmp"));
}

TEST(RealEnospc, JournalAppendFailsStructuredAndRecordIsNotResumed) {
  std::string dir = tmp_path("rlimit_journal");
  uint64_t seed = 31;
  expect_child_ok([&] {
    // Room for the header rewrite, not for the fat record below.
    clamp_file_size(4096);
    util::FaultPlan benign;
    uint64_t failures_before = counter("checkpoint.write_failures");
    {
      worldgen::StudyJournal journal(dir, seed, benign, /*resume=*/false);
      if (!journal.status().ok()) _exit(kRlimitJournalCtorFailed);
      worldgen::CheckpointRecord rec;
      rec.country = "US";
      rec.dataset.volunteer_id = "volunteer-US";
      rec.dataset.country = "US";
      rec.dataset.os = std::string(32 * 1024, 'z');  // blows the clamp
      util::Status s = journal.append(rec);
      if (s.ok()) _exit(kRlimitAppendSucceeded);
      if (s.code() != util::StatusCode::kResourceExhausted)
        _exit(kRlimitWrongStatusCode);
      if (counter("checkpoint.write_failures") <= failures_before)
        _exit(kRlimitFailureNotCounted);
      // The failure latches: later appends are refused with the same status
      // (the tail may be torn; anything after it would be invisible).
      worldgen::CheckpointRecord small;
      small.country = "GB";
      small.dataset.volunteer_id = "volunteer-GB";
      small.dataset.country = "GB";
      if (journal.append(small).ok()) _exit(kRlimitNotLatched);
    }
    // A fresh resume under the same (seed, plan) drops the torn tail: the
    // country whose append failed was never durably checkpointed.
    worldgen::StudyJournal resumed(dir, seed, benign, /*resume=*/true);
    if (!resumed.status().ok()) _exit(kRlimitResumeFailed);
    if (!resumed.completed().empty()) _exit(kRlimitTornRecordResumed);
  });
}

}  // namespace
}  // namespace gam
