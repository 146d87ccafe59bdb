#include "util/io.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/fault.h"
#include "util/metrics.h"

namespace gam::util::io {

namespace {

/// ENOSPC-family errnos are backpressure (the operator can free space and
/// retry); everything else is an internal I/O failure.
StatusCode code_for_errno(int err) {
  return (err == ENOSPC || err == EDQUOT || err == EFBIG)
             ? StatusCode::kResourceExhausted
             : StatusCode::kInternal;
}

Status errno_status(const std::string& what, int err) {
  return Status(code_for_errno(err), what + ": " + std::strerror(err));
}

void count_failure() {
  MetricsRegistry::instance().counter("io.write_failures").inc();
}

std::string default_key(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// One decision for (key, fault): deterministic in (plan, seed, key), like
/// every other fault site.
bool roll(const FaultInjector* faults, const std::string& key, const char* fault,
          double probability) {
  if (!faults || probability <= 0.0) return false;
  return faults->roll("io", key + "/" + fault, probability);
}

/// Reached crash points kill the process with SIGKILL: no destructors, no
/// stdio flush, nothing — the closest a test can get to yanking the plug.
[[noreturn]] void crash_now() {
  ::raise(SIGKILL);
  // raise(SIGKILL) does not return; _exit keeps the compiler honest if a
  // hostile environment blocks the signal.
  ::_exit(137);
}

int checked_fsync(int fd) { return ::fsync(fd); }

}  // namespace

Status fsync_parent_dir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return errno_status("open dir " + dir, errno);
  if (checked_fsync(fd) != 0) {
    int err = errno;
    ::close(fd);
    return errno_status("fsync dir " + dir, err);
  }
  ::close(fd);
  return Status();
}

AtomicFileWriter::AtomicFileWriter(std::string path, WriteOptions options)
    : path_(std::move(path)), tmp_(path_ + ".tmp"), options_(std::move(options)) {
  if (options_.fault_key.empty()) options_.fault_key = default_key(path_);
}

AtomicFileWriter::~AtomicFileWriter() {
  if (fd_ >= 0) ::close(fd_);
  if (!committed_ && fd_ != -1) ::unlink(tmp_.c_str());
  // fd_ == -1 after fail(): the tmp was already unlinked there. A writer
  // that was never opened has nothing to clean.
}

Status AtomicFileWriter::fail(StatusCode code, std::string message) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  ::unlink(tmp_.c_str());
  status_ = Status(code, std::move(message));
  count_failure();
  return status_;
}

bool AtomicFileWriter::roll_fault(const char* fault, double probability) const {
  return roll(options_.faults, options_.fault_key, fault, probability);
}

void AtomicFileWriter::maybe_crash(const char* point, double probability) const {
  if (roll_fault(point, probability)) crash_now();
}

Status AtomicFileWriter::open() {
  if (!status_.ok()) return status_;
  fd_ = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    int err = errno;
    status_ = errno_status("open " + tmp_, err);
    count_failure();
    return status_;
  }
  return Status();
}

Status AtomicFileWriter::append(std::string_view bytes) {
  if (!status_.ok()) return status_;
  if (fd_ < 0) return fail(StatusCode::kInternal, "append before open: " + tmp_);
  const FaultPlan* plan = options_.faults ? &options_.faults->plan() : nullptr;
  if (plan && roll_fault("short_write", plan->io_short_write)) {
    // Model a torn write: half the payload really lands, then the device
    // gives up. The half-written tmp is what fail() must clean up.
    size_t half = bytes.size() / 2;
    if (half > 0) (void)!::write(fd_, bytes.data(), half);
    return fail(StatusCode::kInternal,
                "short write to " + tmp_ + " (injected): wrote " +
                    std::to_string(half) + " of " + std::to_string(bytes.size()) +
                    " bytes");
  }
  if (plan && roll_fault("enospc", plan->io_enospc)) {
    size_t half = bytes.size() / 2;
    if (half > 0) (void)!::write(fd_, bytes.data(), half);
    return fail(StatusCode::kResourceExhausted,
                "write " + tmp_ + " (injected): " + std::strerror(ENOSPC));
  }
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = ::write(fd_, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      return fail(code_for_errno(err), "write " + tmp_ + ": " + std::strerror(err));
    }
    if (n == 0) {
      return fail(StatusCode::kInternal,
                  "short write to " + tmp_ + ": wrote " + std::to_string(written) +
                      " of " + std::to_string(bytes.size()) + " bytes");
    }
    written += static_cast<size_t>(n);
  }
  bytes_ += written;
  return Status();
}

Status AtomicFileWriter::commit() {
  if (!status_.ok()) return status_;
  if (fd_ < 0) return fail(StatusCode::kInternal, "commit before open: " + tmp_);
  const FaultPlan* plan = options_.faults ? &options_.faults->plan() : nullptr;
  if (options_.sync) {
    if (plan && roll_fault("eio", plan->io_eio)) {
      return fail(StatusCode::kInternal,
                  "fsync " + tmp_ + " (injected): " + std::strerror(EIO));
    }
    static Histogram& fsync_ms =
        MetricsRegistry::instance().histogram("io.fsync_ms");
    ScopedTimer timer(fsync_ms);
    if (checked_fsync(fd_) != 0) {
      int err = errno;
      return fail(code_for_errno(err), "fsync " + tmp_ + ": " + std::strerror(err));
    }
  }
  if (::close(fd_) != 0) {
    int err = errno;
    fd_ = -1;  // closed even on error; fail() must not double-close
    ::unlink(tmp_.c_str());
    status_ = errno_status("close " + tmp_, err);
    count_failure();
    return status_;
  }
  fd_ = -1;

  if (plan) maybe_crash(kCrashBeforeRename, plan->io_crash_before_rename);
  if (::rename(tmp_.c_str(), path_.c_str()) != 0) {
    // The satellite fix writ into the layer: a failed rename surfaces its
    // errno AND removes the orphaned tmp instead of leaking it.
    int err = errno;
    ::unlink(tmp_.c_str());
    status_ = Status(code_for_errno(err), "rename " + tmp_ + " -> " + path_ + ": " +
                                              std::strerror(err));
    count_failure();
    return status_;
  }
  committed_ = true;  // the new file is published; never unlink it
  if (plan) maybe_crash(kCrashAfterRename, plan->io_crash_after_rename);
  if (options_.sync) {
    if (plan) maybe_crash(kCrashBeforeDirSync, plan->io_crash_before_dir_sync);
    Status dir = fsync_parent_dir(path_);
    if (!dir.ok()) {
      // The data file is fully published (rename succeeded) but the
      // directory entry is not yet durable; report it — the caller decides
      // whether "visible but not power-loss-durable" is acceptable.
      status_ = dir;
      count_failure();
      return status_;
    }
  }
  MetricsRegistry::instance().counter("io.bytes_written").inc(bytes_);
  MetricsRegistry::instance().counter("io.files_committed").inc();
  return Status();
}

Status atomic_write_file(const std::string& path, std::string_view bytes,
                         const WriteOptions& options) {
  AtomicFileWriter writer(path, options);
  if (Status s = writer.open(); !s.ok()) return s;
  if (Status s = writer.append(bytes); !s.ok()) return s;
  return writer.commit();
}

Status durable_append(const std::string& path, std::string_view bytes,
                      const WriteOptions& options) {
  WriteOptions opts = options;
  if (opts.fault_key.empty()) opts.fault_key = default_key(path);
  const FaultPlan* plan = opts.faults ? &opts.faults->plan() : nullptr;

  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    int err = errno;
    count_failure();
    return errno_status("open " + path, err);
  }
  auto fail = [&](StatusCode code, std::string message) {
    ::close(fd);
    count_failure();
    return Status(code, std::move(message));
  };
  if (plan && roll(opts.faults, opts.fault_key, "short_write", plan->io_short_write)) {
    size_t half = bytes.size() / 2;
    if (half > 0) (void)!::write(fd, bytes.data(), half);
    return fail(StatusCode::kInternal,
                "short append to " + path + " (injected): wrote " +
                    std::to_string(half) + " of " + std::to_string(bytes.size()) +
                    " bytes");
  }
  if (plan && roll(opts.faults, opts.fault_key, "enospc", plan->io_enospc)) {
    return fail(StatusCode::kResourceExhausted,
                "append " + path + " (injected): " + std::strerror(ENOSPC));
  }
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      return fail(code_for_errno(err), "append " + path + ": " + std::strerror(err));
    }
    if (n == 0) {
      return fail(StatusCode::kInternal,
                  "short append to " + path + ": wrote " + std::to_string(written) +
                      " of " + std::to_string(bytes.size()) + " bytes");
    }
    written += static_cast<size_t>(n);
  }
  if (opts.sync) {
    if (plan && roll(opts.faults, opts.fault_key, "eio", plan->io_eio)) {
      return fail(StatusCode::kInternal,
                  "fsync " + path + " (injected): " + std::strerror(EIO));
    }
    if (checked_fsync(fd) != 0) {
      int err = errno;
      return fail(code_for_errno(err), "fsync " + path + ": " + std::strerror(err));
    }
  }
  if (::close(fd) != 0) {
    int err = errno;
    count_failure();
    return errno_status("close " + path, err);
  }
  MetricsRegistry::instance().counter("io.bytes_written").inc(written);
  return Status();
}

}  // namespace gam::util::io
