#include "durable/durable_file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "guard/fault_injector.h"
#include "obs/metrics.h"

namespace dspot {

namespace {

DurableCrashHook g_crash_hook = nullptr;

Status ErrnoError(const std::string& what, const std::string& path, int err) {
  return Status::IoError(what + " failed: " + path + ": " +
                         std::strerror(err));
}

/// Sleeps before retry `attempt` (1-based): backoff_us << (attempt - 1),
/// capped so an injected failure storm cannot stall a test for seconds.
void Backoff(const RetryPolicy& retry, int attempt) {
  if (retry.backoff_us <= 0) {
    return;
  }
  constexpr int64_t kMaxBackoffUs = 50'000;
  int64_t us = static_cast<int64_t>(retry.backoff_us);
  us <<= (attempt > 1 ? attempt - 1 : 0);
  if (us > kMaxBackoffUs) {
    us = kMaxBackoffUs;
  }
  ::usleep(static_cast<useconds_t>(us));
}

}  // namespace

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNever:
      return "never";
    case FsyncPolicy::kOnFlush:
      return "flush";
    case FsyncPolicy::kEveryN:
      return "everyn";
  }
  return "unknown";
}

void SetDurableCrashHook(DurableCrashHook hook) { g_crash_hook = hook; }

void DurableCrashPoint(const char* point) {
  if (g_crash_hook != nullptr) {
    g_crash_hook(point);
  }
}

DurableFile::~DurableFile() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

DurableFile::DurableFile(DurableFile&& other) noexcept
    : fd_(other.fd_),
      path_(std::move(other.path_)),
      size_(other.size_),
      retry_(other.retry_) {
  other.fd_ = -1;
}

DurableFile& DurableFile::operator=(DurableFile&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      ::close(fd_);
    }
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    size_ = other.size_;
    retry_ = other.retry_;
    other.fd_ = -1;
  }
  return *this;
}

StatusOr<DurableFile> DurableFile::OpenAppend(const std::string& path,
                                              const RetryPolicy& retry) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return ErrnoError("open", path, errno);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return ErrnoError("fstat", path, err);
  }
  return DurableFile(fd, path, static_cast<uint64_t>(st.st_size), retry);
}

StatusOr<DurableFile> DurableFile::CreateTruncate(const std::string& path,
                                                  const RetryPolicy& retry) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return ErrnoError("open", path, errno);
  }
  return DurableFile(fd, path, 0, retry);
}

Status DurableFile::WriteAll(const void* data, size_t n) {
  if (fd_ < 0) {
    return Status::Internal("DurableFile::WriteAll on a closed file: " +
                            path_);
  }
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t remaining = n;
  int attempts = 0;
  while (remaining > 0) {
    size_t ask = remaining;
    bool injected_short = false;
    if (MaybeInjectFault(FaultSite::kIoShortWrite) && remaining > 1) {
      // Simulate the kernel accepting only part of the buffer — the loop
      // must pick up exactly where the short write stopped.
      ask = remaining / 2;
      injected_short = true;
    }
    if (MaybeInjectFault(FaultSite::kIoNoSpace)) {
      ++attempts;
      DSPOT_COUNT("wal.write_retries", 1);
      if (attempts >= retry_.max_attempts) {
        return Status::IoError("write failed: " + path_ +
                               ": injected ENOSPC persisted through " +
                               std::to_string(attempts) + " attempts");
      }
      Backoff(retry_, attempts);
      continue;
    }
    const ssize_t wrote = ::write(fd_, p, ask);
    if (wrote < 0) {
      if (errno == EINTR) {
        continue;  // interrupted before any byte moved; not an attempt
      }
      const int err = errno;
      ++attempts;
      DSPOT_COUNT("wal.write_retries", 1);
      if ((err != EAGAIN && err != ENOSPC) ||
          attempts >= retry_.max_attempts) {
        return ErrnoError("write", path_, err);
      }
      Backoff(retry_, attempts);
      continue;
    }
    p += wrote;
    remaining -= static_cast<size_t>(wrote);
    size_ += static_cast<uint64_t>(wrote);
    DurableCrashPoint(injected_short || remaining > 0 ? "file.partial"
                                                      : "file.write");
  }
  return Status::Ok();
}

Status DurableFile::Sync() {
  if (fd_ < 0) {
    return Status::Internal("DurableFile::Sync on a closed file: " + path_);
  }
  if (MaybeInjectFault(FaultSite::kIoFsyncFailure)) {
    return Status::IoError("fsync failed: " + path_ +
                           ": injected I/O error (not retried: a failed "
                           "fsync may have dropped the dirty pages)");
  }
  if (::fsync(fd_) != 0) {
    return ErrnoError("fsync", path_, errno);
  }
  DSPOT_COUNT("wal.syncs", 1);
  return Status::Ok();
}

Status DurableFile::Truncate(uint64_t new_size) {
  if (fd_ < 0) {
    return Status::Internal("DurableFile::Truncate on a closed file: " +
                            path_);
  }
  if (::ftruncate(fd_, static_cast<off_t>(new_size)) != 0) {
    return ErrnoError("ftruncate", path_, errno);
  }
  size_ = new_size;
  return Status::Ok();
}

Status DurableFile::Close() {
  if (fd_ < 0) {
    return Status::Ok();
  }
  const int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) {
    return ErrnoError("close", path_, errno);
  }
  return Status::Ok();
}

std::string DirOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) {
    return ".";
  }
  if (slash == 0) {
    return "/";
  }
  return path.substr(0, slash);
}

StatusOr<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    return Status::IoError("cannot open for reading: " + path);
  }
  std::string bytes;
  char chunk[16384];
  while (is.read(chunk, sizeof(chunk)) || is.gcount() > 0) {
    bytes.append(chunk, static_cast<size_t>(is.gcount()));
  }
  if (is.bad()) {
    return Status::IoError("read failed: " + path);
  }
  return bytes;
}

Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return ErrnoError("open directory", dir, errno);
  }
  if (MaybeInjectFault(FaultSite::kIoFsyncFailure)) {
    ::close(fd);
    return Status::IoError("fsync failed: " + dir + ": injected I/O error");
  }
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0) {
    return ErrnoError("fsync directory", dir, err);
  }
  return Status::Ok();
}

Status TruncateFile(const std::string& path, uint64_t new_size) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) {
    return ErrnoError("open", path, errno);
  }
  if (::ftruncate(fd, static_cast<off_t>(new_size)) != 0) {
    const int err = errno;
    ::close(fd);
    return ErrnoError("ftruncate", path, err);
  }
  const int rc = ::fsync(fd);
  const int err = errno;
  if (::close(fd) != 0) {
    return ErrnoError("close", path, errno);
  }
  if (rc != 0) {
    return ErrnoError("fsync", path, err);
  }
  return Status::Ok();
}

Status AtomicWriteFile(const std::string& path, const void* data, size_t n,
                       const RetryPolicy& retry) {
  DSPOT_SPAN("durable.atomic_write");
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long long>(::getpid()));
  StatusOr<DurableFile> file = DurableFile::CreateTruncate(tmp, retry);
  if (!file.ok()) {
    return file.status();
  }
  // Any failure from here on unwinds through `fail`: remove the temp so a
  // retried save does not trip over a stale partial file. The destination
  // path is never touched until the rename.
  auto fail = [&tmp](Status status) {
    ::unlink(tmp.c_str());
    return status;
  };
  if (Status s = file->WriteAll(data, n); !s.ok()) {
    return fail(std::move(s));
  }
  DurableCrashPoint("atomic.tmp_written");
  if (Status s = file->Sync(); !s.ok()) {
    return fail(std::move(s));
  }
  DurableCrashPoint("atomic.tmp_synced");
  if (Status s = file->Close(); !s.ok()) {
    return fail(std::move(s));
  }
  if (MaybeInjectFault(FaultSite::kIoRenameFailure)) {
    return fail(Status::IoError("rename failed: " + tmp + " -> " + path +
                                ": injected I/O error"));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail(ErrnoError("rename", path, errno));
  }
  DurableCrashPoint("atomic.renamed");
  // The rename is in the directory's page cache; fsync the directory so
  // the new name survives a power loss too.
  if (Status s = SyncDir(DirOf(path)); !s.ok()) {
    return s;  // the destination already holds the complete new file
  }
  DSPOT_COUNT("durable.atomic_writes", 1);
  return Status::Ok();
}

}  // namespace dspot
