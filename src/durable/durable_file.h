#ifndef DSPOT_DURABLE_DURABLE_FILE_H_
#define DSPOT_DURABLE_DURABLE_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "common/statusor.h"

namespace dspot {

/// dspot_durable's lowest layer: a small POSIX file-descriptor wrapper
/// that makes the failure semantics of every durable write explicit.
///
/// The rest of the library used to write files through bare std::ofstream,
/// which has two crash problems the codec CRCs cannot fix:
///
///  1. No fsync: a "successful" save could sit entirely in the page cache
///     and vanish in a power loss.
///  2. In-place truncation: opening the destination path truncates it
///     first, so a crash *during* a save destroys the previous good file —
///     exactly the file that was supposed to rescue the restart.
///
/// DurableFile addresses (1) with an explicit Sync() that callers place
/// according to their FsyncPolicy, and AtomicWriteFile addresses (2) with
/// the classic temp -> fsync -> rename -> fsync-directory sequence: the
/// destination path always names either the complete old file or the
/// complete new file, never a prefix of either.
///
/// Every fallible syscall is threaded through the dspot_guard
/// FaultInjector (kIoShortWrite / kIoNoSpace / kIoFsyncFailure /
/// kIoRenameFailure), so tests exercise the short-write continuation,
/// retry exhaustion, and rename unwind paths deterministically instead of
/// hoping a real disk misbehaves on cue.

/// When the write-ahead log calls fsync. Checkpoints and AtomicWriteFile
/// always sync regardless of this policy — it governs only the WAL append
/// hot path.
enum class FsyncPolicy : uint8_t {
  /// Never fsync appends. Records survive a process kill (the page cache
  /// outlives the process) but not a power loss. The fastest option and
  /// the right one when the stream source can replay.
  kNever = 0,
  /// Fsync at flush markers and checkpoints: a completed Flush() is
  /// durable, appends since the last flush may be lost on power failure.
  kOnFlush,
  /// Fsync every N records (N = DurableOptions::fsync_every_n; N = 1 makes
  /// every acknowledged append durable). The bounded-loss knob.
  kEveryN,
};

const char* FsyncPolicyName(FsyncPolicy policy);

/// Bounded retry-with-backoff for transient write failures (EINTR retries
/// immediately and does not count; EAGAIN/ENOSPC and injected faults count
/// an attempt and back off exponentially). fsync failures are never
/// retried: after a failed fsync the kernel may already have dropped the
/// dirty pages, so retrying would report durability that does not exist.
struct RetryPolicy {
  int max_attempts = 4;      ///< total tries per write call
  int backoff_us = 100;      ///< sleep before retry k is backoff_us << (k-1)
};

/// Test-only crash hook: when set, invoked at named points inside the
/// durable I/O path ("file.write", "file.partial", "atomic.tmp_written",
/// "atomic.tmp_synced", "atomic.renamed"). The crash-kill harness installs
/// a hook that raises SIGKILL at the n-th invocation, turning "the process
/// died mid-checkpoint, between the rename and the directory sync" into a
/// deterministic test case. Must not be set concurrently with I/O.
using DurableCrashHook = void (*)(const char* point);
void SetDurableCrashHook(DurableCrashHook hook);

/// Invokes the installed crash hook, if any (internal + test use).
void DurableCrashPoint(const char* point);

/// An append-only file handle. Move-only; the destructor closes the fd
/// (without syncing — callers that need durability call Sync first).
class DurableFile {
 public:
  DurableFile() = default;
  ~DurableFile();
  DurableFile(DurableFile&& other) noexcept;
  DurableFile& operator=(DurableFile&& other) noexcept;
  DurableFile(const DurableFile&) = delete;
  DurableFile& operator=(const DurableFile&) = delete;

  /// Opens (creating if needed) for appending; writes go to the current
  /// end of file. `size()` reports the size observed at open time plus
  /// bytes written through this handle.
  static StatusOr<DurableFile> OpenAppend(const std::string& path,
                                          const RetryPolicy& retry);

  /// Creates or truncates `path` for writing from scratch.
  static StatusOr<DurableFile> CreateTruncate(const std::string& path,
                                              const RetryPolicy& retry);

  /// Writes all `n` bytes, looping over partial writes and retrying
  /// transient failures per the RetryPolicy. On failure some prefix of the
  /// bytes may have reached the file — append-only formats recover via
  /// their framing (the WAL truncates at the last valid CRC frame).
  Status WriteAll(const void* data, size_t n);

  /// fsync(2). Fails without retry (see RetryPolicy comment).
  Status Sync();

  /// ftruncate(2) to `new_size` bytes, without fsync: drops what a failed
  /// WriteAll left behind, so the next append starts at `new_size`.
  Status Truncate(uint64_t new_size);

  /// Closes the fd, reporting the close error if any. Idempotent.
  Status Close();

  bool is_open() const { return fd_ >= 0; }
  uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  DurableFile(int fd, std::string path, uint64_t size, RetryPolicy retry)
      : fd_(fd), path_(std::move(path)), size_(size), retry_(retry) {}

  int fd_ = -1;
  std::string path_;
  uint64_t size_ = 0;
  RetryPolicy retry_;
};

/// Writes `n` bytes to `path` atomically: <path>.tmp.<pid> -> WriteAll ->
/// fsync -> rename -> fsync parent directory. On any failure the temp
/// file is removed and the destination is untouched — a crashed or failed
/// save can never leave a truncated file where a good one stood.
Status AtomicWriteFile(const std::string& path, const void* data, size_t n,
                       const RetryPolicy& retry = RetryPolicy());

/// fsyncs a directory so a rename/creation inside it is durable.
Status SyncDir(const std::string& dir);

/// Truncates `path` to `new_size` bytes and fsyncs it (crash recovery
/// uses this to drop a torn WAL tail).
Status TruncateFile(const std::string& path, uint64_t new_size);

/// The directory component of `path` ("." when there is none).
std::string DirOf(const std::string& path);

/// The whole contents of `path`, read in chunks until end of file: never
/// sized by the length a directory (huge) or a /proc file (0) reports.
/// IoError "cannot open for reading: <path>" or "read failed: <path>" —
/// a read that fails part way is never taken for end of file.
StatusOr<std::string> ReadFileBytes(const std::string& path);

}  // namespace dspot

#endif  // DSPOT_DURABLE_DURABLE_FILE_H_
