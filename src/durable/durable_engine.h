#ifndef DSPOT_DURABLE_DURABLE_ENGINE_H_
#define DSPOT_DURABLE_DURABLE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/statusor.h"
#include "durable/durable_file.h"
#include "durable/wal.h"
#include "stream/stream_engine.h"

namespace dspot {

/// dspot_durable — crash durability for the streaming engine.
///
/// A StreamEngine alone persists only at explicit SaveState calls: kill
/// the process and every tick appended since the last save is gone. A
/// DurableEngine wraps the same engine with a write-ahead log and
/// atomic checkpoints so a process that is SIGKILLed at *any* instant —
/// mid-append, mid-flush, mid-checkpoint — recovers to a state that is a
/// valid prefix of what an uninterrupted run would have produced:
///
///  * Every accepted operation (keyword intern, append, flush) is applied
///    to the in-memory engine and then logged as one CRC-framed WAL
///    record, fsynced per the FsyncPolicy.
///  * Checkpoint() writes the engine's canonical EncodeState through the
///    temp -> fsync -> rename -> fsync-dir sequence, rotates the WAL to a
///    fresh segment, and prunes files no surviving checkpoint needs. The
///    two newest checkpoints are always retained, so a checkpoint that is
///    later found corrupt (bad sector, hostile edit) still has a fallback.
///  * Open() on a non-empty directory *is* recovery: load the newest
///    checkpoint that validates, replay the WAL tail through the ordinary
///    EnsureKeyword/AppendById/Flush paths (idempotent — records at or
///    below the checkpoint's sequence number are skipped), truncate any
///    torn trailing record at the last valid CRC frame, and resume
///    logging where the log left off. Mid-log corruption (an invalid
///    record *followed* by a valid one) is never skipped: it returns a
///    located kDataLoss.
///
/// What is durable when: with kEveryN (n=1) every acknowledged operation;
/// with kOnFlush every completed Flush(); with kNever whatever the page
/// cache retains — which, for a process kill (as opposed to power loss),
/// is still everything that was written. Rejected appends are not logged,
/// so the engine's `rejected` counter resets to its last-checkpoint value
/// on recovery; accepted data is never affected.
///
/// THREAD SAFETY: same single-writer contract as StreamEngine — one
/// thread calls Append/Flush/Checkpoint; Forecast reads on the inner
/// engine stay lock-free from any thread.

struct DurableOptions {
  FsyncPolicy fsync_policy = FsyncPolicy::kOnFlush;
  /// For kEveryN: fsync after this many records. 1 = every record.
  size_t fsync_every_n = 32;
  /// Checkpoint automatically after this many flushes (0 = only explicit
  /// Checkpoint() calls).
  size_t checkpoint_every_flushes = 8;
  /// Also checkpoint when the live WAL segment exceeds this many bytes
  /// (bounds replay time after a crash). 0 = no byte trigger.
  uint64_t max_wal_bytes = 64ull << 20;
  /// Retry-with-backoff for transient write failures.
  RetryPolicy retry;
  /// Engine options. On recovery the semantic knobs (tick bucketing, ring
  /// capacity, triage thresholds) come from the checkpoint — this field
  /// then supplies only the runtime knobs (threads, budgets, fit
  /// options), exactly like StreamEngine::LoadState.
  StreamOptions stream;
};

/// What Open() found and did.
struct RecoveryReport {
  bool fresh = false;            ///< empty directory: no recovery needed
  bool used_checkpoint = false;  ///< state seeded from a checkpoint file
  uint64_t checkpoint_seq = 0;   ///< sequence of the checkpoint used
  /// Newer checkpoints that failed validation and were skipped. Always 0
  /// after a plain crash — only damaged files take the fallback path.
  size_t checkpoints_discarded = 0;
  uint64_t replayed_interns = 0;
  uint64_t replayed_appends = 0;
  uint64_t replayed_flushes = 0;
  /// Torn trailing bytes truncated from the final segment.
  uint64_t truncated_bytes = 0;
  /// Sequence number of the last applied record.
  uint64_t last_seq = 0;
};

class DurableEngine {
 public:
  /// Opens (creating or recovering) a durable engine rooted at `dir`. A
  /// fresh directory is initialized with an empty checkpoint so the
  /// semantic options are durable from the first append. See the class
  /// comment for the recovery contract.
  static StatusOr<std::unique_ptr<DurableEngine>> Open(
      const std::string& dir, const DurableOptions& options);

  DurableEngine(const DurableEngine&) = delete;
  DurableEngine& operator=(const DurableEngine&) = delete;

  /// StreamEngine::EnsureKeyword + a kIntern WAL record when the keyword
  /// is new (intern order is part of the engine state).
  StatusOr<uint32_t> EnsureKeyword(std::string_view keyword);

  /// StreamEngine::Append/AppendById + a kAppend WAL record. The record
  /// is logged only after the engine accepts the tick; a WAL write
  /// failure is returned to the caller (the in-memory engine keeps the
  /// tick — it is simply not durable yet).
  Status Append(std::string_view keyword, std::string_view location,
                int64_t timestamp, double count);
  Status AppendById(uint32_t keyword, int64_t timestamp, double count);

  /// StreamEngine::Flush + a kFlushMark record (+ fsync under kOnFlush),
  /// then an automatic Checkpoint() when the configured interval or WAL
  /// byte cap is reached.
  StatusOr<StreamFlushReport> Flush();

  /// Writes an atomic checkpoint of the current state, rotates the WAL,
  /// and prunes files older than the previous checkpoint. A failed
  /// checkpoint (injected or real I/O error) leaves the previous
  /// checkpoint and the live WAL fully intact — the engine keeps running
  /// and the next attempt may succeed.
  Status Checkpoint();

  /// The wrapped engine: forecasts, stats, EncodeState.
  StreamEngine& engine() { return *engine_; }
  const StreamEngine& engine() const { return *engine_; }

  const RecoveryReport& recovery() const { return recovery_; }
  const std::string& dir() const { return dir_; }
  uint64_t last_seq() const { return wal_->next_seq() - 1; }
  uint64_t wal_segment_bytes() const { return wal_->size(); }
  uint64_t last_checkpoint_seq() const { return last_checkpoint_seq_; }

 private:
  DurableEngine(std::string dir, DurableOptions options)
      : dir_(std::move(dir)), options_(std::move(options)) {}

  /// Appends one record and applies the fsync policy (`boundary` marks a
  /// flush-completion record, the kOnFlush sync point).
  Status LogRecord(WalRecordType type, uint64_t a, uint64_t b, uint64_t c,
                   std::string_view name, bool boundary);

  /// Applies one replayed WAL record through the ordinary engine paths.
  Status ApplyRecord(const WalRecord& rec);

  Status OpenFreshSegment(uint64_t checkpoint_seq);
  Status PruneObsoleteFiles();

  std::string dir_;
  DurableOptions options_;
  std::unique_ptr<StreamEngine> engine_;
  std::unique_ptr<WalWriter> wal_;
  RecoveryReport recovery_;
  size_t records_since_sync_ = 0;
  size_t flushes_since_checkpoint_ = 0;
  static constexpr uint64_t kNoCheckpoint = ~uint64_t{0};
  uint64_t last_checkpoint_seq_ = kNoCheckpoint;
  uint64_t previous_checkpoint_seq_ = kNoCheckpoint;
};

/// File-name helpers shared with tests: zero-padded so lexicographic and
/// numeric order agree.
std::string WalSegmentFileName(uint64_t base_seq);
std::string CheckpointFileName(uint64_t seq);

}  // namespace dspot

#endif  // DSPOT_DURABLE_DURABLE_ENGINE_H_
