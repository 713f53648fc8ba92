#include "durable/durable_engine.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "obs/metrics.h"

namespace dspot {

namespace {

/// Listing of the recognized files in a durable directory, by the
/// sequence number embedded in their names.
struct DirListing {
  std::vector<uint64_t> checkpoints;  ///< checkpoint seq, ascending
  std::vector<uint64_t> segments;     ///< segment base seq, ascending
};

/// True iff `name` is `prefix` + digits + `suffix`; extracts the digits.
bool ParseSeqName(const std::string& name, const char* prefix,
                  const char* suffix, uint64_t* seq) {
  const size_t plen = std::strlen(prefix);
  const size_t slen = std::strlen(suffix);
  if (name.size() <= plen + slen || name.compare(0, plen, prefix) != 0 ||
      name.compare(name.size() - slen, slen, suffix) != 0) {
    return false;
  }
  const std::string digits = name.substr(plen, name.size() - plen - slen);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *seq = std::strtoull(digits.c_str(), nullptr, 10);
  return true;
}

/// Scans `dir`, removing leftover AtomicWriteFile temporaries (a crash
/// mid-checkpoint leaves one behind; it is garbage by construction).
StatusOr<DirListing> ScanDir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::IoError("cannot open directory: " + dir + ": " +
                           std::strerror(errno));
  }
  DirListing listing;
  std::vector<std::string> stale_tmp;
  while (struct dirent* ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    uint64_t seq = 0;
    if (ParseSeqName(name, "checkpoint-", ".ckpt", &seq)) {
      listing.checkpoints.push_back(seq);
    } else if (ParseSeqName(name, "wal-", ".log", &seq)) {
      listing.segments.push_back(seq);
    } else if (name.find(".tmp.") != std::string::npos) {
      stale_tmp.push_back(dir + "/" + name);
    }
  }
  ::closedir(d);
  for (const std::string& tmp : stale_tmp) {
    ::unlink(tmp.c_str());
  }
  std::sort(listing.checkpoints.begin(), listing.checkpoints.end());
  std::sort(listing.segments.begin(), listing.segments.end());
  return listing;
}

/// Loads one checkpoint, a StreamEngine state file. `expected_seq` is the
/// sequence number from the file name; a mismatch with the stored one
/// means the file was renamed or spliced and cannot be trusted.
StatusOr<std::unique_ptr<StreamEngine>> LoadCheckpointFile(
    const std::string& path, uint64_t expected_seq,
    const StreamOptions& runtime) {
  uint64_t stored_seq = 0;
  StatusOr<std::unique_ptr<StreamEngine>> engine =
      StreamEngine::LoadState(path, runtime, &stored_seq);
  if (engine.ok() && stored_seq != expected_seq) {
    return Status::DataLoss(path + ": checkpoint claims sequence " +
                            std::to_string(stored_seq) +
                            " but its name says " +
                            std::to_string(expected_seq));
  }
  return engine;
}

}  // namespace

std::string WalSegmentFileName(uint64_t base_seq) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "wal-%020llu.log",
                static_cast<unsigned long long>(base_seq));
  return buf;
}

std::string CheckpointFileName(uint64_t seq) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "checkpoint-%020llu.ckpt",
                static_cast<unsigned long long>(seq));
  return buf;
}

StatusOr<std::unique_ptr<DurableEngine>> DurableEngine::Open(
    const std::string& dir, const DurableOptions& options) {
  DSPOT_SPAN("durable.open");
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("cannot create directory: " + dir + ": " +
                           std::strerror(errno));
  }
  DSPOT_ASSIGN_OR_RETURN(const DirListing listing, ScanDir(dir));

  std::unique_ptr<DurableEngine> de(new DurableEngine(dir, options));
  RecoveryReport& rep = de->recovery_;

  // Seed the state: the newest checkpoint that validates, falling back
  // through older ones (each is only ever discarded for failing its own
  // CRC/framing — a plain crash never damages a completed checkpoint,
  // because checkpoints only appear via the atomic rename).
  uint64_t applied = 0;
  Status first_error = Status::Ok();
  for (auto it = listing.checkpoints.rbegin();
       it != listing.checkpoints.rend(); ++it) {
    StatusOr<std::unique_ptr<StreamEngine>> loaded = LoadCheckpointFile(
        dir + "/" + CheckpointFileName(*it), *it, options.stream);
    if (loaded.ok()) {
      de->engine_ = std::move(*loaded);
      applied = *it;
      rep.used_checkpoint = true;
      rep.checkpoint_seq = *it;
      de->last_checkpoint_seq_ = *it;
      break;
    }
    if (first_error.ok()) {
      first_error = loaded.status();
    }
    ++rep.checkpoints_discarded;
    DSPOT_COUNT("durable.checkpoints_discarded", 1);
  }
  if (de->engine_ == nullptr) {
    // No usable checkpoint. Starting from scratch is sound only when the
    // log still reaches back to sequence 1; otherwise pruned segments
    // make the state unreconstructible and the checkpoint error stands.
    if (!listing.checkpoints.empty() &&
        (listing.segments.empty() || listing.segments.front() != 1)) {
      return first_error;
    }
    de->engine_ = std::make_unique<StreamEngine>(options.stream);
    rep.fresh = listing.checkpoints.empty() && listing.segments.empty();
  }

  // Replay the WAL tail. Segments fully covered by the checkpoint are
  // skipped without reading — a crash can leave an unsynced (torn) tail
  // on a rotated-away segment, and its records are all duplicates anyway.
  for (size_t i = 0; i < listing.segments.size(); ++i) {
    const uint64_t base = listing.segments[i];
    const bool last = i + 1 == listing.segments.size();
    if (!last && listing.segments[i + 1] <= applied + 1) {
      continue;
    }
    const std::string path = dir + "/" + WalSegmentFileName(base);
    DSPOT_ASSIGN_OR_RETURN(const WalSegmentScan scan,
                           ReadWalSegment(path, base, last));
    for (const WalRecord& rec : scan.records) {
      if (rec.seq <= applied) {
        continue;
      }
      if (rec.seq != applied + 1) {
        return Status::DataLoss(
            path + ": record sequence " + std::to_string(rec.seq) +
            " follows " + std::to_string(applied) +
            " — a WAL segment is missing");
      }
      DSPOT_RETURN_IF_ERROR(de->ApplyRecord(rec));
      applied = rec.seq;
    }
    if (last && scan.truncated_bytes > 0) {
      DSPOT_RETURN_IF_ERROR(TruncateFile(path, scan.valid_bytes));
      rep.truncated_bytes = scan.truncated_bytes;
      DSPOT_COUNT("durable.torn_tails", 1);
    }
  }
  rep.last_seq = applied;

  if (rep.fresh) {
    // Make the semantic options durable before the first append: an empty
    // checkpoint-0, then the first segment.
    DSPOT_RETURN_IF_ERROR(de->engine_->SaveState(
        dir + "/" + CheckpointFileName(0), 0, options.retry));
    de->last_checkpoint_seq_ = 0;
    DSPOT_RETURN_IF_ERROR(de->OpenFreshSegment(0));
  } else if (listing.segments.empty()) {
    // Checkpoint written but the crash hit before its segment appeared.
    DSPOT_RETURN_IF_ERROR(de->OpenFreshSegment(applied));
  } else {
    // Resume appending exactly where the log left off.
    const std::string path =
        dir + "/" + WalSegmentFileName(listing.segments.back());
    DSPOT_ASSIGN_OR_RETURN(WalWriter wal,
                           WalWriter::Open(path, applied + 1, options.retry));
    de->wal_ = std::make_unique<WalWriter>(std::move(wal));
  }

  DSPOT_COUNT("durable.opens", 1);
  DSPOT_OBSERVE("durable.replayed_records",
                static_cast<double>(rep.replayed_interns +
                                    rep.replayed_appends +
                                    rep.replayed_flushes));
  return de;
}

Status DurableEngine::ApplyRecord(const WalRecord& rec) {
  switch (rec.type) {
    case WalRecordType::kIntern: {
      DSPOT_ASSIGN_OR_RETURN(const uint32_t id,
                             engine_->EnsureKeyword(rec.name));
      if (id != static_cast<uint32_t>(rec.a)) {
        return Status::DataLoss(
            "WAL replay interned \"" + rec.name + "\" as keyword " +
            std::to_string(id) + " but the log recorded " +
            std::to_string(rec.a) +
            " — the checkpoint and the log disagree");
      }
      ++recovery_.replayed_interns;
      return Status::Ok();
    }
    case WalRecordType::kAppend: {
      Status s = engine_->AppendById(static_cast<uint32_t>(rec.a),
                                     static_cast<int64_t>(rec.b),
                                     std::bit_cast<double>(rec.c));
      if (!s.ok()) {
        // The engine accepted this tick when it was logged, so a replay
        // rejection means the state diverged from the log's history.
        return Status::DataLoss(
            "WAL replay of append (seq " + std::to_string(rec.seq) +
            ") was rejected: " + s.message());
      }
      ++recovery_.replayed_appends;
      return Status::Ok();
    }
    case WalRecordType::kFlushMark: {
      StatusOr<StreamFlushReport> r = engine_->Flush();
      if (!r.ok()) {
        return r.status();
      }
      ++recovery_.replayed_flushes;
      return Status::Ok();
    }
    case WalRecordType::kCheckpointRef:
      return Status::Ok();
  }
  return Status::Internal("unhandled WAL record type");
}

Status DurableEngine::LogRecord(WalRecordType type, uint64_t a, uint64_t b,
                                uint64_t c, std::string_view name,
                                bool boundary) {
  DSPOT_RETURN_IF_ERROR(wal_->Append(type, a, b, c, name));
  switch (options_.fsync_policy) {
    case FsyncPolicy::kNever:
      break;
    case FsyncPolicy::kOnFlush:
      if (boundary) {
        DSPOT_RETURN_IF_ERROR(wal_->Sync());
      }
      break;
    case FsyncPolicy::kEveryN:
      if (++records_since_sync_ >=
          (options_.fsync_every_n > 0 ? options_.fsync_every_n : 1)) {
        DSPOT_RETURN_IF_ERROR(wal_->Sync());
        records_since_sync_ = 0;
      }
      break;
  }
  DSPOT_GAUGE_SET("durable.wal_bytes", static_cast<double>(wal_->size()));
  return Status::Ok();
}

StatusOr<uint32_t> DurableEngine::EnsureKeyword(std::string_view keyword) {
  const size_t before = engine_->num_keywords();
  DSPOT_ASSIGN_OR_RETURN(const uint32_t id, engine_->EnsureKeyword(keyword));
  if (engine_->num_keywords() > before) {
    DSPOT_RETURN_IF_ERROR(LogRecord(WalRecordType::kIntern, id, 0, 0, keyword,
                                    /*boundary=*/false));
  }
  return id;
}

Status DurableEngine::AppendById(uint32_t keyword, int64_t timestamp,
                                 double count) {
  // Apply first, log second: a rejected append (stale timestamp, unknown
  // keyword) never reaches the log, so replay only sees accepted ticks.
  DSPOT_RETURN_IF_ERROR(engine_->AppendById(keyword, timestamp, count));
  return LogRecord(WalRecordType::kAppend, keyword,
                   static_cast<uint64_t>(timestamp),
                   std::bit_cast<uint64_t>(count), {}, /*boundary=*/false);
}

Status DurableEngine::Append(std::string_view keyword,
                             std::string_view location, int64_t timestamp,
                             double count) {
  (void)location;  // folded into the global sequence, as in StreamEngine
  DSPOT_ASSIGN_OR_RETURN(const uint32_t id, EnsureKeyword(keyword));
  return AppendById(id, timestamp, count);
}

StatusOr<StreamFlushReport> DurableEngine::Flush() {
  DSPOT_ASSIGN_OR_RETURN(const StreamFlushReport report, engine_->Flush());
  DSPOT_RETURN_IF_ERROR(
      LogRecord(WalRecordType::kFlushMark, 0, 0, 0, {}, /*boundary=*/true));
  ++flushes_since_checkpoint_;
  const bool by_flushes =
      options_.checkpoint_every_flushes > 0 &&
      flushes_since_checkpoint_ >= options_.checkpoint_every_flushes;
  const bool by_bytes =
      options_.max_wal_bytes > 0 && wal_->size() >= options_.max_wal_bytes;
  if (by_flushes || by_bytes) {
    // Auto-checkpoint failure is not a flush failure: the flush itself is
    // applied and logged, the previous checkpoint and live WAL are still
    // intact, and the trigger stays armed for the next flush.
    if (Status s = Checkpoint(); !s.ok()) {
      DSPOT_COUNT("durable.checkpoint_errors", 1);
    }
  }
  return report;
}

Status DurableEngine::Checkpoint() {
  const uint64_t seq = wal_->next_seq() - 1;
  if (seq == last_checkpoint_seq_) {
    return Status::Ok();  // nothing logged since the last one
  }
  DSPOT_SPAN("durable.checkpoint");
  // The outgoing segment must be durable before anything starts referring
  // past it (its tail may be unsynced under kNever/kEveryN).
  DSPOT_RETURN_IF_ERROR(wal_->Sync());
  DSPOT_RETURN_IF_ERROR(engine_->SaveState(
      dir_ + "/" + CheckpointFileName(seq), seq, options_.retry));
  previous_checkpoint_seq_ = last_checkpoint_seq_;
  last_checkpoint_seq_ = seq;
  DSPOT_RETURN_IF_ERROR(OpenFreshSegment(seq));
  flushes_since_checkpoint_ = 0;
  records_since_sync_ = 0;
  PruneObsoleteFiles();  // best-effort; stale files are harmless
  DSPOT_COUNT("durable.checkpoints", 1);
  return Status::Ok();
}

Status DurableEngine::OpenFreshSegment(uint64_t checkpoint_seq) {
  const std::string path =
      dir_ + "/" + WalSegmentFileName(checkpoint_seq + 1);
  DSPOT_ASSIGN_OR_RETURN(
      WalWriter wal, WalWriter::Open(path, checkpoint_seq + 1, options_.retry));
  wal_ = std::make_unique<WalWriter>(std::move(wal));
  DSPOT_RETURN_IF_ERROR(wal_->Append(WalRecordType::kCheckpointRef,
                                     checkpoint_seq, 0, 0));
  DSPOT_RETURN_IF_ERROR(wal_->Sync());
  return SyncDir(dir_);
}

Status DurableEngine::PruneObsoleteFiles() {
  DSPOT_ASSIGN_OR_RETURN(const DirListing listing, ScanDir(dir_));
  if (listing.checkpoints.size() <= 2) {
    return Status::Ok();
  }
  // Keep the two newest checkpoints (the second is the fallback should
  // the newest later fail validation) and every segment the older of the
  // two would need for its own replay.
  const uint64_t older_kept =
      listing.checkpoints[listing.checkpoints.size() - 2];
  size_t pruned = 0;
  for (size_t i = 0; i + 2 < listing.checkpoints.size(); ++i) {
    const std::string path =
        dir_ + "/" + CheckpointFileName(listing.checkpoints[i]);
    pruned += ::unlink(path.c_str()) == 0 ? 1 : 0;
  }
  // The segment holding record older_kept + 1 is the one with the largest
  // base not exceeding it; everything before that segment is obsolete.
  uint64_t cut = 0;
  for (const uint64_t base : listing.segments) {
    if (base <= older_kept + 1 && base > cut) {
      cut = base;
    }
  }
  for (const uint64_t base : listing.segments) {
    if (base < cut) {
      const std::string path = dir_ + "/" + WalSegmentFileName(base);
      pruned += ::unlink(path.c_str()) == 0 ? 1 : 0;
    }
  }
  if (pruned > 0) {
    DSPOT_COUNT("durable.pruned_files", pruned);
  }
  return Status::Ok();
}

}  // namespace dspot
