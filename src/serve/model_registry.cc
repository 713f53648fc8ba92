#include "serve/model_registry.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <functional>
#include <limits>
#include <utility>

#include "durable/durable_file.h"
#include "guard/fault_injector.h"
#include "obs/metrics.h"
#include "snapshot/codec.h"

namespace dspot {

namespace {

// Spill-log layout, all integers little-endian:
//
//   file header  "DSPOTRGL", u32 version
//   record       u32 keyword length, u32 body length, u32 header CRC,
//                keyword bytes, body
//   body         u64 model length, the PutKeywordModel bytes of the
//                model, u32 CRC-32 of them (ByteWriter::PutChecksummed)
//
// The header CRC covers the record's first 12 bytes (CRC field zeroed)
// and its keyword, so the open-time scan can trust a record's extent and
// keyword without reading its body; the body carries its own CRC, checked
// on every reload. A log of another version is refused at open.
constexpr char kLogMagic[8] = {'D', 'S', 'P', 'O', 'T', 'R', 'G', 'L'};
constexpr uint32_t kLogVersion = 2;
constexpr uint64_t kLogHeaderBytes = 12;
constexpr uint64_t kRecordHeaderBytes = 12;
// Caps on a record's keyword and body, so a corrupt header cannot drive a
// huge read before its CRC is checked.
constexpr uint64_t kMaxKeywordBytes = 1u << 16;
constexpr uint64_t kMaxBodyBytes = 1u << 30;
// The open-time scan reads this much per record in one pread: the header
// and a keyword of up to 244 bytes (a longer one costs a second read).
constexpr size_t kScanPeekBytes = 256;
// Compaction copies live records through a buffer of about this size.
constexpr size_t kCompactChunkBytes = 1u << 20;

/// The spill log's file header.
std::vector<uint8_t> LogHeader() {
  ByteWriter w;
  w.PutFileHeader(kLogMagic, kLogVersion);
  return std::move(w).TakeBytes();
}

/// The header CRC of the record whose header and `keyword_len` keyword
/// bytes start at `record`, computed as if its CRC field were zero.
uint32_t HeaderCrc(uint8_t* record, size_t keyword_len) {
  uint8_t stored[4];
  std::memcpy(stored, record + 8, 4);
  std::memset(record + 8, 0, 4);
  const uint32_t crc = Crc32(record, kRecordHeaderBytes + keyword_len);
  std::memcpy(record + 8, stored, 4);
  return crc;
}

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::IoError(what + " failed: " + path + ": " +
                         std::strerror(errno));
}

/// Reads up to `n` bytes at `offset`; fewer only at end of file.
StatusOr<size_t> PreadFull(int fd, uint8_t* buf, size_t n, uint64_t offset,
                           const std::string& path) {
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::pread(fd, buf + got, n - got,
                              static_cast<off_t>(offset + got));
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ErrnoStatus("read at offset " + std::to_string(offset + got),
                         path);
    }
    if (r == 0) {
      break;
    }
    got += static_cast<size_t>(r);
  }
  return got;
}

/// An owned file descriptor.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  UniqueFd(UniqueFd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      if (fd_ >= 0) {
        ::close(fd_);
      }
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  int get() const { return fd_; }

 private:
  int fd_ = -1;
};

/// Opens `path` for reading and takes an exclusive advisory lock on it,
/// held until the descriptor closes.
StatusOr<UniqueFd> OpenLocked(const std::string& path) {
  UniqueFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (fd.get() < 0) {
    return ErrnoStatus("open", path);
  }
  if (::flock(fd.get(), LOCK_EX | LOCK_NB) != 0) {
    if (errno == EWOULDBLOCK) {
      return Status::FailedPrecondition(
          path + ": spill log is locked by another registry");
    }
    return ErrnoStatus("flock", path);
  }
  return fd;
}

}  // namespace

std::vector<uint8_t> EncodeSpillRecord(const ServedModel& model) {
  ByteWriter payload;
  payload.PutKeywordModel(model);
  ByteWriter record;
  record.PutU32(static_cast<uint32_t>(model.keyword.size()));
  // The body: u64 payload length, payload, u32 CRC.
  record.PutU32(static_cast<uint32_t>(8 + payload.size() + 4));
  record.PutU32(0);  // header CRC, filled in below
  record.PutBytes(model.keyword.data(), model.keyword.size());
  record.PutChecksummed(payload.bytes());
  std::vector<uint8_t> bytes = std::move(record).TakeBytes();
  StoreLe32(bytes.data() + 8, HeaderCrc(bytes.data(), model.keyword.size()));
  return bytes;
}

/// The append-only spill log: one file per spill directory, written only
/// by the registry holding its advisory lock. Appends and compaction
/// serialize on `mu_`. Loads take no lock of their own: they run under a
/// shard lock, and the file they read is replaced only by Compact, which
/// runs with every shard lock held.
class ModelRegistry::SpillLog {
 public:
  /// Called for each record the open-time scan finds, in log order;
  /// returns the length of the record it supersedes (0 for none).
  using Visitor = std::function<uint64_t(std::string keyword, SpillLoc loc)>;

  /// Opens or creates `dir`/kSpillLogName, locks it, and scans it.
  static StatusOr<std::unique_ptr<SpillLog>> Open(const std::string& dir,
                                                  bool durable,
                                                  const Visitor& visit);

  /// Appends `record`, which supersedes one of `replaced` bytes (0 for a
  /// new keyword), and returns where it landed. On failure none of it
  /// stays in the log.
  StatusOr<SpillLoc> Append(const std::vector<uint8_t>& record,
                            uint64_t replaced);

  /// True when dead bytes exceed live bytes (and no failed compaction
  /// asked to wait for more growth).
  bool CompactionDue();

  /// The model in the record at `loc`, which must be `keyword`'s.
  StatusOr<ServedModel> Load(const SpillLoc& loc,
                             std::string_view keyword) const;

  /// Rewrites the log with only the records at `live` (temp file +
  /// rename), moving each to its new offset. On failure the old log keeps
  /// serving and the next attempt waits until the log doubles.
  Status Compact(std::vector<SpillLoc*> live);

 private:
  SpillLog(std::string path, bool durable)
      : path_(std::move(path)), durable_(durable) {}

  Status Scan(const Visitor& visit);
  std::string RecordAt(uint64_t offset) const {
    return path_ + ": record at offset " + std::to_string(offset);
  }

  const std::string path_;
  const bool durable_;
  UniqueFd reader_;  ///< pread; holds the advisory lock
  std::mutex mu_;
  DurableFile writer_;  ///< O_APPEND; size() is the log's size
  uint64_t live_bytes_ = 0;
  uint64_t compact_floor_ = 0;
  /// Sticky: a failed append could not be undone, so a later record would
  /// land behind bytes the open-time scan stops at.
  Status broken_;
};

StatusOr<std::unique_ptr<ModelRegistry::SpillLog>>
ModelRegistry::SpillLog::Open(const std::string& dir, bool durable,
                              const Visitor& visit) {
  std::unique_ptr<SpillLog> log(
      new SpillLog(dir + "/" + kSpillLogName, durable));
  DSPOT_ASSIGN_OR_RETURN(log->writer_,
                         DurableFile::OpenAppend(log->path_, RetryPolicy()));
  DSPOT_ASSIGN_OR_RETURN(log->reader_, OpenLocked(log->path_));
  DSPOT_RETURN_IF_ERROR(log->Scan(visit));
  return log;
}

Status ModelRegistry::SpillLog::Scan(const Visitor& visit) {
  const uint64_t size = writer_.size();
  if (size < kLogHeaderBytes) {
    // A new log, or one torn inside its header: start it afresh.
    const std::vector<uint8_t> header = LogHeader();
    DSPOT_RETURN_IF_ERROR(writer_.Truncate(0));
    DSPOT_RETURN_IF_ERROR(writer_.WriteAll(header.data(), header.size()));
    if (durable_) {
      DSPOT_RETURN_IF_ERROR(writer_.Sync());
      DSPOT_RETURN_IF_ERROR(SyncDir(DirOf(path_)));
    }
    return Status::Ok();
  }
  uint8_t header[kLogHeaderBytes];
  DSPOT_ASSIGN_OR_RETURN(
      size_t n, PreadFull(reader_.get(), header, sizeof(header), 0, path_));
  ByteReader header_reader(header, n, path_);
  DSPOT_RETURN_IF_ERROR(
      header_reader.GetFileHeader(kLogMagic, kLogVersion, "spill log"));
  // Walk the record headers. The first record that is incomplete or fails
  // its header CRC ends the log: appends are sequential, so that is where
  // a crash tore the last write.
  std::vector<uint8_t> peek(kScanPeekBytes);
  uint64_t offset = kLogHeaderBytes;
  while (size - offset >= kRecordHeaderBytes) {
    const size_t want = static_cast<size_t>(
        std::min<uint64_t>(kScanPeekBytes, size - offset));
    DSPOT_ASSIGN_OR_RETURN(
        n, PreadFull(reader_.get(), peek.data(), want, offset, path_));
    if (n < kRecordHeaderBytes) {
      break;
    }
    const uint64_t keyword_len = LoadLe32(peek.data());
    const uint64_t body_len = LoadLe32(peek.data() + 4);
    const uint64_t length = kRecordHeaderBytes + keyword_len + body_len;
    if (keyword_len > kMaxKeywordBytes || body_len > kMaxBodyBytes ||
        length > size - offset) {
      break;
    }
    if (kRecordHeaderBytes + keyword_len > n) {
      peek.resize(kRecordHeaderBytes + keyword_len);
      DSPOT_ASSIGN_OR_RETURN(n, PreadFull(reader_.get(), peek.data(),
                                          peek.size(), offset, path_));
      if (n < peek.size()) {
        break;
      }
    }
    if (HeaderCrc(peek.data(), keyword_len) != LoadLe32(peek.data() + 8)) {
      break;
    }
    const auto keyword = peek.begin() + kRecordHeaderBytes;
    const uint64_t replaced = visit(
        std::string(keyword, keyword + keyword_len), SpillLoc{offset, length});
    live_bytes_ += length;
    live_bytes_ -= replaced;
    offset += length;
  }
  if (offset < size) {
    DSPOT_COUNT("serve.registry.torn_tail_bytes", size - offset);
    DSPOT_RETURN_IF_ERROR(writer_.Truncate(offset));
    if (durable_) {
      DSPOT_RETURN_IF_ERROR(writer_.Sync());
    }
  }
  return Status::Ok();
}

StatusOr<ModelRegistry::SpillLoc> ModelRegistry::SpillLog::Append(
    const std::vector<uint8_t>& record, uint64_t replaced) {
  std::lock_guard<std::mutex> lock(mu_);
  DSPOT_RETURN_IF_ERROR(broken_);
  const SpillLoc loc{writer_.size(), record.size()};
  Status status = writer_.WriteAll(record.data(), record.size());
  if (status.ok() && durable_) {
    status = writer_.Sync();
  }
  if (!status.ok()) {
    // Drop whatever part of the record reached the file, so the next
    // append starts on a record boundary.
    if (Status undo = writer_.Truncate(loc.offset); !undo.ok()) {
      broken_ = std::move(undo);
    }
    // Name the log: after a compaction the handle's own path is the
    // temp file it was written as.
    return Status(status.code(),
                  path_ + ": append failed: " + status.message());
  }
  live_bytes_ += loc.length;
  live_bytes_ -= replaced;
  return loc;
}

bool ModelRegistry::SpillLog::CompactionDue() {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t dead = writer_.size() - kLogHeaderBytes - live_bytes_;
  return dead > live_bytes_ && writer_.size() >= compact_floor_;
}

StatusOr<ServedModel> ModelRegistry::SpillLog::Load(
    const SpillLoc& loc, std::string_view keyword) const {
  const std::string context = RecordAt(loc.offset);
  std::vector<uint8_t> record(loc.length);
  DSPOT_ASSIGN_OR_RETURN(size_t got,
                         PreadFull(reader_.get(), record.data(), record.size(),
                                   loc.offset, path_));
  if (got < record.size()) {
    return Status::DataLoss(context + ": truncated (read " +
                            std::to_string(got) + " of " +
                            std::to_string(record.size()) + " bytes)");
  }
  const uint64_t keyword_len = LoadLe32(record.data());
  if (keyword_len != keyword.size() ||
      kRecordHeaderBytes + keyword_len + LoadLe32(record.data() + 4) !=
          loc.length ||
      HeaderCrc(record.data(), keyword_len) != LoadLe32(record.data() + 8) ||
      !std::equal(keyword.begin(), keyword.end(),
                  record.begin() + kRecordHeaderBytes)) {
    return Status::DataLoss(context +
                            ": record header does not match the index entry "
                            "for keyword '" +
                            std::string(keyword) + "'");
  }
  const size_t body = kRecordHeaderBytes + keyword_len;
  ByteReader body_reader(record.data() + body, record.size() - body, context);
  DSPOT_ASSIGN_OR_RETURN(const std::span<const uint8_t> payload,
                         body_reader.GetChecksummed());
  ByteReader r(payload.data(), payload.size(), context);
  ServedModel model;
  model.keyword = std::string(keyword);
  DSPOT_RETURN_IF_ERROR(
      r.GetKeywordModel(std::numeric_limits<uint64_t>::max(), &model));
  if (r.remaining() != 0 || body_reader.remaining() != 0) {
    return r.CorruptAt("trailing bytes after the keyword model");
  }
  return model;
}

Status ModelRegistry::SpillLog::Compact(std::vector<SpillLoc*> live) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string tmp = path_ + ".tmp";
  auto fail = [&](Status status) {
    ::unlink(tmp.c_str());
    compact_floor_ = 2 * writer_.size();
    DSPOT_COUNT("serve.registry.compaction_failures", 1);
    return status;
  };
  StatusOr<DurableFile> out = DurableFile::OpenAppend(tmp, RetryPolicy());
  if (!out.ok()) {
    return fail(out.status());
  }
  // A temp file left by a crash mid-compaction starts over.
  if (Status s = out->Truncate(0); !s.ok()) {
    return fail(std::move(s));
  }
  StatusOr<UniqueFd> reader = OpenLocked(tmp);
  if (!reader.ok()) {
    return fail(reader.status());
  }
  // Copy the live records in log order, so the new log is the old one
  // minus its dead records.
  std::sort(live.begin(), live.end(),
            [](const SpillLoc* a, const SpillLoc* b) {
              return a->offset < b->offset;
            });
  std::vector<uint64_t> offsets;
  offsets.reserve(live.size());
  std::vector<uint8_t> chunk = LogHeader();
  for (const SpillLoc* loc : live) {
    offsets.push_back(out->size() + chunk.size());
    const size_t at = chunk.size();
    chunk.resize(at + loc->length);
    StatusOr<size_t> got = PreadFull(reader_.get(), chunk.data() + at,
                                     loc->length, loc->offset, path_);
    if (!got.ok()) {
      return fail(got.status());
    }
    if (*got < loc->length) {
      return fail(Status::DataLoss(RecordAt(loc->offset) + ": truncated"));
    }
    if (chunk.size() >= kCompactChunkBytes) {
      if (Status s = out->WriteAll(chunk.data(), chunk.size()); !s.ok()) {
        return fail(std::move(s));
      }
      chunk.clear();
    }
  }
  if (Status s = out->WriteAll(chunk.data(), chunk.size()); !s.ok()) {
    return fail(std::move(s));
  }
  if (durable_) {
    if (Status s = out->Sync(); !s.ok()) {
      return fail(std::move(s));
    }
  }
  if (MaybeInjectFault(FaultSite::kIoRenameFailure)) {
    return fail(Status::IoError("rename failed: " + tmp + " -> " + path_ +
                                ": injected I/O error"));
  }
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    return fail(ErrnoStatus("rename " + tmp + " ->", path_));
  }
  // The handles were opened on the temp file, so they follow it to its
  // new name; the advisory lock moves with them.
  reader_ = std::move(*reader);
  writer_ = std::move(*out);
  for (size_t i = 0; i < live.size(); ++i) {
    live[i]->offset = offsets[i];
  }
  live_bytes_ = writer_.size() - kLogHeaderBytes;
  compact_floor_ = 0;
  DSPOT_COUNT("serve.registry.compactions", 1);
  if (durable_) {
    // The new log already serves; this only makes its name durable.
    return SyncDir(DirOf(path_));
  }
  return Status::Ok();
}

uint64_t ServedModel::ResidentBytes() const {
  uint64_t bytes = sizeof(ServedModel) + keyword.capacity();
  for (const Shock& s : shocks) {
    bytes += sizeof(Shock) + s.global_strengths.capacity() * sizeof(double) +
             s.local_strengths.rows() * s.local_strengths.cols() *
                 sizeof(double);
  }
  return bytes;
}

ModelRegistry::ModelRegistry(const RegistryOptions& options)
    : options_(options),
      shards_(std::max<size_t>(size_t{1}, options.num_shards)) {
  options_.num_shards = shards_.size();
  shard_budget_ = options_.max_resident_bytes / shards_.size();
  if (options_.spill_dir.empty()) {
    return;
  }
  StatusOr<std::unique_ptr<SpillLog>> log = SpillLog::Open(
      options_.spill_dir, options_.durable_spill,
      [this](std::string keyword, SpillLoc loc) -> uint64_t {
        Shard& shard = ShardFor(keyword);
        const auto [it, inserted] =
            shard.spilled.try_emplace(std::move(keyword), loc);
        const uint64_t replaced = inserted ? 0 : it->second.length;
        it->second = loc;
        return replaced;
      });
  if (log.ok()) {
    log_ = std::move(*log);
  } else {
    open_status_ = log.status();
  }
}

ModelRegistry::~ModelRegistry() = default;

ModelRegistry::Shard& ModelRegistry::ShardFor(std::string_view keyword) {
  return shards_[std::hash<std::string_view>{}(keyword) % shards_.size()];
}

const ModelRegistry::Shard& ModelRegistry::ShardFor(
    std::string_view keyword) const {
  return shards_[std::hash<std::string_view>{}(keyword) % shards_.size()];
}

void ModelRegistry::AdmitLocked(Shard& shard, ServedModel model) {
  const uint64_t bytes = model.ResidentBytes();
  auto it = shard.entries.find(model.keyword);
  if (it != shard.entries.end()) {
    shard.resident_bytes -= it->second.bytes;
    it->second.model = std::move(model);
    it->second.bytes = bytes;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru);
  } else {
    shard.lru.push_front(model.keyword);
    Entry entry;
    entry.model = std::move(model);
    entry.bytes = bytes;
    entry.lru = shard.lru.begin();
    shard.entries.emplace(shard.lru.front(), std::move(entry));
  }
  shard.resident_bytes += bytes;
  // Evict from the cold end until the shard fits its slice. The
  // just-admitted entry sits at the front and is never evicted (lru.size()
  // > 1 guard), so one oversized model degrades to a cache of one.
  while (shard.resident_bytes > shard_budget_ && shard.lru.size() > 1) {
    const std::string& victim = shard.lru.back();
    auto vit = shard.entries.find(victim);
    shard.resident_bytes -= vit->second.bytes;
    shard.entries.erase(vit);
    shard.lru.pop_back();
    ++shard.evictions;
    DSPOT_COUNT("serve.registry.evictions", 1);
  }
}

Status ModelRegistry::Put(const ServedModel& model) {
  Shard& shard = ShardFor(model.keyword);
  if (options_.spill_dir.empty()) {
    std::lock_guard<std::mutex> lock(shard.mu);
    AdmitLocked(shard, model);
    return Status::Ok();
  }
  if (log_ == nullptr) {
    return open_status_;
  }
  if (model.keyword.size() > kMaxKeywordBytes) {
    return Status::InvalidArgument(
        "keyword of " + std::to_string(model.keyword.size()) +
        " bytes exceeds the spill cap of " + std::to_string(kMaxKeywordBytes));
  }
  // Encode outside the shard lock; only the append serializes.
  const std::vector<uint8_t> record = EncodeSpillRecord(model);
  if (const uint64_t body =
          record.size() - kRecordHeaderBytes - model.keyword.size();
      body > kMaxBodyBytes) {
    return Status::InvalidArgument(
        "model '" + model.keyword + "' encodes to " + std::to_string(body) +
        " bytes, over the spill cap of " + std::to_string(kMaxBodyBytes));
  }
  bool compact = false;
  {
    // Append and index UNDER the shard lock: the record is in the log
    // before the entry is admitted (so an eviction at any later point can
    // reload it), and racing Puts of one keyword leave the resident entry
    // and the index on the same winner.
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.spilled.find(model.keyword);
    const uint64_t replaced =
        it == shard.spilled.end() ? 0 : it->second.length;
    DSPOT_ASSIGN_OR_RETURN(const SpillLoc loc, log_->Append(record, replaced));
    shard.spilled.insert_or_assign(model.keyword, loc);
    ++shard.spills;
    DSPOT_COUNT("serve.registry.spills", 1);
    AdmitLocked(shard, model);
    compact = log_->CompactionDue();
  }
  if (compact) {
    Compact();
  }
  return Status::Ok();
}

void ModelRegistry::Compact() {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (Shard& shard : shards_) {
    locks.emplace_back(shard.mu);
  }
  if (!log_->CompactionDue()) {
    return;  // another Put compacted first
  }
  std::vector<SpillLoc*> live;
  for (Shard& shard : shards_) {
    for (auto& [keyword, loc] : shard.spilled) {
      live.push_back(&loc);
    }
  }
  // A failure is counted and leaves the old log serving; the Put that
  // triggered the compaction has already succeeded.
  (void)log_->Compact(std::move(live));
}

StatusOr<ServedModel> ModelRegistry::Get(std::string_view keyword) {
  Shard& shard = ShardFor(keyword);
  std::lock_guard<std::mutex> lock(shard.mu);
  const std::string key(keyword);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    ++shard.hits;
    DSPOT_COUNT("serve.registry.hits", 1);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru);
    return it->second.model;
  }
  ++shard.misses;
  DSPOT_COUNT("serve.registry.misses", 1);
  if (!options_.spill_dir.empty() && log_ == nullptr) {
    return open_status_;
  }
  const auto loc = shard.spilled.find(key);
  if (loc == shard.spilled.end()) {
    return Status::NotFound("keyword '" + key + "' is not in the registry");
  }
  DSPOT_ASSIGN_OR_RETURN(ServedModel model, log_->Load(loc->second, keyword));
  ++shard.reloads;
  DSPOT_COUNT("serve.registry.reloads", 1);
  AdmitLocked(shard, std::move(model));
  return shard.entries.find(key)->second.model;
}

bool ModelRegistry::Resident(std::string_view keyword) const {
  const Shard& shard = ShardFor(keyword);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.entries.count(std::string(keyword)) != 0;
}

RegistryStats ModelRegistry::stats() const {
  RegistryStats stats;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.reloads += shard.reloads;
    stats.evictions += shard.evictions;
    stats.spills += shard.spills;
    stats.resident_bytes += shard.resident_bytes;
    stats.resident_models += shard.entries.size();
  }
  return stats;
}

}  // namespace dspot
