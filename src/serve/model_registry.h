#ifndef DSPOT_SERVE_MODEL_REGISTRY_H_
#define DSPOT_SERVE_MODEL_REGISTRY_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "core/params.h"

namespace dspot {

/// dspot_serve's model store: a sharded, LRU-evicted map from keyword to
/// its fitted single-keyword model, bounded by a resident-byte budget and
/// (optionally) backed by an append-only spill log.
///
/// The registry is a *cache over its spill log*, not the source of
/// truth: Put() appends the model's record to the spill log before the
/// entry becomes resident, eviction merely drops the resident copy, and a
/// Get() miss reloads — warm-starts — the model from its record. With a
/// spill directory configured, the set of resident entries is thus pure
/// performance state: any interleaving of hits, misses, and evictions
/// serves bit-identical models (keyword-model round trips are bit-exact
/// by the codec's contract). Without one, eviction forgets the model and
/// a later Get() reports NotFound.
///
/// The spill directory holds one file, kSpillLogName, whatever the
/// keywords or the shard count: a file header ("DSPOTRGL", version 2),
/// then one record per Put (a 12-byte header of keyword length, body
/// length and header CRC, the keyword bytes, and a body holding the
/// model's ByteWriter::PutKeywordModel bytes behind their own CRC). A log
/// of another version is refused at open. Each shard
/// indexes its keywords' latest records in memory. Opening a registry
/// over an existing log takes an advisory lock on it, rebuilds the index
/// from the record headers and truncates a torn tail. When dead records
/// (superseded by a later Put) outweigh live ones, a Put rewrites the log
/// with live records only.
///
/// THREAD SAFETY: all methods are safe from any thread. Keywords map to
/// shards by hash; operations on different shards never contend, except
/// that appends serialize on the log and a compaction holds every shard.

/// The spill log's file name inside RegistryOptions::spill_dir.
inline constexpr char kSpillLogName[] = "models.dspotlog";

struct RegistryOptions {
  /// Number of independently locked shards (clamped to >= 1).
  size_t num_shards = 8;
  /// Whole-registry resident budget, split evenly across shards. After
  /// every insert the owning shard evicts least-recently-used entries
  /// until it fits its slice (the just-touched entry is never evicted, so
  /// one oversized model degrades to cache-of-one instead of thrashing).
  uint64_t max_resident_bytes = 256ull << 20;
  /// Directory of the spill log; "" disables spill (evictions forget,
  /// reload never happens, no file is touched). The caller creates it.
  std::string spill_dir;
  /// When true, Put fsyncs the spill log before it returns, and a
  /// compaction fsyncs the new log and the directory around its rename.
  /// Default off: the log is a rebuildable cache, and a fit is pinned by
  /// whatever durability layer owns the request log, so paying an fsync
  /// per Put would buy nothing. Either way a process crash leaves at worst
  /// a torn last record, which the next open truncates.
  bool durable_spill = false;
};

/// One keyword's servable model: the keyword and its KeywordModel, whose
/// shocks are tagged keyword 0. A refit seeds from it as it is, and it
/// round-trips bit-exactly through its spill record.
struct ServedModel : KeywordModel {
  std::string keyword;

  /// Approximate resident footprint used against the byte budget.
  uint64_t ResidentBytes() const;
};

/// The spill-log record of `model`: the bytes Put appends. Exposed so
/// tests can plant records.
std::vector<uint8_t> EncodeSpillRecord(const ServedModel& model);

/// Monotonic counters (also exported as serve.registry.* obs metrics when
/// the registry is armed) plus a point-in-time residency snapshot.
struct RegistryStats {
  uint64_t hits = 0;       ///< Get served from a resident entry
  uint64_t misses = 0;     ///< Get found nothing resident
  uint64_t reloads = 0;    ///< misses recovered from the spill log
  uint64_t evictions = 0;  ///< entries dropped by the byte budget
  uint64_t spills = 0;     ///< records appended to the spill log
  uint64_t resident_bytes = 0;
  uint64_t resident_models = 0;
};

class ModelRegistry {
 public:
  /// Opens (or creates) the spill log when `options.spill_dir` is set; see
  /// open_status() for the outcome.
  explicit ModelRegistry(const RegistryOptions& options);
  ~ModelRegistry();

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// OK, or why the spill log could not be opened: another registry holds
  /// its lock, the file is not a spill log, or an I/O error. While it is
  /// not OK, Put and every Get miss fail with this status.
  const Status& open_status() const { return open_status_; }

  /// Inserts or replaces the keyword's model: appends its record to the
  /// spill log (when a spill dir is configured), makes it the shard's
  /// most-recent entry, and evicts LRU entries until the shard fits its
  /// budget slice. On failure nothing changes: the keyword's previous
  /// model, if any, still serves.
  Status Put(const ServedModel& model);

  /// A copy of the keyword's model. Resident entries are returned directly
  /// (and refreshed in the LRU order); a miss reloads the keyword's record
  /// from the spill log, re-admitting the model. NotFound only when the
  /// keyword was never Put (or, without a spill dir, was evicted); a
  /// record that cannot be read is IoError, one that does not decode to
  /// the keyword's model is DataLoss naming the log and record offset.
  StatusOr<ServedModel> Get(std::string_view keyword);

  /// True iff the keyword is resident right now (test/bench hook; the
  /// answer can be stale by the time the caller acts on it).
  bool Resident(std::string_view keyword) const;

  RegistryStats stats() const;

 private:
  class SpillLog;
  /// Where a keyword's latest record sits in the spill log.
  struct SpillLoc {
    uint64_t offset = 0;
    uint64_t length = 0;  ///< header + keyword + body
  };
  struct Entry {
    ServedModel model;
    uint64_t bytes = 0;
    std::list<std::string>::iterator lru;  ///< position in Shard::lru
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<std::string> lru;  ///< front = most recently used
    std::unordered_map<std::string, Entry> entries;
    /// Every keyword with a record in the spill log (empty without one).
    std::unordered_map<std::string, SpillLoc> spilled;
    uint64_t resident_bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t reloads = 0;
    uint64_t evictions = 0;
    uint64_t spills = 0;
  };

  Shard& ShardFor(std::string_view keyword);
  const Shard& ShardFor(std::string_view keyword) const;
  /// Inserts under the shard lock; the caller already spilled.
  void AdmitLocked(Shard& shard, ServedModel model);
  /// Rewrites the spill log with live records only, if still due. Takes
  /// every shard lock in index order; the caller holds none.
  void Compact();

  RegistryOptions options_;
  uint64_t shard_budget_ = 0;
  std::vector<Shard> shards_;
  /// Lock order: a shard's mutex, then the log's own. Null without a
  /// spill dir, or when opening failed (open_status_ says why).
  std::unique_ptr<SpillLog> log_;
  Status open_status_;
};

}  // namespace dspot

#endif  // DSPOT_SERVE_MODEL_REGISTRY_H_
