#ifndef DSPOT_STREAM_STREAM_ENGINE_H_
#define DSPOT_STREAM_STREAM_ENGINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "core/global_fit.h"
#include "core/params.h"
#include "core/schedule_cache.h"
#include "durable/durable_file.h"
#include "guard/guard.h"

namespace dspot {

/// dspot_stream — bounded-memory streaming ingestion with incremental
/// shock detection and O(1) forecast reads.
///
/// The batch pipeline fits a complete keyword x location x time tensor;
/// the setting it models is a *stream* of timestamped activity records.
/// StreamEngine absorbs that stream directly:
///
///  * Append() is the hot path: it buckets a raw timestamp into a tick and
///    accumulates the count into the keyword's fixed-capacity ring buffer.
///    No fitting happens here — a quiet keyword pays O(1) per arrival,
///    amortized over the ring's geometric growth up to its cap.
///  * Flush() is the control path: keywords touched since the last flush
///    are triaged (in parallel, deterministically) into "leave alone",
///    "first cold fit", "scheduled warm refit with the shock schedule
///    pinned", or "burst-escalated refit with shock re-detection wide
///    open", and the selected refits run on the dspot_parallel pool under
///    an optional per-flush dspot_guard deadline.
///  * Forecast() / ForecastInto() are the read path: lock-free reads of
///    the latest published forecast window through a per-keyword seqlock,
///    O(horizon) — independent of stream length, keyword count, or any
///    in-flight flush.
///
/// Memory is bounded by construction: per keyword at most `ring_capacity`
/// ticks of history plus one `forecast_horizon` forecast cell, and at most
/// `max_keywords` keywords in total (appends beyond the cap are rejected,
/// never silently dropped). Ticks evicted from a full ring are gone — the
/// fitted model (parameters + shock inventory) is the compact summary that
/// survives them, and warm refits rebase it into the ring's current window
/// (see RebaseShocks in the implementation).
///
/// THREAD SAFETY: Append/Flush/Save form a single-writer interface — the
/// caller serializes them (one ingest thread). Forecast reads are safe
/// from any thread, concurrently with a flush. Within a flush, per-keyword
/// work fans out over `num_threads` workers with results landing in
/// pre-assigned slots, so the engine state after every flush is
/// bit-identical at any thread count.

/// Streaming knobs. Defaults favor weekly-tick workloads; the only fields
/// that change fitted *values* (rather than schedule/compute) are the fit
/// options themselves.
struct StreamOptions {
  /// Timestamp units per tick and the timestamp mapped to tick 0 (the
  /// event_log AggregationConfig convention). Resolution must be >= 1.
  int64_t ticks_resolution = 1;
  int64_t origin = 0;
  /// Max ticks of history retained per keyword. Rings grow geometrically
  /// from 8 slots up to this cap, so quiet keywords stay tiny. Must be
  /// >= min_fit_ticks.
  size_t ring_capacity = 256;
  /// Observed ticks a keyword needs before its first (cold) fit.
  /// Clamped up to 16, the fit layer's own minimum.
  size_t min_fit_ticks = 32;
  /// Scheduled maintenance: a fitted keyword is warm-refit (schedule
  /// pinned — no new shock proposals) once this many new ticks arrived
  /// since its last fit, even without a burst. A burst (HasResidualBurst,
  /// timeseries/peaks.h) escalates it to full shock re-detection sooner.
  size_t refit_interval = 32;
  /// Published forecast window length (ticks past the fitted range).
  size_t forecast_horizon = 16;
  /// Hard cap on interned keywords (total-memory bound). Appends for new
  /// keywords beyond the cap are rejected with InvalidArgument.
  size_t max_keywords = 1u << 20;
  /// Worker threads for flush triage + refits (0 = hardware concurrency,
  /// 1 = serial). Bit-identical engine state at any setting.
  size_t num_threads = 1;
  /// Wall-clock budget per Flush(), milliseconds; 0 = none. On expiry the
  /// flush still returns OK: refits already running return their best
  /// partial model and the report counts the keywords affected.
  double flush_budget_ms = 0.0;
  /// Cooperative cancellation for Flush() (returns Status::Cancelled).
  CancellationToken cancel;
  /// Underlying per-keyword fit knobs. `num_threads`, `guard`, and
  /// `max_shocks_per_keyword` are managed by the engine per flush;
  /// everything else is honored as given.
  GlobalFitOptions fit;
};

/// What one Flush() did.
struct StreamFlushReport {
  size_t keywords_triaged = 0;  ///< dirty keywords examined
  size_t cold_fits = 0;         ///< first fits
  size_t warm_refits = 0;       ///< scheduled refits, schedule pinned
  size_t escalations = 0;       ///< burst-escalated re-detections
  size_t refit_errors = 0;      ///< failed refits (old model kept)
  bool deadline_hit = false;    ///< the flush budget expired mid-flush
};

/// A published forecast window: `values[k]` predicts tick
/// `start_tick + k` on the engine's global tick axis.
struct StreamForecast {
  int64_t start_tick = 0;
  std::vector<double> values;
};

/// Monotonic engine statistics (also exported as dspot_obs metrics when
/// the registry is armed).
struct StreamStats {
  uint64_t appends = 0;
  uint64_t rejected = 0;
  uint64_t evicted_ticks = 0;
  uint64_t flushes = 0;
  uint64_t cold_fits = 0;
  uint64_t warm_refits = 0;
  uint64_t escalations = 0;
  uint64_t refit_errors = 0;
  size_t num_keywords = 0;
  size_t buffer_bytes = 0;       ///< current ring + forecast cell bytes
  size_t peak_buffer_bytes = 0;  ///< high-water mark of buffer_bytes
};

class StreamEngine {
 public:
  explicit StreamEngine(const StreamOptions& options);
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Interns `keyword` (creating its stream on first use) and returns its
  /// stable index. Fails with InvalidArgument on an empty name or once
  /// `max_keywords` streams exist.
  StatusOr<uint32_t> EnsureKeyword(std::string_view keyword);

  /// The index of an already-interned keyword, or kNpos.
  size_t KeywordIndex(std::string_view keyword) const;
  const std::string& KeywordName(uint32_t keyword) const;

  /// Appends one tick of activity: `timestamp` is bucketed into a tick via
  /// (timestamp - origin) / ticks_resolution and `count` accumulates into
  /// that tick's cell. `location` is folded into the keyword's global
  /// sequence (the stream models the paper's global level; the local
  /// decomposition remains a batch concern).
  ///
  /// Per keyword, timestamps must be non-decreasing: a record older than
  /// the keyword's latest accepted timestamp is rejected with a located
  /// InvalidArgument (never silently folded into the past — that would
  /// corrupt the training range behind the fitted model's back). Equal
  /// timestamps are fine (two events in the same instant accumulate).
  Status Append(std::string_view keyword, std::string_view location,
                int64_t timestamp, double count);

  /// Append by interned index — the allocation-free hot path for callers
  /// that resolved the keyword once (see EnsureKeyword).
  Status AppendById(uint32_t keyword, int64_t timestamp, double count);

  /// Triages every keyword touched since the last flush and runs the
  /// selected fits (see class comment). Deterministic at any
  /// `num_threads`; per-keyword fit failures keep the previous model and
  /// are counted, cancellation aborts with Status::Cancelled.
  StatusOr<StreamFlushReport> Flush();

  /// Copy of the keyword's latest published forecast. NotFound until the
  /// keyword's first successful fit. Safe from any thread.
  StatusOr<StreamForecast> Forecast(size_t keyword) const;

  /// Lock-free forecast read into caller-owned storage: `out` must hold
  /// exactly `forecast_horizon` values; `*start_tick` receives the global
  /// tick of out[0]. O(horizon), allocation-free, never blocks on a
  /// concurrent flush (seqlock retry). Safe from any thread.
  Status ForecastInto(size_t keyword, std::span<double> out,
                      int64_t* start_tick) const;

  /// True once `keyword` has a fitted model (and thus a forecast).
  bool HasFit(size_t keyword) const;

  /// The keyword's retained window as (first tick, values) — for tests,
  /// the CLI, and state persistence.
  StatusOr<StreamForecast> Window(size_t keyword) const;

  size_t num_keywords() const { return keywords_.size(); }
  const StreamOptions& options() const { return options_; }
  StreamStats stats() const;

  /// Canonical little-endian encoding of the complete engine state
  /// (options, every keyword stream, fitted models, published forecasts,
  /// counters). Bit-identical for engines that absorbed the same stream,
  /// at any thread count — the determinism oracle used by the tests.
  std::vector<uint8_t> EncodeState() const;

  /// Writes the engine state file so a restarted process can resume
  /// ingestion without refitting: "DSPOTCKP" magic, version, `seq`, then
  /// the EncodeState payload with its length and CRC-32, replaced
  /// atomically. It is also dspot_durable's checkpoint file, where `seq`
  /// is the last WAL record the state covers; a plain save writes 0.
  Status SaveState(const std::string& path, uint64_t seq = 0,
                   const RetryPolicy& retry = RetryPolicy()) const;

  /// Restores an engine from a SaveState file (a checkpoint included) and
  /// stores its sequence number in `*seq` when given. The usual snapshot
  /// error contract: bad magic/version -> InvalidArgument, truncation or
  /// checksum mismatch -> DataLoss with "<path>: offset" context.
  ///
  /// Semantic options (tick bucketing, ring capacity, fit and refit
  /// cadence) come from the file — they shaped the persisted state. A file
  /// whose residual-burst threshold or quorum is not this build's
  /// (timeseries/peaks.h) is InvalidArgument. Runtime options
  /// (`num_threads`, `flush_budget_ms`, `cancel`, and the fit knobs, which
  /// are not persisted) come from `runtime`; callers that want restored
  /// refits bit-identical to the original engine's must pass the same fit
  /// options the original used.
  static StatusOr<std::unique_ptr<StreamEngine>> LoadState(
      const std::string& path, const StreamOptions& runtime = StreamOptions(),
      uint64_t* seq = nullptr);

  /// Restores an engine from a raw EncodeState payload (no file header —
  /// the caller owns framing and checksums). Same options split as
  /// LoadState; `context` labels decode errors the way a path does.
  static StatusOr<std::unique_ptr<StreamEngine>> DecodeState(
      const uint8_t* data, size_t size, const StreamOptions& runtime,
      const std::string& context);

 private:
  friend class StreamStateCodec;

  /// Per-keyword forecast cell: single writer (the flushing thread),
  /// lock-free readers. `version` is even when stable; values are relaxed
  /// atomics so a torn read is impossible and the seqlock retry is
  /// data-race-free under TSan.
  struct ForecastCell {
    struct Cell {
      std::atomic<double> v{0.0};
    };
    explicit ForecastCell(size_t horizon) : values(new Cell[horizon]) {}
    std::atomic<uint64_t> version{0};
    std::atomic<int64_t> start_tick{0};
    std::unique_ptr<Cell[]> values;
  };

  struct KeywordState {
    KeywordState() = default;
    KeywordState(const KeywordState&) = delete;
    KeywordState& operator=(const KeywordState&) = delete;
    ~KeywordState() { delete forecast.load(std::memory_order_acquire); }

    std::string name;
    /// Ring buffer of per-tick counts covering global ticks
    /// [window_start, window_start + len); slot of tick t is
    /// (head + (t - window_start)) % ring.size(). Grows geometrically up
    /// to options.ring_capacity, then evicts from the front.
    std::vector<double> ring;
    size_t head = 0;
    size_t len = 0;
    int64_t window_start = 0;
    int64_t last_timestamp = 0;
    bool has_appends = false;  ///< any accepted append yet
    bool dirty = false;        ///< touched since the last flush
    /// Fitted model in fit-local coordinates: local tick 0 is global tick
    /// fit_window_start, the fit explains model.fit_ticks ticks, and the
    /// shocks are tagged keyword 0.
    bool has_fit = false;
    int64_t fit_window_start = 0;
    KeywordModel model;
    /// Schedule memo reused across this keyword's extrapolations/refits.
    ScheduleCache cache;
    /// Published forecast: set once (on the keyword's first fit) by the
    /// flushing thread, then mutated only through the seqlock. Atomic so
    /// concurrent Forecast readers can race the first publication; owned
    /// by this KeywordState (freed in the destructor).
    std::atomic<ForecastCell*> forecast{nullptr};
  };

  /// Flush triage verdicts.
  enum class Action : uint8_t { kNone = 0, kCold, kWarm, kEscalate };

  Status AppendTick(KeywordState* ks, int64_t tick, double count);
  void CopyWindow(const KeywordState& ks, std::vector<double>* out) const;
  Action Triage(KeywordState* ks) const;
  void PublishForecast(KeywordState* ks, std::vector<double>* scratch);
  void AddBufferBytes(int64_t delta);

  /// Heterogeneous string hashing so the Append hot path can look up a
  /// string_view keyword without materializing a std::string.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  StreamOptions options_;
  /// deque, not vector: interning a new keyword must not move existing
  /// states while reader threads hold forecast pointers into them.
  std::deque<KeywordState> keywords_;
  std::unordered_map<std::string, uint32_t, StringHash, std::equal_to<>>
      index_;
  std::vector<uint32_t> dirty_;  ///< append order; sorted at flush

  uint64_t appends_ = 0;
  uint64_t rejected_ = 0;
  uint64_t evicted_ticks_ = 0;
  uint64_t flushes_ = 0;
  uint64_t cold_fits_ = 0;
  uint64_t warm_refits_ = 0;
  uint64_t escalations_ = 0;
  uint64_t refit_errors_ = 0;
  size_t buffer_bytes_ = 0;
  size_t peak_buffer_bytes_ = 0;
};

}  // namespace dspot

#endif  // DSPOT_STREAM_STREAM_ENGINE_H_
