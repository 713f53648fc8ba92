#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "durable/durable_file.h"
#include "obs/metrics.h"
#include "snapshot/codec.h"
#include "stream/stream_engine.h"
#include "timeseries/peaks.h"

namespace dspot {

namespace {

// "DSPOTCKP": the one stream-state file, written by SaveState and read by
// LoadState for --save-state/--load-state and for dspot_durable's
// checkpoints alike. Sibling of the "DSPOTSNP" model snapshot, with the
// same framing plus a sequence number: magic, format version, sequence,
// length-prefixed payload, CRC-32 trailer.
constexpr char kMagic[8] = {'D', 'S', 'P', 'O', 'T', 'C', 'K', 'P'};
constexpr uint32_t kStateFileVersion = 1;

}  // namespace

/// Befriended by StreamEngine: encodes/decodes the full engine state. The
/// encoding is canonical — it captures window *values*, never ring layout
/// (ring sizes are history-dependent; a restored engine re-derives a
/// compact layout) — and excludes wall-clock health and buffer accounting,
/// so engines that absorbed the same stream encode bit-identically at any
/// thread count.
class StreamStateCodec {
 public:
  static std::vector<uint8_t> Encode(const StreamEngine& engine) {
    const StreamOptions& opt = engine.options_;
    ByteWriter w;
    w.PutU64(static_cast<uint64_t>(opt.ticks_resolution));
    w.PutU64(static_cast<uint64_t>(opt.origin));
    w.PutU64(opt.ring_capacity);
    w.PutU64(opt.min_fit_ticks);
    w.PutU64(opt.refit_interval);
    w.PutU64(opt.forecast_horizon);
    // The format keeps slots for HasResidualBurst's two constants.
    w.PutDouble(kResidualBurstThreshold);
    w.PutU64(kResidualBurstQuorum);
    w.PutU64(opt.max_keywords);

    w.PutU64(engine.keywords_.size());
    for (const StreamEngine::KeywordState& ks : engine.keywords_) {
      w.PutString(ks.name);
      w.PutU32(ks.has_appends ? 1 : 0);
      w.PutU64(static_cast<uint64_t>(ks.last_timestamp));
      w.PutU64(static_cast<uint64_t>(ks.window_start));
      w.PutU64(ks.len);
      for (size_t i = 0; i < ks.len; ++i) {
        w.PutDouble(ks.ring[(ks.head + i) % ks.ring.size()]);
      }
      w.PutU32(ks.dirty ? 1 : 0);
      w.PutU32(ks.has_fit ? 1 : 0);
      if (ks.has_fit) {
        w.PutU64(static_cast<uint64_t>(ks.fit_window_start));
        w.PutKeywordModel(ks.model);
      }
      const StreamEngine::ForecastCell* cell =
          ks.forecast.load(std::memory_order_acquire);
      w.PutU32(cell != nullptr ? 1 : 0);
      if (cell != nullptr) {
        w.PutU64(static_cast<uint64_t>(
            cell->start_tick.load(std::memory_order_relaxed)));
        for (size_t k = 0; k < opt.forecast_horizon; ++k) {
          w.PutDouble(cell->values[k].v.load(std::memory_order_relaxed));
        }
      }
    }

    w.PutU64(engine.appends_);
    w.PutU64(engine.rejected_);
    w.PutU64(engine.evicted_ticks_);
    w.PutU64(engine.flushes_);
    w.PutU64(engine.cold_fits_);
    w.PutU64(engine.warm_refits_);
    w.PutU64(engine.escalations_);
    w.PutU64(engine.refit_errors_);
    return std::move(w.TakeBytes());
  }

  static StatusOr<std::unique_ptr<StreamEngine>> Decode(
      ByteReader* r, const StreamOptions& runtime) {
    StreamOptions opt = runtime;
    DSPOT_ASSIGN_OR_RETURN(const uint64_t resolution, r->GetU64());
    opt.ticks_resolution = static_cast<int64_t>(resolution);
    DSPOT_ASSIGN_OR_RETURN(const uint64_t origin, r->GetU64());
    opt.origin = static_cast<int64_t>(origin);
    DSPOT_ASSIGN_OR_RETURN(opt.ring_capacity,
                           r->GetCount(1u << 30, "ring capacity"));
    DSPOT_ASSIGN_OR_RETURN(opt.min_fit_ticks,
                           r->GetCount(1u << 30, "min fit ticks"));
    DSPOT_ASSIGN_OR_RETURN(opt.refit_interval,
                           r->GetCount(1u << 30, "refit interval"));
    DSPOT_ASSIGN_OR_RETURN(opt.forecast_horizon,
                           r->GetCount(1u << 24, "forecast horizon"));
    DSPOT_ASSIGN_OR_RETURN(const double burst_threshold, r->GetDouble());
    DSPOT_ASSIGN_OR_RETURN(const uint64_t burst_quorum, r->GetU64());
    if (burst_threshold != kResidualBurstThreshold ||
        burst_quorum != kResidualBurstQuorum) {
      return r->InvalidAt(
          "persisted residual-burst threshold or quorum differs from this "
          "build's constants; its keywords were triaged by other rules");
    }
    DSPOT_ASSIGN_OR_RETURN(opt.max_keywords,
                           r->GetCount(uint64_t{1} << 32, "max keywords"));

    auto engine = std::make_unique<StreamEngine>(opt);
    // The constructor normalizes its knobs; persisted options were already
    // normalized at save time, so any field the constructor had to adjust
    // describes a state this engine could never have written. Every
    // normalized field matters here — most of them size what follows in
    // the payload (a persisted forecast_horizon of 0, say, would be
    // normalized to 1 and make the decode loop read one double past every
    // stored forecast cell), so the check must run before the first
    // keyword is decoded.
    const StreamOptions& norm = engine->options_;
    const char* denormalized = nullptr;
    if (norm.ticks_resolution != opt.ticks_resolution) {
      denormalized = "ticks_resolution";
    } else if (norm.ring_capacity != opt.ring_capacity) {
      denormalized = "ring_capacity";
    } else if (norm.min_fit_ticks != opt.min_fit_ticks) {
      denormalized = "min_fit_ticks";
    } else if (norm.refit_interval != opt.refit_interval) {
      denormalized = "refit_interval";
    } else if (norm.forecast_horizon != opt.forecast_horizon) {
      denormalized = "forecast_horizon";
    } else if (norm.max_keywords != opt.max_keywords) {
      denormalized = "max_keywords";
    }
    if (denormalized != nullptr) {
      return r->InvalidAt(std::string("persisted ") + denormalized +
                          " fails its construction invariant (the engine "
                          "normalized it; refusing to decode state sized by "
                          "the raw value)");
    }

    DSPOT_ASSIGN_OR_RETURN(
        const uint64_t num_keywords,
        r->GetCount(engine->options_.max_keywords, "keyword count"));
    for (uint64_t i = 0; i < num_keywords; ++i) {
      engine->keywords_.emplace_back();
      StreamEngine::KeywordState& ks = engine->keywords_.back();
      DSPOT_ASSIGN_OR_RETURN(ks.name, r->GetString());
      if (ks.name.empty()) {
        return r->CorruptAt("empty keyword name");
      }
      if (!engine->index_
               .emplace(ks.name, static_cast<uint32_t>(i))
               .second) {
        return r->CorruptAt("duplicate keyword '" + ks.name + "'");
      }
      DSPOT_ASSIGN_OR_RETURN(const uint32_t has_appends, r->GetU32());
      ks.has_appends = has_appends != 0;
      DSPOT_ASSIGN_OR_RETURN(const uint64_t last_timestamp, r->GetU64());
      ks.last_timestamp = static_cast<int64_t>(last_timestamp);
      DSPOT_ASSIGN_OR_RETURN(const uint64_t window_start, r->GetU64());
      ks.window_start = static_cast<int64_t>(window_start);
      DSPOT_ASSIGN_OR_RETURN(
          ks.len, r->GetCount(engine->options_.ring_capacity, "window length"));
      if (ks.len > 0) {
        // Compact layout: the smallest geometric ring step that holds the
        // window (the original engine's ring may have been larger — layout
        // is runtime state, not stream state).
        const size_t size = std::min(
            std::max<size_t>(8, std::bit_ceil(ks.len)),
            std::max(engine->options_.ring_capacity, ks.len));
        ks.ring.assign(size, 0.0);
        engine->AddBufferBytes(static_cast<int64_t>(size * sizeof(double)));
        for (size_t t = 0; t < ks.len; ++t) {
          DSPOT_ASSIGN_OR_RETURN(ks.ring[t], r->GetDouble());
        }
      }
      DSPOT_ASSIGN_OR_RETURN(const uint32_t dirty, r->GetU32());
      ks.dirty = dirty != 0;
      DSPOT_ASSIGN_OR_RETURN(const uint32_t has_fit, r->GetU32());
      ks.has_fit = has_fit != 0;
      if (ks.has_fit) {
        DSPOT_ASSIGN_OR_RETURN(const uint64_t fit_start, r->GetU64());
        ks.fit_window_start = static_cast<int64_t>(fit_start);
        DSPOT_RETURN_IF_ERROR(
            r->GetKeywordModel(engine->options_.ring_capacity, &ks.model));
      }
      DSPOT_ASSIGN_OR_RETURN(const uint32_t has_forecast, r->GetU32());
      if (has_forecast != 0) {
        const size_t horizon = engine->options_.forecast_horizon;
        auto* cell = new StreamEngine::ForecastCell(horizon);
        DSPOT_ASSIGN_OR_RETURN(const uint64_t start_tick, r->GetU64());
        cell->start_tick.store(static_cast<int64_t>(start_tick),
                               std::memory_order_relaxed);
        for (size_t k = 0; k < horizon; ++k) {
          StatusOr<double> v = r->GetDouble();
          if (!v.ok()) {
            delete cell;
            return v.status();
          }
          cell->values[k].v.store(*v, std::memory_order_relaxed);
        }
        engine->AddBufferBytes(static_cast<int64_t>(
            sizeof(StreamEngine::ForecastCell) +
            horizon * sizeof(StreamEngine::ForecastCell::Cell)));
        ks.forecast.store(cell, std::memory_order_release);
      }
      if (ks.dirty) {
        engine->dirty_.push_back(static_cast<uint32_t>(i));
      }
    }

    DSPOT_ASSIGN_OR_RETURN(engine->appends_, r->GetU64());
    DSPOT_ASSIGN_OR_RETURN(engine->rejected_, r->GetU64());
    DSPOT_ASSIGN_OR_RETURN(engine->evicted_ticks_, r->GetU64());
    DSPOT_ASSIGN_OR_RETURN(engine->flushes_, r->GetU64());
    DSPOT_ASSIGN_OR_RETURN(engine->cold_fits_, r->GetU64());
    DSPOT_ASSIGN_OR_RETURN(engine->warm_refits_, r->GetU64());
    DSPOT_ASSIGN_OR_RETURN(engine->escalations_, r->GetU64());
    DSPOT_ASSIGN_OR_RETURN(engine->refit_errors_, r->GetU64());
    if (r->remaining() != 0) {
      return r->CorruptAt(std::to_string(r->remaining()) +
                          " trailing bytes after the payload");
    }
    return engine;
  }
};

std::vector<uint8_t> StreamEngine::EncodeState() const {
  return StreamStateCodec::Encode(*this);
}

Status StreamEngine::SaveState(const std::string& path, uint64_t seq,
                               const RetryPolicy& retry) const {
  DSPOT_SPAN("stream.save");
  const std::vector<uint8_t> payload = StreamStateCodec::Encode(*this);
  ByteWriter file;
  file.PutFileHeader(kMagic, kStateFileVersion);
  file.PutU64(seq);
  file.PutChecksummed(payload);
  // Atomic replacement: a crashed or failed save leaves any previous
  // state file exactly as it was, never a truncated hybrid.
  DSPOT_RETURN_IF_ERROR(
      AtomicWriteFile(path, file.bytes().data(), file.size(), retry));
  DSPOT_COUNT("stream.saves", 1);
  DSPOT_OBSERVE("stream.save_bytes", static_cast<double>(payload.size()));
  return Status::Ok();
}

StatusOr<std::unique_ptr<StreamEngine>> StreamEngine::LoadState(
    const std::string& path, const StreamOptions& runtime, uint64_t* seq) {
  DSPOT_SPAN("stream.load");
  DSPOT_ASSIGN_OR_RETURN(const std::string bytes, ReadFileBytes(path));
  ByteReader r(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size(),
               path);
  DSPOT_RETURN_IF_ERROR(
      r.GetFileHeader(kMagic, kStateFileVersion, "stream state"));
  DSPOT_ASSIGN_OR_RETURN(const uint64_t stored_seq, r.GetU64());
  if (seq != nullptr) {
    *seq = stored_seq;
  }
  DSPOT_ASSIGN_OR_RETURN(const std::span<const uint8_t> payload,
                         r.GetChecksummed());
  ByteReader payload_reader(payload.data(), payload.size(), path);
  return StreamStateCodec::Decode(&payload_reader, runtime);
}

StatusOr<std::unique_ptr<StreamEngine>> StreamEngine::DecodeState(
    const uint8_t* data, size_t size, const StreamOptions& runtime,
    const std::string& context) {
  ByteReader r(data, size, context);
  return StreamStateCodec::Decode(&r, runtime);
}

}  // namespace dspot
