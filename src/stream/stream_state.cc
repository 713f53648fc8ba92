#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "durable/durable_file.h"
#include "obs/metrics.h"
#include "snapshot/codec.h"
#include "stream/stream_engine.h"

namespace dspot {

namespace {

// "DSPOTSTM": stream-engine state, sibling of the "DSPOTSNP" model
// snapshot. Same framing: magic, format version, length-prefixed payload,
// CRC-32 trailer.
constexpr char kMagic[8] = {'D', 'S', 'P', 'O', 'T', 'S', 'T', 'M'};
constexpr uint32_t kStreamStateVersion = 1;

// Decode-time allocation guards (the checksum would catch the corruption,
// but only after a bogus length prefix already drove a huge allocation).
constexpr uint64_t kMaxShocksPerKeyword = 1u << 16;
constexpr uint64_t kMaxStrengthsPerShock = 1u << 24;

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
    w.PutDouble(opt.burst_threshold);
    w.PutU64(opt.min_burst_ticks);
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
        w.PutU64(ks.fit_ticks);
        w.PutDouble(ks.params.population);
        w.PutDouble(ks.params.beta);
        w.PutDouble(ks.params.delta);
        w.PutDouble(ks.params.gamma);
        w.PutDouble(ks.params.i0);
        w.PutDouble(ks.params.growth_rate);
        w.PutU64(ks.params.growth_start);
        w.PutDouble(ks.fit_cost_bits);
        w.PutDouble(ks.fit_rmse);
        w.PutU64(ks.shocks.size());
        for (const Shock& shock : ks.shocks) {
          w.PutU64(shock.period);
          w.PutU64(shock.start);
          w.PutU64(shock.width);
          w.PutDouble(shock.base_strength);
          w.PutU64(shock.global_strengths.size());
          for (const double s : shock.global_strengths) {
            w.PutDouble(s);
          }
        }
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
    DSPOT_ASSIGN_OR_RETURN(opt.burst_threshold, r->GetDouble());
    DSPOT_ASSIGN_OR_RETURN(opt.min_burst_ticks,
                           r->GetCount(1u << 30, "min burst ticks"));
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
        DSPOT_ASSIGN_OR_RETURN(
            ks.fit_ticks,
            r->GetCount(engine->options_.ring_capacity, "fit ticks"));
        DSPOT_ASSIGN_OR_RETURN(ks.params.population, r->GetDouble());
        DSPOT_ASSIGN_OR_RETURN(ks.params.beta, r->GetDouble());
        DSPOT_ASSIGN_OR_RETURN(ks.params.delta, r->GetDouble());
        DSPOT_ASSIGN_OR_RETURN(ks.params.gamma, r->GetDouble());
        DSPOT_ASSIGN_OR_RETURN(ks.params.i0, r->GetDouble());
        DSPOT_ASSIGN_OR_RETURN(ks.params.growth_rate, r->GetDouble());
        DSPOT_ASSIGN_OR_RETURN(const uint64_t growth_start, r->GetU64());
        ks.params.growth_start = static_cast<size_t>(growth_start);
        DSPOT_ASSIGN_OR_RETURN(ks.fit_cost_bits, r->GetDouble());
        DSPOT_ASSIGN_OR_RETURN(ks.fit_rmse, r->GetDouble());
        DSPOT_ASSIGN_OR_RETURN(
            const uint64_t num_shocks,
            r->GetCount(kMaxShocksPerKeyword, "shock count"));
        ks.shocks.resize(num_shocks);
        for (Shock& shock : ks.shocks) {
          shock.keyword = 0;
          DSPOT_ASSIGN_OR_RETURN(shock.period, r->GetU64());
          DSPOT_ASSIGN_OR_RETURN(shock.start, r->GetU64());
          DSPOT_ASSIGN_OR_RETURN(shock.width, r->GetU64());
          if (shock.width == 0) {
            return r->CorruptAt("shock width 0");
          }
          DSPOT_ASSIGN_OR_RETURN(shock.base_strength, r->GetDouble());
          DSPOT_ASSIGN_OR_RETURN(
              const uint64_t num_strengths,
              r->GetCount(kMaxStrengthsPerShock, "strength count"));
          shock.global_strengths.resize(num_strengths);
          for (double& s : shock.global_strengths) {
            DSPOT_ASSIGN_OR_RETURN(s, r->GetDouble());
          }
        }
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

Status StreamEngine::SaveState(const std::string& path) const {
  DSPOT_SPAN("stream.save");
  const std::vector<uint8_t> payload = StreamStateCodec::Encode(*this);
  ByteWriter file;
  file.PutBytes(kMagic, sizeof(kMagic));
  file.PutU32(kStreamStateVersion);
  file.PutChecksummed(payload);
  // Atomic replacement: a crashed or failed save leaves any previous
  // state file exactly as it was, never a truncated hybrid.
  DSPOT_RETURN_IF_ERROR(
      AtomicWriteFile(path, file.bytes().data(), file.size()));
  DSPOT_COUNT("stream.saves", 1);
  DSPOT_OBSERVE("stream.save_bytes", static_cast<double>(payload.size()));
  return Status::Ok();
}

StatusOr<std::unique_ptr<StreamEngine>> StreamEngine::LoadState(
    const std::string& path, const StreamOptions& runtime) {
  DSPOT_SPAN("stream.load");
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    return Status::IoError("cannot open for reading: " + path);
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  if (!is && !is.eof()) {
    return Status::IoError("read failed: " + path);
  }
  const std::string bytes = buf.str();
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(path +
                                   ": not a dspot stream state (bad magic)");
  }
  const uint8_t* data = reinterpret_cast<const uint8_t*>(bytes.data());
  ByteReader r(data + sizeof(kMagic), bytes.size() - sizeof(kMagic), path);
  DSPOT_ASSIGN_OR_RETURN(const uint32_t version, r.GetU32());
  if (version != kStreamStateVersion) {
    return Status::InvalidArgument(
        path + ": unsupported stream state version " +
        std::to_string(version) + " (this build reads version " +
        std::to_string(kStreamStateVersion) + ")");
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
