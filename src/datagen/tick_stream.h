#ifndef DSPOT_DATAGEN_TICK_STREAM_H_
#define DSPOT_DATAGEN_TICK_STREAM_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace dspot {

/// Synthetic arrival-ordered tick stream for dspot_stream: ticks are
/// emitted in tick-major order (every keyword's record for tick t before
/// any record of tick t+1), matching how a real ingest pipeline delivers
/// bucketed activity. Two keyword classes:
///
///  * hot keywords (the first `hot_keywords` indices) emit every tick with
///    Poisson(base_rate) activity, boosted by `burst_strength` inside the
///    injected burst window — the keywords the escalation path must catch;
///  * quiet keywords emit only their first `quiet_ticks` ticks and then go
///    silent — the long tail that must stay on the O(1) append path.
///
/// Per-keyword counts come from Random::Child(keyword), so the stream is a
/// pure function of the config: the same records in the same order on
/// every run, at any consumer parallelism.
struct TickStreamConfig {
  size_t num_keywords = 16;
  size_t hot_keywords = 2;
  /// Ticks emitted per hot keyword.
  size_t num_ticks = 96;
  /// Ticks emitted per quiet keyword before it goes silent.
  size_t quiet_ticks = 8;
  /// Poisson mean of per-tick activity outside bursts.
  double base_rate = 20.0;
  /// Burst injection (hot keywords only): activity inside
  /// [burst_start, burst_start + burst_width) is scaled by burst_strength.
  double burst_strength = 6.0;
  size_t burst_start = 48;
  size_t burst_width = 4;
  /// Timestamp of tick t is origin + t * ticks_resolution.
  int64_t ticks_resolution = 1;
  int64_t origin = 0;
  uint64_t seed = 42;
};

/// One record of the stream, ready for StreamEngine::AppendById.
struct TickRecord {
  uint32_t keyword = 0;
  int64_t timestamp = 0;
  double count = 0.0;
};

/// Canonical name of stream keyword `keyword` ("kw000042").
std::string TickStreamKeywordName(uint32_t keyword);

/// Invokes `fn` for every record in arrival order without materializing
/// the stream — the form the stream gate tests use to drive 100k+
/// keywords.
void ForEachStreamTick(const TickStreamConfig& config,
                       const std::function<void(const TickRecord&)>& fn);

/// The materialized stream, for tests and replay files.
std::vector<TickRecord> GenerateTickStream(const TickStreamConfig& config);

/// Writes the stream as an event-log CSV ("keyword,location,timestamp,
/// count" with a single "all" location) replayable by `dspot_cli stream`.
/// Returns false on I/O failure.
bool WriteTickStreamCsv(const TickStreamConfig& config,
                        const std::string& path);

}  // namespace dspot

#endif  // DSPOT_DATAGEN_TICK_STREAM_H_
